"""Exponential curves in C^3 avoiding hyperplane arrangements.

Exact linear algebra over the rationals and Gaussian rationals, projective
geometry in CP^2, general-position tests for real codimension-2 subspaces,
diagonal enumeration, witness-curve constructions, and a deterministic
avoidance verifier with a scene-file CLI.

The modules are the API: import each name from the module that defines
it.  Importing the package itself loads none of them.
"""

__version__ = "0.1.0"
