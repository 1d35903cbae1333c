"""Exponential curves in C^3 avoiding hyperplane arrangements.

Exact linear algebra over the rationals and Gaussian rationals, projective
geometry in CP^2, general-position tests for real codimension-2 subspaces,
diagonal enumeration, witness-curve constructions, and a deterministic
avoidance verifier with a scene-file CLI.
"""

from .arrangement import (
    ALL_CURVES_CONSTANT,
    WITNESS_EXISTS,
    CollapsedRealForm,
    RealSubspace,
    TripleRank,
    Verdict,
    classify,
    collapse_real_form,
    extract_complex_hyperplane,
    holomorphic_coefficients,
    realify,
    triple_in_general_position,
    triple_ranks,
)
from .curves import (
    ConstructionError,
    ExpAffineCurve,
    ExpSum,
    apply_form,
    constant_value,
    exp_sum,
    exp_term,
    is_nowhere_zero,
    is_projectively_constant,
    witness_constant_projection,
    witness_degenerate_pair,
    witness_dim4_subspace,
    witness_three_hyperplanes,
)
from .diagonals import DiagonalLine, Partition, enumerate_diagonals, enumerate_partitions
from .exact_linalg import (
    GaussianRational,
    gq,
    kernel_complex,
    kernel_real,
    orthogonal_complement,
    rank_complex,
    rank_real,
)
from .projective import (
    ComplexHyperplane,
    ProjLine,
    ProjPoint,
    incident,
    line_through,
)
from .scene import ParseError, Scene, format_scene, parse_constant, parse_scene
from .verifier import (
    SamplingPlan,
    SetResult,
    VerificationReport,
    projective_value,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CURVES_CONSTANT",
    "WITNESS_EXISTS",
    "CollapsedRealForm",
    "ComplexHyperplane",
    "ConstructionError",
    "DiagonalLine",
    "ExpAffineCurve",
    "ExpSum",
    "GaussianRational",
    "ParseError",
    "Partition",
    "ProjLine",
    "ProjPoint",
    "RealSubspace",
    "SamplingPlan",
    "Scene",
    "SetResult",
    "TripleRank",
    "Verdict",
    "VerificationReport",
    "apply_form",
    "classify",
    "collapse_real_form",
    "constant_value",
    "enumerate_diagonals",
    "enumerate_partitions",
    "exp_sum",
    "exp_term",
    "extract_complex_hyperplane",
    "format_scene",
    "gq",
    "holomorphic_coefficients",
    "incident",
    "is_nowhere_zero",
    "is_projectively_constant",
    "kernel_complex",
    "kernel_real",
    "line_through",
    "orthogonal_complement",
    "parse_constant",
    "parse_scene",
    "projective_value",
    "rank_complex",
    "rank_real",
    "realify",
    "triple_in_general_position",
    "triple_ranks",
    "verify",
    "witness_constant_projection",
    "witness_degenerate_pair",
    "witness_dim4_subspace",
    "witness_three_hyperplanes",
]
