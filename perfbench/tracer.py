"""Spans around calls into the package's modules, recorded from outside it.

`Tracer.install` replaces every public function of each layer module with
a wrapper that records a span (name, start, end, parent span, operation
id), in every module namespace that binds the function: `rank_real` is
wrapped as `exact_linalg.rank_real`, `arrangement.rank_real` and
`curves.rank_real` alike.  Spans stay in memory until `dump`.

Calls to private helpers (`_rref`, the verifier's sampling functions) and
to the per-element coercions in `UNTRACED` are not spans: their time falls
into the self time of the public caller.  Generator functions are not
wrapped either, since a wrapper would time only the generator's creation.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "scene",
    "exact_linalg",
    "projective",
    "arrangement",
    "diagonals",
    "curves",
    "verifier",
)

# Called once per arithmetic element, exponential term or sample point;
# tracing them would multiply the cost of every Gaussian-rational operation.
UNTRACED = frozenset(
    {
        "exact_linalg.gq",
        "curves.poly",
        "curves.poly_constant",
        "curves.poly_eval",
        "curves.poly_eval_derivative",
        "curves.poly_sub",
        "curves.exp_constant",
        "curves.exp_term",
        "curves.exp_sum",
        "curves.evaluate_sum",
        "curves.evaluate_sum_derivative",
    }
)

WITNESS_CONSTRUCTORS = (
    "witness_constant_projection",
    "witness_dim4_subspace",
    "witness_degenerate_pair",
    "witness_three_hyperplanes",
)
CERTIFICATES = frozenset(
    "curves." + n
    for n in (
        "apply_form",
        "is_identically_zero",
        "is_nowhere_zero",
        "constant_value",
        "is_projectively_constant",
    )
)
EXACT_LINALG_ENTRY = frozenset(
    "exact_linalg." + n
    for n in (
        "rank_real",
        "rank_complex",
        "kernel_real",
        "kernel_complex",
        "solve_complex",
        "inverse_complex",
        "orthogonal_complement",
    )
)

# span fields
NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "curveavoid") -> None:
        """Wrap the public functions of every layer module of `package`."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                    or name in UNTRACED
                ):
                    continue
                wrapped[id(fn)] = self.wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def extend(self, spans: list[list], op: int) -> None:
        """Append spans recorded elsewhere (a child process) as operation `op`."""
        offset = len(self.spans)
        for span in spans:
            name, start, end, parent, _, error = span
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op, error])


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer times (ms per operation) and counts (per operation).

    A span's self time is its duration minus its direct children's; the
    spans of one thread never overlap, so the children cover disjoint parts
    of the parent.  An inclusive layer time adds only outermost spans of
    the group, so nested calls within the group are not counted twice.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def outermost(index: int, names) -> bool:
        parent = spans[index][PARENT]
        while parent >= 0:
            if match(spans[parent][NAME], names):
                return False
            parent = spans[parent][PARENT]
        return True

    def match(name: str, names) -> bool:
        return names(name) if callable(names) else name in names

    def inclusive_ms(names) -> float:
        total = sum(
            s[END] - s[START]
            for i, s in enumerate(spans)
            if match(s[NAME], names) and outermost(i, names)
        )
        return 1e3 * total / ops

    def self_ms(names) -> float:
        total = sum(
            s[END] - s[START] - child_time[i] for i, s in enumerate(spans) if match(s[NAME], names)
        )
        return 1e3 * total / ops

    def count(names) -> int:
        return sum(1 for s in spans if match(s[NAME], names))

    def layer(prefix):
        return lambda name: name.startswith(prefix + ".")

    constructors = {"curves." + n for n in WITNESS_CONSTRUCTORS}
    constructions = count(constructors)
    construction_errors = sum(
        1 for s in spans if s[NAME] in constructors and s[ERROR] == "ConstructionError"
    )
    out = {
        "cli.work_ms": inclusive_ms({"cli.main"}),
        "exact_linalg.calls": count(EXACT_LINALG_ENTRY) / ops,
        "exact_linalg.ms": inclusive_ms(EXACT_LINALG_ENTRY),
        "arrangement.classify_ms": inclusive_ms({"arrangement.classify"}),
        "arrangement.triple_ranks_ms": inclusive_ms({"arrangement.triple_ranks"}),
        "arrangement.self_ms": self_ms(layer("arrangement")),
        "arrangement.realify_calls": count({"arrangement.realify"}) / ops,
        "diagonals.enumerate_ms": inclusive_ms({"diagonals.enumerate_diagonals"}),
        "projective.ms": inclusive_ms(layer("projective")),
    }
    for n in WITNESS_CONSTRUCTORS:
        out[f"curves.{n}_ms"] = inclusive_ms({"curves." + n})
    out.update(
        {
            "curves.certificate_ms": inclusive_ms(CERTIFICATES),
            "curves.construction_error_share": construction_errors / constructions
            if constructions
            else 0.0,
            "scene.parse_ms": inclusive_ms({"scene.parse_scene", "scene.parse_constant"}),
            "scene.format_ms": inclusive_ms(lambda name: name.startswith("scene.format_")),
            "verifier.verify_ms": inclusive_ms({"verifier.verify"}),
            "verifier.self_ms": self_ms({"verifier.verify"}),
        }
    )
    return out
