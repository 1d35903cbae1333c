"""The three workloads: one operation each, and its check against the oracle.

`run(i)` makes the program calls of operation i and is the only timed
part; `check(i, result)` compares the answer with the answer known by
construction and returns an `Outcome`.  Functions are looked up on their
modules at call time, so a traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import oracle
from inputs import curve_inputs, sweep_inputs


@dataclass(frozen=True)
class Outcome:
    kind: str  # the input class
    failed: bool = False
    # the outcome the README documents for sampled verdicts ("sampling cannot
    # prove avoidance"): a set that the curve meets reported "avoided
    # (sampled)".  Counted on its own, like a ConstructionError, not as failed.
    missed_hit: bool = False
    construction_error: bool = False
    sets_checked: int = 0
    sets_exact: int = 0
    note: str = ""


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def _oracle_curve(curve):
    return tuple(
        {
            tuple((c.re, c.im) for c in t.exponent): (t.coeff.re, t.coeff.im)
            for t in component.terms
        }
        for component in curve.components
    )


def _oracle_vector(coords):
    return tuple((c.re, c.im) for c in coords)


class _Deterministic:
    """Remembers each input's first report and compares every rerun with it."""

    def __init__(self) -> None:
        self.first: dict[int, bytes] = {}

    def same(self, index: int, report: bytes) -> bool:
        return self.first.setdefault(index, report) == report


# ---------------------------------------------------------------------------


class ExactSweep:
    """parse_scene, classify, verify of the witness, diagonals, gp-check."""

    pool = 300
    warmup = 10
    batch = 1

    def __init__(self, modules, seed: int) -> None:
        self.m = modules
        self.inputs = sweep_inputs(seed, self.pool)
        self.plan = modules.verifier.SamplingPlan(seed=seed)
        self.reports = _Deterministic()

    def run(self, i: int):
        m = self.m
        x = self.inputs[i % self.pool]
        scene = m.scene.parse_scene(x.text)
        hyperplanes = [scene.hyperplanes[name] for kind, name in scene.order if kind == "hyperplane"]
        real = scene.reals["S"]
        verdict = error = report = None
        try:
            verdict = m.arrangement.classify(hyperplanes, real)
        except m.curves.ConstructionError as exc:
            error = str(exc)
        if verdict is not None and verdict.witness is not None:
            report = m.verifier.verify(verdict.witness, scene, self.plan)
        diagonals = m.diagonals.enumerate_diagonals(hyperplanes)
        realified = [m.arrangement.realify(h) for h in hyperplanes]
        general = all(
            m.arrangement.triple_in_general_position(a, b, c)
            for a, b, c in combinations(realified, 3)
        )
        return verdict, error, report, diagonals, general

    def check(self, i: int, result) -> Outcome:
        x = self.inputs[i % self.pool]
        verdict, error, report, diagonals, general = result
        sets = len(report.results) if report else 0
        exact = sum(r.method == "exact" for r in report.results) if report else 0
        problems = []
        if x.kind == "obstructed":
            if error is None:
                problems.append("no ConstructionError for an obstructed form")
        elif error is not None:
            problems.append(f"unexpected ConstructionError: {error}")
        else:
            if {t.pair: t.rank for t in verdict.evidence} != x.ranks:
                problems.append("triple ranks differ from the determinants")
            problems += self._check_verdict(x, verdict, report)
        problems += self._check_diagonals(x, diagonals)
        if not general:
            problems.append("gp-check rejected a family in general position")
        payload = {
            "verdict": None if verdict is None else verdict.tag,
            "triple_ranks": None if verdict is None else [[*t.pair, t.rank] for t in verdict.evidence],
            "error": error,
            "report": None if report is None else report.to_dict(),
            "diagonals": [
                [[str(c) for c in d.p.coords], [str(c) for c in d.q.coords]] for d in diagonals
            ],
            "general_position": general,
        }
        if not self.reports.same(i % self.pool, _canonical(payload)):
            problems.append("report differs from the first run of the same input")
        return Outcome(
            x.kind,
            failed=bool(problems),
            construction_error=error is not None,
            sets_checked=sets,
            sets_exact=exact,
            note="; ".join(problems),
        )

    def _check_verdict(self, x, verdict, report) -> list[str]:
        if x.kind == "general":
            ok = verdict.tag == "AllCurvesConstant" and verdict.witness is None
            return [] if ok else [f"verdict {verdict.tag} for a general form"]
        if verdict.tag != "WitnessExists" or verdict.witness is None:
            return [f"verdict {verdict.tag} for a deficient form"]
        problems = []
        if not report.all_avoided() or any(r.method != "exact" for r in report.results):
            problems.append("witness not certified exactly")
        if report.projection_constant:
            problems.append("witness reported projectively constant")
        curve = _oracle_curve(verdict.witness)
        if any(len(oracle.compose(a, curve)) != 1 for a in x.rows):
            problems.append("witness meets a hyperplane")
        if not oracle.real_form_avoided(x.alpha, curve):
            problems.append("witness meets the real hyperplane")
        if oracle.projectively_constant(curve):
            problems.append("witness is projectively constant")
        return problems

    @staticmethod
    def _check_diagonals(x, diagonals) -> list[str]:
        partitions = {(d.partition.left, d.partition.right) for d in diagonals}
        if len(diagonals) != 3 or partitions != {((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))}:
            return ["wrong diagonal partitions"]
        for d in diagonals:
            p, q = _oracle_vector(d.p.coords), _oracle_vector(d.q.coords)
            form = _oracle_vector(d.form.coefficients)
            on = [oracle.dot(x.rows[i - 1], p) for i in d.partition.left]
            on += [oracle.dot(x.rows[i - 1], q) for i in d.partition.right]
            on += [oracle.dot(form, p), oracle.dot(form, q)]
            distinct = any(
                oracle.nonzero(oracle.det2([[p[a], p[b]], [q[a], q[b]]]))
                for a, b in combinations(range(3), 2)
            )
            if any(oracle.nonzero(v) for v in on) or not distinct:
                return [f"diagonal {d.partition} has wrong incidences"]
        return []

    def shares(self) -> dict[str, float]:
        return {k: sum(x.kind == k for x in self.inputs) / self.pool for k in ("general", "deficient", "obstructed")}


# ---------------------------------------------------------------------------


class SampledVerify:
    """parse_scene and verify under the default plan, for curves needing samples."""

    pool = 250
    warmup = 5
    batch = 1

    def __init__(self, modules, seed: int) -> None:
        self.m = modules
        self.inputs = curve_inputs(seed, self.pool)
        self.plan = modules.verifier.SamplingPlan(seed=seed)
        self.reports = _Deterministic()

    def run(self, i: int):
        m = self.m
        scene = m.scene.parse_scene(self.inputs[i % self.pool].text)
        return m.verifier.verify(scene.curves["f"], scene, self.plan)

    def check(self, i: int, report) -> Outcome:
        x = self.inputs[i % self.pool]
        problems = []
        missed = False
        results = report.results
        for n, r in enumerate(results[:4]):
            if n == x.hit:
                continue
            if (r.method, r.verdict) != ("exact", "avoided"):
                problems.append(f"H{n + 1}: {r.verdict} ({r.method}), expected avoided (exact)")
        if x.hit is None:
            if results[4].verdict != "avoided":
                problems.append(f"H: {results[4].verdict} on a set the curve avoids")
        else:
            r = results[x.hit]
            if (r.method, r.verdict) == ("sampled", "avoided"):
                missed = True
            elif r.verdict == "avoided":
                problems.append(f"H{x.hit + 1}: hit reported avoided ({r.method})")
            elif r.verdict != "violated" or r.violation_sample is None:
                problems.append(f"H{x.hit + 1}: {r.verdict}, expected violated")
            elif oracle.two_term_zeros_near(*x.zero_terms, complex(*r.violation_sample)) > 1e-6:
                problems.append(f"H{x.hit + 1}: violation sample is not a zero")
        if report.projection_constant:
            problems.append("nonconstant curve reported projectively constant")
        if not self.reports.same(i % self.pool, report.to_json().encode()):
            problems.append("report differs from the first run of the same input")
        return Outcome(
            x.kind,
            failed=bool(problems),
            missed_hit=missed,
            sets_checked=len(results),
            sets_exact=sum(r.method == "exact" for r in results),
            note="; ".join(problems),
        )

    def shares(self) -> dict[str, float]:
        return {
            k: sum(x.kind == k for x in self.inputs) / self.pool
            for k in ("dim4", "hit-inside", "hit-outside")
        }


# ---------------------------------------------------------------------------

# The nine commands of the README, with the exit code each must give.
README_COMMANDS = (
    (("gp-check", "scenes/standard4.scene"), 0),
    (("diagonals", "scenes/standard4.scene"), 0),
    (("classify", "scenes/degenerate.scene"), 0),
    (("witness", "--construction", "constant-projection", "scenes/five.scene"), 0),
    (("witness", "--construction", "dim4-subspace", "scenes/standard4.scene"), 0),
    (("witness", "--construction", "degenerate-pair", "scenes/degenerate.scene"), 0),
    (("witness", "--construction", "three-hyperplanes", "scenes/optimality.scene"), 0),
    (("verify", "--curve", "f", "scenes/verify_demo.scene"), 0),
    (("project", "--curve", "f", "--at", "1+i", "scenes/verify_demo.scene"), 0),
)

CHILD_TIMEOUT_S = 60  # a hung child fails its operation instead of the run

_RUN_CLI = "import sys; from curveavoid.cli import main; sys.exit(main())"

# Records when the interpreter starts running code and when the import is
# done, then traces cli.main and writes everything to the file named in argv[1].
_TRACE_CLI = """\
import time
started = time.monotonic()
import sys
import curveavoid.cli
imported = time.monotonic()
sys.path.insert(0, {here!r})
import json, tracer
t = tracer.Tracer()
t.install()
code = sys.modules["curveavoid.cli"].main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    json.dump({{"started": started, "imported": imported, "spans": t.spans}}, out)
sys.exit(code)
"""


def _methods(payload) -> list[str]:
    """The `method` of every set result in a CLI report."""
    if isinstance(payload, dict):
        if "method" in payload and "verdict" in payload:
            return [payload["method"]]
        return [m for v in payload.values() for m in _methods(v)]
    if isinstance(payload, list):
        return [m for v in payload for m in _methods(v)]
    return []


class CliCorpus:
    """A fresh `curveavoid` process per operation, over the README's commands."""

    warmup = 2
    batch = len(README_COMMANDS)  # whole cycles, so each command is timed equally often

    def __init__(self, modules, seed: int, root: Path, env: dict, scratch: Path) -> None:
        self.m = modules
        self.root, self.env = root, env
        self.span_file = scratch / "cli-spans.json"
        self.tracer = None  # set to a Tracer to trace the child processes
        rng = random.Random(f"cli-corpus/{seed}")
        self.order: list[int] = []
        for _ in range(64):
            cycle = list(range(len(README_COMMANDS)))
            rng.shuffle(cycle)
            self.order += cycle
        self.expected = [self._in_process(argv) for argv, _ in README_COMMANDS]
        self.child_start: list[float] = []
        self.child_import: list[float] = []

    def _in_process(self, argv) -> tuple[int, bytes]:
        """Exit code and stdout of cli.main, run from the checkout's root."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.m.cli.main(list(argv))
        return code, out.getvalue().encode()

    def command(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def run(self, i: int):
        argv = README_COMMANDS[self.command(i)][0]
        if self.tracer is None:
            cmd = [sys.executable, "-c", _RUN_CLI, *argv]
        else:
            boot = _TRACE_CLI.format(here=str(Path(__file__).resolve().parent))
            cmd = [sys.executable, "-c", boot, str(self.span_file), *argv]
            self.span_file.unlink(missing_ok=True)
        spawned = time.monotonic()
        done = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, check=False, timeout=CHILD_TIMEOUT_S
        )
        return spawned, done.returncode, done.stdout

    def check(self, i: int, result) -> Outcome:
        spawned, code, stdout = result
        n = self.command(i)
        argv, expected_code = README_COMMANDS[n]
        in_process_code, in_process_out = self.expected[n]
        problems = []
        if code != expected_code or in_process_code != expected_code:
            problems.append(f"exit {code} (in-process {in_process_code}), expected {expected_code}")
        if stdout != in_process_out:
            problems.append("stdout differs from in-process cli.main")
        if self.tracer is not None and self.span_file.exists():
            child = json.loads(self.span_file.read_text(encoding="utf-8"))
            self.tracer.extend(child["spans"], i)
            self.child_start.append(child["started"] - spawned)
            self.child_import.append(child["imported"] - child["started"])
        elif self.tracer is not None:
            problems.append("the traced process wrote no spans")
        methods = _methods(json.loads(in_process_out)) if in_process_out else []
        return Outcome(
            argv[0],
            failed=bool(problems),
            sets_checked=len(methods),
            sets_exact=methods.count("exact"),
            note=f"{' '.join(argv)}: " + "; ".join(problems) if problems else "",
        )

    def shares(self) -> dict[str, float]:
        return {}
