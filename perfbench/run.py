"""Benchmark of the curveavoid package and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop with one client, inputs made from --seed):

  cli-corpus      a fresh `curveavoid` process per operation, cycling through
                  the README's nine commands on scenes/
  exact-sweep     in-process parse_scene, classify, exact verify of the
                  witness, enumerate_diagonals and the gp-check triple loop,
                  on arrangements that are general, rank-deficient with a
                  witness, or obstructed (ConstructionError, exit 3)
  sampled-verify  in-process parse_scene and verify under the CLI's default
                  plan, on curves whose verdict needs sampling

Every answer is checked against an oracle that does not use the package.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it summarise the run.

With --trace 0 the metrics are the end-to-end ones:

  setup_s       median of three set-ups in the run, each a fresh interpreter
                importing curveavoid, input generation and a warm-up
  op_ref_p50    median cost of one operation, in refs: its latency divided
                by the recent median time of a fixed reference loop
                (`reference_seconds`), timed just before each operation on
                the same processor, so that drift in the processor's speed
                cancels out
  op_ref_p90    90th percentile of the same cost
  ops_per_kref  operations per thousand refs
  peak_rss_mb   largest resident memory (of any child on cli-corpus)

The summary above the JSON line also gives the wall-clock figures a user
feels, op_ms_p50, op_ms_p90 and ops_per_s, and failed_share, which is
failed / attempted.

With --trace 1 every operation runs once untraced and once with every
public function of every module wrapped (see tracer.py); the summary gives
the untraced end-to-end figures, and the metrics are the per-layer ones,
in ms or counts per operation, and trace_overhead_share.

`failed` counts wrong answers, exceptions and unexpected exit codes;
`correct` is false when there is any.  Two outcomes are counted on their own
and are not failures: a ConstructionError (exit 3) on an obstructed
arrangement, and the one the README documents for sampling ("sampling cannot
prove avoidance"), a hyperplane the curve meets reported avoided (sampled).
The second is reported as missed_hit_share in the summary and as the
per-layer metric verifier.missed_hit_share.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracer
from workloads import CliCorpus, ExactSweep, Outcome, SampledVerify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
MIN_TRACE_OPS = 10
# About half a millisecond per reference loop on a 2 GHz x86 core.  On a shared
# machine the processor's speed can drift by tens of percent over seconds
# to minutes; the median of the last few loops follows that drift.
REFERENCE_STEPS = 80
REFERENCE_WINDOW = 9
SETUP_REPEATS = 3
WORKLOADS = ("cli-corpus", "exact-sweep", "sampled-verify")
MODULES = ("cli", "scene", "exact_linalg", "projective", "arrangement", "diagonals", "curves", "verifier")

class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.kinds: Counter = Counter()
        self.missed: Counter = Counter()
        self.construction_errors = 0
        self.sets_checked = 0
        self.sets_exact = 0
        self.notes: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += 1
        self.kinds[outcome.kind] += 1
        self.construction_errors += outcome.construction_error
        self.sets_checked += outcome.sets_checked
        self.sets_exact += outcome.sets_exact
        self.missed[outcome.kind] += outcome.missed_hit
        if outcome.failed:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(outcome.note)

    def error(self, kind: str, note: str) -> None:
        self.add(Outcome(kind, failed=True, note=note))


def _one(workload, i: int, tally: Tally) -> float:
    """Run and check operation i; return its latency in seconds."""
    start = time.perf_counter()
    try:
        result = workload.run(i)
    except Exception:
        latency = time.perf_counter() - start
        tally.error("exception", traceback.format_exc(limit=3))
        return latency
    latency = time.perf_counter() - start
    tally.add(workload.check(i, result))
    return latency


def reference_seconds() -> float:
    """Time of one fixed pure-Python loop of Fraction arithmetic: one "ref".

    The loop uses nothing from the package, so no change to the program
    can alter it; it slows down and speeds up with the machine.
    """
    start = time.perf_counter()
    a = Fraction(1, 3)
    for k in range(1, REFERENCE_STEPS):
        a = a * Fraction(k + 1, k) - Fraction(1, k * k + 1)
    return time.perf_counter() - start


def closed_loop(workload, tally: Tally, seconds: float) -> tuple[list[float], list[float]]:
    """Run operations back to back for `seconds`, at least MIN_OPS, in whole batches.

    Returns each operation's latency in seconds and its cost in refs: the
    latency divided by the median of the last few reference loops, each
    timed just before an operation.
    """
    deadline = time.perf_counter() + seconds
    latencies: list[float] = []
    costs: list[float] = []
    refs: deque[float] = deque(maxlen=REFERENCE_WINDOW)
    while (
        time.perf_counter() < deadline
        or len(latencies) < MIN_OPS
        or len(latencies) % workload.batch
    ):
        refs.append(reference_seconds())
        latencies.append(_one(workload, len(latencies), tally))
        costs.append(latencies[-1] / statistics.median(refs))
    return latencies, costs


def paired_loop(workload, trace, tally: Tally, traced_tally: Tally, seconds: float):
    """Run each operation untraced and then traced, for `seconds` in all.

    Pairing the two runs of one input keeps drift in the machine's speed
    out of the tracing overhead, and checks that tracing leaves the report
    bytes unchanged.
    """
    cli = isinstance(workload, CliCorpus)
    deadline = time.perf_counter() + seconds
    plain: list[float] = []
    traced: list[float] = []
    while time.perf_counter() < deadline or len(traced) < MIN_TRACE_OPS:
        i = len(plain)
        plain.append(_one(workload, i, tally))
        trace.op = i
        if cli:
            workload.tracer = trace
        else:
            trace.install()
        try:
            traced.append(_one(workload, i, traced_tally))
        finally:
            if cli:
                workload.tracer = None
            else:
                trace.uninstall()
    return plain, traced


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _import_package():
    sys.path.insert(0, str(SRC))
    modules = SimpleNamespace(
        **{name: importlib.import_module(f"curveavoid.{name}") for name in MODULES}
    )
    if Path(modules.cli.__file__).resolve().parent != SRC / "curveavoid":
        raise ImportError(f"curveavoid imported from {modules.cli.__file__}, not from {SRC}")
    return modules


def set_up(name: str, modules, seed: int, env: dict) -> tuple[float, object, Tally]:
    """One set-up: a fresh interpreter's import, the inputs, and a warm-up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import curveavoid"], cwd=ROOT, env=env, check=True, timeout=60
    )
    if name == "cli-corpus":
        workload = CliCorpus(modules, seed, ROOT, env, SCRATCH)
    elif name == "exact-sweep":
        workload = ExactSweep(modules, seed)
    else:
        workload = SampledVerify(modules, seed)
    tally = Tally()
    # the first input twice: its two reports must be byte-identical
    for i in [0] + list(range(workload.warmup)):
        tally.add(workload.check(i, workload.run(i)))
    return time.perf_counter() - start, workload, tally


def _quantiles(latencies: list[float]) -> tuple[float, float]:
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[-1]


def _summary(name, seed, latencies, tally: Tally, setup_s, workload, costs=None) -> list[str]:
    p50, p90 = _quantiles(latencies)
    lines = [
        f"{name} seed {seed}: {len(latencies)} operations, {sum(latencies):.2f} s in the program,"
        f" setup {setup_s:.3f} s",
        f"  op_ms_p50 {1e3 * p50:.3f}  op_ms_p90 {1e3 * p90:.3f}"
        f"  ops_per_s {len(latencies) / sum(latencies):.3f}",
    ]
    if costs:
        c50, c90 = _quantiles(costs)
        lines.append(
            f"  op_ref_p50 {c50:.3f}  op_ref_p90 {c90:.3f}  ops_per_kref {1e3 * len(costs) / sum(costs):.3f}"
            f"  (one ref: median {1e3 * statistics.median(a / b for a, b in zip(latencies, costs)):.3f} ms)"
        )
    lines += [
        f"  failed_share {tally.failed / tally.attempted:.4f} ({tally.failed} of {tally.attempted})",
    ]
    shares = workload.shares()
    if shares:
        lines.append("  input classes: " + ", ".join(f"{k} {v:.2f}" for k, v in shares.items()))
    measured = ", ".join(f"{k} {v / tally.attempted:.3f}" for k, v in sorted(tally.kinds.items()))
    lines.append(f"  measured shares of operations: {measured}")
    if name == "exact-sweep":
        lines.append(f"  construction_error share {tally.construction_errors / tally.attempted:.3f}")
    if name == "sampled-verify":
        lines.append(
            f"  missed_hit_share {sum(tally.missed.values()) / tally.attempted:.4f};"
            " hits reported avoided (sampled): "
            + ", ".join(f"{k} {tally.missed[k]} of {tally.kinds[k]}" for k in ("hit-inside", "hit-outside"))
        )
    lines += [f"  failure: {note}" for note in tally.notes]
    return lines


def _peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli-corpus" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "curveavoid" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'curveavoid'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # the README's commands name scenes/ relative to the root
    if hasattr(os, "sched_setaffinity"):
        # One processor for the benchmark and its children, so that the
        # reference loop runs where the operations run.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    modules = _import_package()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    env = _child_env()

    setups = [set_up(args.workload, modules, args.seed, env) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(s for s, _, _ in setups)
    workload = setups[-1][1]
    correct = all(t.failed == 0 for _, _, t in setups)
    tally = Tally()

    if not args.trace:
        latencies, costs = closed_loop(workload, tally, args.seconds)
        p50, p90 = _quantiles(costs)
        values = {
            "setup_s": setup_s,
            "ops_per_kref": 1e3 * len(costs) / sum(costs),
            "op_ref_p50": p50,
            "op_ref_p90": p90,
            "peak_rss_mb": _peak_rss_mb(args.workload),
        }
        print("\n".join(_summary(args.workload, args.seed, latencies, tally, setup_s, workload, costs)))
    else:
        trace = tracer.Tracer()
        traced_tally = Tally()
        untraced, traced = paired_loop(workload, trace, tally, traced_tally, args.seconds)
        print("\n".join(_summary(args.workload, args.seed, untraced, tally, setup_s, workload)))
        print(f"  peak_rss_mb {_peak_rss_mb(args.workload):.1f}")
        trace.dump(str(SCRATCH / f"spans-{args.workload}.jsonl"))
        values = tracer.layer_metrics(trace.spans, len(traced))
        cli = isinstance(workload, CliCorpus)
        values["cli.interpreter_ms"] = 1e3 * statistics.fmean(workload.child_start) if cli else 0.0
        values["cli.import_ms"] = 1e3 * statistics.fmean(workload.child_import) if cli else 0.0
        values["verifier.sets_checked"] = traced_tally.sets_checked / len(traced)
        values["verifier.exact_share"] = (
            traced_tally.sets_exact / traced_tally.sets_checked if traced_tally.sets_checked else 0.0
        )
        base = statistics.median(untraced)
        values["trace_overhead_share"] = (statistics.median(traced) - base) / base
        print(f"  traced: {len(traced)} operations, {len(trace.spans)} spans")
        tally.attempted += traced_tally.attempted
        tally.failed += traced_tally.failed
        tally.missed += traced_tally.missed
        values["verifier.missed_hit_share"] = sum(tally.missed.values()) / tally.attempted

    # names and units of the metrics come from BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
    correct = correct and tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
