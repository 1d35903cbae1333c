"""Python opcodes and calls per operation on the benchmark's seed-7 pools: counts that do not drift.

Run from anywhere:

    python3 tools/op_counts.py [--ops N] [--warmup N]

It imports the package from this checkout's `src/` and the `exact-sweep`
and `sampled-verify` workloads from `perfbench/`, as `tools/pool_hash.py`
does, and runs each workload's seed-7 inputs in pool order: `--warmup`
operations untraced, then `--ops` operations (100 each by default) under
`sys.settrace` with opcode events on.  For each workload it prints the
opcodes and Python-level calls (generator resumptions included) per
operation, and each source file's share of the opcodes, largest first
(`fractions` is the standard library's, `workloads` perfbench's).
Timing varies several-fold between runs on a shared machine; these
counts do not, so they show where a change saves interpreter work.
They do vary across Python versions, so compare them only on one.  Code
written in C (`math.gcd`, dict methods) runs no Python opcodes and is
not counted.  It writes no file: bytecode is not cached.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py)

SEED = 7


def count(workload, start: int, ops: int) -> tuple[Counter, int]:
    """Opcodes executed per code file, and Python calls, over operations start .. start + ops - 1."""
    opcodes: Counter = Counter()
    calls = 0

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code.co_filename] += 1
        return local

    def trace(frame, event, arg):
        nonlocal calls
        calls += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(trace)
    try:
        for i in range(start, start + ops):
            workload.run(i)
    finally:
        sys.settrace(None)
    return opcodes, calls


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=100, help="operations counted (default 100)")
    parser.add_argument("--warmup", type=int, default=100, help="operations run first, uncounted (default 100)")
    args = parser.parse_args(argv)
    if args.ops < 1 or args.warmup < 0:
        parser.error("--ops must be positive and --warmup nonnegative")
    modules = bench._import_package()
    print(f"Python {sys.version.split()[0]}, seed {SEED}, {args.ops} operations after {args.warmup}")
    for name, cls in (("exact-sweep", bench.ExactSweep), ("sampled-verify", bench.SampledVerify)):
        workload = cls(modules, SEED)
        for i in range(args.warmup):
            workload.run(i)
        opcodes, calls = count(workload, args.warmup, args.ops)
        total = sum(opcodes.values())
        print(f"{name}: {total / args.ops:,.0f} opcodes and {calls / args.ops:,.0f} calls per operation")
        shares = Counter()
        for path, n in opcodes.items():
            shares[Path(path).name.removesuffix(".py")] += n
        print("  " + ", ".join(f"{module} {100 * n / total:.1f} %" for module, n in shares.most_common()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
