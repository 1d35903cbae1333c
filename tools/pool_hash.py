"""SHA-256 of the benchmark's pool results for seeds 7-9: one value that moves when any answer does.

Run from anywhere, with no arguments:

    python3 tools/pool_hash.py

It imports the package from this checkout's `src/` and the `exact-sweep`
and `sampled-verify` workloads from `perfbench/`, runs every input of
each pool once and checks it as the benchmark does.  For each seed in
turn, the hashed bytes are the 300 `exact-sweep` results, each written as

    "\\0".join([repr(verdict), repr(error), report JSON or "", repr(diagonals), repr(general)])

followed by the 250 `sampled-verify` report JSONs, all concatenated with
no separator, in UTF-8.  It prints the hex digest beside `RECORDED`,
the digest of the current specification, and the number of failed
checks, and writes no file: bytecode is not cached.  It exits 1 when a
check fails or the digest differs from `RECORDED`.  A recorded
specification change that moves the digest updates `RECORDED` in the
same commit.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py)

SEEDS = (7, 8, 9)
RECORDED = "5f0a170dbd4316dba217f56521e384a0d0f5556ede721d67921a109f99462f7b"


def main() -> int:
    modules = bench._import_package()
    digest = hashlib.sha256()
    failed = 0
    for seed in SEEDS:
        sweep = bench.ExactSweep(modules, seed)
        for i in range(sweep.pool):
            result = sweep.run(i)
            failed += sweep.check(i, result).failed
            verdict, error, report, diagonals, general = result
            json_text = "" if report is None else report.to_json()
            parts = [repr(verdict), repr(error), json_text, repr(diagonals), repr(general)]
            digest.update("\0".join(parts).encode())
        sampled = bench.SampledVerify(modules, seed)
        for i in range(sampled.pool):
            report = sampled.run(i)
            failed += sampled.check(i, report).failed
            digest.update(report.to_json().encode())
    computed = digest.hexdigest()
    print(f"{computed}  seeds {', '.join(map(str, SEEDS))}; failed {failed}")
    print(f"{RECORDED}  recorded; {'match' if computed == RECORDED else 'MISMATCH'}")
    return 1 if failed or computed != RECORDED else 0


if __name__ == "__main__":
    sys.exit(main())
