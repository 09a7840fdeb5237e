"""Digests of the benchmark's outputs, to show that a change keeps them.

For each seed and each workload of `perfbench/workloads.py`, imports the
package afresh from `src/` (as `perfbench/run.py` does), builds the seeded
inputs, runs one round and prints the first 16 hex digits of
`sha256(repr(outputs))`, with the count of output-check errors and of
operations that raised.  Set reprs depend on the hash seed, so the script
runs itself under PYTHONHASHSEED=0.

Usage, from the repository root:

    python tools/digests.py [seed ...]      # seeds 1 and 2 by default

Exits 1 when any check fails or any operation raises.  It is not part of the
test suite.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digests(seed: int):
    """(workload, digest, check errors, failed operations) per workload."""
    import run
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        mods = run.load_operadic()
        inputs = workload.setup(mods, seed)
        _, outputs, failed = workload.run_round(mods, inputs)
        errors = workload.check(mods, inputs, outputs)
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]
        yield name, digest, len(errors), failed


def main(argv) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    sys.path.insert(0, str(ROOT / "perfbench"))
    bad = 0
    for seed in [int(s) for s in argv] or [1, 2]:
        for name, digest, errors, failed in digests(seed):
            print("seed %d %-14s %s errors=%d failed=%d" % (seed, name, digest, errors, failed))
            bad += errors + failed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
