"""Run a workload repeatedly, one seed per run, and print the spread of
every metric: median, quartiles and the quartile distance as a share of
the median (the figure the end-to-end bounds in BENCHMARK.json are set
from).  Each run measures BENCHMARK.json's run_seconds, the length the
bounds hold for.

    python3 perfbench/steady.py --workload overlap_check --runs 10
    python3 perfbench/steady.py --workload tree_enum --runs 5 --first-seed 11
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values, shares = {}, set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("seed %d: exit code %d" % (seed, proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % (k, m["value"])
                                               for k, m in result["metrics"].items())), flush=True)
    print("%-36s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-36s %12.6g %12.6g %12.6g %8.4f %6s" % (name, med, q1, q3, spread,
                                                      "" if bound is None else bound))
    print("failed shares seen:", sorted(shares, key=str))


if __name__ == "__main__":
    main()
