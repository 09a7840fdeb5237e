"""Benchmark of `operadic`: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload tree_enum --seed 1 --seconds 10 --trace 0

Set-up (imports plus seeded inputs) is repeated SETUP_REPS times with the
package re-imported each time, and its median is `setup_s`.  The timed part
then runs whole rounds of the workload's operations until `--seconds` have
passed, at least one round.  Outputs of the first round are checked against
computations made apart from the measured code; later rounds must repeat
them exactly.

With --trace 0 the last line holds the end-to-end metrics.  With --trace 1
the untraced rounds are followed by one traced round, whose spans give calls
and self time per wrapped function.  The output checks then run again, still
traced; the functions that only the checks call report theirs under
`check.<module>.<function>`.  The spans are written to
perfbench_out/spans_<workload>.tsv.

An operation that raises is counted in `failed` and makes the run incorrect.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 7
# wrapped functions that no round calls and the output checks of
# module_walks do, through the counit and the direct carrier operations
CHECK_ONLY = ("exactgeom.glue_shared", "exactgeom.epsilon_glue", "algebra.glued_mu_s",
              "algebra.glued_mu_direct", "algebra.glued_circ", "freeconstr.evaluate_ib",
              "freeconstr.evaluate_b", "bv.bv_eta", "bv.bv_normalize", "bv.bv_tau")
MODULES = ("rng", "sampling", "trees", "exactgeom", "algebra", "freeconstr", "bv")


def load_operadic():
    """Import the package from this checkout's src/, afresh."""
    for name in [n for n in sys.modules if n == "operadic" or n.startswith("operadic.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = SimpleNamespace()
    for name in MODULES:
        mod = importlib.import_module("operadic." + name)
        if Path(mod.__file__).resolve().parent != SRC / "operadic":
            raise ImportError("operadic.%s was not loaded from %s" % (name, SRC))
        setattr(mods, name, mod)
    return mods


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def same_outputs(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_outputs(x, y) for x, y in zip(a, b))
    return a == b


class Rounds:
    """Whole rounds until `seconds` have passed (one round when traced).
    Only the first round's outputs are kept; later rounds are compared with
    them as they finish."""

    def __init__(self, workload, mods, inputs, seconds, tracer=None, reference=None):
        self.round_s, self.op_s, self.failed, self.mismatched = [], [], 0, []
        self.outputs = reference
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            times, outputs, failed = workload.run_round(mods, inputs, tracer)
            self.round_s.append(time.perf_counter() - t0)
            self.op_s += times
            self.failed += failed
            if self.outputs is None:
                self.outputs = outputs
            elif not same_outputs(outputs, self.outputs):
                self.mismatched.append(len(self.round_s))
            if tracer is not None or time.perf_counter() - start >= seconds:
                return


def layer_metrics(tracer, round_calls, round_self_ns, traced_round_s, untraced_round_s, emitted):
    """Calls and self time of the traced round, and of the output checks
    for the CHECK_ONLY functions; the tracer's totals cover both."""
    metrics = {}
    calls = dict(zip(tracer.names, round_calls))
    for idx, name in enumerate(tracer.names):
        metrics[name + ".calls"] = {"value": round_calls[idx], "unit": "count"}
        metrics[name + ".self_s"] = {"value": round_self_ns[idx] / 1e9, "unit": "s"}
    for name in CHECK_ONLY:
        idx = tracer.names.index(name)
        metrics["check.%s.calls" % name] = {
            "value": tracer.calls[idx] - round_calls[idx], "unit": "count"}
        metrics["check.%s.self_s" % name] = {
            "value": (tracer.self_ns[idx] - round_self_ns[idx]) / 1e9, "unit": "s"}
    inside = tracer.count_within("trees.validate_labeling", "trees.enumerate_trees")
    metrics["trees.accept_ratio"] = {"value": emitted / inside if inside else 0.0, "unit": "ratio"}
    n_cfg = calls["exactgeom.validate_config"]
    metrics["exactgeom.boxes_per_config"] = {
        "value": calls["exactgeom.common_box"] / n_cfg if n_cfg else 0.0, "unit": "ratio"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_round_s / untraced_round_s - 1.0), "unit": "%"}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    setup_times = []
    try:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            mods = load_operadic()
            inputs = workload.setup(mods, args.seed)
            setup_times.append(time.perf_counter() - t0)
    except ImportError as exc:
        print("perfbench: cannot import operadic from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2

    rounds = Rounds(workload, mods, inputs, args.seconds)
    errors = workload.check(mods, inputs, rounds.outputs)
    errors += ["round %d outputs differ from round 1" % n for n in rounds.mismatched]
    round_s = statistics.median(rounds.round_s)
    attempted, failed = len(rounds.op_s), rounds.failed

    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = Rounds(workload, mods, inputs, args.seconds, tracer, rounds.outputs)
        round_calls, round_self_ns = list(tracer.calls), list(tracer.self_ns)
        tracer.op_id = -1  # spans of the output checks
        errors += workload.check(mods, inputs, rounds.outputs)
        if traced.mismatched:
            errors.append("traced outputs differ from untraced outputs")
        attempted += len(traced.op_s)
        failed += traced.failed
        emitted = sum(len(o.trees) for o in rounds.outputs if hasattr(o, "trees"))
        metrics = layer_metrics(tracer, round_calls, round_self_ns, traced.round_s[0], round_s,
                                emitted)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / ("spans_%s.tsv" % args.workload))
    else:
        op_s = rounds.op_s
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": round_s, "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(op_s), "unit": "ms"},
            "op_p90_ms": {"value": 1000 * percentile(op_s, 90), "unit": "ms"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }

    if failed:
        errors.append("%d of %d operations raised" % (failed, attempted))
    for e in errors[:20]:
        print("MISMATCH:", e, file=sys.stderr)
    print("rounds=%d ops=%d errors=%d" % (len(rounds.round_s), len(rounds.op_s), len(errors)),
          file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
