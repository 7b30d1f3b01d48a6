"""One workload in one fresh process: set up, then run rounds until time is up.

Prints ``READY`` once heiskit is imported and the inputs are built, then one
JSON line with the per-round measurements.  ``--setup-only`` stops after
``READY``; the benchmark uses it to time set-up several times.

With ``--trace 1`` each round runs twice on the same inputs, first untraced
and then under the tracer, so the tracing overhead is the difference of the
two wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (imports heiskit)
from spans import Tracer  # noqa: E402


def round_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def run_round(ops):
    """Run the operations in order; returns the round's record."""
    stages: dict[str, float] = {}
    failed = []
    headline = []
    t_round = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises has failed its check
            out = workloads.Outcome(False, f"{type(exc).__name__}: {exc}")
        stages[op.stage] = stages.get(op.stage, 0.0) + time.perf_counter() - t0
        if not out.ok:
            failed.append({"label": op.label, "known_fault": op.known_fault, "detail": out.detail[:300]})
        headline += out.headline
    wall = time.perf_counter() - t_round
    return {"wall": wall, "stages": stages, "attempted": len(ops), "failed": failed, "headline": headline}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    factory = workloads.WORKLOADS[args.workload]
    runner = workloads.Runner(args.outdir)
    first = factory(runner, round_seed(args.seed, 0))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    start = time.perf_counter()
    rounds, traced, overhead = [], [], []
    tracer = Tracer() if args.trace else None
    k = 0
    while True:
        ops = first if k == 0 else factory(runner, round_seed(args.seed, k))
        rec = run_round(ops)
        rounds.append(rec)
        if args.trace:
            n_spans = len(tracer.spans)
            tracer.install()
            try:
                rec_t = run_round(factory(runner, round_seed(args.seed, k)))
            finally:
                tracer.uninstall()
            rounds.append(rec_t)
            traced.append(Tracer.metrics(tracer.spans[n_spans:]))
            overhead.append(rec_t["wall"] - rec["wall"])
        k += 1
        per_round = statistics.median(r["wall"] for r in rounds) * (2 if args.trace else 1)
        if time.perf_counter() - start + per_round > args.seconds:
            break

    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["per_layer"] = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        result["trace_overhead_s"] = statistics.median(overhead)
        path = os.path.join(os.path.dirname(args.outdir),
                            f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(path)
        result["trace_file"] = os.path.relpath(path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
