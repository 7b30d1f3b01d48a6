"""heiskit benchmark: three workloads, each in its own fresh process.

    python3 perfbench/run.py --workload osc-dini --seed 1 --seconds 30 --trace 0

runs one workload from the root of a heiskit checkout and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  ``--workload all`` runs every
workload in turn and prints a table of all of them.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import PER_LAYER  # noqa: E402
OUT = os.path.join(HERE, "out")
WORKLOADS = ("osc-dini", "beta-fit", "riesz-testing")
# set-up is timed in this many fresh processes, the last one being the
# process that then runs the workload; the median is reported
SETUP_RUNS = 5
# the machine's core count, for the chunk-parallel quadrature
HEISKIT_WORKERS = "2"
# a workload's processes are killed after this long
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "mc_efficiency": "1/s",
}
STAGES = {
    "osc-dini": ("osc_scan", "dini", "quadrature"),
    "beta-fit": ("beta_scan", "perimeter_beta", "carleson"),
    "riesz-testing": ("riesz_test", "divergence", "invariants"),
}


class BenchError(RuntimeError):
    pass


def _worker(args, outdir, setup_only, deadline):
    """(set-up seconds, result) of one worker process, killed at the deadline."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", outdir] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["HEISKIT_WORKERS"] = HEISKIT_WORKERS
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"{args.workload} worker failed (exit {code}, first line {first.strip()!r})")
    return setup, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def run_workload(args) -> tuple[dict, list[str]]:
    """Runs one workload; returns the result object and lines for humans."""
    outdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [_worker(args, outdir, True, deadline)[0] for _ in range(SETUP_RUNS - 1)]
        setup, res = _worker(args, outdir, False, deadline)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    setups.append(setup)

    rounds = res["rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failed"]]
    unexpected = [f for f in failures if not f["known_fault"]]

    def efficiency(r):
        rel = [(se / abs(v)) ** 2 for v, se in r["headline"]]
        return 1.0 / (r["wall"] * statistics.fmean(rel))

    lines = [f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} operations "
             f"attempted, {len(failures)} failed ({len(unexpected)} unexpected)"]
    for label in sorted({f["label"] for f in failures}):
        kind = "known fault" if any(f["known_fault"] for f in failures if f["label"] == label) else "FAILED"
        detail = next(f["detail"] for f in failures if f["label"] == label)
        lines.append(f"  {kind}: {label}: {detail}")
    if args.trace:
        metrics = {name: {"value": v, "unit": PER_LAYER[name]} for name, v in res["per_layer"].items()}
        lines.append(f"  trace_overhead_s {res['trace_overhead_s']:.4f} s per round "
                     f"(traced minus untraced wall time); spans in {res['trace_file']}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "peak_rss_mb": res["peak_rss_mb"],
            "mc_efficiency": statistics.median(efficiency(r) for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        for stage in STAGES[args.workload]:
            times = [r["stages"].get(stage, 0.0) for r in rounds]
            lines.append(f"  stage {stage}_s {statistics.median(times):.4f} s")
    for name, m in metrics.items():
        lines.append(f"  {name} {m['value']:.6g} {m['unit']}")
    result = {"correct": not unexpected, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "heiskit", "__init__.py")):
        print(f"no heiskit sources under {os.path.join(ROOT, 'src')}; run from a heiskit checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, lines = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
