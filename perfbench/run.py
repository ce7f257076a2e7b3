"""specbulk benchmark: time to a certified result, traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client in this process runs passes of the workload's fixed
operations until the next pass would end after S seconds (at least one
pass; at least three with --trace 1). Every pass is checked by the
correctness gates. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb). With --trace 1 the first pass runs untraced and the rest
traced, and the metrics are the per-layer ones from the traced passes plus
the tracing overhead. The line before the result holds the run manifest
and the workload's own figures; both go to perfbench/results/ as well.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402
from checks import check_residuals  # noqa: E402
from spans import EXACT_COUNTS, LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, OpResult  # noqa: E402

SETUP_REPEATS = 3
TRACE_MIN_PASSES = 3
CLI_KINDS = {"density", "solve", "simulate", "equivalents"}


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of SETUP_REPEATS fresh-process set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                       cwd=env.ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(workload, pass_dir: Path):
    """Run one pass; returns (results, wall seconds)."""
    ops = workload.ops()
    results = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        out = pass_dir / f"{i:03d}"
        t0 = time.perf_counter()
        try:
            value, error = op.call(out), None
        except Exception as exc:  # a failed operation is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        results.append(OpResult(op, out, time.perf_counter() - t0, value, error))
    return results, time.perf_counter() - start


def gate_pass(workload, results) -> list[str]:
    fails = []
    for r in results:
        if r.failed:
            fails.append(f"{r.op.label}: {r.error or f'exit code {r.value}'}")
            continue
        try:
            msgs = r.op.check(r.out, r.value)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            msgs = [f"unreadable output: {type(exc).__name__}: {exc}"]
        fails += [f"{r.op.label}: {msg}" for msg in msgs]
    return fails + workload.cross_check(results)


def bytes_written(results) -> int:
    return sum(f.stat().st_size for r in results if r.op.kind in CLI_KINDS
               and r.out.exists() for f in r.out.rglob("*") if f.is_file())


def peak_rss_mb() -> float:
    """Peak resident set so far of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def check_counts_across_runs(workload: str, seed: int, counts: dict) -> list[str]:
    """Exact counts must repeat for the same code, workload and seed."""
    key = (f"{env.source_sha256(env.SRC)}/{env.source_sha256(HERE)}"
           f"/{workload}/{seed}")
    path = HERE / "results" / "exact_counts.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    previous = store.get(key)
    if previous is not None and previous != counts:
        return [f"exact counts {counts} differ from an earlier run's {previous}"]
    store[key] = counts
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return []


def parse_args(argv):
    parser = argparse.ArgumentParser(description="specbulk benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        env.use_checkout_source()
    except env.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    setup_s = measure_setup(args.workload, args.seed)
    manifest = env.manifest(args.workload, args.seed)
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    # temporary files of specbulk and of the pool workers stay in the checkout
    os.environ["TMPDIR"] = tempfile.tempdir = str(work)
    tracer = Tracer()
    try:
        workload = WORKLOADS[args.workload](args.seed, work / "inputs")
        untraced, traced, layers, gate_fails = [], [], [], []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        min_passes = TRACE_MIN_PASSES if args.trace else 1
        for i in range(10_000):
            trace_this = bool(args.trace) and i > 0
            if trace_this:
                tracer.clear()
                tracer.install()
            try:
                results, wall = run_pass(workload, work / f"pass{i}")
            finally:
                tracer.uninstall()
            gate_fails += gate_pass(workload, results)
            attempted += len(results)
            failed += sum(r.failed for r in results)
            if trace_this:
                m = tracer.layer_metrics()
                m["cli.bytes_written"] = bytes_written(results)
                layers.append(m)
                traced.append((results, wall))
                gate_fails += check_residuals(tracer.solved_points())
            else:
                untraced.append((results, wall))
            shutil.rmtree(work / f"pass{i}", ignore_errors=True)
            if i == 0:
                # later passes repeat the same work; taking the peak here keeps
                # the figure independent of how many passes fit in the run
                rss_mb = peak_rss_mb()
            walls = [w for _, w in untraced + traced]
            if i + 1 >= min_passes and time.perf_counter() + statistics.median(walls) > deadline:
                break
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    untraced_wall = statistics.median(w for _, w in untraced)
    detail = {
        "manifest": manifest,
        "passes": {"untraced": [w for _, w in untraced], "traced": [w for _, w in traced]},
        "setup_s": setup_s,
        "wall_s": untraced_wall,
        "failed_frac": failed / attempted,
        "peak_rss_mb": rss_mb,
        **workload.summary([r for r, _ in untraced]),
    }
    if args.trace:
        counts = [{k: int(m[k]) for k in EXACT_COUNTS} for m in layers]
        if any(c != counts[0] for c in counts):
            gate_fails.append(f"exact counts differ between traced passes: {counts}")
        else:
            gate_fails += check_counts_across_runs(args.workload, args.seed, counts[0])
        detail["exact_counts"] = counts[0]
        layer = {k: statistics.median(m[k] for m in layers) for k in LAYER_METRICS}
        layer["trace.wall_s"] = statistics.median(w for _, w in traced)
        layer["trace.untraced_wall_s"] = untraced_wall
        layer["trace.overhead_s"] = layer["trace.wall_s"] - untraced_wall
        metrics = {k: {"value": int(v) if LAYER_METRICS[k][0] in ("count", "B") else v,
                       "unit": LAYER_METRICS[k][0]} for k, v in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": untraced_wall, "unit": "s"},
            "peak_rss_mb": {"value": detail["peak_rss_mb"], "unit": "MB"},
        }
    detail["gate_failures"] = gate_fails[:50]
    result = {"correct": not gate_fails, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"detail": detail, "result": result}, indent=1,
                              sort_keys=True, default=str) + "\n")
    if args.trace:
        tracer.write(out.with_name(out.stem + "-spans.json"))
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
