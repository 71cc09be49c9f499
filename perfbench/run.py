"""norden benchmark: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload verify_pool --seed 1 --seconds 24 --trace 0

`--trace 0` prints the end-to-end metrics.  The run is split over PROCESSES
fresh worker processes run one after another: each times its own set-up from
spawn to ready, then measures its share of the time budget.  Spreading the
measurement over processes averages out the per-process offsets of a shared
machine.  `--trace 1` prints the per-layer metrics from one process: it runs
the workload untraced for half the budget, then the same passes again with
every public norden function and the numpy entry points wrapped (see
tracer.py), and writes the spans to `.bench_out/trace-<workload>.npz`.
Every run prints the machine record on its `# machine:` line.  Exit code 0
on success, 1 when the benchmark itself fails, 2 when the checkout holds no
norden sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import benchenv

PROCESSES = 3
# a worker that overruns its share of the budget by this much (set-up plus a
# few times its share) is stopped and counted as one failed operation
WORKER_SETUP_ALLOWANCE_S = 30.0
WORKER_OVERRUN = 3.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("verify_pool", "search_kahler_gn", "search_w3_mix"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def emit(metrics: dict, results: list, correct: bool) -> None:
    for name, (value, unit, n) in metrics.items():
        print(f"# {name:40s} {value:14.6g} {unit:6s} n={n}")
    failed = sum(not r.ok for r in results)
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))


def worker(args, workloads) -> None:
    """One measuring process: set up, report when ready, measure, report.

    The machine speed is sampled during the set-up and for a moment after
    it, to scale the set-up time to the reference speed."""
    sampler = workloads.SpeedSampler()
    with sampler:
        start = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        ready, ready_epoch = time.perf_counter(), time.time()
    for _ in range(sampler.NEAREST):
        sampler.sample()
    net, scale = sampler.adjust(start, ready)
    results, passes = workloads.run_passes(
        workload, args.seed, seconds=args.seconds, stream=args.worker)
    print(json.dumps({
        "ready": ready_epoch - (ready - start - net),  # less the sampling
        "setup_scale": scale,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results": [workloads.result_to_row(r) for r in results],
    }))


def untraced_run(args, workloads) -> None:
    share = args.seconds / PROCESSES
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(share)]
    timeout = WORKER_SETUP_ALLOWANCE_S + WORKER_OVERRUN * share
    setup, rss, results, overran = [], [], [], []
    for index in range(PROCESSES):
        start = time.time()
        try:
            done = subprocess.run(cmd + ["--worker", str(index)], capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"# worker {index}: stopped after {timeout:.0f} s")
            overran.append(workloads.OpResult(-1, 0, None, False))
            continue
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"worker {index} exited with {done.returncode}")
        report = json.loads(done.stdout.splitlines()[-1])
        setup.append((report["ready"] - start) * report["setup_scale"])
        rss.append(report["peak_rss_mb"])
        results += [workloads.result_from_row(row) for row in report["results"]]
        print(f"# worker {index}: {report['passes']} passes")
    if not setup:
        raise RuntimeError("every worker overran its time budget")
    metrics = workloads.end_to_end(results, setup, max(rss))
    wall = workloads.typical_seconds(results, at_reference=False)
    produced = workloads.results_per_pass(results)
    print(f"# wall clock: op_ms.p50 {1e3 * workloads.percentile(wall, 0.5):.6g}, "
          f"op_ms.p90 {1e3 * workloads.percentile(wall, 0.9):.6g}, "
          f"s_per_result {sum(wall) / max(produced, 1):.6g}")
    emit(metrics, results + overran, correct=produced > 0)


def traced_run(args, workloads) -> None:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_summary = tracer.summary()
    tracer.uninstall()
    tracer.clear()

    untraced, passes = workloads.run_passes(workload, args.seed, seconds=args.seconds / 2)
    tracer.install()
    try:
        traced, _ = workloads.run_passes(workload, args.seed, passes=passes, tracer=tracer)
    finally:
        tracer.uninstall()
    wall = [sum(workloads.typical_seconds(rs)) for rs in (untraced, traced)]
    metrics = workloads.per_layer(
        tracer.summary(), setup_summary, traced, untraced,
        100.0 * (wall[1] / wall[0] - 1.0), workload.per_candidate)
    tracer.dump(benchenv.REPO_ROOT / ".bench_out" / f"trace-{args.workload}.npz")
    print(f"# {args.workload}: {passes} passes of {sum(workload.repeats)} operations, "
          f"{len(tracer)} spans")
    emit(metrics, untraced + traced, correct=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        benchenv.prepare()
    except benchenv.MissingProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.worker is not None:
        worker(args, workloads)
    else:
        print(f"# machine: {json.dumps(benchenv.machine_info())}")
        (traced_run if args.trace else untraced_run)(args, workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
