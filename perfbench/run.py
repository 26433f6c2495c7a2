"""Run one benchmark workload against the msostr sources of this checkout.

    python3 perfbench/run.py --workload roundtrip|unary|sample|decide
                             [--seed N] [--seconds S] [--trace 0|1]

The workload is a closed loop: one client, one thread, and each job
starts when the previous one has finished.  With ``--trace 0`` whole
rounds of jobs run until the jobs have taken ``--seconds`` seconds, and
the end-to-end metrics are printed, job times in reference units (see
calibration.py).  With ``--trace 1`` the first round
runs once untraced and once traced, and the per-layer metrics are
printed.  Every job's output is checked (see workloads.py); the last line
of output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import calibration
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Goldens

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 5


def fresh_import():
    """Import msostr from this checkout's sources, dropping earlier imports."""
    for name in [n for n in sys.modules if n == "msostr" or n.startswith("msostr.")]:
        del sys.modules[name]
    package = importlib.import_module("msostr")
    importlib.import_module("msostr.cli")
    if Path(package.__file__).resolve().parent != SRC / "msostr":
        raise ImportError(f"msostr imported from {package.__file__}, not from {SRC}")
    return package


def set_up(workload, seed: int, workdir: Path, goldens: Goldens):
    """Import, make the inputs and write the input files; returns the
    package, the rounds and the seconds this took."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = perf_counter()
    package = fresh_import()
    rounds = workload.prepare(package, seed, workdir, goldens)
    return package, rounds, perf_counter() - start


def set_up_again(workload, seed: int, workdir: Path, goldens: Goldens) -> float:
    """Time one more set-up, in a directory of its own, and drop it: the
    jobs keep running on the modules and files of the first one."""
    kept = {n: m for n, m in sys.modules.items() if n == "msostr" or n.startswith("msostr.")}
    gc.collect()
    try:
        return set_up(workload, seed, workdir, goldens)[2]
    finally:
        for name in [n for n in sys.modules if n == "msostr" or n.startswith("msostr.")]:
            del sys.modules[name]
        sys.modules.update(kept)
        shutil.rmtree(workdir, ignore_errors=True)


def run_job(job, latencies: list, failures: list,
            running=nullcontext, checking=nullcontext, before=None) -> float:
    """Run one job inside ``running()``, check its output, untimed, inside
    ``checking()``, and return the job's time.  ``before()``, if given,
    runs untimed right before the job."""
    error = None
    # Start every job from a collected heap: otherwise the garbage of earlier
    # jobs and of the untimed checks is collected, at random, inside this job.
    gc.collect()
    if before is not None:
        before()
    start = perf_counter()
    try:
        with running():
            out = job.run()
    except Exception as exc:  # a job that raises is a failed job
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    latencies.append(elapsed)
    if error is None:
        with checking():
            error = job.check(out)
    if error is not None:
        failures.append(f"{job.label}: {error}")
    return elapsed


def nearest_rank(ordered: list[float], percentile: float) -> tuple[float, int]:
    """The percentile's value and the number of samples above its rank."""
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure(workload, rounds, seconds: float, first_setup: float, setup_again):
    """Run whole rounds until the jobs have taken ``seconds``; set up again
    at even steps of that time, so that the set-up times, like the jobs,
    sample the host's speed over the whole run."""
    latencies: list[float] = []
    starts: list[float] = []
    loops: list[float] = []
    failures: list[str] = []
    setup_times = [first_setup]
    busy = 0.0
    done = 0
    while done == 0 or busy < seconds:
        for job in rounds[done % len(rounds)]:
            starts.append(busy)
            busy += run_job(job, latencies, failures,
                            before=lambda: loops.append(calibration.time_loop()))
            if len(setup_times) < SETUPS and busy >= seconds * len(setup_times) / SETUPS:
                setup_times.append(setup_again())
        done += 1
    while len(setup_times) < SETUPS:
        setup_times.append(setup_again())
    ref = calibration.in_ref(starts, latencies, loops)
    ordered = sorted(ref)
    tail, beyond = nearest_rank(ordered, workload.tail_percentile)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_kref": (1000 * len(ref) / sum(ref), "1/kref"),
        "job_p50_ref": (statistics.median(ordered), "ref"),
        "job_tail_ref": (tail, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    seconds_ordered = sorted(latencies)
    print(f"{done} rounds, {len(latencies)} jobs, {busy:.3f} s busy; "
          f"set-up times {', '.join(f'{t:.4f}' for t in setup_times)} s")
    print(f"calibration loop {statistics.median(loops) * 1000:.4f} ms median, "
          f"{min(loops) * 1000:.4f} to {max(loops) * 1000:.4f} ms")
    print(f"job_tail is p{workload.tail_percentile:g} of {len(latencies)} samples, "
          f"{beyond} beyond it" + ("" if beyond >= 10 else " (fewer than 10)"))
    print(f"  {'jobs_per_s':<14} {len(latencies) / busy:<14.6g} 1/s")
    print(f"  {'job_p50_s':<14} {statistics.median(seconds_ordered):<14.6g} s")
    print(f"  {'job_tail_s':<14} "
          f"{nearest_rank(seconds_ordered, workload.tail_percentile)[0]:<14.6g} s")
    print(f"  {'failed_ratio':<14} {len(failures) / len(latencies):<14.6g} ratio")
    return latencies, failures, {name: {"value": v, "unit": u}
                                 for name, (v, u) in metrics.items()}


def measure_traced(package, rounds):
    """Run each job of the first round three times: to warm up (a job's
    first run is the slowest), untraced, and traced.  The traced runs give
    the per-layer metrics."""
    latencies: list[float] = []
    failures: list[str] = []
    tracer = Tracer()
    tracer.install(package)
    untraced = traced = 0.0
    for job in rounds[0]:
        run_job(job, latencies, failures, tracer.paused, tracer.paused)
        untraced += run_job(job, latencies, failures, tracer.paused, tracer.paused)
        traced += run_job(job, latencies, failures, tracer.job, tracer.paused)
    print(f"{len(rounds[0])} jobs: {untraced:.3f} s untraced, {traced:.3f} s traced, "
          f"{len(tracer.spans)} spans over {len(tracer.wrapped)} wrapped functions")
    print(f"  {'span':<42} {'calls':>8} {'self_s':>10} {'total_s':>10}")
    for name, layer in sorted(tracer.layers().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<42} {layer['calls']:>8} {layer['self_s']:>10.4f} "
              f"{layer['total_s']:>10.4f}")
    return latencies, failures, layer_metrics(tracer, traced - untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="job time to measure with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if not (SRC / "msostr" / "__init__.py").is_file():
        print(f"error: no msostr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    try:
        goldens = Goldens.load()
        package, rounds, first_setup = set_up(workload, seed, workdir, goldens)
        print(f"workload {workload.name}, seed {seed}, trace {args.trace}")
        if args.trace:
            latencies, failures, metrics = measure_traced(package, rounds)
        else:
            again = workdir.with_name(workdir.name + "-again")
            latencies, failures, metrics = measure(
                workload, rounds, args.seconds, first_setup,
                lambda: set_up_again(workload, seed, again, goldens))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:<14.6g} {metric['unit']}")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    if len(failures) > 10:
        print(f"... and {len(failures) - 10} more failures")
    print(json.dumps({"correct": not failures, "attempted": len(latencies),
                      "failed": len(failures), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
