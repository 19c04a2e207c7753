"""One workload process: set up, run the fixed job list, report.

Run by ``run.py`` in a fresh interpreter, from the checkout whose ``src/``
it measures:

    python3 perfbench/worker.py --workload NAME --seed N --jobs J \
        --mode setup|measure|trace

The process draws its inputs from the seed, runs one untimed warm-up job
and prints ``ready``; ``run.py`` times set-up up to that line.  In
``setup`` mode it then exits.  Otherwise it runs jobs 1..J one at a time
through ``memlens.cli.main``, timing each job alone: writing its JSON
targets, garbage collection and the output checks happen between jobs,
outside the timed region.
The last line of its output is one JSON object with the job times,
failures and counts.  ``trace`` mode wraps the package with the
outside-in tracer first and also reports per-layer figures.
"""

import os

# One BLAS/OpenMP thread: set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import shutil
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# Jobs stop after this long even if the list is not done, so that a much
# slower program still ends the run within its time limit.
HARD_STOP_S = 75.0


def import_memlens():
    """memlens from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "memlens", "cli.py")):
        raise SystemExit(f"no memlens sources under {SRC}")
    sys.path.insert(0, SRC)
    import memlens.cli
    if not os.path.abspath(memlens.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"memlens imported from {memlens.cli.__file__}, not {SRC}")
    return memlens


def run_job(cli, job):
    """Run one job's command lines; (seconds, failure reason or None)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = [cli.main(argv) for argv in job.calls]
    except Exception as exc:  # a raising job is a failed job, not a dead run
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if any(codes):
        return seconds, f"exit codes {codes}: {sink.getvalue()[-300:]}"
    return seconds, None


def calibration_s(repeats=3):
    """Best-of-three time of a fixed kernel: the host's speed right now.

    The kernel mixes what memlens spends its time on: interpreted loops,
    dict building and a small LAPACK call.  It does not use memlens.
    """
    matrix = np.arange(4096.0).reshape(64, 64) % 7.0
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        _ = {i: (float(i),) for i in range(2000)}
        np.linalg.svd(matrix, compute_uv=False)
        best = min(best, time.perf_counter() - start)
    return best


def run_jobs(cli, jobs):
    """Time each job alone; calibrate, check and clean up between jobs.

    A job's calibration is the mean of the kernel times right before and
    right after it.
    """
    times, calibrations, failures, written = [], [], [], 0
    started = time.perf_counter()
    for index, job in enumerate(jobs, start=1):
        job.write_inputs()
        gc.collect()
        before = calibration_s()
        seconds, reason = run_job(cli, job)
        calibrations.append((before + calibration_s()) / 2.0)
        reason = reason or job.problem()
        times.append(seconds)
        if reason:
            failures.append([index, reason])
        written += job.bytes_written()
        job.clean()
        if time.perf_counter() - started > HARD_STOP_S:
            break
    return times, calibrations, failures, written


def provenance(mode):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version",
                                                 "openblas configuration")},
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "mode": mode,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    args = parser.parse_args(argv)

    memlens = import_memlens()
    from workloads import make_job

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        jobs = [make_job(args.workload, args.seed, i,
                         os.path.join(workdir, f"job{i}"))
                for i in range(args.jobs + 1)]
        # The warm-up job is part of set-up: it fills lazy imports and caches.
        jobs[0].write_inputs()
        run_job(memlens.cli, jobs[0])
        jobs[0].clean()
        print("ready", flush=True)
        result = {"setup_calibration_s": calibration_s()}
        if args.mode == "setup":
            print(json.dumps(result), flush=True)
            return 0
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer
            tracer = Tracer().install()
        times, calibrations, failures, written = run_jobs(memlens.cli, jobs[1:])
        result.update({
            "times": times,
            "calibrations": calibrations,
            "failures": failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "bytes_written": written,
            "provenance": provenance(args.mode),
        })
        if tracer is not None:
            self_s, calls = tracer.layer_stats()
            result["trace"] = {
                "self_s": self_s,
                "calls": calls,
                "counts": dict(tracer.counts),
                "dilated_conv_calls": tracer.calls_of("sequences.dilated_conv"),
                "singular_values_calls": tracer.calls_of("tensors.singular_values"),
                "flattenings": tracer.calls_of("tensors.mode_flatten_general"),
                "root_s": tracer.root_seconds(),
                "spans": len(tracer.spans),
            }
            tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json"))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
