"""memlens benchmark: three closed-loop workloads driven through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N [--trace 1]

NAME is deep-spectra, sparse-synthesis or analysis-sweep (see NOTES.md).
Run it from a checkout of the repository: it measures the memlens sources
under that checkout's src/ and writes only below .bench_work/ there.

The load is one process, one client thread and one job at a time; each
workload runs in fresh interpreters started by this script.  With
--trace 0 the last line of the output is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run.  Lines before it give the sample counts, the tail
percentile, the fail ratio, the first failures and the provenance.
``--workload all`` runs every workload and prints one table instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# Job time of each workload at the commit that introduced the benchmark,
# on a 2-core Xeon VM (s).  A run plans round(seconds / JOB_S) jobs, so
# for one --seconds every commit runs the same job list, and the tail
# percentile below means the same thing on every commit.
JOB_S = {"deep-spectra": 1.0, "sparse-synthesis": 0.25,
         "analysis-sweep": 0.13}
# Jobs of the traced run (and of the untraced run it is compared with).
TRACE_JOBS = {"deep-spectra": 6, "sparse-synthesis": 6, "analysis-sweep": 24}
MIN_JOBS = 30
# job_s_tail is the highest percentile with at least this many jobs beyond it.
TAIL_BEYOND = 10
# setup_s is the median over this many fresh interpreters.
SETUP_STARTS = 5
# Host speed drifts by about 20 % over tens of seconds on the reference
# VM, in CPU time as well as in wall time.  Every timing is therefore
# scaled by REFERENCE_CALIBRATION_S over the time a fixed calibration
# kernel (worker.calibration_s) took around it: the figures are seconds
# at the host speed where that kernel takes 2.0 ms.  Raw wall times are
# printed beside them.
REFERENCE_CALIBRATION_S = 0.0020
# Workers still running this long after a workload run started are killed.
RUN_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark itself could not produce a result."""


def run_worker(mode, workload, seed, jobs, deadline):
    """Start one fresh worker; (seconds until it is ready, its result).

    The worker sets the BLAS thread count itself, before numpy loads.
    """
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--jobs", str(jobs), "--mode", mode]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
                          text=True, stdout=subprocess.PIPE) as proc:
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
    if first.strip() != "ready" or code != 0:
        raise BenchmarkError(f"{mode} worker for {workload} failed "
                             f"with exit code {code}")
    return ready_s, json.loads(rest.splitlines()[-1])


def at_reference_speed(seconds, calibration_s):
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def tail(times):
    """(value, percentile): the highest order statistic with TAIL_BEYOND
    jobs above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        raise BenchmarkError(f"{n} jobs are too few for a tail percentile")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def corrected_times(result):
    return [at_reference_speed(t, c)
            for t, c in zip(result["times"], result["calibrations"])]


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics of one workload, with tracing off."""
    jobs = max(MIN_JOBS, round(seconds / JOB_S[workload]))
    # Host speed drifts over seconds, so the fresh starts are spread
    # around the measuring worker, which is one of them.
    before = SETUP_STARTS // 2
    starts = [run_worker("setup", workload, seed, jobs, deadline)
              for _ in range(before)]
    starts.append(run_worker("measure", workload, seed, jobs, deadline))
    result = starts[-1][1]
    starts += [run_worker("setup", workload, seed, jobs, deadline)
               for _ in range(SETUP_STARTS - 1 - before)]
    setups = [at_reference_speed(ready_s, r["setup_calibration_s"])
              for ready_s, r in starts]
    raw = result["times"]
    times = corrected_times(result)
    p50 = statistics.median(times)
    tail_s, percentile = tail(times)
    if tail_s < p50:
        raise BenchmarkError(f"job_s_tail {tail_s} is below job_s_p50 {p50}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(times), "s"),
        "job_s_p50": (p50, "s"),
        "job_s_tail": (tail_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    info = {"jobs": len(times), "tail_percentile": round(percentile, 2),
            "jobs_beyond_tail": TAIL_BEYOND, "setup_starts": len(setups),
            "setup_samples_s": setups,
            "raw_setup_s": statistics.median(ready_s for ready_s, _ in starts),
            "raw_wall_s": sum(raw), "raw_job_s_p50": statistics.median(raw),
            "calibration_s_p50": statistics.median(result["calibrations"])}
    return metrics, info, [result]


def trace(workload, seed, deadline):
    """Per-layer metrics from a traced run and the same jobs untraced.

    Self times are scaled to the reference host speed by the traced
    run's median calibration; the info line keeps the raw seconds.
    """
    jobs = TRACE_JOBS[workload]
    _, plain = run_worker("measure", workload, seed, jobs, deadline)
    _, traced = run_worker("trace", workload, seed, jobs, deadline)
    found = traced["trace"]
    counts = found["counts"]
    speed = at_reference_speed(1.0, statistics.median(traced["calibrations"]))
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (found["self_s"][layer] * speed, "s")
        metrics[f"{layer}.calls"] = (found["calls"][layer], "count")
    metrics.update({
        "sequences.entries_materialised":
            (counts.get("sequences.entries_materialised", 0), "count"),
        "sequences.dilated_conv.calls": (found["dilated_conv_calls"], "count"),
        "tensors.singular_values.calls": (found["singular_values_calls"], "count"),
        "tensors.flattenings": (found["flattenings"], "count"),
        "tensors.flatten_bytes_computed":
            (counts.get("tensors.flatten_bytes_computed", 0), "B"),
        "models.filters_replayed": (counts.get("models.filters_replayed", 0), "count"),
        "cli.bytes_written": (traced["bytes_written"], "B"),
        "trace.overhead_ratio": (sum(corrected_times(traced))
                                 / sum(corrected_times(plain)), "ratio"),
    })
    info = {"jobs": len(traced["times"]), "traced_wall_s": sum(traced["times"]),
            "untraced_wall_s": sum(plain["times"]), "spans": found["spans"],
            "self_s_total": sum(found["self_s"].values()),
            "root_span_s": found["root_s"]}
    return metrics, info, [plain, traced]


def run_one(workload, seed, seconds, traced):
    """Metrics, info line and provenance of one workload run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if traced:
        metrics, info, runs = trace(workload, seed, deadline)
    else:
        metrics, info, runs = measure(workload, seed, seconds, deadline)
    attempted = sum(len(r["times"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    info.update({"attempted": attempted, "failed": len(failures),
                 "fail_ratio": len(failures) / attempted,
                 "first_failures": failures[:3]})
    provenance = dict(runs[-1]["provenance"], seed=seed, git_commit=git_commit(),
                      workload=workload, seconds=seconds, trace=int(traced))
    return metrics, info, provenance


def print_table(rows):
    """One line per workload and metric: name, value and unit."""
    for workload, metrics, info in rows:
        for name, (value, unit) in metrics.items():
            print(f"{workload:18s} {name:32s} {value:14.6g} {unit}")
        print(f"{workload:18s} {'fail_ratio':32s} {info['fail_ratio']:14.6g} "
              f"({info['failed']} of {info['attempted']} jobs)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(JOB_S) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "memlens", "cli.py")):
        print(f"error: no memlens sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    workloads = sorted(JOB_S) if args.workload == "all" else [args.workload]
    rows = []
    try:
        for workload in workloads:
            metrics, info, provenance = run_one(workload, args.seed,
                                                args.seconds, args.trace)
            print(f"# {workload}: " + json.dumps(info))
            print("# provenance: " + json.dumps(provenance))
            rows.append((workload, metrics, info))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print_table(rows)
        return 0
    _, metrics, info = rows[0]
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
