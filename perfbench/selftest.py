"""Self-test of the benchmark (about a minute):

    python3 perfbench/selftest.py

It checks that
1. every metric named in BENCHMARK.json is reported, with its unit;
2. two traced runs with the same seed give identical counts;
3. a deliberately corrupted output (one perturbed singular value) is
   counted as a failed job;
4. the traced per-layer self times add up to the traced wall time,
   apart from less than 1 % that no span covers.
Exits 0 when all hold.  It also reports, without failing on it, whether
the spectrum inputs that deep-spectra leaves out (workloads.KNOWN_FAILING)
still fail their check.
"""

import json
import os
import shutil
import subprocess
import sys
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
UNATTRIBUTED_SHARE = 0.01


def bench(workload, trace, seconds=1):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    info = next(json.loads(line.split(": ", 1)[1]) for line in lines
                if line.startswith(f"# {workload}: "))
    return json.loads(lines[-1]), info


def check_names_and_units(spec, result, key):
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{key}: reported {got}, expected {want}"


def check_corruption_is_counted():
    sys.path.insert(0, HERE)
    import worker
    from workloads import Job, rho3_window, spectrum_problem
    memlens = worker.import_memlens()
    workdir = os.path.join(worker.WORK, f"selftest-{os.getpid()}")
    out = os.path.join(workdir, "out")
    job = Job(calls=[["spectrum", "--target", "rho3:40000", "--l", "2",
                      "--K", "15", "--out", out]],
              outs=[out],
              checks=[lambda: spectrum_problem(out, rho3_window, 2, 15)])

    class CorruptingCli:
        """memlens.cli whose spectrum output gets one sigma perturbed."""

        @staticmethod
        def main(argv):
            code = memlens.cli.main(argv)
            path = os.path.join(out, "rho3-40000_spectrum.json")
            with open(path) as fh:
                result = json.load(fh)
            result["per_K"][0]["values"][3][0] *= 1.0 + 1e-6
            with open(path, "w") as fh:
                json.dump(result, fh)
            return code

    try:
        _, _, clean, _ = worker.run_jobs(memlens.cli, [job])
        _, _, corrupted, _ = worker.run_jobs(CorruptingCli, [job])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert clean == [], f"the unperturbed spectrum failed: {clean}"
    assert len(corrupted) == 1, "a perturbed sigma was not counted as a failure"


def report_known_failing():
    """Whether each left-out spectrum input still fails its check."""
    import worker
    from workloads import KNOWN_FAILING, Job, spectrum_problem
    memlens = worker.import_memlens()
    workdir = os.path.join(worker.WORK, f"selftest-{os.getpid()}")
    try:
        for index, (target, window, l, K) in enumerate(KNOWN_FAILING):
            out = os.path.join(workdir, f"known{index}")
            job = Job(calls=[["spectrum", "--target", target, "--l", str(l),
                              "--K", str(K), "--out", out]],
                      outs=[out],
                      checks=[partial(spectrum_problem, out, window, l, K)])
            _, _, failures, _ = worker.run_jobs(memlens.cli, [job])
            state = (f"still fails ({failures[0][1]})" if failures else
                     "now passes: add it back to deep-spectra")
            print(f"left out: spectrum {target} l={l} K={K} {state}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    result, _ = bench("analysis-sweep", 0)
    check_names_and_units(spec, result, "end_to_end")
    print("ok: end-to-end metric names and units")

    for workload in [w["name"] for w in spec["workloads"]]:
        first, info = bench(workload, 1)
        second, _ = bench(workload, 1)
        check_names_and_units(spec, first, "per_layer")
        counts = {name for name, m in first["metrics"].items()
                  if m["unit"] in ("count", "B")}
        differ = {name for name in counts
                  if first["metrics"][name] != second["metrics"][name]}
        assert not differ, f"{workload}: counts differ between runs: {sorted(differ)}"
        gap = info["traced_wall_s"] - info["self_s_total"]
        assert 0.0 <= gap <= UNATTRIBUTED_SHARE * info["traced_wall_s"], (
            f"{workload}: self times {info['self_s_total']} vs traced wall "
            f"{info['traced_wall_s']}")
        print(f"ok: {workload}: {len(counts)} counts repeat; self times cover "
              f"the traced wall time but {gap:.2e} s")

    check_corruption_is_counted()
    print("ok: a perturbed sigma is counted as a failure")
    report_known_failing()
    return 0


if __name__ == "__main__":
    sys.exit(main())
