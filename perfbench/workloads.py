"""Seed-drawn jobs for the three benchmark workloads and their output checks.

A job is a fixed bundle of ``memlens`` command lines, run in-process
through ``memlens.cli.main``; every command line writes into its own
``--out`` directory.  The seed draws the values in a job (decay rates,
horizons, support points), never the amount of work: job sizes are fixed
within a workload.  ``Job.problem`` reads the written outputs back and
says why they are wrong, or returns None; it is called outside the timed
region.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from functools import partial

import numpy as np

# The conformance suite's spectrum tolerance, taken relative to sigma_max.
SPECTRUM_REL_TOL = 1e-9
# An exact synthesis replays its target to within this share of its norm.
REPLAY_REL_TOL = 1e-12
# Slack for the non-increasing check on curve rows, as in the acceptance tests.
CURVE_SLACK = 1e-12

# Both windows hold 32 768 entries: rho3:H at (l=2, K=15) and a dense
# JSON target at (l=8, K=5).  exp:G and rho3 at l=8 are left out, see
# KNOWN_FAILING.
RHO3_SHAPE, DENSE_SHAPE = (2, 15), (8, 5)
DEEP_WINDOW = 2 ** 15
RADIX_POINTS, RADIX_SPAN = 200, 2 ** 11
# The lowrank bank's size (its retained core entries) depends on where the
# support lies, not on the values, so the support is drawn once and kept:
# 16 slots under 2^8, the top one included.
LOWRANK_SPAN = 2 ** 8
LOWRANK_SUPPORT = np.append(
    np.random.default_rng(0).choice(LOWRANK_SPAN - 1, size=15, replace=False),
    LOWRANK_SPAN - 1)
SWEEP_G = ["--g", "exponential", "--g-params", "0.5"]
SWEEP_CHANNELS = "1,4,4,4,4,1"


@dataclass
class Job:
    calls: list       # argv lists for memlens.cli.main
    outs: list        # the --out directory of each call
    checks: list      # callables returning what is wrong, or None
    inputs: dict = field(default_factory=dict)   # JSON target path -> maker

    def write_inputs(self):
        """Write the job's JSON targets; called outside the timed region."""
        for path, make in self.inputs.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(json.dumps(make()))

    def clean(self):
        """Remove the job's outputs and input files."""
        for out in self.outs:
            shutil.rmtree(out, ignore_errors=True)
        for path in self.inputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def problem(self):
        """The first failed check's message, or None.

        A missing or malformed output file is itself a failed check.
        """
        try:
            for check in self.checks:
                found = check()
                if found:
                    return found
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None

    def bytes_written(self) -> int:
        return sum(os.path.getsize(p) for out in self.outs
                   for p in glob.glob(os.path.join(out, "*")))


def json_target(times, values):
    """The JSON target format of memlens for a one-dimensional sequence."""
    return {"dim": 1, "entries": [[t, [v]] for t, v in
                                  zip(np.asarray(times).tolist(),
                                      np.asarray(values, dtype=float).tolist())]}


def _only_file(out, pattern):
    paths = glob.glob(os.path.join(out, pattern))
    if len(paths) != 1:
        raise ValueError(f"expected one {pattern} in {out}, found {len(paths)}")
    return paths[0]


def _read_json(out):
    with open(_only_file(out, "*.json")) as fh:
        return json.load(fh)


# -- deep-spectra ------------------------------------------------------------

def rho3_window():
    window = np.zeros(DEEP_WINDOW)
    window[1:] = 1.0 / np.arange(1, DEEP_WINDOW, dtype=float)
    return window


def spectrum_problem(out, window, l, K):
    """Compare a written spectrum with an independent SVD per flattening.

    window() materialises the target's window independently of memlens.
    """
    per_k = _read_json(out)["per_K"][0]
    tensor = window().reshape((l,) * K, order="F")
    want = [np.linalg.svd(np.moveaxis(tensor, k, 0).reshape(l, -1),
                          compute_uv=False) for k in range(K)]
    sigma_max = max(float(w[0]) for w in want)
    if per_k["K"] != K:
        return f"spectrum for K={per_k['K']}, expected K={K}"
    worst = 0.0
    for mode, w in enumerate(want, start=1):
        got = sorted((v for v, m in per_k["values"] if m == mode), reverse=True)
        if len(got) != len(w):
            return f"mode {mode} has {len(got)} values, expected {len(w)}"
        worst = max(worst, float(np.max(np.abs(np.array(got) - w))))
    if worst > SPECTRUM_REL_TOL * sigma_max:
        return (f"l={l} K={K}: spectrum off by {worst / sigma_max:.2e} of "
                f"sigma_max (tolerance {SPECTRUM_REL_TOL:g})")
    return None


def dense_kernel(rng):
    """A seed-drawn kernel filling the window: Gaussian values under a
    1/sqrt(1 + t) envelope, none of them zero."""
    values = rng.standard_normal(DEEP_WINDOW) / np.sqrt(1.0 + np.arange(DEEP_WINDOW))
    values[values == 0.0] = 1e-3
    return values


def deep_spectra_job(rng, index, workdir):
    """spectrum on two dense targets that fill the 2^15 window.

    rho3:H (H beyond the window) runs at l=2, K=15; a seed-drawn dense
    kernel, written as a JSON target, runs at l=8, K=5.
    """
    horizon = int(rng.integers(DEEP_WINDOW, 2 * DEEP_WINDOW))
    values = dense_kernel(rng)
    path = os.path.join(workdir, "dense.json")
    targets = ((f"rho3:{horizon}", RHO3_SHAPE, rho3_window),
               (path, DENSE_SHAPE, partial(np.array, values)))
    outs = [os.path.join(workdir, f"l{l}") for _, (l, _), _ in targets]
    calls = [["spectrum", "--target", target, "--l", str(l), "--K", str(K),
              "--out", out] for (target, (l, K), _), out in zip(targets, outs)]
    checks = [partial(spectrum_problem, out, window, l, K)
              for (_, (l, K), window), out in zip(targets, outs)]
    return Job(calls, outs, checks,
               {path: partial(json_target, range(DEEP_WINDOW), values)})


def exp_window(gamma):
    return gamma ** np.arange(DEEP_WINDOW, dtype=float)


# Spectrum inputs on which memlens misses the check at this tolerance, and
# which deep-spectra therefore leaves out: target, window, l, K.  The
# Gram-plus-Jacobi path returns zero or tiny singular values at the
# sqrt(eps) floor (ROADMAP item 2).  selftest.py reports whether they
# still fail.
KNOWN_FAILING = (
    ("exp:0.99", partial(exp_window, 0.99), 2, 15),
    ("exp:0.99", partial(exp_window, 0.99), 8, 5),
    ("rho3:40000", rho3_window, 8, 5),
)


# -- sparse-synthesis ----------------------------------------------------------

def replay_problem(out, norm):
    result = _read_json(out)
    if result["filter_count"] < 1:
        return f"{result['method']}: empty filter bank"
    if not result["replay_residual"] <= REPLAY_REL_TOL * norm:
        return (f"{result['method']}: replay residual "
                f"{result['replay_residual']:.3e} exceeds "
                f"{REPLAY_REL_TOL:g} of the target norm {norm:.6g}")
    return None


def sparse_synthesis_job(rng, index, workdir):
    """synth --method radix and lowrank on two sparse JSON targets.

    The radix target has 200 seed-drawn slots under 2^11, the lowrank
    target the fixed LOWRANK_SUPPORT; both hold their top slot, so the
    depths (11 and 8) and bank sizes are the same in every job.
    """
    radix_times = np.append(
        rng.choice(RADIX_SPAN - 1, size=RADIX_POINTS - 1, replace=False),
        RADIX_SPAN - 1)
    calls, outs, norms, inputs = [], [], [], {}
    for method, times in (("radix", radix_times), ("lowrank", LOWRANK_SUPPORT)):
        points = len(times)
        values = rng.uniform(0.5, 2.0, points) * rng.choice((-1.0, 1.0), points)
        path = os.path.join(workdir, f"{method}.json")
        order = np.argsort(times)
        inputs[path] = partial(json_target, times[order], values[order])
        out = os.path.join(workdir, f"out-{method}")
        calls.append(["synth", "--target", path, "--method", method,
                      "--out", out])
        outs.append(out)
        norms.append(float(np.linalg.norm(values)))

    return Job(calls, outs, [partial(replay_problem, out, norm)
                             for out, norm in zip(outs, norms)], inputs)


# -- analysis-sweep ------------------------------------------------------------

def curve_problem(out):
    paths = sorted(glob.glob(os.path.join(out, "*_curve.csv")))
    svgs = glob.glob(os.path.join(out, "*_curve.svg"))
    if len(paths) != 3 or len(svgs) != 3:
        return f"curve wrote {len(paths)} CSV and {len(svgs)} SVG files, expected 3 each"
    for path in paths:
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            return f"{os.path.basename(path)} has no rows"
        curves = {}
        for row in rows:
            rank, tail = float(row["rank_term"]), float(row["tail_term"])
            upper = float(row["upper_bound"])
            if upper != rank + tail:
                return f"{os.path.basename(path)}: upper != rank + tail at {row}"
            curves.setdefault(int(row["K"]), []).append((int(row["M"]), upper))
        for K, points in curves.items():
            uppers = [u for _, u in sorted(points)]
            if any(b > a + CURVE_SLACK for a, b in zip(uppers, uppers[1:])):
                return f"{os.path.basename(path)}: K={K} curve increases with M"
    for svg in svgs:
        with open(svg) as fh:
            if not fh.read().lstrip().startswith("<svg"):
                return f"{os.path.basename(svg)} is not an SVG document"
    return None


def measure_problem(out):
    value = _read_json(out)["complexity"]
    if value is None or not math.isfinite(value) or value <= 0.0:
        return f"complexity {value!r} is not a finite positive number"
    return None


def bounds_problem(out):
    result = _read_json(out)
    lower, upper = result["lower"], result["upper"]
    if not lower["value"] <= upper["value"] + upper["halfwidth"]:
        return f"lower bound {lower} above upper bound {upper}"
    return None


def compare_problem(out):
    rnn = _read_json(out)["rnn_requirement"]
    if rnn["exact"] is not True:
        return f"exp_decay recurrence not exact: residual {rnn['residual_sup']!r}"
    return None


def reproduce_problem(out):
    with open(_only_file(out, "reproduce.txt")) as fh:
        failing = [line for line in fh if line.startswith("FAIL")]
    return f"conformance failures: {failing}" if failing else None


def analysis_sweep_job(rng, index, workdir):
    """One default curve, measure, bounds, compare and reproduce.

    H lies in [2^9, 2^10), so every job has coverage depth 10.
    """
    horizon = int(rng.integers(2 ** 9, 2 ** 10))
    gamma = round(float(rng.uniform(0.9, 0.995)), 6)
    rho3 = f"rho3:{horizon}"
    names = ("curve", "measure", "bounds", "compare", "reproduce")
    outs = [os.path.join(workdir, name) for name in names]
    calls = [
        ["curve", "--target", "rho1", "--target", "rho2", "--target", rho3,
         "--out", outs[0]],
        ["measure", "--target", rho3, *SWEEP_G, "--out", outs[1]],
        ["bounds", "--target", rho3, "--K", "5", "--channels", SWEEP_CHANNELS,
         *SWEEP_G, "--out", outs[2]],
        ["compare", "--scenario", "exp_decay", "--gamma", repr(gamma),
         "--out", outs[3]],
        ["reproduce", "--out", outs[4]],
    ]
    checks = (curve_problem, measure_problem, bounds_problem,
              compare_problem, reproduce_problem)
    return Job(calls, outs, [partial(c, out) for c, out in zip(checks, outs)])


WORKLOADS = {
    "deep-spectra": deep_spectra_job,
    "sparse-synthesis": sparse_synthesis_job,
    "analysis-sweep": analysis_sweep_job,
}


def make_job(workload, seed, index, workdir):
    """Job `index` of a workload; the same (seed, index) gives the same job."""
    rng = np.random.default_rng([seed, index])
    return WORKLOADS[workload](rng, index, workdir)
