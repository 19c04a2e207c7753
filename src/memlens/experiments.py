"""Reference oracles, curve studies and model comparisons.

This module packages the analyses the library exists for: an
independent best-rank oracle, the per-depth error curve study with its
qualitative checks, the two scenarios where one model family beats the
other, and a conformance suite that replays every worked example and
reports PASS, FAIL or LOGGED per item.  The builtin targets it studies
are read by sequences.make_target.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .sequences import (RHO1_SLOTS, RHO2_SLOTS, Scalar, Sequence, _depth, _number,
                        _whole, dilated_conv, make_target)
from . import tensors
from .bounds import (COMPLEXITY_NOISE_REL_TOL, DecayProfile, DepthTable,
                     complexity_measure, error_curve, rank_budget)
from .models import (cnn_min_depth_expdecay, replay_residual,
                     rnn_min_width_impulse, rnn_representation, RnnSpec,
                     synthesize_radix)


def oracle_best_rank_matrix(mat, rank: int) -> Scalar:
    """Frobenius error of the best rank-r approximation of a matrix.

    Computed with the library-independent dense SVD so it can serve as a
    cross-check oracle for the spectrum-based truncation bound.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ValueError("need a matrix")
    if not 0 <= rank <= min(a.shape):
        raise ValueError("rank out of range")
    s = np.linalg.svd(a, compute_uv=False)
    tail = s[rank:]
    return Scalar(math.sqrt(float(np.sum(tail * tail))))


@dataclass(frozen=True)
class CurveStudy:
    """Error-curve tables for the three builtin targets plus checks.

    depths maps each target name to the DepthTable at l that its curves
    and claim-depth ranks read, so a later reader of those windows
    decomposes none of them again.  The qualitative claim checks (the
    low-rank target is pointwise easier, the decaying target is easier on
    sweep average) are scoped to the smallest swept depth whose window
    covers both sparse targets; shallower windows truncate them to
    unequal norms and the comparison loses its meaning there.
    """

    l: int
    tables: dict
    depths: dict
    notes: tuple
    checks: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def error_curve_study(l: int = 2, K_list=(4, 5, 6), M_max: int = 64) -> CurveStudy:
    """Bound curves for the builtin targets over a shared (K, M) sweep; l,
    each K of a nonempty K_list and M_max are read as whole numbers."""
    M_max = _whole(M_max, "M_max")
    if M_max < 1:
        raise ValueError("M_max must be >= 1")
    depths = {name: DepthTable(make_target(name), l) for name in ("rho1", "rho2", "rho3")}
    l = depths["rho1"].l
    K_list = sorted({_depth(l, k)[1] for k in K_list})
    if not K_list:
        raise ValueError("K_list must name at least one depth")
    M_range = range(1, M_max + 1)
    tables = {name: error_curve(table, K_list, M_range) for name, table in depths.items()}
    notes = []
    checks = {}

    cover = tensors.coverage_depth(l, max(depths["rho1"].rho.radius(),
                                          depths["rho2"].rho.radius()))
    claim_K = next((K for K in K_list if K >= cover), None)
    if claim_K is not None:
        r1, r2 = (depths[name].spectrum(claim_K).rank() for name in ("rho1", "rho2"))
        notes.append(f"window tensor ranks at K={claim_K}: rho1 -> {r1}, rho2 -> {r2}")
        _, u1 = tables["rho1"].curve(claim_K)
        _, u2 = tables["rho2"].curve(claim_K)
        _, u3 = tables["rho3"].curve(claim_K)
        checks["low_rank_pointwise_easier"] = all(
            a <= b + 1e-12 for a, b in zip(u1, u2))
        m2, m3 = float(np.mean(u2)), float(np.mean(u3))
        checks["decaying_easier_on_average"] = m3 < m2
        notes.append(f"sweep-average upper bounds at K={claim_K}: "
                     f"rho2 -> {m2:.6f}, rho3 -> {m3:.6f}")
    else:
        checks["low_rank_pointwise_easier"] = False
        checks["decaying_easier_on_average"] = False
        notes.append("no swept depth covers the sparse supports; "
                     "claim checks not evaluable")

    non_inc = plateau = True
    for name, table in tables.items():
        for K in K_list:
            depth = [r for r in table.rows if r.K == K]     # ascending in M
            non_inc &= all(b.upper_bound <= a.upper_bound + 1e-12
                           for a, b in zip(depth, depth[1:]))
            last = depth[-1]
            if rank_budget(K, M_max) >= l * K:
                plateau &= (last.rank_term == 0.0
                            and last.upper_bound == last.tail_term)
                notes.append(f"plateau({name}, K={K}) = {last.tail_term!r}")
            else:
                notes.append(f"sweep too short to reach the plateau of "
                             f"{name} at K={K}")
    checks["curves_non_increasing"] = non_inc
    checks["plateaus_match_tail_terms"] = plateau

    tail = depths["rho3"].rho.tail_norm(l ** max(K_list))
    notes.append(f"rho3 tail norm beyond the deepest window: "
                 f"[{tail.lower:.6f}, {tail.upper:.6f}] (interval bracket)")
    return CurveStudy(l, tables, depths, tuple(notes), checks)


@dataclass(frozen=True)
class ComparisonReport:
    """Head-to-head resource requirements for one scenario.

    Every number is produced by a model-construction or sizing routine;
    the report only collects them and words the verdict.
    """

    scenario: str
    parameters: dict
    cnn_requirement: dict
    rnn_requirement: dict
    verdict: str

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _exp_decay(gamma=0.99, eps=0.01, l=2, horizon=1000) -> ComparisonReport:
    """A geometric memory kernel is reproduced exactly by a width-1
    recurrence (checked numerically over the horizon, matching on t >= 1
    where the recurrence is defined), while a dilated stack needs its
    receptive field to outgrow the decay."""
    gamma, eps = _number(gamma, "gamma"), _number(eps, "eps")
    l, horizon = _whole(l, "l"), _whole(horizon, "horizon")
    depth = cnn_min_depth_expdecay(gamma, eps, l)
    spec = RnnSpec(m=1, c=[1.0], W=[[gamma]], U=[gamma])
    rep = rnn_representation(spec, horizon)
    kernel = np.array([gamma ** t for t in range(1, horizon + 1)])
    residual = float(np.max(np.abs(rep.values_upto(horizon + 1)[1:] - kernel)))
    return ComparisonReport(
        scenario="exp_decay",
        parameters={"gamma": gamma, "eps": eps, "l": l, "horizon": horizon},
        cnn_requirement={"min_depth": depth, "receptive_field": l ** depth},
        rnn_requirement={"width": 1, "residual_sup": residual,
                         "exact": residual <= 1e-12, "checked_horizon": horizon},
        verdict=(f"a width-1 recurrence reproduces the geometric kernel "
                 f"exactly (residual {residual:.2e} over t <= {horizon}), "
                 f"while the dilated stack needs depth {depth} to reach "
                 f"tolerance {eps}"))


def _impulse_copy(K=10, eps=0.1, l=2) -> ComparisonReport:
    """Copying the input from the far end of a depth-K receptive field
    (lag l^K - 1) takes one filter per layer, while a linear recurrence
    needs width growing exponentially in K."""
    (l, K), eps = _depth(l, K), _number(eps, "eps")
    lag = l ** K - 1
    target = Sequence.impulse(lag)
    cnn = synthesize_radix(target, l)
    residual = replay_residual(cnn, target)
    width = rnn_min_width_impulse(K, eps)
    return ComparisonReport(
        scenario="impulse_copy",
        parameters={"K": K, "eps": eps, "l": l, "lag": lag},
        cnn_requirement={"depth": cnn.K, "filter_count": cnn.filter_count,
                         "channels": list(cnn.channels),
                         "replay_residual": residual},
        rnn_requirement={"min_width": width, "tolerance": eps},
        verdict=(f"a depth-{cnn.K} stack with one channel per layer "
                 f"copies lag {lag} exactly with {cnn.filter_count} "
                 f"filters, while a linear recurrence needs width at "
                 f"least {width} to reach tolerance {eps}"))


# The canned scenarios; the keyword arguments of each are its parameters.
SCENARIOS = {"exp_decay": _exp_decay, "impulse_copy": _impulse_copy}


def comparison_report(scenario: str, **params) -> ComparisonReport:
    """The model-family comparison of one of the SCENARIOS, given any of
    its parameters."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return SCENARIOS[scenario](**params)


@dataclass(frozen=True)
class ConformanceItem:
    name: str
    status: str
    detail: str


def _check(name: str, ok: bool, detail: str) -> ConformanceItem:
    return ConformanceItem(name=name, status="PASS" if ok else "FAIL",
                           detail=detail)


def _logged(name: str, detail: str) -> ConformanceItem:
    return ConformanceItem(name=name, status="LOGGED", detail=detail)


def conformance_suite():
    """Replay the worked examples; report PASS/FAIL/LOGGED per item.

    LOGGED marks a reference-material discrepancy that is recorded
    rather than enforced; FAIL marks a defect in this library.  The
    curve study runs first; the items read the windows they share with it
    or with each other through its DepthTables and one of their own, so
    none is decomposed twice.
    """
    items = []
    sq2 = math.sqrt(2.0)
    study = error_curve_study()

    w22 = Sequence.from_values([1, 2, 3, 4]).values_upto(4)
    ok = (np.array_equal(w22, [1.0, 2.0, 3.0, 4.0]) and
          np.array_equal(tensors.mode_view(w22, (2, 2), 1).reshape(2, -1),
                         [[1.0, 3.0], [2.0, 4.0]]))
    items.append(_check(
        "window-layout", ok,
        "window slot t maps to its base-l digits, mode 1 least significant"))

    w1 = Sequence.from_values([1, 2])
    w2 = Sequence.from_values([3, 4])
    chain = dilated_conv(w2, w1, 2)
    window = chain.values_upto(4)
    flat = tensors.mode_view(window, (2, 2), 1).reshape(2, -1)
    items.append(_check(
        "layer-product-identity",
        tuple(window) == (3.0, 6.0, 4.0, 8.0) and
        np.array_equal(flat, np.outer([1.0, 2.0], [3.0, 4.0])),
        "a two-layer chain tensorises to the outer product of its filters"))

    edge = DepthTable(Sequence.from_values([1, 0, 0, 1]), 2)
    refs = {2: (1.0, 1.0, 1.0, 1.0),
            3: (sq2, 1.0, 1.0, 1.0, 1.0, 0.0),
            4: (sq2, sq2, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)}
    ok = True
    for K, ref in refs.items():
        vals = edge.spectrum(K).values
        ok &= len(vals) == len(ref)
        ok &= float(np.max(np.abs(vals - np.array(ref)))) <= 1e-9
    items.append(_check(
        "edge-impulse-spectra", ok,
        "pooled spectra of the two-ended impulse pattern match the "
        "reference table for K = 2, 3, 4 to 1e-9"))
    k1 = edge.spectrum(1).values
    items.append(_logged(
        "depth-one-spectrum",
        f"the K = 1 window [1, 0] has the single spectrum value "
        f"{float(k1[0]):g}; the reference table lists two values for this "
        f"row, which has no reading under the depth-one definition"))

    # The tail mass at offset s of the depth-3 window.
    prof = edge.masses(3)
    ok = (abs(prof[1] ** 2 - 2.0) <= 1e-9
          and abs(prof[2] ** 2 - 1.0) <= 1e-9)
    items.append(_check(
        "tail-mass-values", ok,
        "squared tail masses at s = 1 and s = 2 are 2 and 1"))
    items.append(_logged(
        "tail-mass-origin",
        f"the s = 0 squared tail mass is {prof[0] ** 2:g}; the "
        f"reference case list assigns 0 to every s outside {{1, 2}}"))

    r_alt = tensors.window_spectrum(Sequence.from_values([1, 0, 1, 0]), 2, 2).rank()
    r_edge = edge.spectrum(2).rank()
    sparse = study.depths["rho1"], study.depths["rho2"]
    r1, r2 = (table.spectrum(5).rank() for table in sparse)
    items.append(_check(
        "window-ranks", (r_alt, r_edge, r1, r2) == (2, 4, 5, 10),
        f"pooled ranks: alternating pair -> {r_alt}, two-ended pair -> "
        f"{r_edge}, sparse targets at K = 5 -> {r1} and {r2}"))
    items.append(_logged(
        "sparse-slot-indexing",
        "builtin sparse targets live on zero-based window slots "
        f"{list(RHO1_SLOTS)} and {list(RHO2_SLOTS)}; reading the reference "
        "positions as zero-based slots instead gives a depth-5 rank of 7, "
        "not the quoted 5, so the one-based reading is adopted"))

    n1, n2 = (float(table.rho.norm()) for table in sparse)
    items.append(_check(
        "sparse-norm-agreement", n1 == n2,
        f"both sparse targets have norm {n1:.10f}"))
    n3 = study.depths["rho3"].rho.norm()
    items.append(_logged(
        "decaying-norm-mismatch",
        f"the decaying target's norm lies in [{n3.lower:.6f}, {n3.upper:.6f}] "
        f"while the sparse targets' norm is {n1:.6f}; the three-way norm "
        f"equality claim fails for the decaying target"))

    dims = (4, 3, 2)
    data = np.zeros(24)
    for i3 in range(2):
        for i2 in range(3):
            for i1 in range(4):
                data[i1 + 4 * i2 + 12 * i3] = 1 + 3 * i1 + i2 + 12 * i3
    a1, a2, a3 = (tensors.mode_view(data, dims, k).reshape(dims[k - 1], -1)
                  for k in (1, 2, 3))
    ok = (list(a1[0]) == [1, 2, 3, 13, 14, 15]
          and list(a2[0]) == [1, 4, 7, 10, 13, 16, 19, 22]
          and list(a3[0]) == [1, 4, 7, 10, 2, 5, 8, 11, 3, 6, 9, 12]
          and list(a3[1]) == [13, 16, 19, 22, 14, 17, 20, 23, 15, 18, 21, 24])
    # Each flattening refolds: written back through the view of an empty
    # array, it fills that array with the data.
    for k, flat in ((1, a1), (2, a2), (3, a3)):
        refold = np.empty(24)
        view = tensors.mode_view(refold, dims, k)
        view[...] = flat.reshape(view.shape)
        ok &= np.array_equal(refold, data)
    items.append(_check(
        "flattening-walkthrough", ok,
        "the 4x3x2 worked flattenings and their refolds are reproduced"))

    merged = sorted([*edge.spectrum(2).values, float(edge.rho.norm()), 0.0], reverse=True)
    ok = float(np.max(np.abs(edge.spectrum(3).values - np.array(merged)))) <= 1e-10
    g = DecayProfile.exponential(0.5)
    c_base = complexity_measure(edge, g)
    # Depths 3-5 lie past the coverage depth 2: their largest ratio is the
    # complexity itself.
    noise = COMPLEXITY_NOISE_REL_TOL * float(edge.rho.norm())
    deeper = max(t / g(s) for K in (3, 4, 5)
                 for s, t in enumerate(edge.masses(K)) if t > noise)
    ok &= abs(c_base.value - deeper) <= 1e-12 * max(1.0, c_base.value)
    items.append(_check(
        "window-padding-law", ok,
        "deepening the window appends the sequence norm and zeros to the "
        "spectrum, so the complexity cap is immaterial"))

    items.append(_check(
        "complexity-worked-example",
        abs(c_base.value - 4.0) <= 1e-12,
        f"two-ended impulse pattern against g(s) = 2^-s gives {c_base.value:g}"))

    failing = sorted(k for k, v in study.checks.items() if not v)
    items.append(_check(
        "curve-shape-claims", not failing,
        "curves are non-increasing, plateau at their tail terms, and the "
        "easier-target orderings hold" if not failing
        else "failing checks: " + ", ".join(failing)))

    return tuple(items)
