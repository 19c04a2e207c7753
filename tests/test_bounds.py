import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memlens.bounds import (COMPLEXITY_NOISE_REL_TOL, DecayProfile, DepthTable,
                            complexity_measure, curve_points, error_curve, rank_budget,
                            rate_bound_interval)
from contract import corpus
from memlens.experiments import make_target
from memlens.models import replay_residual, synthesize_lowrank, synthesize_radix
from memlens import tensors
from memlens.sequences import Sequence, root_sum_squares
from memlens.tensors import (coverage_depth, singular_values, truncation_error_bound,
                             window_spectrum)


def _tail_profile(rho, l, K):
    """The spectrum tail masses of the depth-K window, by offset s."""
    spec = window_spectrum(rho, l, K)
    return truncation_error_bound(spec, range(K - 1, l * K))


def _padded_tail_profile(rho, l, K):
    """The same tail masses as root_sum_squares over the pooled spectrum
    zero-padded to l*K values, the reading complexity_measure once had."""
    values = window_spectrum(rho, l, K).values
    padded = np.zeros(l * K)
    padded[:len(values)] = values
    return [root_sum_squares(padded[s + K - 1:]) for s in range(l * K - K + 1)]


def _padded_complexity(rho, l, g, k_cap=None):
    """complexity_measure of a finite rho as one division per tail mass of
    _padded_tail_profile, over every depth up to k_cap (the coverage depth
    by default) and every offset, without an envelope."""
    r = rho.radius()
    if r is None:
        return 0.0
    noise = COMPLEXITY_NOISE_REL_TOL * float(rho.norm())
    best = 0.0
    for K in range(1, (k_cap or coverage_depth(l, r)) + 1):
        for s, tail in enumerate(_padded_tail_profile(rho, l, K)):
            if tail > noise:
                if g(s) == 0.0:
                    return math.inf
                best = max(best, tail / g(s))
    return best


def test_decay_profile_families():
    e = DecayProfile.exponential(0.5)
    assert e(0) == 1.0 and e(3) == 0.125
    p = DecayProfile.power(2.0, a=4.0)
    assert p(0) == 4.0 and p(1) == 1.0
    t = DecayProfile.table([1.0, 0.5], cutoff=4)
    assert t(0) == 1.0 and t(1) == 0.5 and t(4) == 0.5 and t(5) == 0.0


def test_a_power_profile_past_the_float_range_is_computed_in_logs():
    # Only where (s + 1)^p overflows is a / (s + 1)^p read through logs: it
    # is 0.0 where it underflows and a normal number where a is large.
    for g in (DecayProfile.power(1100.0), DecayProfile.power(1e308),
              DecayProfile.power(1100, a=10.0)):
        assert g(0) == g.a and g(1) == 0.0 and g(10 ** 400) == 0.0
    big = DecayProfile.power(1100.0, a=1e300)
    assert big(1) == pytest.approx(math.ldexp(1e300, -1100), rel=1e-12)
    assert big(2) == pytest.approx(1.4676409076514536e-225, rel=1e-12)
    # Every other value keeps its bits.
    assert DecayProfile.power(1000.0)(1) == 1.0 / 2.0 ** 1000.0
    assert DecayProfile.power(2.5, a=3.0)(3) == 3.0 / 4 ** 2.5
    table = DepthTable(Sequence.power(horizon=100), 2)
    assert complexity_measure(table, DecayProfile.power(1100.0)).value == math.inf
    assert complexity_measure(table, big).value == math.inf


def test_decay_profile_validation():
    with pytest.raises(ValueError):
        DecayProfile.exponential(1.0)
    with pytest.raises(ValueError):
        DecayProfile.power(-1.0)
    with pytest.raises(ValueError):
        DecayProfile.table([0.5, 1.0], cutoff=4)
    with pytest.raises(ValueError):
        DecayProfile.table([1.0, 0.5], cutoff=0)
    with pytest.raises(ValueError):
        DecayProfile(family="mystery")
    with pytest.raises(ValueError):
        DecayProfile.exponential(0.5)(-1)


def test_decay_profiles_refuse_each_zero_parameter_and_keep_the_least_positive():
    tiny = 5e-324
    for make, text in ((lambda x: DecayProfile.exponential(0.5, a=x), "exponential"),
                       (lambda x: DecayProfile.exponential(x), "exponential"),
                       (lambda x: DecayProfile.power(1.0, a=x), "power"),
                       (lambda x: DecayProfile.power(x), "power"),
                       (lambda x: DecayProfile.table([1.0, x], cutoff=4), "table")):
        with pytest.raises(ValueError, match=f"^{text} profile needs"):
            make(0.0)
        assert make(tiny).family == text


def test_decay_profiles_refuse_non_finite_parameters():
    nan, inf = float("nan"), float("inf")
    for make, family in ((lambda: DecayProfile.exponential(0.5, a=nan), "exponential"),
                         (lambda: DecayProfile.exponential(nan), "exponential"),
                         (lambda: DecayProfile.exponential(0.5, a=inf), "exponential"),
                         (lambda: DecayProfile.power(nan), "power"),
                         (lambda: DecayProfile.power(inf), "power"),
                         (lambda: DecayProfile.power(2.0, a=-inf), "power"),
                         (lambda: DecayProfile.table([1.0, nan], cutoff=3), "table"),
                         (lambda: DecayProfile.table([inf, 1.0], cutoff=3), "table")):
        with pytest.raises(ValueError, match=f"^{family} profile parameters must be finite$"):
            make()
    for cutoff in (2.5, nan, inf, "3", None):
        with pytest.raises(ValueError, match="^the table cutoff must be a whole number, not "):
            DecayProfile.table([1.0, 0.5], cutoff=cutoff)
    # A string is refused as the values, not by its first character, and
    # so is a value list that is not iterable.
    for values, text in (("12", "'12'"), (b"21", "b'21'"), (None, "None"), (1.0, "1.0")):
        for make in (lambda: DecayProfile.table(values, 1),
                     lambda: DecayProfile("table", values=values, cutoff=1)):
            with pytest.raises(ValueError, match=f"^the table values must be a list of "
                                                 f"numbers, not {text}$"):
                make()
    assert DecayProfile.table([1.0, 0.5], cutoff=3.0).cutoff == 3
    # Every family keeps the values it read as a tuple, so every profile hashes.
    for family in ("exponential", "power", "table"):
        profile = DecayProfile(family, values=[1.0, 0.5], cutoff=1)
        assert profile.values == (1.0, 0.5)
        assert hash(profile) == hash(DecayProfile(family, values=(1.0, 0.5), cutoff=1))


def test_tail_sum_profile_worked_values():
    rho = Sequence.from_values([1, 0, 0, 1])
    for K in (2, 3, 4):
        prof = _tail_profile(rho, 2, K)
        assert len(prof) == 2 * K - K + 1
        assert prof[1] ** 2 == pytest.approx(2.0, abs=1e-9)
        assert prof[2] ** 2 == pytest.approx(1.0, abs=1e-9)
        assert prof[0] ** 2 == pytest.approx(3.0, abs=1e-9)
        for s in range(3, len(prof)):
            assert prof[s] <= 1e-9


def test_tail_sum_profile_is_non_increasing(rng):
    for _ in range(20):
        rho = Sequence.from_values(rng.normal(size=8))
        vals = _tail_profile(rho, 2, 3)
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


def test_tail_sum_profile_depth_one_pads_with_zeros():
    prof = _tail_profile(Sequence.from_values([3.0, 4.0]), 2, 1)
    assert prof[0] == pytest.approx(5.0)
    assert prof[1] == 0.0


def test_complexity_reads_the_padded_tail_profile_bit_for_bit(rng):
    # Sparse, dense and geometric (rank-one: most masses are round-off)
    # windows; the first table reaches 0 and the last profile's a is
    # subnormal, so some complexities are infinite.
    profiles = (DecayProfile.exponential(0.5), DecayProfile.power(2.0, a=3.0),
                DecayProfile.exponential(0.9, a=2.0), DecayProfile.power(1.0),
                DecayProfile.table([1.0, 0.5, 0.25], cutoff=2),
                DecayProfile.table([2.0, 1.0, 1.0, 0.1], cutoff=40),
                DecayProfile.exponential(0.5, a=1e-320))
    infinite = set()
    for l, top in ((2, 6), (3, 4), (4, 3), (8, 3)):
        for scale in (1e-200, 1.0, 1e200):
            for _ in range(3):
                n = l ** int(rng.integers(1, top + 1))
                times = rng.choice(n, size=int(rng.integers(1, min(n, 8) + 1)),
                                   replace=False)
                size = int(rng.integers(1, n + 1))
                for rho in (Sequence.from_arrays(times, rng.normal(size=len(times)) * scale),
                            Sequence.from_values(rng.normal(size=size) * scale),
                            Sequence.from_values(rng.uniform(0.3, 0.9) ** np.arange(size)
                                                 * scale)):
                    k_star = coverage_depth(l, rho.radius())
                    for K in range(1, k_star + 2):
                        assert _tail_profile(rho, l, K) == _padded_tail_profile(rho, l, K)
                    for g in profiles:
                        got = complexity_measure(DepthTable(rho, l), g).value
                        assert got.hex() == _padded_complexity(rho, l, g).hex()
                        # A window past the coverage depth changes the value by
                        # round-off at most.
                        deeper = _padded_complexity(rho, l, g, k_star + 1)
                        assert deeper == pytest.approx(got, rel=1e-10)
                        infinite.add(math.isinf(got))
                    table = DepthTable(rho, l)
                    for row in error_curve(table, range(1, k_star + 2), range(1, 41)):
                        spec = window_spectrum(rho, l, row.K)
                        want = truncation_error_bound(spec, [rank_budget(row.K, row.M)])[0]
                        assert row.rank_term.hex() == want.hex(), (l, row.K, row.M)
    assert infinite == {False, True}


def test_complexity_decomposes_no_window_past_the_first_infinite_depth(monkeypatch):
    # Under a table that is zero past s = 2, rho3:700's depth-3 window holds
    # a mass above noise at s = 3; its coverage depth is 10.  The zero
    # target has no support, so its complexity reads no window at all.
    depths = []

    def counted(rho, l, K):
        depths.append(K)
        return window_spectrum(rho, l, K)

    monkeypatch.setattr(tensors, "window_spectrum", counted)
    g = DecayProfile.table([1.0, 0.5], cutoff=2)
    assert complexity_measure(DepthTable(make_target("rho3:700"), 2), g).value == math.inf
    assert depths == [1, 2, 3]
    for l in (2, 3):
        assert complexity_measure(DepthTable(Sequence.zero(), l), g).value == 0.0
    assert depths == [1, 2, 3]


def _hex_rows(rows):
    return [(r.K, r.M, r.rank_term.hex(), r.tail_term.hex(), r.upper_bound.hex())
            for r in rows]


def test_a_horizon_family_and_its_cut_have_bit_identical_windows(rng):
    # A table of a horizon Family decomposes the Family's own windows, where
    # the complexity once read those of the Sequence analysis_window cuts.
    families = [Sequence.geometric(g, horizon=h) for g in rng.uniform(0.01, 0.999, size=60)
                for h in (0, 1, 7, 100, 300, 700, 5000)]
    families += [Sequence.power(horizon=h) for h in (0, 1, 7, 100, 300, 700, 5000)]
    for rho in families:
        cut = tensors.analysis_window(rho, 2)
        for K in range(1, 14):
            assert rho.values_upto(2 ** K).tobytes() == cut.values_upto(2 ** K).tobytes()


def _pinned_targets():
    """The targets and profiles whose values a table must keep.  The random
    target is the draw the rng fixture gives at its default seed."""
    profiles = (DecayProfile.exponential(0.5), DecayProfile.power(1.0),
                DecayProfile.table([1.0, 0.5], cutoff=2))
    draw = np.random.default_rng(20260816).normal(size=27)
    targets = (Sequence.from_values([1, 0, 0, 1]), make_target("rho1"), make_target("rho2"),
               Sequence.from_values(draw), make_target("rho3:700"),
               Sequence.geometric(0.9, horizon=300))
    return targets, profiles


def _rows_digest(rows):
    """The first 16 hex digits of the SHA-256 of the _hex_rows of error-curve rows."""
    return hashlib.sha256(repr(_hex_rows(rows)).encode("ascii")).hexdigest()[:16]


def _table_values():
    """Per l and target: the .hex() of each profile's complexity_measure and
    the digest of the error_curve rows, both read through one DepthTable;
    then the digests of two targets without a horizon, which have curves
    but no complexity."""
    targets, profiles = _pinned_targets()
    values = []
    for l in (2, 3, 4):
        for rho in targets:
            table = DepthTable(rho, l)
            K_list = range(1, coverage_depth(l, tensors.analysis_window(rho, l).radius()) + 2)
            values.append([*(complexity_measure(table, g).value.hex() for g in profiles),
                           _rows_digest(error_curve(table, K_list, range(1, 41)))])
    for rho in (make_target("rho3"), make_target("exp:0.9")):
        values.append([_rows_digest(error_curve(DepthTable(rho, 2), [4, 5, 6], range(1, 65)))])
    return values


# _table_values() as complexity_measure(rho, l, g) and error_curve(rho, l,
# K_list, M_range) gave it, when they still took a target and its l, under
# the output contract's OpenBLAS pin (tests/contract/corpus.py): LAPACK's
# last digits follow the kernel that runs.  The curve digests of rho3:700
# (rows 4, 10 and 16) are those of its tail term as one bracketed sum,
# sequences._power_tail_norm, which moved its last digits.
TABLE_VALUES = [
    ["0x1.0000000000000p+2", "0x1.8000000000000p+1", "0x1.6a09e667f3bcdp+1", "778bde604215b6e4"],
    ["0x1.a51a6625307d3p+0", "0x1.a51a6625307d3p+0", "0x1.a51a6625307d3p+0", "ddbbbc777e4674f0"],
    ["0x1.a51a6625307d3p+4", "0x1.7434c25b4e9fcp+2", "inf", "6a0edfa47804e5ed"],
    ["0x1.1534f738d02bcp+6", "0x1.f066a11c25cdep+3", "inf", "353796ad38928a9f"],
    ["0x1.7b1afe6ed5544p+4", "0x1.ec5cf8f782beep+0", "inf", "6284e5fe863b0986"],
    ["0x1.25a6f29acf3c1p+1", "0x1.25a6f29acf3c1p+1", "0x1.25a6f29acf3c1p+1", "b16a55a5d0e36c6e"],
    ["0x1.6a09e667f3bcdp+0", "0x1.6a09e667f3bcdp+0", "0x1.6a09e667f3bcdp+0", "4b8b6e3ab7c09c66"],
    ["0x1.a51a6625307d3p+1", "0x1.3bd3cc9be45dfp+1", "0x1.29c3ceaf72197p+1", "f011f7951568df3c"],
    ["0x1.a51a6625307d3p+5", "0x1.c7db852924079p+2", "inf", "dcd88889bad5577f"],
    ["0x1.9c1fd406e8a68p+6", "0x1.d80deb0b27c73p+3", "inf", "6a31a5a3d17cb964"],
    ["0x1.75a61f5291f30p+4", "0x1.7053d3ad4e3a3p+0", "inf", "02d3d3154a810cd9"],
    ["0x1.25a6f29acf3c2p+1", "0x1.25a6f29acf3c2p+1", "0x1.25a6f29acf3c2p+1", "b0818cad47ed7036"],
    ["0x1.6a09e667f3bcdp+0", "0x1.6a09e667f3bcdp+0", "0x1.6a09e667f3bcdp+0", "9601b06a9a444671"],
    ["0x1.a51a6625307d3p+0", "0x1.a51a6625307d3p+0", "0x1.a51a6625307d3p+0", "87597e825a1b33b6"],
    ["0x1.a51a6625307d2p+4", "0x1.7434c25b4e9fbp+2", "inf", "2395402ac8bf247a"],
    ["0x1.6e442f8422262p+6", "0x1.d3f6a85ec2b80p+3", "inf", "876ab67421e02aee"],
    ["0x1.1b326eaccd552p+4", "0x1.56fe8e0a8808dp+0", "inf", "574bdd6fa37684c2"],
    ["0x1.25a6f29acf3c2p+1", "0x1.25a6f29acf3c2p+1", "0x1.25a6f29acf3c2p+1", "f1c59349314ccbcf"],
    ["a99d2cc1097e33f1"],
    ["9b8cc49eb787bb25"],
]


def test_a_depth_table_changes_no_value():
    # The values come from a process under the contract's pin, as the
    # contract's outputs do.  A horizon Family and its analysis_window cut
    # measure alike under any kernel, so that is checked in this process.
    tests = Path(__file__).resolve().parent
    env = {**os.environ, **corpus.PINNED_ENV,
           "PYTHONPATH": os.pathsep.join([str(corpus.SRC), str(tests)])}
    script = ("import json\nfrom contract import corpus\nimport test_bounds\n"
              "problem = corpus._pin_problem()\n"
              "print(json.dumps([problem, None if problem else test_bounds._table_values()]))\n")
    done = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                          capture_output=True, encoding="utf-8", timeout=300)
    assert done.returncode == 0, done.stderr
    problem, values = json.loads(done.stdout)
    if problem:
        pytest.fail(problem)
    assert values == TABLE_VALUES
    targets, profiles = _pinned_targets()
    for l in (2, 3, 4):
        for rho in targets:
            cut = tensors.analysis_window(rho, l)
            for g in profiles:
                want = complexity_measure(DepthTable(cut, l), g).value.hex()
                assert complexity_measure(DepthTable(rho, l), g).value.hex() == want


def test_a_table_at_l_3_reads_its_tails_and_depths_at_l_3(monkeypatch):
    # rho3:700's coverage depth at l = 3 is 6 (3^6 = 729; at l = 2 it is
    # 10): the complexity decomposes depths 1-6 only, and the tail term of
    # the depth-K curve is the tail beyond 3^K, which is not 0 for K < 6.
    depths = []

    def counted(rho, l, K):
        depths.append(K)
        return window_spectrum(rho, l, K)

    monkeypatch.setattr(tensors, "window_spectrum", counted)
    rho = make_target("rho3:700")
    table = DepthTable(rho, 3)
    assert math.isfinite(complexity_measure(table, DecayProfile.exponential(0.5)).value)
    assert depths == [1, 2, 3, 4, 5, 6]
    rows = error_curve(table, range(1, 7), range(1, 41))
    assert [row.tail_term for row in rows] == [rho.tail_norm(3 ** row.K).upper for row in rows]


def test_one_table_decomposes_each_window_once(monkeypatch):
    # rho3:700's coverage depth at l = 2 is 10: the complexity reads depths
    # 1-10, the curves add 11 and 12, and a second complexity adds none.
    depths = []

    def counted(rho, l, K):
        depths.append(K)
        return window_spectrum(rho, l, K)

    monkeypatch.setattr(tensors, "window_spectrum", counted)
    table = DepthTable(make_target("rho3:700"), 2)
    g = DecayProfile.exponential(0.5)
    first = complexity_measure(table, g).value
    error_curve(table, range(1, 13), range(1, 65))
    assert complexity_measure(table, g).value == first
    assert depths == list(range(1, 13))


def test_complexity_worked_example():
    rho = Sequence.from_values([1, 0, 0, 1])
    g = DecayProfile.exponential(0.5)
    assert complexity_measure(DepthTable(rho, 2), g).value == pytest.approx(4.0, abs=1e-12)


def test_complexity_zero_target_and_cap():
    g = DecayProfile.exponential(0.5)
    assert complexity_measure(DepthTable(Sequence.zero(), 2), g).value == 0.0
    rho = Sequence.from_values([1, 0, 0, 1])
    base = complexity_measure(DepthTable(rho, 2), g).value
    # Depths past the coverage depth 2 leave the value as it is, and a
    # depth short of it would miss the masses that attain it.
    for cap in (3, 5, 7):
        capped = _padded_complexity(rho, 2, g, cap)
        assert capped == pytest.approx(base, rel=1e-10)
    assert _padded_complexity(rho, 2, g, 1) < base


def test_complexity_signals_infinity_on_starved_profiles():
    rho = Sequence.from_values([1, 0, 0, 1])
    g = DecayProfile.table([1.0], cutoff=0)
    assert math.isinf(complexity_measure(DepthTable(rho, 2), g).value)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.5, 2.0))
@example(1.0)
@example(1.0000001)
def test_a_value_far_below_the_largest_counts_in_the_measure(v):
    # {0: 1, 1000: v * 1e-10}: every stored value is support, so the
    # coverage depth is 10.  Six of its ten modes split the two entries,
    # and the tail mass at offset s = 6 is the last of their six values
    # v * 1e-10, against g(6) = 1e-12.
    rho = Sequence.from_arrays([0, 1000], [1.0, v * 1e-10])
    measured = complexity_measure(DepthTable(rho, 2), DecayProfile.exponential(0.01)).value
    assert measured == pytest.approx(100 * v, rel=1e-9)


def test_the_noise_floor_sits_at_1e_12_of_the_norm():
    # {0: 1, 3: v} at l = 2: the depth-2 window diag(1, v) has the tail
    # masses sqrt(2) * v at s = 1 and v at s = 2.  Against g(s) = 1e-14^s,
    # both count above the floor 1e-12 * norm and neither below it.
    g = DecayProfile.exponential(1e-14)
    below = Sequence.from_arrays([0, 3], [1.0, 0.5e-12])
    above = Sequence.from_arrays([0, 3], [1.0, 2e-12])
    assert complexity_measure(DepthTable(below, 2), g).value == 1.0
    assert complexity_measure(DepthTable(above, 2), g).value == pytest.approx(2e16, rel=1e-12)


def test_complexity_is_absolutely_homogeneous(rng):
    g = DecayProfile.exponential(0.5)
    for _ in range(10):
        values = rng.normal(size=6)
        base = complexity_measure(DepthTable(Sequence.from_values(values), 2), g).value
        normal = float(rng.normal())
        log_uniform = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, 12))
        for alpha in (normal, log_uniform, 1e-12, -1e12):
            rho = Sequence.from_values(alpha * values)
            scaled = complexity_measure(DepthTable(rho, 2), g).value
            assert scaled == pytest.approx(abs(alpha) * base, rel=1e-9)


def test_outputs_scale_with_the_target_at_extreme_scales():
    points = {0: 1.0, 3: 2.0, 5: -1.0, 9: 0.5}
    g = DecayProfile.exponential(0.5)

    def outputs(alpha):
        rho = Sequence.from_arrays(list(points), [alpha * v for v in points.values()])
        values = [complexity_measure(DepthTable(rho, 2), g).value]
        for channels in ((1, 4, 4, 1), (1, 4, 4, 4, 1)):
            lower, upper = rate_bound_interval(rho, 2, channels, g)
            values += [lower.value, upper.value]
        for row in error_curve(DepthTable(rho, 2), [1, 2, 3, 4], range(1, 17)):
            values += [row.rank_term, row.tail_term]
        for synthesize in (synthesize_radix, synthesize_lowrank):
            window_norm = float(rho.norm())
            assert replay_residual(synthesize(rho, 2), rho) <= 1e-12 * window_norm
        return np.array(values)

    base = outputs(1.0)
    assert base[0] > 0.0 and base[1] > 0.0
    for alpha in (1e-200, 1e200):
        assert np.allclose(outputs(alpha) / alpha, base, rtol=1e-12, atol=0.0)


def test_complexity_requires_a_splittable_target():
    g = DecayProfile.exponential(0.5)
    with pytest.raises(ValueError):
        complexity_measure(DepthTable(Sequence.geometric(0.9), 2), g)
    value = complexity_measure(DepthTable(Sequence.geometric(0.9, horizon=20), 2), g)
    assert math.isfinite(value.value)
    # A base below 2 splits no window; it once looped for ever.
    for l in (1, 0):
        with pytest.raises(ValueError, match="l >= 2"):
            complexity_measure(DepthTable(Sequence.from_values([1.0, 2.0]), l), g)


def test_rate_bound_interval_rejects_starved_stacks():
    g = DecayProfile.exponential(0.5)
    rho = Sequence.from_values([1, 0, 0, 1])
    with pytest.raises(ValueError):
        rate_bound_interval(rho, 2, (1, 2, 2, 1), g)


def test_rate_bound_interval_geometric_lower_end():
    g = DecayProfile.exponential(0.5)
    lower, upper = rate_bound_interval(Sequence.geometric(0.5), 2, (1, 4, 4, 1), g)
    assert lower.value == 0.5 ** 8
    assert lower.value <= upper.value


def test_rate_bound_interval_zero_target():
    g = DecayProfile.exponential(0.5)
    lower, upper = rate_bound_interval(Sequence.zero(), 2, (1, 5, 1), g)
    assert lower.value == 0.0 and upper.value == 0.0


def test_rate_bound_interval_covered_support_has_zero_tail():
    g = DecayProfile.exponential(0.5)
    rho = Sequence.from_values([1, 0, 0, 1])
    lower, upper = rate_bound_interval(rho, 2, (1, 8, 1), g)
    assert lower.value == 0.0
    assert upper.halfwidth == 0.0
    # M = (8 - 4) / 1 = 4, budget = floor(2 * sqrt(4)) = 4, g(2) = 1/4
    assert upper.value == pytest.approx(0.25 * 4.0)


def test_an_infinite_complexity_makes_the_upper_bound_infinite():
    # With g(5) = 0 the upper bound once read 0 * inf = NaN; with g(5) > 0
    # it was already inf.
    rho = Sequence.power(horizon=100)
    for channels, values in (((1, 4, 4, 4, 4, 1), [1.0]), ((1, 2, 2, 2, 2, 1), [1.0, 0.5])):
        g = DecayProfile.table(values, cutoff=len(values) - 1)
        assert complexity_measure(DepthTable(rho, 2), g).value == math.inf
        lower, upper = rate_bound_interval(rho, 2, channels, g)
        assert lower.value == 1.0 / 32 and upper.value == math.inf


def test_a_ratio_beyond_the_largest_float_makes_the_complexity_infinite():
    # rho1's tail masses above round-off are all at s = 0, so no g(s) = 0
    # is met: over g(0) = 1e-320, a subnormal, they pass the largest float,
    # and over g(0) = 1e-308 they stay below it.
    table = DepthTable(make_target("rho1"), 2)
    assert complexity_measure(table, DecayProfile.exponential(0.5, 1e-320)).value == math.inf
    c = complexity_measure(table, DecayProfile.exponential(0.5, 1e-308)).value
    assert c == 1.6449340668482266e+308


def test_rate_bound_interval_channel_list_shape():
    g = DecayProfile.exponential(0.5)
    rho = Sequence.from_values([1, 0, 0, 1])
    with pytest.raises(ValueError):
        rate_bound_interval(rho, 2, (1,), g)
    with pytest.raises(ValueError):
        rate_bound_interval(rho, 2, (2, 8, 1), g)
    with pytest.raises(ValueError):
        rate_bound_interval(rho, 2, (1, 8, 3), g)


def test_rate_bound_sandwich_on_random_targets(rng):
    g = DecayProfile.exponential(0.6)
    for _ in range(20):
        rho = Sequence.from_values(rng.normal(size=12))
        lower, upper = rate_bound_interval(rho, 2, (1, 6, 6, 1), g)
        assert lower.value <= upper.upper + 1e-12


def test_error_curve_row_invariants():
    rho = Sequence.from_values([1, 0, 0, 1])
    rows = error_curve(DepthTable(rho, 2), [2, 3], range(1, 9))
    assert len(rows) == 16
    assert [(row.K, row.M) for row in rows] == sorted((row.K, row.M) for row in rows)
    for row in rows:
        assert row.upper_bound == row.rank_term + row.tail_term
    for K in (2, 3):
        _, uppers = curve_points(rows, K)
        assert all(uppers[i + 1] <= uppers[i] + 1e-12
                   for i in range(len(uppers) - 1))
    ms, uppers = curve_points(rows, 3)
    assert ms == list(range(1, 9))
    assert uppers[-1] == 0.0


def test_error_curve_matches_a_per_width_loop():
    for name, rho in (("rho1", make_target("rho1")), ("rho2", make_target("rho2")),
                      ("rho3:700", make_target("rho3:700"))):
        for l in (2, 3):
            got = error_curve(DepthTable(rho, l), [4, 5, 6], range(1, 65))
            rows = []
            for K in (4, 5, 6):
                spec = window_spectrum(rho, l, K)
                tail_term = rho.tail_norm(l ** K).upper
                for M in range(1, 65):
                    budget = math.floor(K * M ** (1.0 / K))
                    rank_term = truncation_error_bound(spec, [budget])[0]
                    rows.append((K, M, rank_term.hex(), tail_term.hex(),
                                 (rank_term + tail_term).hex()))
            assert [(r.K, r.M, r.rank_term.hex(), r.tail_term.hex(),
                     r.upper_bound.hex()) for r in got] == rows, (name, l)


def test_error_curve_tail_uses_bracket_upper_end():
    rho3 = Sequence.power()
    row, = error_curve(DepthTable(rho3, 2), [3], [1])
    assert row.tail_term == rho3.tail_norm(8).upper


def test_error_curve_rejects_bad_widths():
    rho = Sequence.from_values([1.0])
    with pytest.raises(ValueError):
        error_curve(DepthTable(rho, 2), [2], [0])
    # Widths are checked before any depth, so no depth still refuses them.
    with pytest.raises(ValueError):
        error_curve(DepthTable(rho, 2), [], [0])
    with pytest.raises(ValueError):
        error_curve(DepthTable(rho, 2), [2, 3], [5, -1, 2])
    assert error_curve(DepthTable(rho, 2), [], [1]) == ()


def test_rank_budget_refuses_a_depth_or_a_width_outside_its_domain():
    assert rank_budget(2, 0) == rank_budget(3, 0.0) == 0
    assert rank_budget(1, 4) == 4 and rank_budget(3, 8) == 6
    assert rank_budget(1, sys.float_info.max) == math.floor(sys.float_info.max)
    # A depth too long to write as text is named by its bit length.
    for K, text in ((0, "0"), (-1, "-1"), (-10 ** 5000, "a negative 16610-bit whole number")):
        with pytest.raises(ValueError, match=f"^K must be >= 1, not {text}$"):
            rank_budget(K, 4)
    # A depth a float can hold is read; one beyond the float range is refused
    # by name, not by the OverflowError of its conversion.
    assert rank_budget(2 ** 1023, 4) == 2 ** 1023 and rank_budget(2 ** 1023, 0) == 0
    for K in (2 ** 1024, 10 ** 400):
        with pytest.raises(ValueError, match=f"^K is beyond the float limit "
                                             f"{re.escape(repr(sys.float_info.max))}$"):
            rank_budget(K, 4)
    for M in (-1, -5e-324, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^M must be finite and >= 0, not {float(M)!r}$"):
            rank_budget(2, M)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(2, 3))
def test_rank_budget_saturation_zeroes_the_rank_term(M, K):
    rho = Sequence.from_values([1, 0, 0, 1])
    row, = error_curve(DepthTable(rho, 2), [K], [M])
    budget = math.floor(K * M ** (1.0 / K))
    spec = singular_values(rho.values_upto(2 ** K), 2, K)
    manual = math.sqrt(float(np.sum(spec.values[budget:] ** 2)))
    assert row.rank_term == pytest.approx(manual, abs=1e-12)
