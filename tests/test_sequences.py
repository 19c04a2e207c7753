import decimal
import functools
import gc
import json
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memlens import sequences
from memlens.sequences import (MAX_TIME, Family, Scalar, Sequence, make_target,
                               root_sum_squares)


def test_scalar_interval_accessors():
    s = Scalar(2.0, 0.5)
    assert s.lower == 1.5 and s.upper == 2.5
    assert float(s) == 2.0
    with pytest.raises(ValueError):
        Scalar(1.0, -0.1)


def test_root_sum_squares_is_the_plain_formula_wherever_that_is_normal(rng):
    for shape in ((7,), (40, 3), (1000,), (30, 12)):
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-100, 100, size=shape)
        assert root_sum_squares(x) == math.sqrt(float(np.sum(x * x)))
    x = np.array([3.0, -4.0, 0.0])
    for alpha in (1e-300, 1e-200, 1e200, 1e300):
        assert root_sum_squares(alpha * x) == pytest.approx(5.0 * alpha, rel=1e-15)
    assert root_sum_squares(np.zeros(0)) == 0.0
    assert root_sum_squares(np.array([np.inf, 1.0])) == np.inf
    assert math.isnan(root_sum_squares(np.array([np.nan, 1e300, 1e300])))


def test_from_values_reads_its_values_as_from_arrays_does():
    # A string or a bool, in a list or a tuple, is refused by name, as
    # from_arrays refuses it, and so is any shape but n values or n rows [v].
    for bad, text in ((["1", True], "'1'"), ([1.0, True], "True"), (("1", 2.0), "'1'"),
                      ([[1.0], ["2"]], "'2'")):
        for read in (Sequence.from_values, lambda v: Sequence.from_arrays(range(len(v)), v)):
            with pytest.raises(ValueError, match=f"^a value must be a number, not {text}$"):
                read(bad)
    # A string given as the values is refused as a whole, before numpy
    # reads it as characters or as one number.
    for bad, text in (("abc", "'abc'"), ("12", "'12'"), (b"12", "b'12'")):
        for read in (Sequence.from_values, lambda v: Sequence.from_arrays([0], v)):
            with pytest.raises(ValueError, match=f"^the values must be numbers, not {text}$"):
                read(bad)
    for bad in ([[1, 2], [3, 4]], 3.0, None, np.zeros((2, 1, 1)), np.zeros((0, 2))):
        shape = np.shape(np.asarray(bad, dtype=float))
        with pytest.raises(ValueError, match=f"^expected n values, got shape {re.escape(str(shape))}$"):
            Sequence.from_values(bad)
    assert Sequence.from_values([[1.0], [0.0], [2.0]]).to_json() == \
        Sequence.from_values((1.0, 0.0, 2.0)).to_json() == {"dim": 1, "entries": [[0, [1.0]], [2, [2.0]]]}
    # A whole number beyond the float range is refused by name, as a value
    # or a row of either reader, as an impulse value and as gamma.
    limit = re.escape(f" is beyond the float limit {sys.float_info.max!r}")
    for bad in ([1.0, 10 ** 400], [[1.0], [10 ** 400]], np.array([10 ** 400], dtype=object)):
        for read in (Sequence.from_values, lambda v: Sequence.from_arrays(range(len(v)), v)):
            with pytest.raises(ValueError, match=f"^a value{limit}$"):
                read(bad)
    for make, what in ((lambda: Sequence.impulse(3, 10 ** 400), "an impulse value"),
                       (lambda: Sequence.geometric(10 ** 400), "gamma")):
        with pytest.raises(ValueError, match=f"^{what}{limit}$"):
            make()


def test_from_values_drops_zeros_and_keeps_support():
    s = Sequence.from_values([0.0, 3.0, 0.0, -1.0])
    times, values = s.arrays()
    assert times.tolist() == [1, 3] and values.tolist() == [3.0, -1.0]
    assert s.value(1) == 3.0 and type(s.value(1)) is float
    assert s.value(0) == 0.0
    assert s.value(-5) == 0.0
    assert s.radius() == 3
    assert len(s.arrays()[0]) == 2
    # from_arrays drops an exact zero of either sign too.
    zeros = Sequence.from_arrays([4, 1, 3, 2], [0.0, 3.0, -1.0, -0.0])
    assert zeros.arrays()[0].tolist() == [1, 3]


def test_zero_sequence_has_no_radius():
    z = Sequence.zero()
    assert z.radius() is None
    assert len(z.arrays()[0]) == 0
    assert z.norm().value == 0.0


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-300, 1.0), st.sampled_from([1e-8, 1.0, 1e300]), st.sampled_from([1.0, -1.0]))
@example(1e-300, 1.0, 1.0)
@example(1e-10, 1.0, 1.0)
def test_radius_is_the_last_stored_time_however_small_its_value(v, scale, sign):
    # Every stored value is support: no value is cut relative to the largest.
    s = Sequence.from_arrays([0, 5, 1000], [scale, -0.5 * scale, sign * v * scale])
    assert s.radius() == 1000
    assert Sequence.from_arrays([7], [v]).radius() == 7


def test_row_form_dim_must_be_one():
    # The dict form, and the compact and indented texts that to_json's
    # layout would have with another dim, raise one message at load.
    for dim in (0, -1, 2, 3, 10 ** 18):
        width = min(max(dim, 1), 3)
        for entries in ([], [[0, [1.0]]], [[0, [1.0] * width], [4, [2.0] * width]]):
            doc = {"dim": dim, "entries": entries}
            for obj in (doc, json.dumps(doc), json.dumps(doc, indent=2)):
                with pytest.raises(ValueError, match=f"^memlens reads one-dimensional targets: "
                                                     f"dim must be 1, not {dim}$"):
                    Sequence.from_json(obj)
    for doc in ({"dim": 1, "entries": [[0, [1.0]]]}, {"dim": 1.0, "entries": [[0, 1.0]]},
                {"entries": [[0, [1.0]]]}):
        assert Sequence.from_json(doc).to_json() == {"dim": 1, "entries": [[0, [1.0]]]}
    assert Sequence.from_json('{"dim": 1, "entries": []}').to_json() == {"dim": 1, "entries": []}


def test_impulse_and_vector_entries():
    imp = Sequence.impulse(4, value=2.5)
    assert imp.value(4) == 2.5 and imp.radius() == 4
    # Rows [v] of one item, as the row form writes them, are read as values.
    v = Sequence.from_arrays([0, 3], [(1.0,), (-1.0,)])
    assert v.values_upto(4).tolist() == [1.0, 0.0, 0.0, -1.0]
    with pytest.raises(ValueError, match=r"^expected 2 values, got shape \(2, 2\)$"):
        Sequence.from_arrays([0, 3], [(1.0, 2.0), (0.0, -1.0)])
    with pytest.raises(ValueError):
        Sequence.impulse(-1)
    with pytest.raises(ValueError):
        Sequence.from_arrays([-2], [1.0])


def test_a_sequence_shares_no_buffer_with_the_arrays_it_was_built_from():
    # Sorted, unsorted and repeated times, and rows [v]: whatever path the
    # columns take, a later write to the caller's arrays leaves rho as it was.
    for times, values in (([1, 4, 9], [1.0, -2.0, 3.0]), ([9, 1, 4], [3.0, 1.0, -2.0]),
                          ([1, 4, 4, 9], [1.0, 5.0, -2.0, 3.0]),
                          ([1, 4, 9], [[1.0], [-2.0], [3.0]])):
        times, values = np.array(times, dtype=np.int64), np.array(values)
        seq = Sequence.from_arrays(times, values)
        before = seq.to_json()
        times[:] = 0
        values[...] = np.nan
        assert seq.to_json() == before == {"dim": 1, "entries": [[1, [1.0]], [4, [-2.0]],
                                                                  [9, [3.0]]]}


def test_generated_families_evaluate_pointwise():
    geo = Sequence.geometric(0.5).truncate(4)
    assert geo.value(3) == 0.125
    pw = Sequence.power().truncate(5)
    assert pw.value(0) == 0.0
    assert pw.value(4) == 0.25
    cut = Sequence.power(horizon=10)
    assert cut.truncate(20).value(10) == 0.1
    assert cut.truncate(20).value(11) == 0.0
    with pytest.raises(ValueError):
        Sequence.geometric(1.0)


def test_a_power_family_takes_no_gamma_and_every_family_id_round_trips():
    # A gamma would make a power family unequal to the one its JSON reads as.
    for gamma in (0.5, 0.0, 1):
        with pytest.raises(ValueError, match="^the power family takes no gamma$"):
            Family("power", gamma=gamma, horizon=3)
    with pytest.raises(ValueError, match="^unknown family 'bogus'$"):
        Family("bogus")
    families = [rho for rho in map(make_target, (
        "rho1", "rho2", "rho3", "rho3:0", "rho3:700", "rho3:1e19", "exp:0", "exp:0.9",
        "exp:.5", "exp:0.999", "impulse:5")) if isinstance(rho, Family)]
    assert len(families) == 7
    for rho in families:
        assert Sequence.from_json(rho.to_json()) == rho
        assert Sequence.from_json(json.dumps(rho.to_json())) == rho


def test_finite_tail_norm_is_the_exact_sum():
    s = Sequence.from_values([3.0, 0.0, 4.0])
    assert s.norm().value == 5.0
    assert s.tail_norm(1).value == 4.0
    assert s.tail_norm(3).value == 0.0


def test_geometric_tail_norm_matches_brute_force():
    geo = Sequence.geometric(0.8)
    brute = math.sqrt(sum(0.8 ** (2 * t) for t in range(5, 4000)))
    assert geo.tail_norm(5).value == pytest.approx(brute, rel=1e-12)
    cut = Sequence.geometric(0.8, horizon=20)
    brute = math.sqrt(sum(0.8 ** (2 * t) for t in range(5, 21)))
    assert cut.tail_norm(5).value == pytest.approx(brute, rel=1e-12)
    assert cut.tail_norm(21).value == 0.0


def test_geometric_tail_norm_is_within_four_ulp_as_gamma_nears_one():
    # sqrt(sum g^2t for start <= t <= horizon) against 60-digit decimals,
    # wherever that root is a normal double.
    checked = 0
    for gamma in (0.8, 0.999, 0.999999, 1 - 1e-9, 1 - 2.0 ** -40):
        for start in (0, 1, 7, 1000, 10 ** 6, 10 ** 9):
            for terms in (None, 1, 2, 100, 10 ** 6, 10 ** 12):
                horizon = None if terms is None else start + terms - 1
                got = Sequence.geometric(gamma, horizon=horizon).tail_norm(start).value
                with decimal.localcontext() as ctx:
                    ctx.prec, ctx.Emin = 60, decimal.MIN_EMIN
                    g = Decimal(gamma)
                    rest = 1 if terms is None else 1 - g ** (2 * terms)
                    want = float(g ** start * (rest / (1 - g * g)).sqrt())
                if want >= np.finfo(float).tiny:
                    assert abs(got - want) <= 4 * math.ulp(want), (gamma, start, horizon)
                    checked += 1
    assert checked > 100


def test_power_tail_norm_brackets_the_true_value():
    pw = Sequence.power()
    true_sq = sum(1.0 / (t * t) for t in range(7, 200000))
    got = pw.tail_norm(7)
    assert got.halfwidth > 0
    assert got.lower <= math.sqrt(true_sq) <= got.upper
    assert pw.norm().lower <= math.sqrt(math.pi ** 2 / 6) <= pw.norm().upper


def _inverse_square_sum(start, stop=None, head=10000):
    """sum(1/t^2 for start <= t <= stop), or for every t >= start with no
    stop, to about 50 digits: up to 10000 terms in 60-digit decimals, any
    rest by Euler-Maclaurin through the B8 term, whose remainder is below
    1e-50 of the sum.  Each difference a^-k - b^-k is its exact integer
    numerator over (ab)^k, so no digit cancels however close a and b are
    beside their size."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a = start + head if stop is None else min(start + head, stop + 1)
        total = sum(1 / (Decimal(t) * t) for t in range(start, a))
        if stop is None:
            x = 1 / Decimal(a)
            total += x + x ** 2 / 2 + x ** 3 / 6 - x ** 5 / 30 + x ** 7 / 42 - x ** 9 / 30
        elif a <= stop:
            b = stop
            gap = lambda k: Decimal(b ** k - a ** k) / Decimal(a * b) ** k  # noqa: E731
            total += (gap(1) + (1 / Decimal(a) ** 2 + 1 / Decimal(b) ** 2) / 2 + gap(3) / 6 -
                      gap(5) / 30 + gap(7) / 42 - gap(9) / 30)
        return total


def _assert_power_tail_brackets(starts, lengths):
    # One bracket of a few units in the last place that holds the true
    # value, on either side of the term-by-term head (4096 terms).
    for start in starts:
        for length in lengths:
            got = Sequence.power(horizon=start + length - 1).tail_norm(start)
            true = _inverse_square_sum(start, start + length - 1).sqrt()
            assert Decimal(got.lower) <= true <= Decimal(got.upper), (start, length)
            assert 0 < got.halfwidth <= 5 * math.ulp(got.value), (start, length)


_TAIL_STARTS = (1, 2, 7, 32, 1000, 10 ** 6, 2 ** 62)


def test_power_tail_norm_with_horizon_is_exact():
    # Exact to round-off: the value is the brute sum, and the bracket of a
    # few ulp holds the true value at every length up to 2^24 terms.
    got = Sequence.power(horizon=100).tail_norm(7)
    brute = math.sqrt(sum(1.0 / (t * t) for t in range(7, 101)))
    assert got.value == pytest.approx(brute, rel=1e-14)
    _assert_power_tail_brackets(_TAIL_STARTS, (1, 2, 100, 4095, 4096, 4097, 10 ** 5, 2 ** 24))
    # An empty tail is an exact 0, also from a start beyond 2^63.
    for start, horizon in ((0, 0), (11, 10), (2 ** 70, 10)):
        empty = Sequence.power(horizon=horizon).tail_norm(start)
        assert (empty.value, empty.halfwidth) == (0.0, 0.0)


def test_power_tail_norm_beyond_two_to_the_24_terms_is_a_round_off_bracket():
    # The same bracket holds for tails far beyond any term-by-term sum.
    _assert_power_tail_brackets(_TAIL_STARTS, (2 ** 24 + 1, 10 ** 12, 10 ** 400))


def _assert_round_off_bracket(got, low, high):
    """got brackets every value in [low, high] within 5 ulp, or reads an
    exact 0 where high is below half the least subnormal."""
    if high < Decimal(math.ulp(0.0)) / 2:
        assert (got.value, got.halfwidth) == (0.0, 0.0)
    else:
        assert Decimal(got.lower) <= low and high <= Decimal(got.upper)
        assert 0 < got.halfwidth <= 5 * math.ulp(got.value)


def test_power_tail_norm_from_any_whole_start_is_a_round_off_bracket():
    # From 2^511 on, where 1/t^2 leaves the normal doubles, a tail is all
    # closed form, rounded at a power-of-two scale: the bracket holds the
    # true value on both sides of 2^1024, subnormal tails included, and a
    # tail that underflows reads 0.0.
    huge = (2 ** 511, 2 ** 600, 10 ** 309, 2 ** 1100, 2 ** 2100, 2 ** 2200)
    for start in huge:
        for length in (1, 2, 4097, 10 ** 12, 10 ** 400):
            true = _inverse_square_sum(start, start + length - 1).sqrt()
            _assert_round_off_bracket(
                Sequence.power(horizon=start + length - 1).tail_norm(start), true, true)
    # Without a horizon, from 2^48 on, the tail is the same sum to infinity:
    # the integral bracket between the roots of 1/start and 1/(start - 1),
    # which it reads below 2^48, falls under its own rounding and misses
    # the true value from 2^51 on.
    for start in (*(2 ** e + 12345 for e in range(40, 511, 3)), 2 ** 48, *huge):
        got = Sequence.power().tail_norm(start)
        true = _inverse_square_sum(start, head=0).sqrt()
        if start >= 2 ** 48:
            _assert_round_off_bracket(got, true, true)
        else:
            assert Decimal(got.lower) <= true <= Decimal(got.upper), start


def test_family_tails_past_the_float_range_read_their_value():
    # A start or a horizon of 2^1024 or more is read, not converted to a
    # float: a geometric tail there underflows to 0.0, a geometric horizon
    # there is as good as none, and 1/start rounds once.
    huge = 10 ** 309
    assert Sequence.power(horizon=10 ** 400).tail_norm(huge) == \
        Sequence.power().tail_norm(huge)
    for family in (Sequence.power(), Sequence.power(horizon=10 ** 400)):
        assert family.sup_abs_from(huge) == float(Fraction(1, huge)) == 1e-309
    for family in (Sequence.geometric(0.5), Sequence.geometric(0.5, horizon=10 ** 400)):
        assert family.sup_abs_from(huge) == 0.0
        assert family.tail_norm(huge) == Scalar(0.0)
    for start in (0, 5, 2 ** 70):
        assert Sequence.geometric(0.5, horizon=10 ** 400).tail_norm(start) == \
            Sequence.geometric(0.5).tail_norm(start)
    assert Sequence.geometric(0.5, horizon=10 ** 400).tail_norm(5).value == \
        pytest.approx(math.sqrt(sum(0.25 ** t for t in range(5, 200))), rel=1e-15)


def test_sup_abs_from():
    s = Sequence.from_arrays([2, 7], [-5.0, 1.0])
    assert s.sup_abs_from(0) == 5.0
    assert s.sup_abs_from(3) == 1.0
    assert s.sup_abs_from(8) == 0.0
    assert Sequence.geometric(0.5).sup_abs_from(3) == 0.125
    assert Sequence.power().sup_abs_from(4) == 0.25
    # Past the horizon, and the power rule cut at 0, which keeps only its
    # zero at time 0.
    for family in (Sequence.power(horizon=10), Sequence.geometric(0.5, horizon=10)):
        assert family.sup_abs_from(11) == 0.0
    assert Sequence.power(horizon=0).sup_abs_from(0) == 0.0
    # rho is 0 before t = 0, so every start below 0 reads as the start 0.
    for rho in (s, Sequence.geometric(0.5), Sequence.geometric(0.5, horizon=10),
                Sequence.power(), Sequence.power(horizon=10), Sequence.power(horizon=0)):
        for start in (-1, -5, -2 ** 70, -10 ** 400):
            assert rho.sup_abs_from(start) == rho.sup_abs_from(0), (rho, start)


def test_a_geometric_sup_is_its_window_entry_bit_for_bit():
    # sup_abs_from(t) is gamma ** t, and the window writes the same pow at
    # every time, whatever SIMD kernels numpy chose on this host.
    n = 2 ** 15
    for gamma in (0.5, 0.9, 0.99, 0.999, 1.0 - 2 ** -52, 1e-3):
        rho = Sequence.geometric(gamma)
        window = rho.values_upto(n)
        sups = np.array([rho.sup_abs_from(t) for t in range(n)])
        assert sups.tobytes() == window.tobytes(), gamma
    # max |v| is the largest root of one square, the one-value case of a
    # root over rows, bit for bit: sqrt(v * v) is |v| wherever v * v is
    # normal, and the rescaled root is |v| elsewhere.
    rng = np.random.default_rng(25)
    pools = [np.array([5e-324, -5e-324, 1e-323, -2.5e-322, 3e-320])]
    pools += [scale * np.append(rng.uniform(-1.0, 1.0, size=60), [1.0, -1.0])
              for scale in (1e-300, 1.0, 1e300, 1.7e308)]
    for values in pools:
        times = rng.choice(1000, size=len(values), replace=False)
        seq = Sequence.from_arrays(times, values)
        for start in (0, *np.sort(times)[1::7].tolist(), 1000):
            want = max((root_sum_squares(np.array([v])) for v in values[times >= start]),
                       default=0.0)
            assert seq.sup_abs_from(start).hex() == want.hex(), (values[0], start)


def test_truncate_restricts_to_the_window():
    s = Sequence.from_values([1.0, 2.0, 3.0])
    assert s.truncate(2).radius() == 1
    assert s.truncate(2).values_upto(3).tolist() == [1.0, 2.0, 0.0]
    assert s.truncate(0).radius() is None
    geo = Sequence.geometric(0.5).truncate(4)
    assert isinstance(geo, Sequence) and geo.radius() == 3


def test_json_round_trip():
    for s in (Sequence.from_arrays([1, 4], [[1.0], [-2.0]]),
              Sequence.geometric(0.25, horizon=9),
              Sequence.power()):
        back = Sequence.from_json(s.to_json())
        assert back.to_json() == s.to_json()
    imp = Sequence.from_json({"family": "impulse", "params": {"t": 3}})
    assert imp.value(3) == 1.0
    with pytest.raises(ValueError):
        Sequence.from_json({"family": "nope"})


def test_an_impulse_document_is_zero_beyond_its_horizon():
    def load(t, horizon):
        return Sequence.from_json({"family": "impulse", "params": {"t": t, "value": 2.0},
                                   "horizon": horizon})
    assert load(5, 5).arrays()[0].tolist() == [5] and load(5, 5).value(5) == 2.0
    assert load(0, 0).value(0) == 2.0
    assert load(5, MAX_TIME).arrays()[0].tolist() == [5]
    for t, horizon in ((5, 4), (5, 0), (MAX_TIME, MAX_TIME - 1)):
        assert load(t, horizon).radius() is None, (t, horizon)
    for horizon in (-1, -7):
        with pytest.raises(ValueError, match="^horizon must be >= 0$"):
            load(5, horizon)


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 1.0, exclude_max=True), st.integers(1, 4096))
def test_generated_windows_match_their_rules(gamma, n):
    geo = Sequence.geometric(gamma).truncate(n).values_upto(n)
    want = np.array([gamma ** t for t in range(n)])
    normal = want >= np.finfo(float).tiny
    assert np.allclose(geo[normal], want[normal], rtol=1e-15, atol=0.0)
    assert np.all(geo[~normal] <= np.finfo(float).tiny)
    power = Sequence.power().truncate(n).values_upto(n)
    assert power.tolist() == [0.0] + [1.0 / t for t in range(1, n)]
    cut = Sequence.power(horizon=n // 2).truncate(n)
    assert cut.radius() == (n // 2 or None)
    assert cut.values_upto(n).tolist() == power[:n // 2 + 1].tolist() + [0.0] * (n - n // 2 - 1)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-300, 1.0, exclude_max=True), st.integers(0, 5000),
       st.none() | st.integers(0, 6000))
def test_a_family_window_has_the_bits_of_its_truncation(gamma, n, horizon):
    for rho in (Sequence.geometric(gamma, horizon), Sequence.power(horizon)):
        got = rho.values_upto(n)
        assert got.dtype == float and got.shape == (n,)
        assert got.tobytes() == rho.truncate(n).values_upto(n).tobytes()


@functools.cache
def _python_powers(gamma, n=65536):
    """gamma ** t for t < n, as Python's ** gives it, one time at a time."""
    return np.array([gamma ** t for t in range(n)])


def _rule_window(rho, length):
    """(times, values) of the nonzeros of rho on [0, length - 1], from the
    rule evaluated at each time: gamma ** t, or 1 / t from t = 1, up to the
    horizon."""
    m = length if rho.horizon is None else min(length, rho.horizon + 1)
    t = np.arange(m, dtype=np.int64)
    if rho.family == "geometric":
        v = _python_powers(rho.gamma)[:m]
    else:
        t = t[1:]
        v = 1.0 / t
    return t[v != 0.0], v[v != 0.0]


def test_a_family_truncation_is_its_rule_at_each_time(rng):
    gammas = [5e-324, 1e-300, 1e-3, 0.5, 0.9, 0.99, 1.0 - 2 ** -52, *rng.random(20)]
    families = [Sequence.power]
    families += [lambda horizon, gamma=gamma: Sequence.geometric(gamma, horizon)
                 for gamma in gammas if gamma > 0.0]
    for family in families:
        for horizon in (None, 0, 1, 2, 3, 7, 100, 5000, 70000):
            rho = family(horizon=horizon)
            for length in (0, 1, 2, 3, 4, 7, 8, 101, 4097, 65536):
                times, values = rho.truncate(length).arrays()
                want_times, want_values = _rule_window(rho, length)
                assert times.dtype == np.int64 and values.dtype == np.float64
                assert times.tobytes() == want_times.tobytes()
                assert values.tobytes() == want_values.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 ** 62), st.floats(-1e6, 1e6)), max_size=20))
def test_json_round_trip_keeps_the_last_duplicate(rows):
    # A last value of 0.0 (or -0.0) drops its row: a Sequence stores no zero.
    seq = Sequence.from_json({"dim": 1, "entries": [[t, [v]] for t, v in rows]})
    want = dict(rows)
    kept = sorted(t for t in want if want[t] != 0.0)
    assert seq.to_json() == {"dim": 1, "entries": [[t, [want[t]]] for t in kept]}
    assert Sequence.from_json(seq.to_json()).to_json() == seq.to_json()
    for t, v in want.items():
        assert seq.value(t) == v


def test_time_indices_stop_below_two_to_the_63():
    top = Sequence.impulse(2 ** 63 - 1)
    assert top.radius() == 2 ** 63 - 1
    assert top.truncate(2 ** 64).radius() == 2 ** 63 - 1
    for bad in (lambda: Sequence.impulse(2 ** 63),
                lambda: Sequence.from_arrays([2 ** 70], [1.0]),
                lambda: Sequence.from_json({"entries": [[2 ** 63, [1.0]]]}),
                lambda: Sequence.power().truncate(2 ** 64),
                lambda: Sequence.power().values_upto(2 ** 64),
                lambda: Sequence.geometric(0.5, horizon=3).values_upto(2 ** 63 + 1),
                lambda: Sequence.zero().values_upto(2 ** 64)):
        with pytest.raises(ValueError, match="2\\^63"):
            bad()


def test_values_upto_refuses_a_negative_length():
    # One refusal for every kind of target, as truncate and tail_norm
    # refuse a negative argument, before any array is sized.
    for rho in (Sequence.from_values([1.0, 2.0]), Sequence.zero(),
                Sequence.geometric(0.5), Sequence.geometric(0.5, horizon=10),
                Sequence.power(), Sequence.power(horizon=10)):
        for n in (-1, -2 ** 70):
            with pytest.raises(ValueError, match="^n must be >= 0$"):
                rho.values_upto(n)
        assert rho.values_upto(0).tolist() == []
        with pytest.raises(ValueError, match="^length must be >= 0$"):
            rho.truncate(-1)
        with pytest.raises(ValueError, match="^start must be >= 0$"):
            rho.tail_norm(-1)


def test_values_must_be_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        for make in (lambda: Sequence.from_json({"entries": [[0, [1.0]], [7, [bad]]]}),
                     lambda: Sequence.from_arrays([7, 0], [(bad,), (1.0,)]),
                     lambda: Sequence.from_arrays([7, 0], [bad, 1.0]),
                     lambda: Sequence.from_values([1.0, 0, 0, 0, 0, 0, 0, bad, 2.0])):
            with pytest.raises(ValueError, match="^the value at t=7 is not finite$"):
                make()
    assert Sequence.from_values([0.0, 1.0, 0.0, -0.0, 2.0]).arrays()[0].tolist() == [1, 4]
    assert Sequence.from_json('{"entries": [[7, [1e308]]]}').value(7) == 1e308


def test_values_must_be_numbers():
    for rows, bad in (([[0, ["1.5"]], [1, [True]]], "'1.5'"),
                      ([[0, [1.0]], [1, [True]]], "True"),
                      ([[0, 1.0], [1, "2e0"]], "'2e0'"),
                      ([[0, False], [1, 2.0]], "False"),
                      ([[0, (1.0,)], [1, ("1",)]], "'1'")):
        with pytest.raises(ValueError, match=f"^a value must be a number, not {bad}$"):
            Sequence.from_json({"dim": 1, "entries": rows})
    for rows in ([[0, [1]], [2, [-3.5]]], [[0, 1], [2, -3.5]]):
        seq = Sequence.from_json({"entries": rows})
        assert seq.arrays()[1].tobytes() == np.array([1.0, -3.5]).tobytes()


def test_row_form_times_must_be_whole_numbers():
    assert Sequence.from_json({"entries": [[7.0, [2.0]], [3, [1.0]]]}).arrays()[0].tolist() == [3, 7]
    for rows in ([[2.5, [1.0]]], [["3", [1.0]]], [[True, [1.0]]], [[None, [1.0]]],
                 [[float("nan"), [1.0]]], [[float("inf"), [1.0]]], [1, 2]):
        with pytest.raises(ValueError):
            Sequence.from_json({"entries": rows})


def _outcome(make):
    """arrays() bytes of the sequence make() builds, or its exception."""
    try:
        times, values = make().arrays()
    except Exception as exc:
        return type(exc), str(exc)
    return times.dtype, times.tobytes(), values.dtype, values.shape, values.tobytes()


_TIME_TOKENS = [str(2 ** 63 - 1), str(2 ** 63), "-1", "2.0", "1e1"]
_VALUE_TOKENS = ["-0", "-0.0", "5e-324", "1e308", "1e400", str(2 ** 53 + 1), "7" * 400]
_EDITS = list('[],0123456789-.eE "{}:') + ["true", "null", "NaN", '"1.5"']


@st.composite
def _row_texts(draw):
    """A row-form text as json.dumps prints it, compact or indented, with
    odd number tokens, layouts and prefixes, and with at times one to
    three edits of a character or a token.  A few have dim 2, which both
    readers refuse."""
    dim = draw(st.sampled_from([1, 1, 1, 2]))
    time = st.one_of(st.integers(0, 40).map(str), st.sampled_from(_TIME_TOKENS))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
                      st.integers(-10 ** 6, 10 ** 6).map(str), st.sampled_from(_VALUE_TOKENS))
    bare = dim == 1 and draw(st.booleans())
    rows = draw(st.lists(st.tuples(time, st.lists(value, min_size=dim, max_size=dim)),
                         max_size=6))
    # Each number is a placeholder string until json.dumps has laid it out.
    tokens = [tok for t, v in rows for tok in (t, *v)]
    marks = iter(f"@{k}@" for k in range(len(tokens)))
    entries = [[next(marks), next(marks) if bare else [next(marks) for _ in v]]
               for _, v in rows]
    keys = draw(st.sampled_from(["dim entries"] * 6 + ["entries dim", "entries"]))
    doc = {key: dim if key == "dim" else entries for key in keys.split()}
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])))
    for k, tok in enumerate(tokens):
        text = text.replace(f'"@{k}@"', tok)
    text = draw(st.sampled_from([""] * 6 + [" \t", "\ufeff", "\xa0"])) + text
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n") + "\r\n"
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        # Anywhere, or at a bracket or a comma, where the layout is decided.
        spots = [at for at, char in enumerate(text) if char in "{[],}"]
        at = draw(st.one_of(st.integers(0, len(text)), st.sampled_from(spots)))
        edit = draw(st.sampled_from(_EDITS))
        head, tail = text[:at], text[at:]
        # An insertion, a replacement, a deletion or a swap of two neighbours.
        text = draw(st.sampled_from([head + edit + tail, head + edit + tail[1:], head + tail[1:],
                                     head + tail[1:2] + tail[:1] + tail[2:]]))
    return text


# Each example is misread by a reader without one of its checks: a number
# beside the outer side of a bracket, the bracket skeleton, JSON whitespace
# (twice), and an int beyond a float before a negative time.
@settings(max_examples=400, deadline=None)
@given(_row_texts(), st.sampled_from([1, 8, 1 << 16]))
@example('{"dim": 1, "entries": [[0, 5[]]]}', 1 << 16)
@example('{"dim": 1, "entries": [[0, [1]]], [2, [3]]]}', 1)
@example('{"dim": 1, "entries": [[0, [1]],\xa0[2, [3]]]}', 8)
@example('{"dim": 1, "entries": [[0, [1]]]}\xa0', 1 << 16)
@example('{"dim": 1, "entries": [[-1, [%s]]]}' % ("7" * 400), 1 << 16)
def test_a_row_text_reads_as_json_reads_it(text, block):
    with mock.patch.object(sequences, "_ROWS_BLOCK", block):
        assert (_outcome(lambda: Sequence.from_json(text)) ==
                _outcome(lambda: Sequence.from_json(json.loads(text))))


def test_to_json_texts_are_read_as_one_flat_list(rng):
    flat_rows, read = sequences._flat_rows, []

    def spy(text):
        read.append(flat_rows(text))
        return read[-1]

    with mock.patch.object(sequences, "_flat_rows", spy):
        for n in (5, 3000, 12000, 40000):
            times = rng.choice(10 * n, size=n, replace=False)
            values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
            seq = Sequence.from_arrays(times, values)
            for indent in (None, 2):
                text = json.dumps(seq.to_json(), indent=indent)
                assert _outcome(lambda: Sequence.from_json(text)) == _outcome(lambda: seq)
                assert read[-1] is not None


def test_a_to_json_text_loads_without_a_garbage_collection(rng):
    # The flat reading makes no object per row, so a 2^15-row target starts
    # no collection while it loads, and loading needs no pause of the collector.
    n = 1 << 15
    seq = Sequence.from_arrays(np.arange(n), rng.normal(size=n))
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    try:
        for indent in (None, 2):
            text = json.dumps(seq.to_json(), indent=indent)
            gc.collect()
            gc.callbacks.append(count)
            try:
                Sequence.from_json(text)
            finally:
                gc.callbacks.remove(count)
            assert started == [], indent
    finally:
        (gc.enable if was else gc.disable)()
