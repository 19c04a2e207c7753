import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlens.sequences import (Scalar, Sequence, apply_functional, dilated_conv,
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
        x = x.reshape(len(x), -1)
        top = math.sqrt(float(np.max(np.sum(x * x, axis=1))))
        assert root_sum_squares(x, rows=True) == top
    x = np.array([3.0, -4.0, 0.0])
    for alpha in (1e-300, 1e-200, 1e200, 1e300):
        assert root_sum_squares(alpha * x) == pytest.approx(5.0 * alpha, rel=1e-15)
    rows = np.array([[0.0, 0.0], [1.0, 0.0], [3e-200, -4e-200]])
    assert root_sum_squares(rows, rows=True) == 1.0
    assert root_sum_squares(rows[[0, 2]], rows=True) == pytest.approx(5e-200, rel=1e-15)
    assert root_sum_squares(1e300 * rows, rows=True) == 1e300
    assert root_sum_squares(np.zeros(0)) == 0.0
    assert root_sum_squares(np.zeros((0, 2)), rows=True) == 0.0
    assert root_sum_squares(np.array([np.inf, 1.0])) == np.inf
    assert math.isnan(root_sum_squares(np.array([np.nan, 1e300, 1e300])))


def test_from_values_drops_zeros_and_keeps_support():
    s = Sequence.from_values([0.0, 3.0, 0.0, -1.0])
    assert sorted(s.entries()) == [1, 3]
    assert s.value(1)[0] == 3.0
    assert s.value(0)[0] == 0.0
    assert s.value(-5)[0] == 0.0
    assert s.radius() == 3
    assert s.sparsity() == 2


def test_zero_sequence_has_no_radius():
    z = Sequence.zero()
    assert z.radius() is None
    assert z.sparsity() == 0
    assert z.norm().value == 0.0


def test_impulse_and_vector_entries():
    imp = Sequence.impulse(4, value=2.5)
    assert imp.value(4)[0] == 2.5 and imp.radius() == 4
    v = Sequence.from_entries({0: (1.0, 2.0), 3: (0.0, -1.0)}, dim=2)
    assert v.dim == 2
    assert np.array_equal(v.values_upto(4)[3], [0.0, -1.0])
    with pytest.raises(ValueError):
        Sequence.impulse(-1)
    with pytest.raises(ValueError):
        Sequence.from_entries({-2: (1.0,)})


def test_generated_families_evaluate_pointwise():
    geo = Sequence.geometric(0.5)
    assert geo.value(3)[0] == 0.125
    pw = Sequence.power()
    assert pw.value(0)[0] == 0.0
    assert pw.value(4)[0] == 0.25
    cut = Sequence.power(horizon=10)
    assert cut.value(10)[0] == 0.1
    assert cut.value(11)[0] == 0.0
    assert cut.radius() == 10
    with pytest.raises(ValueError):
        Sequence.geometric(1.0)
    with pytest.raises(ValueError):
        Sequence.power().radius()


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


def test_power_tail_norm_brackets_the_true_value():
    pw = Sequence.power()
    true_sq = sum(1.0 / (t * t) for t in range(7, 200000))
    got = pw.tail_norm(7)
    assert got.halfwidth > 0
    assert got.lower <= math.sqrt(true_sq) <= got.upper
    assert pw.norm().lower <= math.sqrt(math.pi ** 2 / 6) <= pw.norm().upper


def test_power_tail_norm_with_horizon_is_exact():
    pw = Sequence.power(horizon=100)
    brute = math.sqrt(sum(1.0 / (t * t) for t in range(7, 101)))
    got = pw.tail_norm(7)
    assert got.halfwidth == 0.0
    assert got.value == pytest.approx(brute, rel=1e-14)


def test_sup_abs_from():
    s = Sequence.from_entries({2: (3.0, 4.0), 7: (1.0, 0.0)}, dim=2)
    assert s.sup_abs_from(0) == 5.0
    assert s.sup_abs_from(3) == 1.0
    assert s.sup_abs_from(8) == 0.0
    assert Sequence.geometric(0.5).sup_abs_from(3) == 0.125
    assert Sequence.power().sup_abs_from(4) == 0.25


def test_truncate_scaled_plus():
    s = Sequence.from_values([1.0, 2.0, 3.0])
    assert s.truncate(2).radius() == 1
    assert s.scaled(-2.0).value(2)[0] == -6.0
    both = s.plus(Sequence.impulse(1, value=-2.0))
    assert both.value(1)[0] == 0.0
    geo = Sequence.geometric(0.5).truncate(4)
    assert geo.kind == "finite" and geo.radius() == 3


def test_json_round_trip():
    for s in (Sequence.from_entries({1: (1.0, -2.0)}, dim=2),
              Sequence.geometric(0.25, horizon=9),
              Sequence.power()):
        back = Sequence.from_json(s.to_json())
        assert back.to_json() == s.to_json()
    imp = Sequence.from_json({"family": "impulse", "params": {"t": 3}})
    assert imp.value(3)[0] == 1.0
    with pytest.raises(ValueError):
        Sequence.from_json({"family": "nope"})


def test_dilated_conv_worked_example():
    f = Sequence.from_values([3.0, 4.0])
    g = Sequence.from_values([1.0, 2.0])
    out = dilated_conv(f, g, 2)
    assert list(out.flat_values(4)) == [3.0, 6.0, 4.0, 8.0]


def test_dilated_conv_rejects_bad_inputs():
    f = Sequence.from_values([1.0])
    with pytest.raises(ValueError):
        dilated_conv(f, f, 0)
    with pytest.raises(ValueError):
        dilated_conv(f, Sequence.geometric(0.5), 1)
    with pytest.raises(ValueError):
        dilated_conv(f, Sequence.zero(dim=2), 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=5),
       st.lists(st.integers(-3, 3), min_size=1, max_size=5),
       st.integers(1, 4))
def test_dilated_conv_radius_law(fv, gv, dilation):
    f = Sequence.from_values([float(x) for x in fv])
    g = Sequence.from_values([float(x) for x in gv])
    rf, rg = f.radius(), g.radius()
    out = dilated_conv(f, g, dilation)
    if rf is None or rg is None:
        assert out.radius() is None
    else:
        assert out.radius() == dilation * rf + rg
        n = dilation * rf + rg + 1
        brute = np.zeros(n)
        for s in range(rf + 1):
            for u in range(rg + 1):
                brute[dilation * s + u] += f.value(s)[0] * g.value(u)[0]
        assert np.allclose(out.flat_values(n), brute, atol=1e-12)


def test_apply_functional_matches_brute_force():
    rho = Sequence.from_values([1.0, 0.0, 0.0, 1.0])
    x = Sequence.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
    assert apply_functional(rho, x, 4).value == 7.0
    assert apply_functional(rho, x, 3).value == 5.0
    with pytest.raises(ValueError):
        apply_functional(rho, x, 2)
    with pytest.raises(ValueError):
        apply_functional(rho, Sequence.geometric(0.5), 5)
    geo = Sequence.geometric(0.5, horizon=10)
    got = apply_functional(rho, geo, 5)
    assert got.value == pytest.approx(0.5 ** 5 + 0.5 ** 2, rel=1e-14)


def test_apply_functional_zero_representation():
    assert apply_functional(Sequence.zero(), Sequence.from_values([1.0]), 0).value == 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 1.0, exclude_max=True), st.integers(1, 4096))
def test_generated_windows_match_their_rules(gamma, n):
    geo = Sequence.geometric(gamma).flat_values(n)
    want = np.array([gamma ** t for t in range(n)])
    normal = want >= np.finfo(float).tiny
    assert np.allclose(geo[normal], want[normal], rtol=1e-15, atol=0.0)
    assert np.all(geo[~normal] <= np.finfo(float).tiny)
    power = Sequence.power().flat_values(n)
    assert power.tolist() == [0.0] + [1.0 / t for t in range(1, n)]
    cut = Sequence.power(horizon=n // 2).truncate(n)
    assert cut.radius() == (n // 2 or None)
    assert cut.flat_values(n).tolist() == power[:n // 2 + 1].tolist() + [0.0] * (n - n // 2 - 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 ** 62),
                          st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2)),
                max_size=20))
def test_json_round_trip_keeps_the_last_duplicate(rows):
    seq = Sequence.from_json({"dim": 2, "entries": [[t, v] for t, v in rows]})
    want = dict(rows)
    assert seq.to_json() == {"dim": 2, "entries": [[t, want[t]] for t in sorted(want)]}
    assert Sequence.from_json(seq.to_json()).to_json() == seq.to_json()
    for t, v in want.items():
        assert seq.value(t).tolist() == v


def test_time_indices_stop_below_two_to_the_63():
    top = Sequence.impulse(2 ** 63 - 1)
    assert top.radius() == 2 ** 63 - 1
    assert top.truncate(2 ** 64).radius() == 2 ** 63 - 1
    for bad in (lambda: Sequence.impulse(2 ** 63),
                lambda: Sequence.from_entries({2 ** 70: (1.0,)}),
                lambda: Sequence.from_json({"entries": [[2 ** 63, [1.0]]]}),
                lambda: Sequence.power().truncate(2 ** 64),
                lambda: dilated_conv(Sequence.impulse(2 ** 62), Sequence.impulse(1), 2)):
        with pytest.raises(ValueError, match="2\\^63"):
            bad()


def test_values_must_be_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        for make in (lambda: Sequence.from_json({"entries": [[0, [1.0]], [7, [bad]]]}),
                     lambda: Sequence.from_entries({7: (bad,), 0: (1.0,)}),
                     lambda: Sequence.from_arrays([7, 0], [bad, 1.0]),
                     lambda: Sequence.from_arrays([7, 0], [[1.0, bad], [1.0, 1.0]], dim=2)):
            with pytest.raises(ValueError, match="^the value at t=7 is not finite$"):
                make()
    assert Sequence.from_json('{"entries": [[7, [1e308]]]}').value(7)[0] == 1e308


def test_row_form_times_must_be_whole_numbers():
    assert list(Sequence.from_json({"entries": [[7.0, [2.0]], [3, [1.0]]]}).entries()) == [3, 7]
    for rows in ([[2.5, [1.0]]], [["3", [1.0]]], [[True, [1.0]]], [[None, [1.0]]],
                 [[float("nan"), [1.0]]], [[float("inf"), [1.0]]], [1, 2]):
        with pytest.raises(ValueError):
            Sequence.from_json({"entries": rows})
