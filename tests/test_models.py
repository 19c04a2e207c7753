import dataclasses
import math
import re
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlens import models
from memlens.bounds import effective_filters
from memlens.models import (CnnSpec, RnnSpec, cnn_min_depth_expdecay,
                            cnn_representation, power_sum_delta_bound,
                            replay_residual, rnn_min_width_impulse,
                            rnn_representation, synthesize_lowrank,
                            synthesize_radix)
from memlens.sequences import MAX_TIME, Sequence, root_sum_squares
from memlens.tensors import tt_svd, width_plan
from trains import train_window


def _bank(l, channels, filters=None):
    """Stack from a {(k, j, i): filter} dict, through CnnSpec.from_arrays."""
    filters = filters or {}
    return CnnSpec.from_arrays(channels, list(filters),
                               np.reshape(list(filters.values()), (len(filters), l)))


def test_cnn_spec_validation():
    _bank(2, (1, 3, 1))
    with pytest.raises(ValueError):
        _bank(2, (1, 3, 2))
    # A bank reads a scalar input: M_0 = 2 is refused, with or without filters.
    with pytest.raises(ValueError, match="^the input is a single channel$"):
        _bank(2, (2, 3, 1), {(0, 1, 0): (1.0, 0.0), (1, 0, 0): (0.0, 1.0)})
    with pytest.raises(ValueError, match="^the input is a single channel$"):
        _bank(2, (2, 1), {(0, 0, 0): (1.0, 0.0), (0, 1, 0): (0.0, 2.0)})
    with pytest.raises(ValueError, match="^need K >= 1$"):
        _bank(2, (1,))
    with pytest.raises(ValueError, match=r"^filter index \(0, 0, 1\) out of range$"):
        _bank(2, (1, 1), {(0, 0, 1): (1.0, 0.0)})
    # l is the length of the filters: three taps make an l = 3 bank, and
    # one tap is refused whatever the keys.
    spec = CnnSpec.from_arrays((1, 1), [[0, 0, 0]], [[1.0, 0.0, 0.0]])
    assert (spec.l, spec.K) == (3, 1) and type(spec.l) is int
    with pytest.raises(ValueError, match="^need l >= 2 and K >= 1$"):
        CnnSpec.from_arrays((1, 2, 1), [[0, 0, 1], [2, 0, 0]], np.ones((2, 1)))
    # The first bad filter in the given order names the error.
    with pytest.raises(ValueError, match=r"^filter index \(2, 0, 0\) out of range$"):
        CnnSpec.from_arrays((1, 2, 1), [[0, 0, 1], [2, 0, 0]], np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"\(1, 2, 0\) out of range"):
        CnnSpec.from_arrays((1, 2, 1), [[1, 2, 0], [0, 0, 1]], np.ones((2, 2)))


def test_cnn_spec_refuses_a_width_beyond_int64():
    # The largest int64 width is a plan like any other; one more is refused
    # by name, echoed to at most 40 characters, wherever it stands.
    assert _bank(2, (1, MAX_TIME, 1)).channels == (1, MAX_TIME, 1)
    # A width too long to write as text is named by its bit length.
    for wide, shown in ((MAX_TIME + 1, str(MAX_TIME + 1)), (2 ** 64 + 5, str(2 ** 64 + 5)),
                        (10 ** 60, str(10 ** 60)[:40]),
                        (10 ** 5000, "a 16610-bit whole number")):
        text = f"^channel width {shown} is beyond the int64 limit 2\\^63 - 1$"
        with pytest.raises(ValueError, match=text):
            _bank(2, (1, wide, 1))
        with pytest.raises(ValueError, match=text):
            _bank(2, (1, 2, wide, 1))


def _hex(bank):
    """A bank, a CnnSpec or a {key: filter} dict, as {key: weights in
    float.hex} in its own order, so signed zeros count."""
    if isinstance(bank, CnnSpec):
        bank = dict(zip(map(tuple, bank.index.tolist()), bank.weights.tolist()))
    return {key: tuple(float(x).hex() for x in w) for key, w in bank.items()}


def test_cnn_spec_from_arrays_sorts_and_checks_the_bank():
    spec = CnnSpec.from_arrays((1, 2, 1), [[1, 1, 0], [0, 0, 1]],
                               [[-0.0, -1.0], [1.0, 2.0]])
    assert spec.index.dtype == np.int64 and spec.index.tolist() == [[0, 0, 1], [1, 1, 0]]
    assert list(_hex(spec)) == [(0, 0, 1), (1, 1, 0)]
    assert _hex(spec) == _hex({(0, 0, 1): (1.0, 2.0), (1, 1, 0): (-0.0, -1.0)})
    as_dict = _bank(2, (1, 2, 1), {(1, 1, 0): (-0.0, -1.0), (0, 0, 1): (1, 2)})
    assert np.array_equal(as_dict.index, spec.index)
    assert as_dict.weights.tobytes() == spec.weights.tobytes()
    assert spec.to_json()["filters"] == {"0,0,1": [1.0, 2.0], "1,1,0": [-0.0, -1.0]}
    assert math.copysign(1.0, spec.to_json()["filters"]["1,1,0"][0]) == -1.0
    assert not spec.index.flags.writeable and not spec.weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        spec.weights[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        spec.index[0, 0] = 1
    with pytest.raises(TypeError, match="from_arrays"):
        CnnSpec(2, 2, (1, 2, 1), {(0, 0, 1): (1.0, 2.0)})
    for index, weights, message in (
            ([[0, 0, 1], [1, 2, 0]], np.ones((2, 2)), r"^filter index \(1, 2, 0\) out of range$"),
            ([[0, 0, 1], [1, 1, 0]], np.ones((2, 1)), "^need l >= 2 and K >= 1$"),
            ([[1, 1, 0], [0, 0, 1], [1, 1, 0]], np.ones((3, 2)),
             r"^filter index \(1, 1, 0\) given twice$"),
            ([[0, 0, 1]], np.ones((2, 2)), "one filter per index row")):
        with pytest.raises(ValueError, match=message):
            CnnSpec.from_arrays((1, 2, 1), index, weights)
    # A (1, 3) array is an l = 3 bank of one filter.
    assert CnnSpec.from_arrays((1, 2, 1), [[0, 0, 1]], np.ones((1, 3))).l == 3


def test_synthesis_banks_keep_their_dict_layout():
    # Radix: path p of the entry at time t is (0, 0, p), (1, p, p), ...,
    # (K - 1, p, 0), one-hot at the digits of t with +0.0 off the hot tap
    # and the value in the first layer.
    times, values = [0, 3, 6, 13, 26], [-2.0, 1.5, -0.5, 4.0, -1.0]
    for l in (2, 3, 4):
        spec = synthesize_radix(Sequence.from_arrays(times, values), l)
        K, want = spec.K, {}
        for k in range(K):
            for p, (t, v) in enumerate(zip(times, values)):
                w = [0.0] * l
                w[t // l ** k % l] = v if k == 0 else 1.0
                want[(k, 0 if k == 0 else p, 0 if k == K - 1 else p)] = tuple(w)
        assert list(_hex(spec)) == list(want)
        assert _hex(spec) == _hex(want)
    # TT: the keys are in ascending order, the zeros keep their signs.
    for spec in (synthesize_lowrank(Sequence.from_arrays([2, 9], [1.0, -3.0]), 2),
                 synthesize_lowrank(Sequence.impulse(5, -1.0), 2, 3)):
        rows = [tuple(key) for key in spec.index.tolist()]
        assert rows == sorted(rows)
        assert (_hex(spec.to_json()["filters"]) ==
                {"%d,%d,%d" % key: w for key, w in _hex(spec).items()})


def test_to_json_keys_of_a_wide_stack_of_few_filters():
    # Key texts come from the distinct key parts here, not from every
    # number up to the widest channel.
    wide = 10 ** 12
    spec = CnnSpec.from_arrays((1, wide + 1, 1), [[1, wide, 0], [0, 0, wide], [0, 0, 7]],
                               [[0.5, 2.0], [1.0, -0.0], [3.0, 0.0]])
    filters = spec.to_json()["filters"]
    assert list(filters) == ["0,0,7", f"0,0,{wide}", f"1,{wide},0"]
    assert _hex(filters) == _hex({"0,0,7": [3.0, 0.0], f"0,0,{wide}": [1.0, -0.0],
                                  f"1,{wide},0": [0.5, 2.0]})


def test_representation_of_a_two_layer_chain():
    spec = _bank(2, (1, 1, 1), {(0, 0, 0): (1.0, 2.0), (1, 0, 0): (3.0, 4.0)})
    rep = cnn_representation(spec)
    assert list(rep.values_upto(4)) == [3.0, 6.0, 4.0, 8.0]
    # Two channel paths that cancel at t = 0: a sum of exactly zero is not stored.
    spec = _bank(2, (1, 2, 1), {(0, 0, 0): (1.0, 2.0), (0, 0, 1): (-1.0, 3.0),
                                (1, 0, 0): (1.0, 0.0), (1, 1, 0): (1.0, 0.0)})
    times, values = cnn_representation(spec).arrays()
    assert times.tolist() == [1] and values.tolist() == [5.0]


def test_representation_stays_in_receptive_field(rng):
    for _ in range(10):
        K = int(rng.integers(1, 4))
        channels = (1,) + tuple(int(rng.integers(1, 3)) for _ in range(K - 1)) + (1,)
        filters = {}
        for k in range(K):
            for j in range(channels[k]):
                for i in range(channels[k + 1]):
                    filters[(k, j, i)] = tuple(rng.normal(size=2))
        rep = cnn_representation(_bank(2, channels, filters))
        r = rep.radius()
        assert r is None or r <= 2 ** K - 1


def test_effective_filters_values():
    assert effective_filters((1, 4, 4, 1), 2) == 14.0
    assert effective_filters((1, 1), 2) == 0.0
    assert effective_filters((1, 2, 1, 1), 3) == -6.0
    assert type(effective_filters((1, 4, 4, 1), 2)) is float
    for bad in (((), 2), ((1, 0, 4, 1), 2), ((1, 4, 2), 2), ((1,), 2)):
        with pytest.raises(ValueError):
            effective_filters(*bad)
    with pytest.raises(ValueError, match="^the input is a single channel$"):
        effective_filters((2, 4, 1), 2)
    # A count beyond the largest float is refused with the widths it read.
    assert effective_filters((1, 2 ** 1023, 1), 2) == float(2 ** 1023 - 4)
    # A width or an l too long to write as text is named by its bit length.
    huge = "a 16610-bit whole number"
    for widths, l, text, shown in (
            ((1, 2 ** 1024, 1), 2, f"1,{2 ** 1024},1", "2"),
            ((1, 10 ** 400, 1), 3, f"1,{10 ** 400},1", "3"),
            ((1, 3, 10 ** 200, 10 ** 200, 1), 2, f"1,3,{10 ** 200},{10 ** 200},1", "2"),
            ((1, 4, 4, 1), 10 ** 400, "1,4,4,1", str(10 ** 400)),
            ((1, 10 ** 5000, 10 ** 5000, 1), 2, f"1,{huge},{huge},1", "2"),
            ((1, 4, 4, 1), 10 ** 5000, "1,4,4,1", huge)):
        with pytest.raises(ValueError) as info:
            effective_filters(widths, l)
        assert str(info.value) == (f"the effective filter count of channels {text!r:.40} "
                                   f"at l = {shown:.40} is beyond the float limit "
                                   f"1.7976931348623157e+308")


def test_a_channel_width_is_a_whole_number():
    # A width is read as a time index is: 3.0 and np.int64(3) are widths, and
    # a fraction, a bool, a string or an infinity is refused by name, not
    # cut to an int.
    plan = (1, 3.0, np.int64(3), 1)
    assert width_plan(plan) == (1, 3, 3, 1)
    assert effective_filters(plan, 2) == 6.0
    channels = CnnSpec.from_arrays(plan, np.zeros((0, 3)), np.zeros((0, 2))).channels
    assert channels == (1, 3, 3, 1) and {type(m) for m in channels} == {int}
    for bad in (2.7, 2.9, True, "3", math.inf):
        text = f"^a channel width must be a whole number, not {re.escape(repr(bad))}$"
        for read in (width_plan, lambda plan: effective_filters(plan, 3),
                     lambda plan: CnnSpec.from_arrays(plan, np.zeros((0, 3)),
                                                      np.zeros((0, 2)))):
            with pytest.raises(ValueError, match=text):
                read((1, bad, bad, 1))


def test_radix_synthesis_worked_example():
    spec = synthesize_radix(Sequence.impulse(19), 4)
    assert spec.K == 3 and spec.channels == (1, 1, 1, 1)
    assert spec.filter_count == 3
    assert spec.index.tolist() == [[0, 0, 0], [1, 0, 0], [2, 0, 0]]
    assert spec.weights.tolist() == [[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0],
                                     [0.0, 1.0, 0.0, 0.0]]
    assert replay_residual(spec, Sequence.impulse(19)) == 0.0


def test_radix_synthesis_shallow_and_degenerate_cases():
    dense = synthesize_radix(Sequence.from_values([1.0, 0.0, -2.0]), 4)
    assert dense.K == 1
    assert _hex(dense) == _hex({(0, 0, 0): (1.0, 0.0, -2.0, 0.0)})
    zero = synthesize_radix(Sequence.zero(), 3)
    assert zero.filter_count == 0
    assert cnn_representation(zero).radius() is None
    with pytest.raises(ValueError, match="^a generated target without a horizon has "
                       "infinite support: give it a horizon or cut it to a window$"):
        synthesize_radix(Sequence.geometric(0.5), 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_radix_synthesis_replays_exactly(l, data):
    K = data.draw(st.integers(1, {2: 12, 3: 7, 4: 6}[l]))
    size = l ** K
    support = data.draw(st.dictionaries(st.integers(0, size - 1),
                                        st.integers(-9, 9).filter(bool),
                                        min_size=1, max_size=300))
    target = Sequence.from_arrays(list(support), [float(v) for v in support.values()])
    spec = synthesize_radix(target, l)
    assert replay_residual(spec, target) == 0.0
    assert spec.filter_count <= spec.K * len(target.arrays()[0])


def _residual_as_a_sum(spec, target):
    """The replay plus -1 times the window, summed per time by np.add.at
    over the two supports in turn, as the residual was once formed."""
    rt, rv = cnn_representation(spec).arrays()
    wt, wv = target.truncate(spec.l ** spec.K).arrays()
    times, at = np.unique(np.concatenate([rt, wt]), return_inverse=True)
    diff = np.zeros(len(times))
    np.add.at(diff, at, np.concatenate([rv, -1.0 * wv]))
    return root_sum_squares(diff)


# Each time of a drawn plan is held by the bank's source only, by the
# target only, by both with one value (it cancels to +0.0), by both with
# two values, or by the target only with a signed zero.
_BANK, _TARGET, _EQUAL, _APART, _ZERO = range(5)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_replay_residual_keeps_the_bits_of_the_sum_over_both_supports(data):
    l, K = data.draw(st.sampled_from([(2, 1), (2, 3), (2, 6), (3, 2), (4, 3)]))
    size = l ** K
    times = data.draw(st.lists(st.integers(0, size + 3), min_size=3, max_size=40,
                               unique=True))
    kinds = [_BANK, _TARGET, _EQUAL] + data.draw(
        st.lists(st.integers(_BANK, _ZERO), min_size=len(times) - 3,
                 max_size=len(times) - 3))
    # Values of a full mantissa, so a sum in another order shows in the
    # last bits, at one scale or at scales mixed from 1e-300 to 1e300.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    scales = data.draw(st.sampled_from([(1.0,), (1e-300,), (1e300,), (1e-300, 1.0, 1e300)]))
    values = iter(rng.uniform(-9.0, 9.0, size=(len(times), 2)).reshape(-1)
                  * rng.choice(scales, size=2 * len(times)))
    bank, target = {}, {}
    for t, kind in zip(times, kinds):
        v = next(values)
        if kind in (_BANK, _EQUAL, _APART) and t < size:
            bank[t] = v
        if kind in (_TARGET, _EQUAL):
            target[t] = v
        elif kind == _APART:
            target[t] = next(values)
        elif kind == _ZERO:
            target[t] = data.draw(st.sampled_from([0.0, -0.0]))
    source = Sequence.from_arrays(list(bank), list(bank.values()))
    target = Sequence.from_arrays(list(target), list(target.values()))
    for spec in (synthesize_radix(source, l), synthesize_lowrank(source, l, K)):
        got = replay_residual(spec, target)
        assert got.hex() == _residual_as_a_sum(spec, target).hex(), spec.K


def test_lowrank_synthesis_replays_the_window(rng):
    for l, K in ((2, 3), (3, 2), (2, 8), (4, 3), (3, 4)):
        target = Sequence.from_values(rng.normal(size=l ** K))
        spec = synthesize_lowrank(target, l, K)
        assert replay_residual(spec, target) <= 1e-12 * float(target.norm())
    rank1 = Sequence.from_values([3.0, 6.0, 4.0, 8.0])
    spec = synthesize_lowrank(rank1, 2, 2)
    assert spec.channels == (1, 1, 1)
    zero = synthesize_lowrank(Sequence.zero(), 2, 2)
    assert zero.filter_count == 0
    # A window whose last time is beyond int64 is refused before it is made.
    for target in (rank1, Sequence.geometric(0.5)):
        with pytest.raises(ValueError, match="^a 64-bit time index is beyond"):
            synthesize_lowrank(target, 2, 64)


@pytest.mark.parametrize("v", [0.5, 1.0, 2.0])
def test_a_value_far_below_the_largest_gets_its_own_channel_path(v):
    # {0: 1, 1000: v * 1e-10}: every stored value is support, so both banks
    # reach depth 10, and each replays the whole target, not only the
    # window of the depth it chose.
    target = Sequence.from_arrays([0, 1000], [1.0, v * 1e-10])

    def whole_residual(spec):
        replay = cnn_representation(spec)
        n = max(target.radius(), replay.radius()) + 1
        return root_sum_squares(replay.values_upto(n) - target.values_upto(n))

    radix, lowrank = synthesize_radix(target, 2), synthesize_lowrank(target, 2)
    assert radix.K == lowrank.K == 10
    assert whole_residual(radix) == 0.0
    assert whole_residual(lowrank) <= 1e-12 * float(target.norm())


def test_lowrank_synthesis_near_the_float_limit_names_the_limit():
    # The last core takes the window's scale back; a weight past the float
    # range is refused by name, with no overflow warning on the way.
    target = Sequence.from_arrays(range(4), [1.3e308] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the low-rank bank of this window needs "
                           r"a filter weight beyond the float limit 1\.7976931348623157e\+308$"):
            synthesize_lowrank(target, 2)
        assert synthesize_radix(target, 2).filter_count == 8
        below = Sequence.from_arrays(range(4), [1e308] * 4)
        assert replay_residual(synthesize_lowrank(below, 2), below) <= 1e-12 * 1e308


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e305, 1.79e308), min_size=2, max_size=16), st.data())
def test_a_lowrank_bank_near_the_float_limit_replays_or_names_the_limit(magnitudes, data):
    # Each near-limit window is built and replays within 1e-12 of its
    # largest value, or it is refused by name; no overflow warns on the way.
    signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=len(magnitudes),
                               max_size=len(magnitudes)))
    target = Sequence.from_values(np.multiply(magnitudes, signs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            spec = synthesize_lowrank(target, 2)
        except ValueError as err:
            assert str(err) == ("the low-rank bank of this window needs a filter "
                                "weight beyond the float limit 1.7976931348623157e+308")
            return
        assert replay_residual(spec, target) <= 1e-12 * max(magnitudes)


def test_synthesis_banks_share_one_layout():
    # Radix filters are one-hot with +0.0 off the hot tap, even for a
    # negative value.
    spec = synthesize_radix(Sequence.from_values([0.0, -2.0, 0.0, 0.0, -1.0]), 2)
    assert spec.index[0].tolist() == [0, 0, 0] and spec.weights[0].tolist() == [0.0, -2.0]
    assert all(math.copysign(1.0, x) == 1.0 for x in spec.weights.reshape(-1) if x == 0.0)
    assert replay_residual(spec, Sequence.from_values([0.0, -2.0, 0.0, 0.0, -1.0])) == 0.0
    # Low-rank synthesis reads the length-l^K window of a longer target.
    target = Sequence.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
    window = target.truncate(4)
    spec = synthesize_lowrank(target, 2, 2)
    assert spec.K == 2 and replay_residual(spec, target) <= 1e-14
    assert np.abs(cnn_representation(spec).values_upto(4)
                  - window.values_upto(4)).max() <= 1e-14
    assert synthesize_lowrank(target, 2).K == 3
    shallow = synthesize_lowrank(Sequence.from_values([0.0, -3.0, 7.0]), 4, 1)
    assert _hex(shallow) == _hex({(0, 0, 0): (0.0, -3.0, 7.0, 0.0)})


def _same_bank(got, want):
    """Whether two banks hold the same widths, keys and weight bytes."""
    return (got.channels == want.channels and got.index.tobytes() == want.index.tobytes()
            and got.weights.tobytes() == want.weights.tobytes())


def test_lowrank_bank_is_the_tt_svd_of_the_window(rng):
    for l, K in ((3, 3), (2, 6), (4, 3)):
        for _ in range(5):
            data = rng.normal(size=l ** K) * (rng.random(l ** K) < 0.3)
            target = Sequence.from_values(data)
            spec = synthesize_lowrank(target, l, K)
            assert spec.K == K and spec.channels[0] == spec.channels[-1] == 1
            for k in range(1, K):
                s = np.linalg.svd(data.reshape(l ** k, l ** (K - k), order="F"),
                                  compute_uv=False)
                assert spec.channels[k] == np.sum(s > 1e-10 * s[0])
                assert spec.channels[k] <= min(l ** k, l ** (K - k))
            # The bank is the one _bank reads off tt_svd's fibres, byte for
            # byte, with or without the depth that covers the window.
            cores = tt_svd(target, l, K)
            assert _same_bank(spec, models._bank(cores))
            assert _same_bank(synthesize_lowrank(target, l), models._bank(tt_svd(target, l)))
            assert np.linalg.norm(train_window(cores, l) - data) <= 1e-12 * np.linalg.norm(data)
            assert spec.weights.any(axis=1).all()
            for scale in (1e-200, 1e200):
                far = Sequence.from_values(data * scale)
                assert synthesize_lowrank(far, l, K).channels == spec.channels
                assert (np.linalg.norm(train_window(tt_svd(far, l, K), l) / scale - data)
                        <= 1e-12 * np.linalg.norm(data))
            # A power of two leaves the window over its largest entry bit for
            # bit, so only the last layer, which takes the scale back, moves.
            last = spec.index[:, 0] == K - 1
            for e in (-600, 600):
                far = synthesize_lowrank(Sequence.from_values(data * 2.0 ** e), l, K)
                assert far.channels == spec.channels
                assert np.array_equal(far.index, spec.index)
                assert far.weights[~last].tobytes() == spec.weights[~last].tobytes()
                assert far.weights[last].tobytes() == (spec.weights[last] * 2.0 ** e).tobytes()


def test_impulse_replay_is_exact_at_depth_40():
    target = Sequence.impulse(2 ** 40 - 1)
    spec = synthesize_radix(target, 2)
    assert spec.K == 40 and spec.filter_count == 40
    rep = cnn_representation(spec)
    times, values = rep.arrays()
    assert times.tolist() == [2 ** 40 - 1] and values.tolist() == [1.0]


def test_replay_rejects_times_beyond_the_int64_limit():
    spec = _bank(2, (1,) * 65, {(k, 0, 0): (0.0, 1.0) for k in range(64)})
    with pytest.raises(ValueError, match="2\\^63"):
        cnn_representation(spec)


def _dense_replay(spec):
    """The replay as a dense slab contraction on every layer, kept as the
    bit-for-bit reference for cnn_representation."""
    l, index, weights = spec.l, spec.index, spec.weights
    starts = np.searchsorted(index[:, 0], np.arange(spec.K + 1))
    state = np.ones((1, 1))
    times = np.zeros(1, dtype=np.int64)
    for k in range(spec.K):
        layer = slice(starts[k], starts[k + 1])
        j, i, w = index[layer, 1], index[layer, 2], weights[layer]
        taps = np.flatnonzero(np.any(w != 0.0, axis=0))
        span = int(taps[-1]) + 1 if len(taps) and len(times) else 0
        dilation = l ** k
        if span and (span - 1) * dilation + int(times[-1]) > MAX_TIME:
            raise ValueError(f"layer {k} reaches times beyond the int64 limit 2^63 - 1")
        offsets = np.array([s * dilation for s in range(span)], dtype=np.int64)
        nxt = np.zeros((spec.channels[k + 1], span, len(times)))
        step = max(1, 8192 // max(1, span * len(times)))
        for lo in range(0, len(j), step):
            block = slice(lo, lo + step)
            np.add.at(nxt, i[block], w[block, :span, None] * state[j[block]][:, None, :])
        live = np.any(nxt != 0.0, axis=0)
        state = nxt[:, live]
        times = (offsets[:, None] + times[None, :])[live]
    return Sequence.from_arrays(times, state[0])


def _assert_replay_is_the_reference(spec):
    got_times, got_values = cnn_representation(spec).arrays()
    ref_times, ref_values = _dense_replay(spec).arrays()
    assert np.array_equal(got_times, ref_times)
    assert got_values.dtype == ref_values.dtype and got_values.shape == ref_values.shape
    assert got_values.tobytes() == ref_values.tobytes()


def _path_bank(rng, l, K, paths, cross=0):
    """Radix-like bank: one channel path per entry with random taps on
    each path's random digits, plus `cross` random filters between
    channels of the middle layers."""
    digits = rng.integers(0, l, size=(paths, K))
    filters = {}
    for p in range(paths):
        for k in range(K):
            w = np.zeros(l)
            w[digits[p, k]] = rng.normal()
            filters[(k, 0 if k == 0 else p, 0 if k == K - 1 else p)] = tuple(w)
    for _ in range(cross):
        k = int(rng.integers(1, K - 1))
        filters[(k, *rng.integers(0, paths, size=2).tolist())] = tuple(rng.normal(size=l))
    return _bank(l, (1,) + (paths,) * (K - 1) + (1,), filters)


def test_replay_matches_the_dense_reference_on_radix_banks(rng):
    for l, K in ((2, 11), (3, 6), (4, 5)):
        for _ in range(3):
            size = l ** K
            times = np.append(rng.choice(size - 1, size=int(rng.integers(20, 150)),
                                         replace=False), size - 1)
            target = Sequence.from_arrays(times, rng.normal(size=len(times)))
            _assert_replay_is_the_reference(synthesize_radix(target, l))
        _assert_replay_is_the_reference(_path_bank(rng, l, K, 60, cross=40))


def test_replay_matches_the_dense_reference_on_tt_banks(rng):
    for l, K in ((2, 10), (3, 5), (4, 4)):
        data = rng.normal(size=l ** K) * (rng.random(l ** K) < 0.5)
        _assert_replay_is_the_reference(synthesize_lowrank(Sequence.from_values(data), l, K))
    _assert_replay_is_the_reference(synthesize_lowrank(Sequence.power(horizon=1023), 2, 10))


def test_replay_matches_the_dense_reference_as_the_state_fills(rng):
    # Twenty one-entry paths sum on their distinct cells once they span
    # more than a few columns; an all-to-all layer onto three channels
    # then fills the state, and the last layer sums on the full grid.
    paths = _path_bank(rng, 2, 5, 20)
    filters = {key: w for key, w in zip(map(tuple, paths.index.tolist()), paths.weights)
               if key[0] < 4}
    filters.update({(4, p, q): tuple(rng.normal(size=2)) for p in range(20) for q in range(3)})
    filters.update({(5, q, 0): tuple(rng.normal(size=2)) for q in range(3)})
    spec = _bank(2, (1, 20, 20, 20, 20, 3, 1), filters)
    _assert_replay_is_the_reference(spec)


def test_replay_of_an_empty_bank():
    for spec in (_bank(3, (1, 4, 1)), _bank(2, (1, 3, 3, 1))):
        _assert_replay_is_the_reference(spec)
        assert cnn_representation(spec).radius() is None


def test_replay_memory_follows_the_nonzeros():
    rng = np.random.default_rng(2000)
    times = np.append(rng.choice(2 ** 16 - 1, size=1999, replace=False), 2 ** 16 - 1)
    target = Sequence.from_arrays(times, rng.uniform(0.5, 2.0, size=2000))
    spec = synthesize_radix(target, 2)
    assert spec.channels[1] == 2000 and spec.K == 16
    tracemalloc.start()
    try:
        rep = cnn_representation(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert np.array_equal(rep.values_upto(2 ** 16), target.values_upto(2 ** 16))


def test_a_radix_bank_takes_memory_in_proportion_to_its_fibres():
    # 2,000 points below 2^40 make K * n * l = 160,000 weights (1.3 MB);
    # one dense n x l x n middle core alone would take 64 MB.
    rng = np.random.default_rng(4000)
    times = np.append(rng.choice(2 ** 40 - 1, size=1999, replace=False), 2 ** 40 - 1)
    target = Sequence.from_arrays(times, rng.uniform(0.5, 2.0, size=2000))
    tracemalloc.start()
    try:
        spec = synthesize_radix(target, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.K == 40 and spec.channels[1] == 2000 and spec.filter_count == 80000
    assert peak < 16 * 2 ** 20
    assert replay_residual(spec, target) == 0.0


def test_rnn_spec_coercion():
    # A recurrence is its three arrays; its width m is its readout's length.
    spec = RnnSpec(c=[1.0, 0.5], W=[[0.5, 0.0], [0.0, 0.25]], U=[[1.0], [2.0]])
    assert [field.name for field in dataclasses.fields(spec)] == ["c", "W", "U"]
    assert spec.m == 2 and type(spec.m) is int
    assert spec.U.tolist() == [1.0, 2.0]
    assert spec.W.dtype == float and np.array_equal(spec.W, [[0.5, 0.0], [0.0, 0.25]])
    with pytest.raises(AttributeError):
        spec.m = 3
    for c, W in (([1.0], np.eye(2)), ([1.0], np.ones((1, 2))), ([1.0, 1.0], np.eye(1))):
        with pytest.raises(ValueError, match="^transition must be m x m$"):
            RnnSpec(c=c, W=W, U=c)
    for U in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]):
        with pytest.raises(ValueError, match="^input vector must have length m$"):
            RnnSpec(c=[1.0, 1.0], W=np.eye(2), U=U)


def test_an_overflowing_recurrence_is_refused_without_a_warning():
    # Width 1 (the cumulative product), width 2 (the transition loop) and
    # the readout each overflow; each is refused by the time of its first
    # non-finite value, and no RuntimeWarning comes first.
    for spec, t in ((RnnSpec(c=[1.0], W=[[1e200]], U=[1e200]), 2),
                    (RnnSpec(c=[1.0, 1.0], W=np.diag([1e200, 1e200]), U=[1e200, 1.0]), 2),
                    (RnnSpec(c=[1e300, 1.0], W=np.eye(2), U=[1e300, 1.0]), 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^the value at t={t} is not finite$"):
                rnn_representation(spec, 3)


def test_rnn_representation_is_a_power_sum():
    spec = RnnSpec(c=[1.0], W=[[0.5]], U=[0.5])
    rep = rnn_representation(spec, 6)
    assert rep.value(0) == 0.0
    for t in range(1, 7):
        assert rep.value(t) == pytest.approx(0.5 ** t, rel=1e-15)
    with pytest.raises(ValueError):
        rnn_representation(spec, 0)


def _stepped_recurrence(spec, horizon):
    """The recurrence as one readout and one transition per step, kept as
    the bit-for-bit reference for rnn_representation."""
    values = np.empty(horizon)
    v = spec.U.copy()
    for s in range(horizon):
        values[s] = spec.c @ v
        v = spec.W @ v
    return values


def _rnn_window(spec, horizon):
    return rnn_representation(spec, horizon).values_upto(horizon + 1)


def _stepped_window(spec, horizon):
    """The stepped recurrence as the window [0, horizon] holds it: 0.0 at
    s = 0, and a zero of either sign, which a Sequence does not store, as
    +0.0."""
    return np.concatenate([[0.0], _stepped_recurrence(spec, horizon)]) + 0.0


def test_rnn_representation_is_the_stepped_recurrence(rng):
    for m in (1, 2, 5):
        for _ in range(2):
            W = rng.normal(size=(m, m))
            W *= 0.95 / np.max(np.abs(np.linalg.eigvals(W)))
            spec = RnnSpec(c=rng.normal(size=m), W=W, U=rng.normal(size=m))
            for horizon in (1, 500):
                window = _rnn_window(spec, horizon)
                assert window.tobytes() == _stepped_window(spec, horizon).tobytes()
                assert np.count_nonzero(window) == horizon
    # Width 1 is replayed as one cumulative product: signed zeros,
    # subnormals and negative values, in U, W and the readout.
    edge = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
            -0.5, -1.0, 0.999, -1e-3, -0.75)
    for w in edge:
        for u in edge:
            for c in (1.0, -0.0, -2.5):
                spec = RnnSpec(c=[c], W=[[w]], U=[u])
                for horizon in (1, 2, 1000):
                    window = _rnn_window(spec, horizon)
                    want = _stepped_window(spec, horizon)
                    assert window.tobytes() == want.tobytes(), (w, u, c, horizon)


def test_power_sum_delta_bound_values_and_errors():
    assert power_sum_delta_bound(4, 10, 0.5).value == pytest.approx(0.4)
    with pytest.raises(ValueError):
        power_sum_delta_bound(0, 1, 1.0)
    with pytest.raises(ValueError):
        power_sum_delta_bound(1, 0, 1.0)
    with pytest.raises(ValueError):
        power_sum_delta_bound(1, 1, -1.0)
    # A whole number beyond the float range is refused by the name of its
    # argument, not by the OverflowError of the arithmetic.
    for args, what in (((10 ** 400, 4, 1.0), "m_terms"), ((3, 10 ** 400, 1.0), "t"),
                       ((3, 4, 10 ** 400), "sup_val")):
        with pytest.raises(ValueError, match=f"^{what} is beyond the float limit "
                                             f"{re.escape(repr(sys.float_info.max))}$"):
            power_sum_delta_bound(*args)
    # A sup that is no finite number, and a bound past the float range, are
    # refused by name, not returned as an infinite bound; a bound within
    # the range is returned when only 2 * m_terms * sup_val is past it.
    for sup_val in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^sup_val must be finite and >= 0, not "):
            power_sum_delta_bound(3, 1, sup_val)
    with pytest.raises(ValueError, match="^the bound 2 \\* m_terms \\* sup_val / t is beyond "
                                         f"the float limit {re.escape(repr(sys.float_info.max))}$"):
        power_sum_delta_bound(10 ** 300, 1, 1e300)
    assert power_sum_delta_bound(10 ** 300, 10 ** 300, 1e300).value == 2e300
    assert power_sum_delta_bound(10 ** 308, 1, 0.0).value == 0.0


def test_rnn_min_width_impulse_values():
    assert rnn_min_width_impulse(10, 0.1) == 20
    assert rnn_min_width_impulse(1, 0.1) == 1
    with pytest.raises(ValueError):
        rnn_min_width_impulse(10, 0.5)
    with pytest.raises(ValueError):
        rnn_min_width_impulse(0, 0.1)
    with pytest.raises(ValueError, match=f"^eps is beyond the float limit "
                                         f"{re.escape(repr(sys.float_info.max))}$"):
        rnn_min_width_impulse(3, 10 ** 400)


def _width_by_search(K, budget):
    m = 1
    while m * m <= budget:
        m += 1
    return m


EPS_GRID = (1e-9, 0.001, 0.01, 0.05, 0.1, 0.2, 0.25, 0.3, 1 / 3, 0.4, 0.45, 0.49)


def test_rnn_min_width_impulse_equals_the_search():
    for eps in EPS_GRID:
        e = Fraction(eps)
        for K in range(1, 25):
            exact = _width_by_search(K, 2 ** (K - 1) * (1 - 2 * e) / (1 + e))
            assert rnn_min_width_impulse(K, eps) == exact
            rounded = _width_by_search(K, 2.0 ** (K - 1) * (1 - 2 * eps) / (1 + eps))
            # The float budget of eps = 0.2 rounds onto the square 2^(K-2)
            # for even K; the exact budget of the binary 0.2 lies just below.
            if eps == 0.2 and K % 2 == 0 and K >= 2:
                assert rounded == exact + 1
            else:
                assert rounded == exact


def test_rnn_min_width_impulse_at_large_depth():
    started = time.perf_counter()
    width = rnn_min_width_impulse(62, 0.1)
    assert time.perf_counter() - started < 0.1
    e = Fraction(0.1)
    assert width * width > 2 ** 61 * (1 - 2 * e) / (1 + e) >= (width - 1) ** 2
    assert rnn_min_width_impulse(3000, 0.1).bit_length() == 1500


def test_cnn_min_depth_expdecay_values():
    assert cnn_min_depth_expdecay(0.99, 0.01, 2) == 9
    assert cnn_min_depth_expdecay(0.3, 0.3, 2) == 1
    assert cnn_min_depth_expdecay(0.5, 0.25, 2) == 1
    assert cnn_min_depth_expdecay(0.5, 0.24, 2) == 2
    with pytest.raises(ValueError):
        cnn_min_depth_expdecay(1.0, 0.1, 2)
    with pytest.raises(ValueError):
        cnn_min_depth_expdecay(0.5, 1.5, 2)
