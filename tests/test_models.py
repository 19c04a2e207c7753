import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlens.models import (CnnSpec, RnnSpec, cnn_min_depth_expdecay,
                            cnn_representation, effective_filters,
                            power_sum_delta_bound, replay_residual,
                            rnn_min_width_impulse, rnn_representation,
                            synthesize_lowrank, synthesize_radix)
from memlens.sequences import Sequence
from memlens.tensors import hosvd, tensorize


def test_cnn_spec_validation():
    CnnSpec(l=2, K=2, channels=(1, 3, 1))
    with pytest.raises(ValueError):
        CnnSpec(l=2, K=2, channels=(1, 3, 2))
    with pytest.raises(ValueError):
        CnnSpec(l=2, K=2, channels=(1, 1))
    with pytest.raises(ValueError):
        CnnSpec(l=2, K=1, channels=(1, 1), filters={(0, 0, 1): (1.0, 0.0)})
    with pytest.raises(ValueError):
        CnnSpec(l=2, K=1, channels=(1, 1), filters={(0, 0, 0): (1.0, 0.0, 0.0)})


def test_cnn_spec_json_round_trip():
    spec = CnnSpec(l=2, K=2, channels=(1, 2, 1),
                   filters={(0, 0, 1): (1.0, 2.0), (1, 1, 0): (0.0, -1.0)})
    back = CnnSpec.from_json(spec.to_json())
    assert back.channels == spec.channels
    assert back.filters == spec.filters
    assert back.filter_count == 2


def test_representation_of_a_two_layer_chain():
    spec = CnnSpec(l=2, K=2, channels=(1, 1, 1),
                   filters={(0, 0, 0): (1.0, 2.0), (1, 0, 0): (3.0, 4.0)})
    rep = cnn_representation(spec)
    assert list(rep.flat_values(4)) == [3.0, 6.0, 4.0, 8.0]


def test_representation_stacks_input_channels():
    spec = CnnSpec(l=2, K=1, channels=(2, 1),
                   filters={(0, 0, 0): (1.0, 0.0), (0, 1, 0): (0.0, 2.0)})
    rep = cnn_representation(spec)
    assert rep.dim == 2
    assert np.array_equal(rep.value(0), [1.0, 0.0])
    assert np.array_equal(rep.value(1), [0.0, 2.0])


def test_representation_stays_in_receptive_field(rng):
    for _ in range(10):
        K = int(rng.integers(1, 4))
        channels = (1,) + tuple(int(rng.integers(1, 3)) for _ in range(K - 1)) + (1,)
        filters = {}
        for k in range(K):
            for j in range(channels[k]):
                for i in range(channels[k + 1]):
                    filters[(k, j, i)] = tuple(rng.normal(size=2))
        rep = cnn_representation(CnnSpec(l=2, K=K, channels=channels,
                                         filters=filters))
        r = rep.radius()
        assert r is None or r <= 2 ** K - 1


def test_effective_filters_values():
    assert effective_filters((1, 4, 4, 1), 2, 3) == 14.0
    assert effective_filters((1, 1), 2, 1) == 0.0
    assert effective_filters((2, 2, 2, 1), 3, 3, d=2) == -1.5
    spec = CnnSpec(l=2, K=2, channels=(1, 4, 1))
    assert effective_filters(spec, 2, 2) == 0.0
    for bad in ((spec, 3, 2, 1), (spec, 2, 3, 1), (spec, 2, 2, 2),
                ((), 2, 1, 1), ((1, 4, 1), 2, 3, 1), ((2, 4, 1), 2, 2, 1),
                ((1, 4, 2), 2, 2, 1)):
        with pytest.raises(ValueError):
            effective_filters(*bad)


def test_radix_synthesis_worked_example():
    spec = synthesize_radix(Sequence.impulse(19), 4)
    assert spec.K == 3 and spec.channels == (1, 1, 1, 1)
    assert spec.filter_count == 3
    assert spec.filters[(0, 0, 0)] == (0.0, 0.0, 0.0, 1.0)
    assert spec.filters[(1, 0, 0)] == (1.0, 0.0, 0.0, 0.0)
    assert spec.filters[(2, 0, 0)] == (0.0, 1.0, 0.0, 0.0)
    diff = cnn_representation(spec).plus(Sequence.impulse(19).scaled(-1.0))
    assert float(diff.norm()) == 0.0


def test_radix_synthesis_shallow_and_degenerate_cases():
    dense = synthesize_radix(Sequence.from_values([1.0, 0.0, -2.0]), 4)
    assert dense.K == 1
    assert dense.filters[(0, 0, 0)] == (1.0, 0.0, -2.0, 0.0)
    zero = synthesize_radix(Sequence.zero(), 3)
    assert zero.filter_count == 0
    assert cnn_representation(zero).radius() is None
    with pytest.raises(ValueError):
        synthesize_radix(Sequence.geometric(0.5), 2)
    with pytest.raises(ValueError):
        synthesize_radix(Sequence.from_entries({0: (1.0, 1.0)}, dim=2), 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_radix_synthesis_replays_exactly(l, data):
    K = data.draw(st.integers(1, {2: 12, 3: 7, 4: 6}[l]))
    size = l ** K
    support = data.draw(st.dictionaries(st.integers(0, size - 1),
                                        st.integers(-9, 9).filter(bool),
                                        min_size=1, max_size=300))
    target = Sequence.from_entries({t: (float(v),) for t, v in support.items()})
    spec = synthesize_radix(target, l)
    diff = cnn_representation(spec).plus(target.scaled(-1.0))
    assert float(diff.norm()) == 0.0
    assert spec.filter_count <= spec.K * target.sparsity()


def test_lowrank_synthesis_replays_the_window(rng):
    for l, K in ((2, 3), (3, 2), (2, 8), (4, 3), (3, 4)):
        target = Sequence.from_values(rng.normal(size=l ** K))
        spec = synthesize_lowrank(target, l, K)
        diff = cnn_representation(spec).plus(target.scaled(-1.0))
        assert float(diff.norm()) <= 1e-12 * float(target.norm())
    rank1 = Sequence.from_values([3.0, 6.0, 4.0, 8.0])
    spec = synthesize_lowrank(rank1, 2, 2)
    assert spec.channels == (1, 1, 1)
    zero = synthesize_lowrank(Sequence.zero(), 2, 2)
    assert zero.filter_count == 0


def test_synthesis_banks_share_one_layout():
    # Radix filters are one-hot with +0.0 off the hot tap, even for a
    # negative value.
    spec = synthesize_radix(Sequence.from_values([0.0, -2.0, 0.0, 0.0, -1.0]), 2)
    assert spec.filters[(0, 0, 0)] == (0.0, -2.0)
    assert all(math.copysign(1.0, x) == 1.0 for w in spec.filters.values()
               for x in w if x == 0.0)
    assert replay_residual(spec, Sequence.from_values([0.0, -2.0, 0.0, 0.0, -1.0])) == 0.0
    # Low-rank synthesis reads the length-l^K window of a longer target.
    target = Sequence.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
    window = target.truncate(4)
    spec = synthesize_lowrank(target, 2, 2)
    assert spec.K == 2 and replay_residual(spec, target) <= 1e-14
    assert float(cnn_representation(spec).plus(window.scaled(-1.0)).norm()) <= 1e-14
    assert synthesize_lowrank(target, 2).K == 3
    shallow = synthesize_lowrank(Sequence.from_values([0.0, -3.0, 7.0]), 4, 1)
    assert shallow.filters == {(0, 0, 0): (0.0, -3.0, 7.0, 0.0)}


def test_lowrank_bank_matches_a_per_path_loop(rng):
    # Reference: the per-path loop, digits by repeated division; the bank
    # must hold the same floats, signed zeros included.
    l, K = 3, 3
    target = Sequence.from_values(rng.normal(size=l ** K) * (rng.random(l ** K) < 0.4))
    t = tensorize(target, l, K)
    core, factors = hosvd(t)
    spec = synthesize_lowrank(target, l, K)
    retained = [pos for pos in range(l ** K) if abs(core[pos]) > 1e-12 * t.norm()]
    assert spec.channels == (1, len(retained), len(retained), 1)
    for p, pos in enumerate(retained):
        digits = [pos // l ** k % l for k in range(K)]
        want = {(0, 0, p): core[pos] * factors[0][:, digits[0]],
                (1, p, p): factors[1][:, digits[1]],
                (2, p, 0): factors[2][:, digits[2]]}
        for key, w in want.items():
            got = np.array(spec.filters[key])
            assert np.array_equal(got, w) and np.array_equal(np.signbit(got), np.signbit(w))


def test_impulse_replay_is_exact_at_depth_40():
    target = Sequence.impulse(2 ** 40 - 1)
    spec = synthesize_radix(target, 2)
    assert spec.K == 40 and spec.filter_count == 40
    rep = cnn_representation(spec)
    times, values = rep.arrays()
    assert times.tolist() == [2 ** 40 - 1] and values.tolist() == [[1.0]]


def test_replay_rejects_times_beyond_the_int64_limit():
    spec = CnnSpec(l=2, K=64, channels=(1,) * 65,
                   filters={(k, 0, 0): (0.0, 1.0) for k in range(64)})
    with pytest.raises(ValueError, match="2\\^63"):
        cnn_representation(spec)


def test_rnn_spec_coercion_and_json():
    spec = RnnSpec(m=2, c=[1.0, 0.5], W=[[0.5, 0.0], [0.0, 0.25]], U=[[1.0], [2.0]])
    assert spec.dim == 1
    assert spec.spectral_radius() == pytest.approx(0.5)
    back = RnnSpec.from_json(spec.to_json())
    assert np.array_equal(back.W, spec.W)
    with pytest.raises(ValueError):
        RnnSpec(m=2, c=[1.0], W=np.eye(2), U=[[1.0], [1.0]])


def test_rnn_representation_is_a_power_sum():
    spec = RnnSpec(m=1, c=[1.0], W=[[0.5]], U=[[0.5]])
    rep = rnn_representation(spec, 6)
    assert rep.value(0)[0] == 0.0
    for t in range(1, 7):
        assert rep.value(t)[0] == pytest.approx(0.5 ** t, rel=1e-15)
    with pytest.raises(ValueError):
        rnn_representation(spec, 0)


def test_power_sum_delta_bound_values_and_errors():
    assert power_sum_delta_bound(4, 10, 0.5).value == pytest.approx(0.4)
    with pytest.raises(ValueError):
        power_sum_delta_bound(0, 1, 1.0)
    with pytest.raises(ValueError):
        power_sum_delta_bound(1, 0, 1.0)
    with pytest.raises(ValueError):
        power_sum_delta_bound(1, 1, -1.0)


def test_rnn_min_width_impulse_values():
    assert rnn_min_width_impulse(10, 0.1) == 20
    assert rnn_min_width_impulse(1, 0.1) == 1
    with pytest.raises(ValueError):
        rnn_min_width_impulse(10, 0.5)
    with pytest.raises(ValueError):
        rnn_min_width_impulse(0, 0.1)


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
