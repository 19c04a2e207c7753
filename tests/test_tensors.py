import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlens import tensors
from memlens.sequences import Sequence, dilated_conv, root_sum_squares
from memlens.tensors import (Spectrum, Tensor, analysis_window,
                             matrix_singular_values, mode_flatten_general,
                             mode_refold_general, outer_product,
                             singular_values, tensorize,
                             truncation_error_bound, window_spectrum)


def _numpy_mode_flatten(data, dims, k):
    arr = np.asarray(data, dtype=float).reshape(dims, order="F")
    return np.moveaxis(arr, k - 1, 0).reshape(dims[k - 1], -1, order="F")


def _pooled_numpy_spectrum(t):
    K = t.order
    out = []
    for k in range(1, K + 1):
        flat = _numpy_mode_flatten(t.data, (t.l,) * K, k)
        vals = list(np.linalg.svd(flat, compute_uv=False))
        if K >= 2:
            vals += [0.0] * (t.l - len(vals))
        out.extend(vals)
    return np.array(sorted(out, reverse=True))


def _per_mode_spectrum(t):
    """Pooled entries from one moveaxis flattening and one SVD per mode and a
    keyed sort, kept as the exact reference for singular_values."""
    pairs = []
    for k in range(1, t.order + 1):
        flat = _numpy_mode_flatten(t.data, (t.l,) * t.order, k)
        pairs.extend((float(v), k) for v in np.linalg.svd(flat, compute_uv=False))
    pairs.sort(key=lambda p: (-p[0], p[1]))
    return tuple(pairs)


def _mode_values(spec, k):
    """Mode k's values in a pooled spectrum, largest first."""
    return np.array(sorted((v for v, m in spec.entries if m == k), reverse=True))


def test_tensorize_layout_is_digit_addressed():
    t = tensorize(Sequence.from_values([1, 2, 3, 4]), 2, 2)
    assert np.array_equal(t.data, [1.0, 2.0, 3.0, 4.0])
    assert t.entry((1, 1)) == 1.0
    assert t.entry((2, 1)) == 2.0
    assert t.entry((1, 2)) == 3.0
    assert t.entry((2, 2)) == 4.0
    assert np.linalg.norm(t.data) == pytest.approx(math.sqrt(30.0))


def test_tensorize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tensorize(Sequence.from_values([0, 0, 0, 0, 1.0]), 2, 2)
    with pytest.raises(ValueError, match="^radius of a generated sequence needs a horizon$"):
        tensorize(Sequence.geometric(0.5), 2, 2)
    with pytest.raises(ValueError, match="^sequence support exceeds the tensor window$"):
        tensorize(Sequence.power(horizon=10 ** 12), 2, 2)
    window = tensorize(Sequence.geometric(0.5, horizon=3), 2, 2)
    assert window.data[3] == 0.125
    # A live entry stored past the window is refused; entries past it
    # below zero_tol() are round-off and only the window is folded.
    with pytest.raises(ValueError, match="exceeds"):
        tensorize(Sequence.from_arrays([1, 4], [1.0, 1e-9]), 2, 2)
    rho = Sequence.from_arrays([1, 4, 9], [1.0, 1e-11, -1e-12])
    assert rho.zero_tol() > 1e-11
    assert np.array_equal(tensorize(rho, 2, 2).data, [0.0, 1.0, 0.0, 0.0])
    assert tensorize(Sequence.from_arrays([], []), 2, 2).data.tobytes() == bytes(32)


def test_mode_flatten_small_case():
    t = tensorize(Sequence.from_values([1, 2, 3, 4]), 2, 2)
    assert np.array_equal(mode_flatten_general(t.data, (2, 2), 1), [[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(mode_flatten_general(t.data, (2, 2), 2), [[1.0, 2.0], [3.0, 4.0]])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(2, 4), min_size=1, max_size=4), st.data())
def test_mode_flatten_matches_numpy_oracle(dims, data):
    dims = tuple(dims)
    n = int(np.prod(dims))
    values = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    flat = np.array(values, dtype=float)
    for k in range(1, len(dims) + 1):
        got = mode_flatten_general(flat, dims, k)
        assert np.array_equal(got, _numpy_mode_flatten(flat, dims, k))
        assert np.array_equal(mode_refold_general(got, dims, k), flat)


def test_matrix_singular_values_matches_numpy(rng):
    for shape in ((2, 2), (3, 3), (2, 5), (5, 2)):
        for _ in range(20):
            a = rng.normal(size=shape)
            got = matrix_singular_values(a)
            want = np.linalg.svd(a, compute_uv=False)
            assert np.allclose(got, want, atol=1e-10)


def test_spectrum_pools_all_mode_flattenings(rng):
    for l, K in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
        for _ in range(5):
            rho = Sequence.from_values(rng.normal(size=l ** K))
            t = tensorize(rho, l, K)
            spec = singular_values(t)
            assert len(spec.values) == l * K
            assert np.allclose(spec.values, _pooled_numpy_spectrum(t), atol=1e-10)
            for k in range(1, K + 1):
                energy = float(np.sum(_mode_values(spec, k) ** 2))
                assert energy == pytest.approx(np.linalg.norm(t.data) ** 2, rel=1e-10)


def _decaying_windows(n):
    times = np.arange(n, dtype=float)
    inverse = np.zeros(n)
    inverse[1:] = 1.0 / times[1:]
    return {"exp:0.99": 0.99 ** times, "1/t": inverse}


def test_spectrum_matches_numpy_oracle_on_decaying_windows():
    l, K = 8, 5
    for data in _decaying_windows(l ** K).values():
        t = Tensor(l=l, order=K, data=data)
        got = singular_values(t).values
        want = _pooled_numpy_spectrum(t)
        assert np.max(np.abs(got - want)) <= 1e-9 * want[0]


def test_rank_one_window_has_rank_equal_to_depth():
    data = _decaying_windows(2 ** 15)["exp:0.99"]
    for l, K in ((2, 15), (8, 5)):
        t = Tensor(l=l, order=K, data=data)
        spec = singular_values(t)
        assert spec.rank() == K
        for k in range(1, K + 1):
            assert _mode_values(spec, k)[0] == pytest.approx(np.linalg.norm(t.data),
                                                             rel=1e-12)


def test_batched_spectrum_is_the_per_mode_loop(rng, monkeypatch):
    # The budget is set to hold 1, 2, 3 and all K flattenings per group.
    for l in (2, 3, 4, 8):
        K = 1
        while l ** K <= 2 ** 15:
            windows = [rng.normal(size=l ** K) * scale for scale in (1e-200, 1.0, 1e200)]
            windows += [np.zeros(l ** K), np.eye(1, l ** K, l ** K - 1)[0]]
            for data in windows:
                t = Tensor(l=l, order=K, data=data)
                want = _per_mode_spectrum(t)
                for group in (1, 2, 3, K):
                    monkeypatch.setattr(tensors, "_STACK_BUDGET", group * data.nbytes)
                    assert singular_values(t).entries == want
            K += 1


def test_spectrum_decomposes_a_window_over_the_budget_in_groups(monkeypatch):
    calls = []
    svd, budget = np.linalg.svd, tensors._STACK_BUDGET

    def counted_svd(a, *args, **kwargs):
        calls.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    t = tensorize(Sequence.power(horizon=2 ** 15 - 1), 2, 15)
    for group, sizes in ((1, [1] * 15), (4, [4, 4, 4, 3]), (7, [7, 7, 1]),
                         (8, [8, 7]), (15, [15]), (16, [15])):
        monkeypatch.setattr(tensors, "_STACK_BUDGET", group * t.data.nbytes)
        calls.clear()
        singular_values(t)
        assert calls == sizes
    # The module's own budget takes the 256 KB (2, 15) window 8 modes at a
    # time, and any (2, 18) window's 2 MB flattenings one at a time.
    monkeypatch.setattr(tensors, "_STACK_BUDGET", budget)
    calls.clear()
    singular_values(t)
    singular_values(Tensor(l=2, order=18, data=np.ones(2 ** 18)))
    assert calls == [8, 7] + [1] * 18


def test_spectrum_memory_is_one_window_beside_the_window():
    data = 1.0 / np.arange(1, 2 ** 18 + 1)
    t = Tensor(l=2, order=18, data=data)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        singular_values(t)
        spec_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        spec = window_spectrum(Sequence.power(horizon=2 ** 18 - 1), 2, 18)
        window_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert spec_peak <= 1.5 * data.nbytes
    assert window_peak <= 4 * data.nbytes
    assert spec.rank() == 36


def test_spectrum_flattens_each_mode_and_runs_one_svd(monkeypatch):
    calls = {"flatten": 0, "svd": 0}
    flatten, svd = tensors._mode_view, np.linalg.svd

    def counted_flatten(*args, **kwargs):
        calls["flatten"] += 1
        return flatten(*args, **kwargs)

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(tensors, "_mode_view", counted_flatten)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    singular_values(tensorize(Sequence.power(horizon=40).truncate(81), 3, 4))
    assert calls == {"flatten": 4, "svd": 1}


def test_spectrum_depth_one_is_the_window_norm():
    spec = singular_values(tensorize(Sequence.from_values([3.0, 4.0]), 2, 1))
    assert len(spec.values) == 1
    assert spec.values[0] == pytest.approx(5.0)


def test_spectrum_orders_ties_by_mode():
    spec = Spectrum.from_mode_values([[1.0, 0.5], [1.0, 0.5]])
    assert [m for _, m in spec.entries] == [1, 2, 1, 2]
    assert np.array_equal(_mode_values(spec, 2), [1.0, 0.5])
    spec = Spectrum.from_mode_values([[1.0, 0.2], [1.0, 0.1], [1.0, 0.3]])
    assert spec.entries == ((1.0, 1), (1.0, 2), (1.0, 3), (0.3, 3), (0.2, 1), (0.1, 2))


def test_spectrum_keeps_a_signed_zero_tail_in_mode_order():
    spec = Spectrum.from_mode_values([[2.0, -0.0], [1.0, 0.0], [0.5, -0.0]])
    assert [m for _, m in spec.entries] == [1, 2, 3, 1, 2, 3]
    assert [math.copysign(1.0, v) for v, _ in spec.entries[3:]] == [-1.0, 1.0, -1.0]


def test_spectrum_from_lists_and_ragged_rows():
    spec = Spectrum.from_mode_values([[3.0, 1.0, 2.0]])
    assert spec.entries == ((3.0, 1), (2.0, 1), (1.0, 1))
    assert all(type(v) is float and type(m) is int for v, m in spec.entries)
    with pytest.raises(ValueError):
        Spectrum.from_mode_values([[1.0, 0.5], [1.0]])


def test_spectrum_values_are_made_once_and_read_only(rng):
    spec = window_spectrum(Sequence.power(horizon=40), 2, 5)
    assert spec.values is spec.values
    assert np.array_equal(spec.values, [v for v, _ in spec.entries])
    assert not spec.values.flags.writeable
    with pytest.raises(ValueError):
        spec.values[0] = 0.0
    assert spec == window_spectrum(Sequence.power(horizon=40), 2, 5)
    with pytest.raises(TypeError, match="from_mode_values"):
        Spectrum(entries=spec.entries)
    for per_mode in ([[2.0, -0.0], [1.0, 0.0], [0.5, -0.0]], [[3.0, 1.0, 2.0]],
                     np.zeros((3, 0)), rng.normal(size=(5, 4)),
                     np.round(rng.random((4, 8)), 1)):
        spec = Spectrum.from_mode_values(per_mode)
        ref = np.array([v for v, _ in spec.entries])
        assert spec.values.dtype == ref.dtype and spec.values.shape == ref.shape
        assert spec.values.tobytes() == ref.tobytes()
        assert not spec.values.flags.writeable
        with pytest.raises(ValueError):
            spec.values[...] = 1.0


def test_outer_product_reads_one_vector_per_mode():
    t = outer_product([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
    assert np.array_equal(t.data, [3.0, 6.0, 4.0, 8.0])
    assert t.entry((2, 1)) == 6.0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(2, 3), st.data())
def test_chain_tensorises_to_outer_product(l, K, data):
    filters = [data.draw(st.lists(st.integers(-3, 3), min_size=l, max_size=l))
               for _ in range(K)]
    seqs = [Sequence.from_values([float(x) for x in f]) for f in filters]
    acc = seqs[0]
    for k in range(1, K):
        acc = dilated_conv(seqs[k], acc, l ** k)
    left = tensorize(acc, l, K).data
    right = outer_product([np.array(f, dtype=float) for f in filters]).data
    assert np.allclose(left, right, atol=1e-12)


def test_zero_padding_law(rng):
    for l, K in ((2, 2), (2, 3), (3, 2)):
        for _ in range(10):
            rho = Sequence.from_values(rng.normal(size=l ** K))
            base = singular_values(tensorize(rho, l, K)).values
            deeper = singular_values(tensorize(rho, l, K + 1)).values
            merged = sorted(list(base) + [float(rho.norm())] + [0.0] * (l - 1),
                            reverse=True)
            assert np.allclose(deeper, merged, atol=1e-10)


def test_truncation_error_bound_tail_semantics():
    spec = Spectrum.from_mode_values([[3.0, 2.0, 1.0]])
    assert truncation_error_bound(spec, 0).value == pytest.approx(math.sqrt(14.0))
    assert truncation_error_bound(spec, 1).value == pytest.approx(math.sqrt(5.0))
    assert truncation_error_bound(spec, 3).value == 0.0
    assert truncation_error_bound(spec, 99).value == 0.0
    with pytest.raises(ValueError):
        truncation_error_bound(spec, -1)


def test_tail_masses_are_root_sum_squares_of_each_tail(rng):
    """The tails of one array of squares are root_sum_squares of each tail,
    bit for bit: at scales whose sums of squares underflow, overflow or
    only partly do, with zero tails and an empty one."""
    spectra = [window_spectrum(Sequence.from_values([1, 0, 0, 1]), 2, 4).values]
    for l, K in ((2, 6), (3, 4), (4, 5), (8, 3)):
        values = rng.standard_normal(l ** K) * (rng.random(l ** K) < 0.7)
        spectra.append(np.append(window_spectrum(Sequence.from_values(values), l, K).values,
                                 np.zeros(3)))
    for values in spectra:
        for scale in (1.0, 1e-200, 1e-160, 1e154, 1e200):
            spec = Spectrum.from_mode_values([scale * values])
            ranks = range(len(values) + 2)
            want = [root_sum_squares(spec.values[r:]).hex() for r in ranks]
            assert [t.hex() for t in tensors._tail_masses(spec, ranks)] == want
            assert [truncation_error_bound(spec, r).value.hex() for r in ranks] == want


def test_tensor_rank_counts_pooled_nonzeros():
    assert window_spectrum(Sequence.from_values([1, 0, 1, 0]), 2, 2).rank() == 2
    assert window_spectrum(Sequence.from_values([1, 0, 0, 1]), 2, 2).rank() == 4
    assert window_spectrum(Sequence.zero(), 2, 3).rank() == 0


def test_analysis_window_rule():
    finite = Sequence.from_values([1.0, 0.0, 0.0, 0.0, 2.0])
    assert analysis_window(finite, 2, 1) is finite
    cut = analysis_window(Sequence.power(horizon=5), 2, 1)
    assert cut.kind == "finite" and cut.radius() == 5
    assert analysis_window(Sequence.geometric(0.5), 2, 3).radius() == 7
    with pytest.raises(ValueError, match="horizon"):
        analysis_window(Sequence.geometric(0.5), 2)


def test_a_window_beyond_the_time_limit_is_refused_by_name():
    # l^K - 1 is checked before the window is made, for every kind of target.
    for rho in (Sequence.from_values([1.0, 2.0]), Sequence.geometric(0.9),
                Sequence.power(horizon=3)):
        with pytest.raises(ValueError, match="^a 64-bit time index is beyond "
                                             "the int64 limit 2\\^63 - 1$"):
            window_spectrum(rho, 2, 64)


def test_window_spectrum_reads_the_truncated_window():
    rho = Sequence.power(horizon=40)
    spec = window_spectrum(rho, 2, 4)
    assert spec.entries == singular_values(tensorize(rho.truncate(16), 2, 4)).entries
