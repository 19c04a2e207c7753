import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlens import models, tensors
from memlens.models import CnnSpec, cnn_representation, replay_residual
from memlens.sequences import Sequence, root_sum_squares
from memlens.tensors import (Spectrum, analysis_window, mode_view, singular_values,
                             truncation_error_bound, window_spectrum)
from trains import train_window


def _flatten(data, dims, k):
    """The mode-k flattening matrix read through mode_view."""
    return mode_view(data, dims, k).reshape(dims[k - 1], -1)


def _refold(flat, dims, k):
    """The flat data a mode-k flattening refolds into, written back through
    mode_view of an empty array."""
    out = np.empty(math.prod(dims))
    view = mode_view(out, dims, k)
    view[...] = flat.reshape(view.shape)
    return out


def _numpy_mode_flatten(data, dims, k):
    arr = np.asarray(data, dtype=float).reshape(dims, order="F")
    return np.moveaxis(arr, k - 1, 0).reshape(dims[k - 1], -1, order="F")


def _pooled_numpy_spectrum(data, l, K):
    out = []
    for k in range(1, K + 1):
        flat = _numpy_mode_flatten(data, (l,) * K, k)
        vals = list(np.linalg.svd(flat, compute_uv=False))
        if K >= 2:
            vals += [0.0] * (l - len(vals))
        out.extend(vals)
    return np.array(sorted(out, reverse=True))


def _per_mode_spectrum(data, l, K):
    """Pooled (value, mode) pairs from one moveaxis flattening and one SVD
    per mode and a keyed sort, kept as the exact reference for
    singular_values."""
    return _pooled_pairs(np.linalg.svd(_numpy_mode_flatten(data, (l,) * K, k),
                                       compute_uv=False) for k in range(1, K + 1))


def _pooled_pairs(per_mode):
    """The (value, mode) pairs of per_mode's rows, mode k in row k - 1, by a
    keyed sort: descending value, ties in ascending mode."""
    pairs = [(float(v), k) for k, row in enumerate(per_mode, start=1) for v in row]
    return sorted(pairs, key=lambda p: (-p[0], p[1]))


def _assert_pairs(spec, pairs):
    """spec's arrays are pairs bit for bit: values as float64 bytes (so a
    signed zero counts), modes as int64."""
    want_values = np.array([v for v, _ in pairs], dtype=np.float64)
    want_modes = np.array([m for _, m in pairs], dtype=np.int64)
    for got, want in ((spec.values, want_values), (spec.modes, want_modes)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def _outer_window(filters):
    """The window whose entry at digits (d_1, ..., d_K) is prod_k f_k[d_k],
    mode 1 fastest: the last filter's axis is the outermost."""
    arr = np.ones(())
    for f in filters:
        arr = np.multiply.outer(np.asarray(f, dtype=float), arr)
    return arr.reshape(-1)


def _mode_values(spec, k):
    """Mode k's values in a pooled spectrum, largest first."""
    return spec.values[spec.modes == k]


def test_tensorize_layout_is_digit_addressed():
    # Window slot t is the entry whose mode-k index is the k-th base-l digit
    # of t; its mode-k flattening puts it at that row and at the column that
    # reads the other digits, the lowest fastest.
    w = Sequence.from_values([1, 2, 3, 4]).values_upto(4)
    assert np.array_equal(w, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(_flatten(w, (2, 2), 1), [[1.0, 3.0], [2.0, 4.0]])
    for l, K in ((2, 3), (3, 3), (4, 2)):
        w = Sequence.from_values(np.arange(1, l ** K + 1)).values_upto(l ** K)
        for k in range(1, K + 1):
            flat = _flatten(w, (l,) * K, k)
            for t in range(l ** K):
                digits = [t // l ** j % l for j in range(K)]
                rest = digits[:k - 1] + digits[k:]
                column = sum(d * l ** j for j, d in enumerate(rest))
                assert flat[digits[k - 1], column] == w[t] == t + 1
    # A generated target's window is its rule, cut off past the window.
    assert Sequence.geometric(0.5, horizon=3).values_upto(4)[3] == 0.125
    assert Sequence.from_arrays([1, 4], [1.0, 1e-9]).values_upto(4).tolist() == [0, 1, 0, 0]


def test_singular_values_refuses_a_bad_depth_or_shape():
    for l, K in ((1, 2), (0, 2), (2, 0), (3, -1)):
        with pytest.raises(ValueError, match="^need l >= 2 and K >= 1$"):
            singular_values(np.ones(4), l, K)
    for shape in ((3,), (5,), (2, 2), (1, 4), ()):
        with pytest.raises(ValueError, match="^a window must hold exactly l\\^K entries$"):
            singular_values(np.ones(shape), 2, 2)


def test_window_spectrum_checks_the_depth_before_it_reads_the_window():
    class Unread:
        def values_upto(self, n):
            raise AssertionError("the window was read")

    for l, K in ((1, 3), (0, 1), (2, 0), (4, -2)):
        with pytest.raises(ValueError, match="^need l >= 2 and K >= 1$"):
            window_spectrum(Unread(), l, K)
    spec = window_spectrum(Sequence.from_arrays([1, 4], [1.0, 5.0]), 2, 2)
    assert spec.values.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_mode_flatten_small_case():
    w = Sequence.from_values([1, 2, 3, 4]).values_upto(4)
    assert np.array_equal(_flatten(w, (2, 2), 1), [[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(_flatten(w, (2, 2), 2), [[1.0, 2.0], [3.0, 4.0]])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(2, 4), min_size=1, max_size=4), st.data())
def test_mode_flatten_matches_numpy_oracle(dims, data):
    dims = tuple(dims)
    n = int(np.prod(dims))
    values = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    flat = np.array(values, dtype=float)
    for k in range(1, len(dims) + 1):
        got = _flatten(flat, dims, k)
        assert np.array_equal(got, _numpy_mode_flatten(flat, dims, k))
        assert np.array_equal(_refold(got, dims, k), flat)


def test_the_flattening_view_reads_and_writes_the_data_in_place(rng):
    # The view shares the data's memory: a write through it lands in the
    # data, and writing the view's own entries back restores them.
    for dims in ((2, 2), (4, 3, 2), (3,) * 4, (2, 5)):
        w = rng.normal(size=math.prod(dims))
        data = w.copy()
        for k in range(1, len(dims) + 1):
            view = mode_view(w, dims, k)
            assert view.shape == (dims[k - 1], math.prod(dims[k:]), math.prod(dims[:k - 1]))
            assert np.shares_memory(view, w)
            flat = view.reshape(dims[k - 1], -1).copy()
            view[...] = 0.0
            assert not w.any()
            view[...] = flat.reshape(view.shape)
            assert np.array_equal(w, data)


def test_spectrum_pools_all_mode_flattenings(rng):
    for l, K in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
        for _ in range(5):
            data = Sequence.from_values(rng.normal(size=l ** K)).values_upto(l ** K)
            spec = singular_values(data, l, K)
            assert len(spec.values) == l * K
            assert np.allclose(spec.values, _pooled_numpy_spectrum(data, l, K), atol=1e-10)
            for k in range(1, K + 1):
                energy = float(np.sum(_mode_values(spec, k) ** 2))
                assert energy == pytest.approx(np.linalg.norm(data) ** 2, rel=1e-10)


def _decaying_windows(n):
    times = np.arange(n, dtype=float)
    inverse = np.zeros(n)
    inverse[1:] = 1.0 / times[1:]
    return {"exp:0.99": 0.99 ** times, "1/t": inverse}


def test_spectrum_matches_numpy_oracle_on_decaying_windows():
    l, K = 8, 5
    for data in _decaying_windows(l ** K).values():
        got = singular_values(data, l, K).values
        want = _pooled_numpy_spectrum(data, l, K)
        assert np.max(np.abs(got - want)) <= 1e-9 * want[0]


def test_rank_one_window_has_rank_equal_to_depth():
    data = _decaying_windows(2 ** 15)["exp:0.99"]
    for l, K in ((2, 15), (8, 5)):
        spec = singular_values(data, l, K)
        assert spec.rank() == K
        for k in range(1, K + 1):
            assert _mode_values(spec, k)[0] == pytest.approx(np.linalg.norm(data),
                                                             rel=1e-12)


def test_batched_spectrum_is_the_per_mode_loop(rng, monkeypatch):
    # The budget is set to hold 1, 2, 3 and all K flattenings per group.
    for l in (2, 3, 4, 8):
        K = 1
        while l ** K <= 2 ** 15:
            windows = [rng.normal(size=l ** K) * scale for scale in (1e-200, 1.0, 1e200)]
            windows += [np.zeros(l ** K), np.eye(1, l ** K, l ** K - 1)[0]]
            for data in windows:
                want = _per_mode_spectrum(data, l, K)
                for group in (1, 2, 3, K):
                    monkeypatch.setattr(tensors, "_STACK_BUDGET", group * data.nbytes)
                    _assert_pairs(singular_values(data, l, K), want)
            K += 1


def test_spectrum_decomposes_a_window_over_the_budget_in_groups(monkeypatch):
    calls = []
    svd, budget = np.linalg.svd, tensors._STACK_BUDGET

    def counted_svd(a, *args, **kwargs):
        calls.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    data = Sequence.power(horizon=2 ** 15 - 1).values_upto(2 ** 15)
    for group, sizes in ((1, [1] * 15), (4, [4, 4, 4, 3]), (7, [7, 7, 1]),
                         (8, [8, 7]), (15, [15]), (16, [15])):
        monkeypatch.setattr(tensors, "_STACK_BUDGET", group * data.nbytes)
        calls.clear()
        singular_values(data, 2, 15)
        assert calls == sizes
    # The module's own budget takes the 256 KB (2, 15) window 8 modes at a
    # time, and any (2, 18) window's 2 MB flattenings one at a time.
    monkeypatch.setattr(tensors, "_STACK_BUDGET", budget)
    calls.clear()
    singular_values(data, 2, 15)
    singular_values(np.ones(2 ** 18), 2, 18)
    assert calls == [8, 7] + [1] * 18


def test_spectrum_memory_is_one_window_beside_the_window():
    data = 1.0 / np.arange(1, 2 ** 18 + 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        singular_values(data, 2, 18)
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
    flatten, svd = tensors.mode_view, np.linalg.svd

    def counted_flatten(*args, **kwargs):
        calls["flatten"] += 1
        return flatten(*args, **kwargs)

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(tensors, "mode_view", counted_flatten)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    singular_values(Sequence.power(horizon=40).values_upto(81), 3, 4)
    assert calls == {"flatten": 4, "svd": 1}


def test_spectrum_depth_one_is_the_window_norm():
    spec = singular_values(np.array([3.0, 4.0]), 2, 1)
    assert len(spec.values) == 1
    assert spec.values[0] == pytest.approx(5.0)


def test_spectrum_orders_ties_by_mode():
    spec = Spectrum.from_mode_values([[1.0, 0.5], [1.0, 0.5]])
    assert spec.modes.tolist() == [1, 2, 1, 2]
    assert np.array_equal(_mode_values(spec, 2), [1.0, 0.5])
    spec = Spectrum.from_mode_values([[1.0, 0.2], [1.0, 0.1], [1.0, 0.3]])
    _assert_pairs(spec, [(1.0, 1), (1.0, 2), (1.0, 3), (0.3, 3), (0.2, 1), (0.1, 2)])


def test_spectrum_keeps_a_signed_zero_tail_in_mode_order():
    spec = Spectrum.from_mode_values([[2.0, -0.0], [1.0, 0.0], [0.5, -0.0]])
    assert spec.modes.tolist() == [1, 2, 3, 1, 2, 3]
    assert [math.copysign(1.0, v) for v in spec.values[3:].tolist()] == [-1.0, 1.0, -1.0]


def test_spectrum_from_lists_and_ragged_rows():
    spec = Spectrum.from_mode_values([[3.0, 1.0, 2.0]])
    _assert_pairs(spec, [(3.0, 1), (2.0, 1), (1.0, 1)])
    # The spectrum writer reads the arrays through tolist as Python numbers.
    assert all(type(v) is float for v in spec.values.tolist())
    assert all(type(m) is int for m in spec.modes.tolist())
    with pytest.raises(ValueError):
        Spectrum.from_mode_values([[1.0, 0.5], [1.0]])
    with pytest.raises(ValueError, match="^expected one row of values per mode$"):
        Spectrum.from_mode_values([1.0, 2.0])


def test_spectrum_values_are_made_once_and_read_only(rng):
    spec = window_spectrum(Sequence.power(horizon=40), 2, 5)
    assert [f.name for f in dataclasses.fields(spec)] == ["values", "modes"]
    assert spec.values is spec.values and spec.modes is spec.modes
    for array in (spec.values, spec.modes):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    # Two spectra compare by identity, not by value.
    assert spec == spec
    assert spec != window_spectrum(Sequence.power(horizon=40), 2, 5)
    with pytest.raises(TypeError, match="from_mode_values"):
        Spectrum(values=spec.values, modes=spec.modes)
    for per_mode in ([[2.0, -0.0], [1.0, 0.0], [0.5, -0.0]], [[3.0, 1.0, 2.0]],
                     np.zeros((3, 0)), rng.normal(size=(5, 4)),
                     np.round(rng.random((4, 8)), 1)):
        spec = Spectrum.from_mode_values(per_mode)
        _assert_pairs(spec, _pooled_pairs(np.asarray(per_mode, dtype=float)))
        for array in (spec.values, spec.modes):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 1


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(2, 3), st.data())
def test_chain_tensorises_to_outer_product(l, K, data):
    filters = [data.draw(st.lists(st.integers(-3, 3), min_size=l, max_size=l))
               for _ in range(K)]
    chain = CnnSpec.from_arrays((1,) * (K + 1), [(k, 0, 0) for k in range(K)], filters)
    assert np.allclose(cnn_representation(chain).values_upto(l ** K), _outer_window(filters),
                       atol=1e-12)


def test_zero_padding_law(rng):
    for l, K in ((2, 2), (2, 3), (3, 2)):
        for _ in range(10):
            rho = Sequence.from_values(rng.normal(size=l ** K))
            base = window_spectrum(rho, l, K).values
            deeper = window_spectrum(rho, l, K + 1).values
            merged = sorted(list(base) + [float(rho.norm())] + [0.0] * (l - 1),
                            reverse=True)
            assert np.allclose(deeper, merged, atol=1e-10)


def test_truncation_error_bound_tail_semantics():
    spec = Spectrum.from_mode_values([[3.0, 2.0, 1.0]])
    tails = truncation_error_bound(spec, [0, 1, 3, 99])
    assert tails[0] == pytest.approx(math.sqrt(14.0))
    assert tails[1] == pytest.approx(math.sqrt(5.0))
    assert tails[2] == 0.0
    assert tails[3] == 0.0
    with pytest.raises(ValueError):
        truncation_error_bound(spec, [2, -1])


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
            assert [t.hex() for t in truncation_error_bound(spec, ranks)] == want
            assert [truncation_error_bound(spec, [r])[0].hex() for r in ranks] == want


def test_tensor_rank_counts_pooled_nonzeros():
    assert window_spectrum(Sequence.from_values([1, 0, 1, 0]), 2, 2).rank() == 2
    assert window_spectrum(Sequence.from_values([1, 0, 0, 1]), 2, 2).rank() == 4
    assert window_spectrum(Sequence.zero(), 2, 3).rank() == 0


def test_rank_counts_values_above_1e_8_of_the_largest():
    # {0: 1, 3: v} at (2, 2) is the 2 x 2 window diag(1, v): each mode
    # gives 1 and v, so v decides between rank 2 and 4 on either side of
    # the threshold 1e-8 * sigma_max.
    for v, rank in ((0.5e-8, 2), (2e-8, 4)):
        spec = window_spectrum(Sequence.from_arrays([0, 3], [1.0, v]), 2, 2)
        assert spec.values.tolist() == [1.0, 1.0, v, v]
        assert spec.rank() == rank


def test_analysis_window_rule():
    finite = Sequence.from_values([1.0, 0.0, 0.0, 0.0, 2.0])
    assert analysis_window(finite, 2, 1) is finite
    cut = analysis_window(Sequence.power(horizon=5), 2, 1)
    assert isinstance(cut, Sequence) and cut.radius() == 5
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
    want = singular_values(rho.truncate(16).values_upto(16), 2, 4)
    _assert_pairs(spec, list(zip(want.values.tolist(), want.modes.tolist())))


# Laws of the pooled spectrum: as a multiset it is unchanged by (a) permuting
# the K digit positions, (b) permuting the l values of one digit and (c) an
# orthogonal l x l map along one mode, each within a small multiple of
# eps * sigma_max, LAPACK's per-value bound; (d) a power of two scales it
# bit for bit.  Both paths from a window to its spectrum are held to them.
_LAW_TOL = 16 * np.finfo(float).eps

_SPECTRUM_PATHS = {
    "singular_values": singular_values,
    "window_spectrum": lambda window, l, K: window_spectrum(
        Sequence.from_values(window), l, K),
}


@st.composite
def _digit_windows(draw):
    """(l, K, window) with the window as an order-K array whose axis K - k
    is digit k, mixing zeros, 1e-3 entries and unit-scale ones."""
    l = draw(st.integers(2, 4))
    K = draw(st.integers(2, 6 if l < 4 else 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    window = rng.normal(size=l ** K) * rng.choice([0.0, 1e-3, 1.0], size=l ** K)
    return l, K, window.reshape((l,) * K)


def _assert_law(path, l, K, window, moved):
    spectrum = _SPECTRUM_PATHS[path]
    want = spectrum(window.reshape(-1), l, K).values
    got = spectrum(moved.reshape(-1), l, K).values
    assert np.abs(got - want).max() <= _LAW_TOL * want[0]


@pytest.mark.parametrize("path", sorted(_SPECTRUM_PATHS))
@settings(max_examples=30, deadline=None)
@given(_digit_windows(), st.data())
def test_spectrum_law_a_digit_positions_permute(path, drawn, data):
    l, K, window = drawn
    order = data.draw(st.permutations(range(K)))
    _assert_law(path, l, K, window, window.transpose(order))


@pytest.mark.parametrize("path", sorted(_SPECTRUM_PATHS))
@settings(max_examples=30, deadline=None)
@given(_digit_windows(), st.data())
def test_spectrum_law_b_the_values_of_one_digit_permute(path, drawn, data):
    l, K, window = drawn
    axis = data.draw(st.integers(0, K - 1))
    order = data.draw(st.permutations(range(l)))
    _assert_law(path, l, K, window, np.take(window, order, axis=axis))


@pytest.mark.parametrize("path", sorted(_SPECTRUM_PATHS))
@settings(max_examples=30, deadline=None)
@given(_digit_windows(), st.data())
def test_spectrum_law_c_an_orthogonal_map_along_one_mode(path, drawn, data):
    l, K, window = drawn
    axis = data.draw(st.integers(0, K - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(l, l)))
    moved = np.moveaxis(np.tensordot(q, window, axes=([1], [axis])), 0, axis)
    _assert_law(path, l, K, window, moved)


@pytest.mark.parametrize("path", sorted(_SPECTRUM_PATHS))
@settings(max_examples=30, deadline=None)
@given(_digit_windows(), st.integers(-60, 60))
def test_spectrum_law_d_a_power_of_two_scales_it_bit_for_bit(path, drawn, e):
    l, K, window = drawn
    spectrum = _SPECTRUM_PATHS[path]
    spec = spectrum(window.reshape(-1), l, K)
    scaled = spectrum(window.reshape(-1) * 2.0 ** e, l, K)
    assert scaled.values.tobytes() == (spec.values * 2.0 ** e).tobytes()
    assert np.array_equal(scaled.modes, spec.modes)


def _jacobi_singular_values(matrix):
    """Singular values of a matrix by one-sided Jacobi rotations in long
    double, in descending order: the rotations orthogonalise the columns of
    the matrix or of its transpose, whichever has fewer, and the values are
    the column norms.  A reference independent of LAPACK, kept in the tests
    only: the library keeps one SVD engine."""
    a = np.array(matrix, dtype=np.longdouble)
    if a.shape[0] < a.shape[1]:
        a = a.T
    tol = np.finfo(np.longdouble).eps
    for _ in range(100):
        rotated = False
        for p in range(a.shape[1] - 1):
            for q in range(p + 1, a.shape[1]):
                x, y = a[:, p], a[:, q]
                alpha, beta, gamma = x @ x, y @ y, x @ y
                if abs(gamma) <= tol * np.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2 * gamma)
                t = np.copysign(1, zeta) / (abs(zeta) + np.sqrt(1 + zeta * zeta))
                c = 1 / np.sqrt(1 + t * t)
                a[:, p], a[:, q] = c * x - c * t * y, c * t * x + c * y
        if not rotated:
            break
    else:
        raise AssertionError("the Jacobi sweeps did not converge")
    return np.sort(np.sqrt((a * a).sum(axis=0)))[::-1]


def _precision_windows(rng, l, K):
    """A random, a graded and a near-rank-one length-l^K window."""
    n = l ** K
    graded = rng.normal(size=n) * 10.0 ** (-12.0 * np.arange(n) / n)
    kron = np.ones(1)
    for _ in range(K):
        kron = np.kron(rng.normal(size=l), kron)
    near_rank_one = kron + 10.0 ** rng.uniform(-14, -6) * rng.normal(size=n)
    return rng.normal(size=n), graded, near_rank_one


def test_singular_values_are_within_lapacks_bound_of_a_long_double_jacobi(rng):
    # LAPACK resolves each singular value to a small multiple of
    # eps * sigma_max, not to its own relative accuracy; the same
    # 16 * eps * sigma_max as the spectrum laws holds against the oracle.
    for l, K in ((2, 6), (3, 4), (4, 3), (2, 9), (8, 3)):
        for _ in range(4):
            for window in _precision_windows(rng, l, K):
                want = np.sort(np.concatenate([
                    _jacobi_singular_values(_numpy_mode_flatten(window, (l,) * K, k))
                    for k in range(1, K + 1)]))[::-1]
                got = singular_values(window, l, K).values
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= _LAW_TOL * want[0], (l, K)


def _sparse_targets(rng, l):
    """The zero target, a horizon Family and five random sparse targets at
    l, of 1 to 40 stored points, from depth 1 up."""
    targets = [Sequence.zero(), Sequence.geometric(0.5, horizon=2 * l + 1)]
    for top, n in ((l, l - 1), (l, 1), (l ** 3, 5), (5000, 1), (5000, 40)):
        times = rng.choice(top, size=n, replace=False)
        targets.append(Sequence.from_arrays(times, rng.normal(size=n) * 10.0 **
                                            rng.integers(-6, 6, size=n)))
    return targets


def _assert_fibre_form(cores, l, K):
    """K cores (r_k, j, i, fibres), the last of width 1, each holding only
    nonzero fibres of length l at bonds inside its widths."""
    assert len(cores) == K and cores[-1][0] == 1
    width = 1
    for r, j, i, fibres in cores:
        assert fibres.shape == (len(j), l) and len(i) == len(j)
        assert fibres.any(axis=1).all()
        assert ((0 <= j) & (j < width)).all() and ((0 <= i) & (i < r)).all()
        width = r


def test_path_cores_are_the_window_as_a_train_of_fibres(rng):
    # Densified and contracted, the fibres give the window bit for bit, at
    # the coverage depth, K = 1 and the zero window included, and the bank
    # read off them replays the target exactly.
    for l in (2, 3, 4):
        for target in _sparse_targets(rng, l):
            window = tensors.analysis_window(target, l)
            n, K = len(window.arrays()[0]), tensors.coverage_depth(l, window.radius() or 0)
            cores = tensors.path_cores(target, l)
            _assert_fibre_form(cores, l, K)
            assert sum(len(fibres) for *_, fibres in cores) == (min(1, n) if K == 1 else K * n)
            assert (train_window(cores, l).tobytes() ==
                    target.values_upto(l ** K).tobytes()), (l, n)
            assert replay_residual(models._bank(cores), target) == 0.0


def test_tt_svd_is_the_window_as_a_train_of_fibres(rng):
    # tt_svd stores its cores as path_cores does, and given no depth takes
    # the one path_cores takes: densified and contracted, its fibres give
    # the window within 1e-12 of its norm.  At K = 1 the one core holds at
    # most one fibre, and a zero window, at any depth, is K empty cores of
    # width 1.
    for l in (2, 3, 4):
        for target in _sparse_targets(rng, l):
            window = tensors.analysis_window(target, l)
            n, K = len(window.arrays()[0]), tensors.coverage_depth(l, window.radius() or 0)
            for depth, cores in ((K, tensors.tt_svd(target, l)),
                                 (1, tensors.tt_svd(target, l, 1)),
                                 (K + 1, tensors.tt_svd(target, l, K + 1))):
                want = target.values_upto(l ** depth)
                _assert_fibre_form(cores, l, depth)
                assert (np.linalg.norm(train_window(cores, l) - want)
                        <= 1e-12 * np.linalg.norm(want)), (l, n, depth)
                if depth == 1:
                    assert len(cores[0][3]) == int(want.any())
                if n == 0:
                    assert [r for r, *_ in cores] == [1] * depth
                    assert not sum(len(fibres) for *_, fibres in cores)


def test_tt_svd_drops_a_step_tail_below_its_share_of_the_tolerance():
    # e_000 + d e_111 has singular values 1 and d in every unfolding, so each
    # of its K - 1 = 2 steps keeps d exactly when d^2 / (1 + d^2) is above
    # the per-step share tol^2 / (K - 1).  The two values of d^2 lie on
    # either side of that share, the lower above tol^2 / (K + 1), the upper
    # below tol^2.
    tol = tensors._TT_REL_TOL
    for share, ranks in ((0.35, [1, 1]), (0.7, [2, 2])):
        window = Sequence.from_arrays([0, 7], [1.0, tol * math.sqrt(share)])
        cores = tensors.tt_svd(window, 2, 3)
        assert [r for r, *_ in cores[:-1]] == ranks, share
