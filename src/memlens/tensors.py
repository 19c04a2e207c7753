"""Tensorised views of sequences: pooled singular spectra and tensor trains.

The length-l^K window of a target rho is one dense float64 array,
rho.values_upto(l^K), read as an order-K tensor: its mode-k index is the
k-th base-l digit of the time index (mode 1 is the least significant
digit), so no entry moves.  This module holds that one layout rule, read
row-major with later digits slower, and every SVD of the library:
_mode_view reads a mode flattening in place (mode_flatten_general and
mode_refold_general read and write it as a matrix), and tt_svd reads the
unfoldings and cores of the window's tensor train, the low-rank filter
bank.  The ranks of that train are a stack's width plan (M_0, ..., M_K),
whose number of widths fixes the depth K, and width_plan, beside tt_svd,
is the one check of a plan: CnnSpec and bounds.effective_filters read
every plan, and its depth, through it.  The pooled singular
values of the K mode flattenings drive the rank counts and truncation
bounds of the approximation-rate machinery.  window_spectrum is the one
path from a target to its depth-K pooled spectrum, and
truncation_error_bound the one path from a spectrum to its tails.  The
tail masses at offsets s = 0, ..., l*K - K that the complexity measure
and the error curves read come from one method, bounds.DepthTable.masses,
the single place their offset rule is written; a DepthTable calls
window_spectrum once per window it reads.

Singular values come from direct SVDs of the K flattenings, never their
Gram matrices: forming a Gram matrix squares the condition number and
loses singular values below sqrt(eps) of the largest, which would let
round-off decide tensor ranks.  The flattenings are decomposed in groups
whose stack stays within a fixed byte budget (_STACK_BUDGET), one batched
SVD per group; a window whose K flattenings fit takes one call, and a
deeper window needs one window-sized slot beside the window.

Each singular value is accurate to a small multiple of eps * sigma_max,
sigma_max the largest value of the pooled spectrum (LAPACK Users' Guide,
section 4.9), not to its own relative accuracy: a value far below
sigma_max keeps fewer correct digits.  The tests hold singular_values
within 16 * eps * sigma_max of a one-sided Jacobi SVD in long double, on
random, graded and near-rank-one windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import _HUGE, _TINY, Family, Sequence, _whole, root_sum_squares

RANK_REL_TOL = 1e-8
# The stack of flattenings one batched SVD decomposes holds at most this
# many bytes, or one flattening where a single one is larger.
_STACK_BUDGET = 1 << 21


@dataclass(frozen=True, init=False, eq=False)
class Spectrum:
    """Pooled singular values of all mode flattenings of a tensor.

    A spectrum is two read-only arrays made once by from_mode_values, its
    one constructor: values, the pooled float64 values sorted descending
    with ties in ascending mode, and modes, the int64 mode 1, ..., K each
    value comes from.  Each mode contributes min(l, l^(K-1)) values, so
    both hold l*K entries for K >= 2 and 1 for K = 1.  Two spectra
    compare by identity.
    """

    values: np.ndarray
    modes: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("a Spectrum is built by Spectrum.from_mode_values")

    @classmethod
    def from_mode_values(cls, per_mode) -> "Spectrum":
        """Pool a (K, r) array whose row k - 1 holds mode k's values."""
        values = np.asarray(per_mode, dtype=float)
        if values.ndim != 2:
            raise ValueError("expected one row of values per mode")
        # A stable sort on the negated row-major values keeps ties in
        # ascending mode.
        order = np.argsort(-values, axis=None, kind="stable")
        spec = object.__new__(cls)
        for name, array in (("values", values.reshape(-1)[order]),
                            ("modes", order // values.shape[1] + 1)):
            array.flags.writeable = False
            object.__setattr__(spec, name, array)
        return spec

    def rank(self) -> int:
        """Number of values above RANK_REL_TOL relative to the largest."""
        values = self.values
        if len(values) == 0 or values[0] <= 0.0:
            return 0
        return int(np.sum(values > RANK_REL_TOL * values[0]))


def mode_flatten_general(data, dims, k) -> np.ndarray:
    """Mode-k flattening of a dense tensor in first-index-fastest layout.

    The (i_1, ..., i_K) entry lands at row i_k and at the column that
    reads the remaining indices first-index-fastest.  Supports arbitrary
    mode lengths; the library paths only ever use equal mode lengths, the
    general form exists for conformance checks.
    """
    dims = tuple(int(d) for d in dims)
    if not 1 <= k <= len(dims):
        raise ValueError("mode index out of range")
    flat = np.asarray(data, dtype=float).reshape(-1)
    if flat.shape != (math.prod(dims),):
        raise ValueError("data size does not match dims")
    return _mode_view(flat, dims, k).reshape(dims[k - 1], -1)


def _mode_view(flat, dims, k) -> np.ndarray:
    """The mode-k flattening of flat first-index-fastest data as an
    (n_k, later modes, earlier modes) view; reshaped to (n_k, -1) it is
    the flattening."""
    # Read row-major, the data has axes (later modes, mode k, earlier
    # modes); with mode k in front, each row reads the earlier modes fastest.
    arr = flat.reshape(math.prod(dims[k:]), dims[k - 1], math.prod(dims[:k - 1]))
    return arr.transpose(1, 0, 2)


def mode_refold_general(mat, dims, k) -> np.ndarray:
    """Inverse of mode_flatten_general, back to the flat canonical layout."""
    dims = tuple(int(d) for d in dims)
    if not 1 <= k <= len(dims):
        raise ValueError("mode index out of range")
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (dims[k - 1], math.prod(dims) // dims[k - 1]):
        raise ValueError("matrix shape does not match dims")
    out = np.empty(math.prod(dims))
    view = _mode_view(out, dims, k)
    view[...] = mat.reshape(view.shape)
    return out


def coverage_depth(l: int, radius: int) -> int:
    """Smallest depth K >= 1 whose length-l^K window holds time radius;
    l must be at least 2, or no window would ever hold it."""
    if l < 2:
        raise ValueError("need l >= 2")
    K = 1
    while l ** K <= radius:
        K += 1
    return K


def analysis_window(rho: Sequence | Family, l: int, K=None) -> Sequence:
    """rho as the analyses read it: a Sequence as it is, and a Family as
    the Sequence its truncate makes, cut after its horizon or, without a
    horizon, to its length-l^K window, which needs a depth K.  The measure
    command, bounds and both models synthesizers read rho through it."""
    if isinstance(rho, Sequence):
        return rho
    if rho.horizon is not None:
        return rho.truncate(rho.horizon + 1)
    if K is None:
        raise ValueError("a generated target without a horizon has infinite "
                         "support: give it a horizon or cut it to a window")
    return rho.truncate(l ** K)


def _check_depth(l: int, K: int):
    if l < 2 or K < 1:
        raise ValueError("need l >= 2 and K >= 1")


def singular_values(window, l: int, K: int) -> Spectrum:
    """Pooled spectrum of all K mode flattenings of a dense length-l^K
    window, from one stacked SVD per group of as many flattenings as fit
    in _STACK_BUDGET bytes.  numpy runs the same SVD on each matrix
    whatever the batch, so the grouping never changes a value."""
    _check_depth(l, K)
    if window.shape != (l ** K,):
        raise ValueError("a window must hold exactly l^K entries")
    dims = (l,) * K
    group = min(K, max(1, _STACK_BUDGET // window.nbytes))
    stack = np.empty((group, l, l ** (K - 1)))
    per_mode = []
    for first in range(0, K, group):
        slots = stack[:min(group, K - first)]
        for k, slot in enumerate(slots, start=first + 1):
            # Each mode's view is copied once, straight into its slot.
            view = _mode_view(window, dims, k)
            slot.reshape(view.shape)[...] = view
        per_mode.append(np.linalg.svd(slots, compute_uv=False))
    return Spectrum.from_mode_values(np.concatenate(per_mode))


def window_spectrum(rho: Sequence | Family, l: int, K: int) -> Spectrum:
    """Pooled spectrum of the length-l^K window of rho, read once as a
    dense array; what lies beyond it is cut off."""
    _check_depth(l, K)
    return singular_values(rho.values_upto(l ** K), l, K)


# Share of the window norm that all TT-SVD steps together may discard: the
# K - 1 step tails add in quadrature, so each drops _TT_REL_TOL / sqrt(K - 1),
# and a bank made of the cores stays a tenth inside the 1e-12 replay contract.
_TT_REL_TOL = 1e-13


def tt_svd(rho: Sequence | Family, l: int, K: int) -> list:
    """Tensor-train cores G_1, ..., G_K of the length-l^K window of rho:
    G_k is (r_{k-1}, l, r_k), r_0 = r_K = 1, and the entry at digits
    (i_1, ..., i_K) is G_1[:, i_1, :] ... G_K[:, i_K, :].  Each r_k is the
    numerical rank of the k-th unfolding: the SVD of what is left drops a
    tail of at most _TT_REL_TOL / sqrt(K - 1) of the window norm.  The split
    runs on the window over its largest entry, which the last core takes
    back, so no norm under- or overflows; near the float limit that core
    can hold an infinite value, which the caller checks.  A zero window
    gives K zero cores of rank 1."""
    _check_depth(l, K)
    data = rho.values_upto(l ** K)
    scale = np.abs(data).max()
    if not scale:
        return [np.zeros((1, l, 1)) for _ in range(K)]
    rest = data[None, :] / scale
    norm = np.linalg.norm(rest)
    cores = []
    for _ in range(K - 1):
        # Row i_k * r + a of the unfolding is rank a of what is left at digit i_k.
        r = len(rest)
        unfolding = rest.reshape(r, -1, l).transpose(2, 0, 1).reshape(r * l, -1)
        u, s, vt = np.linalg.svd(unfolding, full_matrices=False)
        tails = np.cumsum((s[::-1] / norm) ** 2)[::-1]
        r_next = int(np.sum(tails > _TT_REL_TOL ** 2 / (K - 1)))
        cores.append(u[:, :r_next].reshape(l, r, r_next).transpose(1, 0, 2))
        rest = s[:r_next, None] * vt[:r_next]
    with np.errstate(over="ignore"):
        cores.append(scale * rest[:, :, None])
    return cores


def width_plan(channels) -> tuple:
    """The width plan (M_0, ..., M_K) of a stack as ints: K + 1 >= 2
    positive whole widths, whose number fixes the depth K, one input and
    one output channel, the rank profile (1, r_1, ..., r_{K-1}, 1) of a
    tensor train like tt_svd's.  Every reader of a plan checks it here."""
    widths = tuple(_whole(m, "a channel width") for m in channels)
    if len(widths) < 2:
        raise ValueError("need K >= 1")
    if min(widths) < 1:
        raise ValueError("channel widths must be positive")
    if widths[-1] != 1:
        raise ValueError("the output is a single channel")
    if widths[0] != 1:
        raise ValueError("the input is a single channel")
    return widths


def truncation_error_bound(spec: Spectrum, kept_ranks) -> list:
    """sqrt of the spectrum tail mass beyond the r largest values, for each
    kept rank r of kept_ranks, as a list of floats.

    Each bounds the best approximation error achievable by any tensor
    whose summed mode ranks stay within r.  A rank at or past the end of
    the spectrum leaves an empty tail, 0.0.  The tails are read off one
    array of squares: where a tail's sum of squares is normal it is the
    root of that sum, and elsewhere root_sum_squares rescales that tail.
    """
    kept_ranks = tuple(kept_ranks)
    if min(kept_ranks, default=0) < 0:
        raise ValueError("kept_rank must be >= 0")
    values = spec.values
    with np.errstate(over="ignore"):
        squares = values * values
        sums = [float(squares[r:].sum()) for r in kept_ranks]
    return [math.sqrt(s) if _TINY <= s <= _HUGE else root_sum_squares(values[r:])
            for r, s in zip(kept_ranks, sums)]
