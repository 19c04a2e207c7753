"""Tensorised views of sequences and their singular spectra.

A length-l^K window of a sequence is folded into an order-K tensor whose
mode-k index reads the k-th base-l digit of the time index (mode 1 is the
least significant digit).  The pooled singular values of the K mode
flattenings drive the rank counts and truncation bounds used by the
approximation-rate machinery.  window_spectrum is the one path from a
target to its depth-K pooled spectrum, and truncation_error_bound the one
path from a spectrum to a tail: the spectrum tail at offset s that the
complexity measure reads is truncation_error_bound(spec, s + K - 1).

Singular values come from direct SVDs of the K flattenings, never their
Gram matrices: forming a Gram matrix squares the condition number and
loses singular values below sqrt(eps) of the largest, which would let
round-off decide tensor ranks.  The flattenings are decomposed in groups
whose stack stays within a fixed byte budget (_STACK_BUDGET), one batched
SVD per group; a window whose K flattenings fit takes one call, and a
deeper window needs one window-sized slot beside the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sequences import _HUGE, _TINY, Family, Scalar, Sequence, root_sum_squares

RANK_REL_TOL = 1e-8
# The stack of flattenings one batched SVD decomposes holds at most this
# many bytes, or one flattening where a single one is larger.
_STACK_BUDGET = 1 << 21


@dataclass(frozen=True, eq=False)
class Tensor:
    """Dense order-K tensor with all mode lengths l.

    data is the canonical linearisation with mode 1 fastest: the flat
    position of multi-index (i_1, ..., i_K) (1-based) is
    sum_k (i_k - 1) * l^(k-1), i.e. exactly the time index the entry
    came from under tensorisation.
    """

    l: int
    order: int
    data: np.ndarray

    def __post_init__(self):
        if self.l < 2:
            raise ValueError("mode length must be >= 2")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.data.shape != (self.l ** self.order,):
            raise ValueError("data must hold exactly l^K entries")

    def entry(self, index) -> float:
        """Value at a 1-based multi-index (i_1, ..., i_K)."""
        if len(index) != self.order:
            raise ValueError("multi-index length must equal the order")
        if not all(1 <= i <= self.l for i in index):
            raise ValueError("multi-index out of range")
        cube = self.data.reshape((self.l,) * self.order, order="F")
        return float(cube[tuple(i - 1 for i in index)])


@dataclass(frozen=True, init=False)
class Spectrum:
    """Pooled singular values of all mode flattenings of a tensor.

    entries holds (value, mode) pairs sorted by descending value with
    ties broken by ascending mode index.  Each mode contributes
    min(l, l^(K-1)) values, so the total length is l*K for K >= 2 and 1
    for K = 1.  values is the array of the pooled values in that order,
    made once at construction and read-only.  from_mode_values is the one
    constructor.
    """

    entries: tuple
    values: np.ndarray = field(repr=False, compare=False)

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
        modes = order // values.shape[1] + 1
        pooled = values.reshape(-1)[order]
        pooled.flags.writeable = False
        spec = object.__new__(cls)
        object.__setattr__(spec, "entries", tuple(zip(pooled.tolist(), modes.tolist())))
        object.__setattr__(spec, "values", pooled)
        return spec

    def rank(self, tol=RANK_REL_TOL) -> int:
        """Number of entries above tol relative to the largest."""
        values = self.values
        if len(values) == 0 or values[0] <= 0.0:
            return 0
        return int(np.sum(values > tol * values[0]))


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
    moved = (dims[k - 1],) + dims[:k - 1] + dims[k:]
    arr = np.moveaxis(mat.reshape(moved, order="F"), 0, k - 1)
    return arr.reshape(-1, order="F")


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
    horizon, to its length-l^K window, which needs a depth K."""
    if rho.kind == "finite":
        return rho
    if rho.horizon is not None:
        return rho.truncate(rho.horizon + 1)
    if K is None:
        raise ValueError("a generated target without a horizon has infinite "
                         "support: give it a horizon or cut it to a window")
    return rho.truncate(l ** K)


def tensorize(rho: Sequence | Family, l: int, K: int) -> Tensor:
    """Fold rho restricted to [0, l^K - 1] into an order-K tensor.

    The entry at time t goes to the multi-index whose mode-k digit is the
    k-th base-l digit of t.  Sequences reaching beyond the window are
    rejected, and so is a Family without a horizon; callers split off the
    tail first.
    """
    if l < 2 or K < 1:
        raise ValueError("need l >= 2 and K >= 1")
    size = l ** K
    if rho.kind != "finite" and (rho.radius() or 0) < size:
        rho = rho.truncate(size)    # radius() refuses a generated rho without a horizon
    if rho.kind != "finite" or rho.reaches(size):
        raise ValueError("sequence support exceeds the tensor window")
    return Tensor(l=l, order=K, data=rho.values_upto(size))


def matrix_singular_values(mat) -> np.ndarray:
    """Singular values (descending) by a direct SVD of a matrix, or of
    each matrix of a stack in one call."""
    a = np.asarray(mat, dtype=float)
    if a.ndim < 2:
        raise ValueError("expected a matrix or a stack of matrices")
    return np.linalg.svd(a, compute_uv=False)


def singular_values(t: Tensor) -> Spectrum:
    """Pooled spectrum of all K mode flattenings, from one stacked SVD per
    group of as many flattenings as fit in _STACK_BUDGET bytes.  numpy
    runs the same SVD on each matrix whatever the batch, so the grouping
    never changes a value."""
    dims = (t.l,) * t.order
    group = min(t.order, max(1, _STACK_BUDGET // t.data.nbytes))
    stack = np.empty((group, t.l, t.l ** (t.order - 1)))
    per_mode = []
    for first in range(0, t.order, group):
        slots = stack[:min(group, t.order - first)]
        for k, slot in enumerate(slots, start=first + 1):
            # Each mode's view is copied once, straight into its slot.
            view = _mode_view(t.data, dims, k)
            slot.reshape(view.shape)[...] = view
        per_mode.append(matrix_singular_values(slots))
    return Spectrum.from_mode_values(np.concatenate(per_mode))


def _window(rho: Sequence | Family, l: int, K: int) -> Tensor:
    """The length-l^K window of rho as an order-K tensor, read once as a
    dense array; what lies beyond it is cut off."""
    if l < 2 or K < 1:
        raise ValueError("need l >= 2 and K >= 1")
    return Tensor(l=l, order=K, data=rho.values_upto(l ** K))


def window_spectrum(rho: Sequence | Family, l: int, K: int) -> Spectrum:
    """Pooled spectrum of the tensorised length-l^K window of rho."""
    return singular_values(_window(rho, l, K))


def outer_product(vectors) -> Tensor:
    """Order-K tensor with entries prod_k v_k[i_k]; mode k reads v_k."""
    vs = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not vs:
        raise ValueError("need at least one vector")
    l = len(vs[0])
    if any(len(v) != l for v in vs):
        raise ValueError("all vectors must share one length")
    arr = vs[0]
    for v in vs[1:]:
        arr = np.multiply.outer(arr, v)
    return Tensor(l=l, order=len(vs), data=arr.reshape(-1, order="F"))


def truncation_error_bound(spec: Spectrum, kept_rank: int) -> Scalar:
    """sqrt of the spectrum tail mass beyond the kept_rank largest values.

    This bounds the best approximation error achievable by any tensor
    whose summed mode ranks stay within kept_rank.  A kept_rank at or past
    the end of the spectrum leaves an empty tail, 0.0.
    """
    if kept_rank < 0:
        raise ValueError("kept_rank must be >= 0")
    return Scalar(_tail_masses(spec, (kept_rank,))[0])


def _tail_masses(spec: Spectrum, kept_ranks) -> list:
    """truncation_error_bound(spec, r).value for each r of kept_ranks (all
    >= 0), bit for bit, from one array of squares: where a tail's sum of
    squares is normal it is the same sum of the same squares, and
    elsewhere root_sum_squares rescales that tail."""
    values = spec.values
    with np.errstate(over="ignore"):
        squares = values * values
        sums = [float(squares[r:].sum()) for r in kept_ranks]
    return [math.sqrt(s) if _TINY <= s <= _HUGE else root_sum_squares(values[r:])
            for r, s in zip(kept_ranks, sums)]

