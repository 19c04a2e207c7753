"""Executable hypothesis classes: linear dilated CNNs and linear RNNs.

A CnnSpec holds the filters of a linear dilated-convolution stack whose
layer-k dilation is l^k; its induced representation is the response to a
unit impulse and is supported inside the receptive field [0, l^K - 1].
The replay behind it, cnn_representation, is the library's one dilated
convolution: a chain of filters composed at dilations l^k is a bank of
width-1 layers.  Two synthesizers build exact filter banks by one path,
_bank, from the cores of a tensor train over the base-l digits of the
window it reproduces, filter (k, j, i) the core fibre G_{k+1}[j, :, i]:
the radix bank from tensors.path_cores, one channel path per stored
entry, and the low-rank bank from tensors.tt_svd, whose widths are the
ranks of the window's sequential unfoldings.  Both trains come in one
form, each core its out-width and its nonzero fibres, and take one
default window and depth, both chosen in tensors: models reads no dense
core and cuts no window.  A width plan (M_0, ..., M_K) is checked by
tensors.width_plan, beside the tensor train whose rank profile it is;
its length fixes the depth K of the stack, and its effective filter
count is bounds.effective_filters.  The filter size l of a bank is the
length of its filters, so CnnSpec.from_arrays takes no l beside them.

An RnnSpec holds a linear recurrence whose representation is the power
sum c' W^(s-1) U for s >= 1 (and 0 at s = 0).  Width lower bounds for
impulse targets and depth lower bounds for geometric targets expose the
closed-form comparisons between the two classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._jsontext import float_texts
from .sequences import (_HUGE, MAX_TIME, Family, Scalar, Sequence, _depth, _int_text,
                        _number, _whole, root_sum_squares)
from . import tensors


# Filters of a bank written at a time: it bounds the texts alive at once,
# so a large bank costs no more memory to write than one filter at a time.
_BLOCK = 512


def _key_texts(at, texts):
    """The "k,j,i" key of each row of at, whose entries index texts, the
    decimal texts of the key parts."""
    k, j, i = (map(texts.__getitem__, column) for column in at.T.tolist())
    return list(map(",".join, zip(k, j, i)))


@dataclass(frozen=True, eq=False, init=False)
class CnnSpec:
    """Linear dilated-convolution stack with array filter storage.

    channels lists the widths (M_0, M_1, ..., M_K) with M_0 = 1 the single
    input channel and M_K = 1 the single output channel.  The bank is two
    read-only arrays: index, the (n, 3) int64 keys (layer k, in-channel
    j, out-channel i) in ascending order, and weights, the (n, l) filters
    of those keys; missing keys are all-zero filters.  The filter size l
    is the length of the filters, and layer k runs at dilation l^k.
    from_arrays builds a stack from the two arrays; a bank is written
    (to_json, json_parts), never read back.
    """

    l: int
    K: int
    channels: tuple
    index: np.ndarray
    weights: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("a CnnSpec is built by CnnSpec.from_arrays")

    @classmethod
    def from_arrays(cls, channels, index, weights) -> "CnnSpec":
        """Stack from its width plan, whose number of widths less one is
        its depth K, an (n, 3) key array and an (n, l) filter array, in
        any key order, whose filter length l must be at least 2; a key
        given twice is an error."""
        index = np.asarray(index, dtype=np.int64).reshape(-1, 3)
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or len(weights) != len(index):
            raise ValueError("weights must hold one filter per index row")
        l, _ = _depth(weights.shape[1])
        channels = cls._check(channels, index)
        order = np.lexsort(index.T[::-1])
        index, weights = index[order], weights[order]
        twice = (index[1:] == index[:-1]).all(axis=1)
        if twice.any():
            raise ValueError(f"filter index {tuple(index[twice.argmax()].tolist())} "
                             f"given twice")
        index.flags.writeable = weights.flags.writeable = False
        spec = object.__new__(cls)
        for name, value in (("l", l), ("K", len(channels) - 1), ("channels", channels),
                            ("index", index), ("weights", weights)):
            object.__setattr__(spec, name, value)
        return spec

    @staticmethod
    def _check(channels, index) -> tuple:
        """Check the shape of the stack, then name the first filter, in the
        given order, whose key is out of range; returns the width plan as
        ints."""
        plan = tensors.width_plan(channels)
        wide = [m for m in plan if m > MAX_TIME]
        if wide:
            raise ValueError(f"channel width {_int_text(wide[0]):.40} is beyond the "
                             f"int64 limit 2^63 - 1")
        widths = np.array(plan, dtype=np.int64)
        k, j, i = index.T
        layer = (0 <= k) & (k < len(plan) - 1)
        k = np.where(layer, k, 0)
        bad = ~(layer & (0 <= j) & (j < widths[k]) & (0 <= i) & (i < widths[k + 1]))
        if bad.any():
            raise ValueError(f"filter index {tuple(index[bad.argmax()].tolist())} out of range")
        return plan

    @property
    def filter_count(self) -> int:
        """Number of stored (nonzero) filters."""
        return len(self.index)

    def to_json(self) -> dict:
        keys = [f"{k},{j},{i}" for k, j, i in self.index.tolist()]
        return {
            "l": self.l,
            "K": self.K,
            "channels": list(self.channels),
            "filters": dict(zip(keys, self.weights.tolist())),
        }

    def json_parts(self, indent: str):
        """The text of to_json() as json.dumps(self.to_json(), indent=2,
        sort_keys=True) writes it, its nested lines starting with indent
        and two more spaces, in parts: the filters go _BLOCK at a time,
        read from the arrays in key-text order, which is the tuple order
        of the parts' texts (',' sorts below every digit)."""
        inner, item = indent + "  ", indent + "    "
        number = item + "  "
        channels = f",{item}".join(map(str, self.channels))
        yield (f'{{{inner}"K": {self.K},{inner}"channels": [{item}{channels}{inner}],'
               f'{inner}"filters": ')
        if not self.filter_count:
            yield f'{{}},{inner}"l": {self.l}{indent}}}'
            return
        # Rank the distinct key parts by their texts, then sort the keys
        # by those ranks.
        parts, at = np.unique(self.index, return_inverse=True)
        texts = list(map(str, parts.tolist()))
        ranks = np.empty(len(texts), dtype=np.int64)
        ranks[sorted(range(len(texts)), key=texts.__getitem__)] = np.arange(len(texts))
        at = ranks[at.reshape(-1, 3)]
        order = np.lexsort(at.T[::-1])
        texts.sort()
        # One filter's parts: its key, then each weight and the text after
        # it, up to the next key; the first key of a block follows lead.
        member = ([None, '": [' + number] + [None, "," + number] * (self.l - 1)
                  + [None, f'{item}],{item}"'])
        stride = len(member)
        lead = "{" + item + '"'
        for lo in range(0, len(order), _BLOCK):
            rows = order[lo:lo + _BLOCK]
            block = [lead] + member * len(rows)
            block[1::stride] = _key_texts(at[rows], texts)
            weights = float_texts(self.weights[rows])
            for c in range(self.l):
                block[3 + 2 * c::stride] = weights[c::self.l]
            block[-1] = item + "]"
            yield "".join(block)
            lead = "," + item + '"'
        yield f'{inner}}},{inner}"l": {self.l}{indent}}}'


@dataclass(frozen=True, eq=False)
class RnnSpec:
    """Linear recurrence with readout c, transition W and input vector U;
    its width m is the length of its readout, which W (m x m) and U
    (length m) must match."""

    c: np.ndarray
    W: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))
        object.__setattr__(self, "W", np.asarray(self.W, dtype=float))
        object.__setattr__(self, "U", np.asarray(self.U, dtype=float).reshape(-1))
        if self.W.shape != (self.m, self.m):
            raise ValueError("transition must be m x m")
        if self.U.shape != (self.m,):
            raise ValueError("input vector must have length m")

    @property
    def m(self) -> int:
        return len(self.c)


# A layer sums its products on the full (out-channel, tap, column) grid
# when that grid is no larger than the product list, in filter blocks of
# about this many products (64 KB), so a dense bank never forms an
# nnz x l x columns array; a sparser layer sums all its products at once
# on their distinct cells, which are fewer than the grid.
_PRODUCT_BLOCK = 8192


def _contract(chan, col, val, j, i, w, span, columns, width):
    """One layer on the nonzero state entries (chan, col, val), sorted by
    channel.  Each filter meets the entries of its in-channel, and
    np.add.at sums the products per (out-channel, tap, column) cell.
    Returns the nonzero cells as (out-channel, tap * columns + column,
    value), sorted by out-channel."""
    first = chan.searchsorted(j)
    met = chan.searchsorted(j, side="right") - first
    grid = width * span * columns
    on_grid = grid <= span * int(met.sum())
    step = max(1, _PRODUCT_BLOCK // max(1, span * columns)) if on_grid else len(j)
    keys, sums = None, np.zeros(grid if on_grid else 0)
    shift = np.arange(span) * columns
    for lo in range(0, len(j), step):
        f = slice(lo, lo + step)
        m = met[f]
        ends = m.cumsum()
        # Filter f's pairs meet the entries first[f], first[f] + 1, ...
        entry = np.arange(ends[-1]) + (first[f] + m - ends).repeat(m)
        products = w[f, :span].repeat(m, axis=0) * val[entry, None]
        cells = ((i[f] * (span * columns)).repeat(m) + col[entry])[:, None] + shift
        if not on_grid:
            keys, cells = np.unique(cells, return_inverse=True)
            sums = np.zeros(len(keys))
        np.add.at(sums, cells.reshape(-1), products.reshape(-1))
    live = sums.nonzero()[0]
    return (*np.divmod(live if keys is None else keys[live], span * columns), sums[live])


def cnn_representation(spec: CnnSpec) -> Sequence:
    """Induced representation: the network response to a unit impulse.

    The replay is K layer contractions over the live time columns,
    starting from the unit impulse on the single input channel at time
    0.  The state is the list of its nonzero (channel, column, value)
    entries.  Layer k pairs each filter with the entries of its
    in-channel and sums the products per cell (out-channel i, tap s,
    column) at time s * l^k + u, for a column at time u and filter taps
    s < l; cells that sum to exactly zero are dropped, and with them
    every column that is zero in all channels.  The work is the number
    of (filter, entry) pairs, so a one-path-per-entry bank costs its
    nonzeros, not its channels times its columns.  The filters enter in
    ascending key order and np.add.at adds in that order from 0.0, so
    every out-channel sums its in-channels in ascending j: the
    floating-point summation order is fixed, and the zero entries left
    out would only add signed zeros.  Every time the replay reaches must
    stay below 2^63.
    """
    l, index, weights = spec.l, spec.index, spec.weights
    starts = np.searchsorted(index[:, 0], np.arange(spec.K + 1))
    chan = col = times = np.zeros(1, dtype=np.int64)
    val = np.ones(1)
    for k in range(spec.K):
        layer = slice(starts[k], starts[k + 1])
        j, i, w = index[layer, 1], index[layer, 2], weights[layer]
        taps = (w != 0.0).any(axis=0).nonzero()[0]
        columns = len(times)
        span = int(taps[-1]) + 1 if len(taps) and columns else 0
        dilation = l ** k
        if span and (span - 1) * dilation + int(times[-1]) > MAX_TIME:
            raise ValueError(f"layer {k} reaches times beyond the int64 limit 2^63 - 1")
        chan, cell, val = _contract(chan, col, val, j, i, w, span, columns,
                                    spec.channels[k + 1])
        # The new columns are the (tap, old column) pairs some channel reaches.
        reached = np.zeros((span, columns), dtype=bool)
        reached.reshape(-1)[cell] = True
        col = (reached.cumsum() - 1)[cell]
        tap, old = reached.nonzero()
        offsets = np.array([s * dilation for s in range(span)], dtype=np.int64)
        times = offsets[tap] + times[old]
    # M_K = 1 leaves one entry per column, in column order.
    return Sequence.from_arrays(times, val)


def replay_residual(spec: CnnSpec, target: Sequence | Family) -> float:
    """Norm of the replayed representation minus target on the receptive
    field [0, l^K - 1], the window a synthesis reproduces."""
    window = target.truncate(spec.l ** spec.K)
    replay = cnn_representation(spec)
    # The difference over the union of the supports, in time order; np.unique
    # would import numpy.ma (1 MB of RSS).  Times are >= 0: the first is kept.
    t = np.sort(np.concatenate([replay.arrays()[0], window.arrays()[0]]))
    t = t[np.diff(t, prepend=-1) != 0]
    return root_sum_squares(replay._at(t) - window._at(t))


def _bank(cores) -> CnnSpec:
    """The bank of a tensor train given as cores (r_k, j, i, fibres), as
    tensors.path_cores and tensors.tt_svd give them: widths (1, r_1, ...,
    r_K), and filter (k - 1, j, i) the fibre G_k[j, :, i]."""
    index = np.concatenate([np.column_stack((np.full(len(j), k), j, i))
                            for k, (_, j, i, _) in enumerate(cores)])
    weights = np.concatenate([fibres for *_, fibres in cores])
    return CnnSpec.from_arrays((1,) + tuple(r for r, *_ in cores), index, weights)


def synthesize_radix(target: Sequence | Family, l: int) -> CnnSpec:
    """Exact filter bank reading base-l digits of the support positions,
    the bank of tensors.path_cores(target, l): each stored entry gets its
    own channel path of K one-hot filters, K the smallest depth with l^K
    above the radius of the target, cut by tensors.analysis_window (a
    Family needs a horizon); a single layer sums the paths."""
    return _bank(tensors.path_cores(target, l))


def synthesize_lowrank(target: Sequence | Family, l: int, K=None) -> CnnSpec:
    """Exact tensor-train filter bank for the length-l^K window of target,
    the bank of tensors.tt_svd(target, l, K).

    K defaults, as in tt_svd, to the depth path_cores takes; a given K
    reads only the length-l^K window.  The widths are the ranks (1, r_1,
    ..., r_{K-1}, 1) of the train, and filter (k, j, i) is its nonzero
    fibre G_{k+1}[j, :, i]: a zero window gives an empty bank of width-1
    layers, a single layer's filter is the window itself, and a window
    near the float limit whose last core holds a weight beyond it raises
    ValueError.
    """
    cores = tensors.tt_svd(target, l, K)
    if not np.isfinite(cores[-1][-1]).all():
        raise ValueError(f"the low-rank bank of this window needs a filter "
                         f"weight beyond the float limit {_HUGE!r}")
    return _bank(cores)


def rnn_representation(spec: RnnSpec, horizon: int) -> Sequence:
    """Representation c' W^(s-1) U for 1 <= s <= horizon, a whole number;
    zero at s = 0."""
    horizon = _whole(horizon, "horizon")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    states = np.empty((horizon, spec.m))
    states[0] = spec.U
    # A value that overflows is refused by from_arrays, by its time, and
    # does not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.m == 1:
            # One multiply per step: the cumulative product over [U, W, W,
            # ...] forms the loop's products in the loop's order.
            states[1:] = spec.W[0, 0]
            np.multiply.accumulate(states, axis=0, out=states)
        else:
            for s in range(1, horizon):
                np.matmul(spec.W, states[s - 1], out=states[s])
        # One dot product per step, as the stepped recurrence reads it out.
        values = np.vecdot(states, spec.c)
    return Sequence.from_arrays(np.arange(1, horizon + 1), values)


def power_sum_delta_bound(m_terms: int, t: int, sup_val: float) -> Scalar:
    """Step-size bound 2 * m * sup / t for an m-term power sum.

    Callers modelling a width-m recurrence pass m * m terms, since the
    matrix power expands into at most m^2 exponentials.  m_terms and t are
    read as whole numbers and sup_val as a real.
    """
    m_terms, t = _whole(m_terms, "m_terms"), _whole(t, "t")
    sup_val = _number(sup_val, "sup_val")
    if t < 1:
        raise ValueError("t must be >= 1")
    if m_terms < 1:
        raise ValueError("m_terms must be >= 1")
    if sup_val < 0:
        raise ValueError("sup_val must be >= 0")
    return Scalar(2.0 * m_terms * sup_val / t)


def rnn_min_width_impulse(K: int, eps: float) -> int:
    """Smallest width m with m^2 > B = 2^(K-1) (1 - 2 eps) / (1 + eps).

    This is the width a linear recurrence needs to track a unit impulse
    at the end of a length-2^K window to accuracy eps.  B is formed
    exactly from the binary value p / q of eps, and since m^2 is an integer,
    m^2 > B holds exactly when m^2 > floor(B), so m = isqrt(floor(B)) + 1
    for any K.  The bound is vacuous for eps >= 1/2, which is reported as
    an error.  K is read as a whole number and eps as a real.
    """
    K, eps = _whole(K, "K"), _number(eps, "eps")
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0.0 < eps < 0.5:
        raise ValueError("the width bound needs 0 < eps < 1/2")
    p, q = eps.as_integer_ratio()
    floor_budget = 2 ** (K - 1) * (q - 2 * p) // (q + p)
    return math.isqrt(floor_budget) + 1


def cnn_min_depth_expdecay(gamma: float, eps: float, l: int) -> int:
    """Smallest depth K with l^K >= log(eps) / log(gamma), the coverage
    depth of time ceil(log(eps) / log(gamma)) - 1.

    A depth-K stack can only reach accuracy eps on the geometric target
    gamma^t once its receptive field covers the slow tail; the required
    depth diverges as gamma approaches 1.  gamma and eps are read as reals,
    and l by coverage_depth, through _depth.
    """
    gamma, eps = _number(gamma, "gamma"), _number(eps, "eps")
    if not 0.0 < gamma < 1.0:
        raise ValueError("need 0 < gamma < 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1")
    return tensors.coverage_depth(l, math.ceil(math.log(eps) / math.log(gamma)) - 1)
