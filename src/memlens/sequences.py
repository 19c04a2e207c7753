"""Exact arithmetic on discrete-time vector sequences.

A Sequence models a causal map rho: N -> R^d with either an explicit
finite support or a generator rule (geometric decay, inverse-time decay)
plus an optional hard truncation horizon.  These objects carry the
representations of linear temporal functionals, the filters of the
convolutional models, and the probe inputs used in tests.

A finite sequence is stored as one sorted int64 array of distinct times
and one (n, d) array of values, and every operation on it is an array
operation.  Generated sequences are evaluated with numpy (gamma ** t,
1 / t) over whole windows.  Time indices must stay below 2^63: a larger
index raises ValueError before any int64 arithmetic runs, so no time
wraps silently.

All operations are pure: sequences are immutable after construction and
every operation returns a new value.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

ZERO_REL_TOL = 1e-10
MAX_TIME = int(np.iinfo(np.int64).max)
_TAIL_BLOCK = 1 << 20
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)


def root_sum_squares(x, rows=False) -> float:
    """sqrt(sum(x * x)) over all of x, or with rows the largest such root
    over the rows of x, at any scale.

    Where the plain sum of squares (with rows, the largest row sum) is
    finite and at least the smallest normal double, or x is all zero,
    its root is the result, bit for bit.  Elsewhere, where the squares
    overflow or underflow, x is first divided by its largest magnitude
    and the root multiplied back.
    """
    with np.errstate(over="ignore"):
        sq = _sum_squares(x, rows)
    if _TINY <= sq <= _HUGE or not x.any():
        return math.sqrt(sq)
    peak = float(np.abs(x).max())
    unit = min(peak, _HUGE)         # an inf entry keeps the sum inf, NaN stays NaN
    return unit * math.sqrt(_sum_squares(x / unit, rows))


def _sum_squares(x, rows):
    squares = x * x
    return float(np.max(squares.sum(axis=1), initial=0.0) if rows else squares.sum())


@dataclass(frozen=True)
class Scalar:
    """A real value with an optional interval half-width.

    The half-width is nonzero only for quantities that are known up to a
    truncation bracket (e.g. tail norms of inverse-time decay).  The true
    value then lies in [value - halfwidth, value + halfwidth].
    """

    value: float
    halfwidth: float = 0.0

    def __post_init__(self):
        if self.halfwidth < 0:
            raise ValueError("halfwidth must be >= 0")

    @property
    def upper(self) -> float:
        return self.value + self.halfwidth

    @property
    def lower(self) -> float:
        return self.value - self.halfwidth

    def __float__(self) -> float:
        return float(self.value)


def _check_time(t):
    if t > MAX_TIME:
        raise ValueError(f"a {int(t).bit_length()}-bit time index is beyond "
                         f"the int64 limit 2^63 - 1")


def _whole(t) -> int:
    """A time index as an int; a bool, a string, None or a fractional or
    non-finite number is not one."""
    if not isinstance(t, bool) and (isinstance(t, numbers.Integral) or
                                    isinstance(t, numbers.Real) and float(t).is_integer()):
        return int(t)
    raise ValueError(f"a time index must be a whole number, not {t!r}")


def _columns(times, values, dim):
    """Sorted distinct int64 times and their finite (n, dim) values.

    A repeated time keeps its last value, as a dict built from the same
    (time, value) pairs would.
    """
    arr = np.asarray(times)
    if arr.dtype.kind not in "iu":  # floats, strings, None, or beyond 64 bits
        arr = np.array([_whole(t) for t in times], dtype=object)
    if arr.size:
        if arr.min() < 0:
            raise ValueError("entries must live at t >= 0")
        _check_time(int(arr.max()))
    times = arr.astype(np.int64).reshape(-1)
    values = np.asarray(values, dtype=float)
    if dim == 1 and values.ndim == 1:
        values = values[:, None]
    if values.shape != (len(times), dim):
        raise ValueError(f"expected {len(times)} length-{dim} values, "
                         f"got shape {values.shape}")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"the value at t={times[finite.argmin()]} is not finite")
    order = np.argsort(times, kind="stable")
    times, values = times[order], values[order]
    last = np.ones(len(times), dtype=bool)
    last[:-1] = times[1:] != times[:-1]
    return times[last], values[last]


class Sequence:
    """A finitely supported or rule-generated sequence rho: N -> R^d.

    kind="finite" stores sorted int64 times with an (n, dim) value array.
    kind="generated" evaluates a registered family ("geometric" with
    parameter gamma, or "power" for the inverse-time sequence 0, 1, 1/2,
    1/3, ...) and is optionally truncated to zero beyond an integer
    horizon.
    """

    def __init__(self, dim=1, entries=None, family=None, params=None, horizon=None):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self._dim = int(dim)
        self._horizon = None if horizon is None else int(horizon)
        if self._horizon is not None and self._horizon < 0:
            raise ValueError("horizon must be >= 0")
        self._family = family
        self._params = {}
        self._times = self._values = None
        if family is None:
            rows = list(entries.items() if hasattr(entries, "items") else entries or ())
            try:
                times = [t for t, _ in rows]
            except TypeError:
                raise ValueError("each entry must be a (time, value) pair") from None
            values = [v for _, v in rows] if rows else np.zeros((0, self._dim))
            self._times, self._values = _columns(times, values, self._dim)
            return
        if family not in ("geometric", "power"):
            raise ValueError(f"unknown family {family!r}")
        if dim != 1:
            raise ValueError("generated families are one dimensional")
        self._params = dict(params or {})
        if family == "geometric":
            g = float(self._params.get("gamma", 0.0))
            if not 0.0 < g < 1.0:
                raise ValueError("geometric family needs 0 < gamma < 1")
            self._params["gamma"] = g

    @classmethod
    def _of(cls, times, values) -> "Sequence":
        """Finite sequence over already sorted distinct int64 times."""
        seq = object.__new__(cls)
        seq._dim = values.shape[1]
        seq._horizon, seq._family, seq._params = None, None, {}
        seq._times, seq._values = times, values
        return seq

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, dim=1) -> "Sequence":
        return cls(dim=dim, entries={})

    @classmethod
    def from_values(cls, values) -> "Sequence":
        """One-dimensional sequence from the dense prefix (v0, v1, ...)."""
        v = np.asarray(values, dtype=float).reshape(-1)
        t = np.flatnonzero(v)
        return cls._of(t.astype(np.int64), v[t][:, None])

    @classmethod
    def from_entries(cls, entries, dim=1) -> "Sequence":
        return cls(dim=dim, entries=entries)

    @classmethod
    def from_arrays(cls, times, values, dim=1) -> "Sequence":
        """Finite sequence from a time array and a matching value array.

        values has shape (n, dim), or (n,) when dim is 1, and must be
        finite; times need not be sorted, and a repeated time keeps its
        last value.
        """
        return cls._of(*_columns(times, values, int(dim)))

    @classmethod
    def impulse(cls, t, value=1.0) -> "Sequence":
        """Unit (or scaled) impulse at time t >= 0."""
        if t < 0:
            raise ValueError("impulse position must be >= 0")
        return cls(dim=1, entries={int(t): (float(value),)})

    @classmethod
    def geometric(cls, gamma, horizon=None) -> "Sequence":
        """rho(t) = gamma^t for t >= 0, with 0 < gamma < 1."""
        return cls(dim=1, family="geometric", params={"gamma": gamma}, horizon=horizon)

    @classmethod
    def power(cls, horizon=None) -> "Sequence":
        """rho(0) = 0 and rho(t) = 1/t for t >= 1."""
        return cls(dim=1, family="power", horizon=horizon)

    # -- basic accessors -----------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def kind(self) -> str:
        return "finite" if self._family is None else "generated"

    @property
    def family(self):
        return self._family

    @property
    def params(self) -> dict:
        return dict(self._params)

    @property
    def horizon(self):
        return self._horizon

    def arrays(self):
        """Read-only (times, values) views of a finite sequence's support."""
        _require_finite(self, "arrays()")
        times, values = self._times.view(), self._values.view()
        times.flags.writeable = values.flags.writeable = False
        return times, values

    def entries(self) -> dict:
        """Sorted copy of the stored support (finite sequences only)."""
        _require_finite(self, "entries()")
        return dict(zip(self._times.tolist(), self._values.copy()))

    def _count_before(self, t) -> int:
        """Number of stored times below t."""
        if t > MAX_TIME:
            return len(self._times)
        return int(np.searchsorted(self._times, t))

    def _rule(self, t: np.ndarray) -> np.ndarray:
        """Generated values at the int64 times t, all inside the horizon."""
        if self._family == "geometric":
            return self._params["gamma"] ** t.astype(float)
        out = np.zeros(len(t))
        pos = t > 0
        out[pos] = 1.0 / t[pos]
        return out

    def _at(self, t: np.ndarray) -> np.ndarray:
        """(len(t), dim) values at the int64 times t; zero off the support."""
        out = np.zeros((len(t), self._dim))
        if self._family is None:
            if len(self._times):
                idx = np.minimum(np.searchsorted(self._times, t), len(self._times) - 1)
                hit = self._times[idx] == t
                out[hit] = self._values[idx[hit]]
            return out
        live = t >= 0
        if self._horizon is not None:
            live &= t <= self._horizon
        out[live, 0] = self._rule(t[live])
        return out

    def value(self, t: int) -> np.ndarray:
        """The vector rho(t); zero outside the support (and for t < 0)."""
        if t < 0:
            return np.zeros(self._dim)
        _check_time(t)
        return self._at(np.array([t], dtype=np.int64))[0]

    def values_upto(self, n: int) -> np.ndarray:
        """Dense (n, dim) array of rho(0), ..., rho(n-1)."""
        out = np.zeros((int(n), self._dim))
        if self._family is None:
            k = self._count_before(n)
            out[self._times[:k]] = self._values[:k]
        else:
            m = n if self._horizon is None else min(n, self._horizon + 1)
            out[:m, 0] = self._rule(np.arange(m, dtype=np.int64))
        return out

    def flat_values(self, n: int) -> np.ndarray:
        if self._dim != 1:
            raise ValueError("flat_values requires dim == 1")
        return self.values_upto(n)[:, 0]

    # -- support and norms -----------------------------------------------

    def zero_tol(self) -> float:
        """Scale-relative threshold separating true support from round-off."""
        if self._family is None:
            peak = float(np.max(np.abs(self._values), initial=0.0))
        else:
            peak = 1.0  # both registered families have sup |rho| <= 1
        return ZERO_REL_TOL * peak

    def _live(self, tol=None) -> np.ndarray:
        tol = self.zero_tol() if tol is None else tol
        return np.max(np.abs(self._values), axis=1, initial=0.0) > tol

    def radius(self):
        """Largest t with a nonzero entry, or None for the zero sequence.

        Generated sequences need a declared horizon for this to be finite.
        """
        if self._family is None:
            live = np.flatnonzero(self._live())
            return int(self._times[live[-1]]) if len(live) else None
        if self._horizon is None:
            raise ValueError("radius of a generated sequence needs a horizon")
        if self._family == "power":
            return None if self._horizon == 0 else self._horizon
        return self._horizon

    def sparsity(self, tol=None) -> int:
        """Number of time indices carrying a nonzero entry."""
        if self._family is not None:
            r = self.radius()
            if r is None:
                return 0
            start = 1 if self._family == "power" else 0
            return r - start + 1
        return int(np.count_nonzero(self._live(tol)))

    def tail_norm(self, start: int) -> Scalar:
        """sqrt of the summed squared entries at t >= start.

        Exact for finite sequences and for geometric decay (closed form);
        inverse-time decay without a horizon returns an integral bracket.
        """
        if start < 0:
            raise ValueError("start must be >= 0")
        if self._family is None:
            tail = self._values[self._count_before(start):]
            return Scalar(root_sum_squares(tail))
        if self._family == "geometric":
            g = self._params["gamma"]
            if self._horizon is not None:
                if start > self._horizon:
                    return Scalar(0.0)
                sq = (g ** (2 * start) - g ** (2 * (self._horizon + 1))) / (1 - g * g)
            else:
                sq = g ** (2 * start) / (1 - g * g)
            return Scalar(math.sqrt(sq))
        s0 = max(start, 1)
        if self._horizon is not None:
            if s0 > self._horizon:
                return Scalar(0.0)
            # Smallest terms first, added strictly in sequence (a cumulative
            # sum), in blocks that bound the memory used.
            sq = 0.0
            for top in range(self._horizon, s0 - 1, -_TAIL_BLOCK):
                t = np.arange(top, max(top - _TAIL_BLOCK, s0 - 1), -1, dtype=float)
                sq = float(np.cumsum(np.append(sq, 1.0 / (t * t)))[-1])
            return Scalar(math.sqrt(sq))
        lo_sq = 1.0 / s0
        hi_sq = 1.0 / (s0 * s0) + 1.0 / s0
        if s0 >= 2:
            hi_sq = min(hi_sq, 1.0 / (s0 - 1))
        lo, hi = math.sqrt(lo_sq), math.sqrt(hi_sq)
        return Scalar((lo + hi) / 2.0, (hi - lo) / 2.0)

    def norm(self) -> Scalar:
        return self.tail_norm(0)

    def sup_abs_from(self, start: int) -> float:
        """sup over t >= start of the euclidean length of rho(t)."""
        if self._family is None:
            tail = self._values[self._count_before(start):]
            return root_sum_squares(tail, rows=True)
        if self._horizon is not None and start > self._horizon:
            return 0.0
        if self._family == "geometric":
            return self._params["gamma"] ** start
        if self._horizon == 0:
            return 0.0
        return 1.0 / max(start, 1)

    # -- derived sequences -----------------------------------------------

    def truncate(self, length: int) -> "Sequence":
        """Finite restriction to the window [0, length - 1]."""
        if length < 0:
            raise ValueError("length must be >= 0")
        if self._family is None:
            k = self._count_before(length)
            return Sequence._of(self._times[:k], self._values[:k])
        m = length if self._horizon is None else min(length, self._horizon + 1)
        _check_time(m - 1)
        t = np.arange(m, dtype=np.int64)
        v = self._rule(t)
        nonzero = v != 0.0
        return Sequence._of(t[nonzero], v[nonzero][:, None])

    def scaled(self, alpha: float) -> "Sequence":
        _require_finite(self, "scaled()")
        return Sequence._of(self._times, alpha * self._values)

    def plus(self, other: "Sequence") -> "Sequence":
        _require_finite(self, "plus()")
        _require_finite(other, "plus()")
        if self._dim != other._dim:
            raise ValueError("dimension mismatch")
        return _coalesced(np.concatenate([self._times, other._times]),
                          np.concatenate([self._values, other._values]))

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict:
        if self._family is None:
            rows = [list(row) for row in zip(self._times.tolist(),
                                             self._values.tolist())]
            return {"dim": self._dim, "entries": rows}
        obj = {"family": self._family, "params": dict(self._params)}
        if self._horizon is not None:
            obj["horizon"] = self._horizon
        return obj

    @classmethod
    def from_json(cls, obj) -> "Sequence":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if "entries" in obj:
            return cls(dim=int(obj.get("dim", 1)), entries=obj["entries"])
        family = obj.get("family")
        params = obj.get("params", {})
        horizon = obj.get("horizon")
        if family == "impulse":
            return cls.impulse(int(params["t"]), float(params.get("value", 1.0)))
        if family == "geometric":
            return cls.geometric(float(params["gamma"]), horizon=horizon)
        if family == "power":
            return cls.power(horizon=horizon)
        raise ValueError(f"unknown sequence description {obj!r}")

    def __repr__(self):
        if self._family is None:
            return f"Sequence(dim={self._dim}, support={self._times.tolist()})"
        return (f"Sequence(family={self._family!r}, params={self._params}, "
                f"horizon={self._horizon})")


def _require_finite(s: Sequence, name: str):
    if s.kind != "finite":
        raise ValueError(f"{name} must be finitely supported")


def _coalesced(times, values) -> Sequence:
    """Finite sequence summing the values that share a time, in input order."""
    uniq, inv = np.unique(times, return_inverse=True)
    out = np.zeros((len(uniq), values.shape[1]))
    np.add.at(out, inv.reshape(-1), values)
    return Sequence._of(uniq, out)


def dilated_conv(f: Sequence, g: Sequence, dilation: int) -> Sequence:
    """Channel-reducing dilated convolution (f *_dilation g)(t).

    The first operand is the dilated one: the result at time t is the sum
    over s of f(s) . g(t - dilation * s), a scalar sequence.  The support
    satisfies radius = dilation * radius(f) + radius(g).
    """
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    _require_finite(f, "f")
    _require_finite(g, "g")
    ft, fv = f.arrays()
    gt, gv = g.arrays()
    _check_time(dilation)
    if len(ft) and len(gt):
        _check_time(dilation * int(ft[-1]) + int(gt[-1]))
    # Pairs run s-major then u, so every time sums its terms in that order.
    times = (dilation * ft[:, None] + gt[None, :]).reshape(-1)
    products = (fv[:, None, :] * gv[None, :, :]).reshape(-1, f.dim)
    return _coalesced(times, products.sum(axis=1, keepdims=True))


def apply_functional(rho: Sequence, x: Sequence, t: int) -> Scalar:
    """Evaluate the induced linear functional: sum_s rho(s) . x(t - s).

    x must be defined on the whole window [t - radius(rho), t]; since
    inputs start at time 0 this requires t >= radius(rho), and generated
    inputs must declare a horizon covering t.
    """
    if rho.dim != x.dim:
        raise ValueError("dimension mismatch")
    work = rho if rho.kind == "finite" else rho.truncate((rho.radius() or 0) + 1)
    r = work.radius()
    if r is None:
        return Scalar(0.0)
    if t - r < 0:
        raise ValueError("input window does not cover the representation support")
    if x.kind == "generated" and (x.horizon is None or x.horizon < t):
        raise ValueError("input window does not cover the representation support")
    _check_time(t)
    times, values = work.arrays()
    return Scalar(float(np.sum(values * x._at(t - times))))
