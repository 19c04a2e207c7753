"""Exact arithmetic on discrete-time vector sequences.

A Sequence models a causal map rho: N -> R^d with either an explicit
finite support or a generator rule (geometric decay, inverse-time decay)
plus an optional hard truncation horizon.  These objects carry the
representations of linear temporal functionals, the filters of the
convolutional models, and the probe inputs used in tests.

All operations are pure: sequences are immutable after construction and
every operation returns a new value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

ZERO_REL_TOL = 1e-10


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


def _as_vector(v, dim: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (dim,):
        raise ValueError(f"expected a length-{dim} value, got shape {arr.shape}")
    return arr


class Sequence:
    """A finitely supported or rule-generated sequence rho: N -> R^d.

    kind="finite" stores an explicit {t: vector} map.  kind="generated"
    evaluates a registered family ("geometric" with parameter gamma, or
    "power" for the inverse-time sequence 0, 1, 1/2, 1/3, ...) and is
    optionally truncated to zero beyond an integer horizon.
    """

    def __init__(self, dim=1, entries=None, family=None, params=None, horizon=None):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self._dim = int(dim)
        self._horizon = None if horizon is None else int(horizon)
        if self._horizon is not None and self._horizon < 0:
            raise ValueError("horizon must be >= 0")
        if family is None:
            self._kind = "finite"
            self._family = None
            self._params = {}
            self._entries = {}
            for t, v in (entries or {}).items():
                if t < 0:
                    raise ValueError("entries must live at t >= 0")
                self._entries[int(t)] = _as_vector(v, self._dim)
        else:
            if family not in ("geometric", "power"):
                raise ValueError(f"unknown family {family!r}")
            if dim != 1:
                raise ValueError("generated families are one dimensional")
            self._kind = "generated"
            self._family = family
            self._params = dict(params or {})
            self._entries = None
            if family == "geometric":
                g = float(self._params.get("gamma", 0.0))
                if not 0.0 < g < 1.0:
                    raise ValueError("geometric family needs 0 < gamma < 1")
                self._params["gamma"] = g

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, dim=1) -> "Sequence":
        return cls(dim=dim, entries={})

    @classmethod
    def from_values(cls, values) -> "Sequence":
        """One-dimensional sequence from the dense prefix (v0, v1, ...)."""
        entries = {t: (float(v),) for t, v in enumerate(values) if float(v) != 0.0}
        return cls(dim=1, entries=entries)

    @classmethod
    def from_entries(cls, entries, dim=1) -> "Sequence":
        return cls(dim=dim, entries=entries)

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
        return self._kind

    @property
    def family(self):
        return self._family

    @property
    def params(self) -> dict:
        return dict(self._params)

    @property
    def horizon(self):
        return self._horizon

    def entries(self) -> dict:
        """Sorted copy of the stored support (finite sequences only)."""
        if self._kind != "finite":
            raise ValueError("entries() requires a finite sequence")
        return {t: self._entries[t].copy() for t in sorted(self._entries)}

    def value(self, t: int) -> np.ndarray:
        """The vector rho(t); zero outside the support (and for t < 0)."""
        if t < 0:
            return np.zeros(self._dim)
        if self._kind == "finite":
            v = self._entries.get(int(t))
            return np.zeros(self._dim) if v is None else v.copy()
        if self._horizon is not None and t > self._horizon:
            return np.zeros(1)
        if self._family == "geometric":
            return np.array([self._params["gamma"] ** t])
        return np.array([0.0 if t == 0 else 1.0 / t])

    def values_upto(self, n: int) -> np.ndarray:
        """Dense (n, dim) array of rho(0), ..., rho(n-1)."""
        out = np.zeros((int(n), self._dim))
        if self._kind == "finite":
            for t, v in self._entries.items():
                if t < n:
                    out[t] = v
        else:
            for t in range(int(n)):
                out[t] = self.value(t)
        return out

    def flat_values(self, n: int) -> np.ndarray:
        if self._dim != 1:
            raise ValueError("flat_values requires dim == 1")
        return self.values_upto(n)[:, 0]

    # -- support and norms -----------------------------------------------

    def zero_tol(self) -> float:
        """Scale-relative threshold separating true support from round-off."""
        if self._kind == "finite":
            peak = max((float(np.max(np.abs(v))) for v in self._entries.values()),
                       default=0.0)
        else:
            peak = 1.0  # both registered families have sup |rho| <= 1
        return ZERO_REL_TOL * peak

    def radius(self):
        """Largest t with a nonzero entry, or None for the zero sequence.

        Generated sequences need a declared horizon for this to be finite.
        """
        if self._kind == "finite":
            tol = self.zero_tol()
            live = [t for t, v in self._entries.items() if np.max(np.abs(v)) > tol]
            return max(live) if live else None
        if self._horizon is None:
            raise ValueError("radius of a generated sequence needs a horizon")
        if self._family == "power":
            return None if self._horizon == 0 else self._horizon
        return self._horizon

    def sparsity(self, tol=None) -> int:
        """Number of time indices carrying a nonzero entry."""
        if self._kind == "generated":
            r = self.radius()
            if r is None:
                return 0
            start = 1 if self._family == "power" else 0
            return r - start + 1
        tol = self.zero_tol() if tol is None else tol
        return sum(1 for v in self._entries.values() if np.max(np.abs(v)) > tol)

    def tail_norm(self, start: int) -> Scalar:
        """sqrt of the summed squared entries at t >= start.

        Exact for finite sequences and for geometric decay (closed form);
        inverse-time decay without a horizon returns an integral bracket.
        """
        if start < 0:
            raise ValueError("start must be >= 0")
        if self._kind == "finite":
            sq = 0.0
            for t in sorted(self._entries):
                if t >= start:
                    sq += float(self._entries[t] @ self._entries[t])
            return Scalar(math.sqrt(sq))
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
            sq = 0.0
            for t in range(self._horizon, s0 - 1, -1):
                sq += 1.0 / (t * t)
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
        if self._kind == "finite":
            best = 0.0
            for t, v in self._entries.items():
                if t >= start:
                    best = max(best, float(np.linalg.norm(v)))
            return best
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
        if self._kind == "finite":
            entries = {t: v for t, v in self._entries.items() if t < length}
        else:
            entries = {}
            for t in range(length):
                v = self.value(t)
                if float(v[0]) != 0.0:
                    entries[t] = v
        return Sequence(dim=self._dim, entries=entries)

    def scaled(self, alpha: float) -> "Sequence":
        if self._kind != "finite":
            raise ValueError("scaled() requires a finite sequence")
        return Sequence(dim=self._dim,
                        entries={t: alpha * v for t, v in self._entries.items()})

    def plus(self, other: "Sequence") -> "Sequence":
        if self._kind != "finite" or other._kind != "finite":
            raise ValueError("plus() requires finite sequences")
        if self._dim != other._dim:
            raise ValueError("dimension mismatch")
        entries = {t: v.copy() for t, v in self._entries.items()}
        for t, v in other._entries.items():
            entries[t] = entries.get(t, np.zeros(self._dim)) + v
        return Sequence(dim=self._dim, entries=entries)

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict:
        if self._kind == "finite":
            rows = [[t, [float(x) for x in self._entries[t]]]
                    for t in sorted(self._entries)]
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
            entries = {int(t): v for t, v in obj["entries"]}
            return cls(dim=int(obj.get("dim", 1)), entries=entries)
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
        if self._kind == "finite":
            return f"Sequence(dim={self._dim}, support={sorted(self._entries)})"
        return (f"Sequence(family={self._family!r}, params={self._params}, "
                f"horizon={self._horizon})")


def _require_finite(s: Sequence, name: str):
    if s.kind != "finite":
        raise ValueError(f"{name} must be finitely supported")


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
    acc = {}
    fe, ge = f.entries(), g.entries()
    for s in sorted(fe):
        for u in sorted(ge):
            t = dilation * s + u
            acc[t] = acc.get(t, 0.0) + float(fe[s] @ ge[u])
    entries = {t: (v,) for t, v in acc.items()}
    return Sequence(dim=1, entries=entries)


def dilated_conv_channelwise(f: Sequence, g: Sequence, dilation: int) -> Sequence:
    """Dilated convolution applied per channel, preserving the dimension."""
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    _require_finite(f, "f")
    _require_finite(g, "g")
    acc = {}
    fe, ge = f.entries(), g.entries()
    for s in sorted(fe):
        for u in sorted(ge):
            t = dilation * s + u
            acc[t] = acc.get(t, np.zeros(f.dim)) + fe[s] * ge[u]
    return Sequence(dim=f.dim, entries=acc)


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
    total = 0.0
    ent = work.entries()
    for s in sorted(ent):
        total += float(ent[s] @ x.value(t - s))
    return Scalar(total)
