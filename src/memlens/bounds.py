"""Complexity measure, approximation-rate intervals and error curves.

The complexity of a target relative to a decay budget g is the smallest
constant c such that every spectrum tail mass of every tensorised window
stays below c * g(s); the mass t_{K,s} at offset s of the depth-K window
is the tail of its pooled spectrum beyond kept rank s + K - 1, and
DepthTable.masses alone writes that rule.  A DepthTable holds one
target's windows at one l, each decomposed on its first read; it reads
l as a whole number of at least 2 (sequences._depth) when it is built,
not at its first read.  The
complexity measure and the error curves take a table, not a target, and
read both its windows and its l, so the analyses that read one table
decompose each window once and at one l.  The complexity is one max
over the envelope of those masses across depths, and the error curves
read their rank terms off the same masses.  With the window
tail norm this yields the two-sided approximation bound for a
dilated-convolution stack, and the per-(K, M) error curves that compare
targets at equal budgets.  The bound sizes a stack by the effective
filter count M of its width plan (M_0, ..., M_K): effective_filters
counts it here, where it is read, and tensors.width_plan, beside the
tensor train, checks the plan; the number of its widths fixes the depth
K, so no second K is taken beside a plan.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .sequences import _HUGE, Family, Scalar, Sequence, _depth, _number, _whole
from . import tensors

COMPLEXITY_NOISE_REL_TOL = 1e-12


@dataclass(frozen=True)
class DecayProfile:
    """Non-increasing positive envelope g with zero limit at infinity.

    family "exponential" is a * b^s with 0 < b < 1; family "power" is
    a / (s + 1)^p with p > 0; family "table" is an explicit
    non-increasing list extended by its last value up to a cutoff and
    zero beyond it.  Parameters and values are finite numbers, kept as
    floats (sequences._number), and the cutoff is whole.
    """

    family: str
    a: float = 1.0
    b: float = 0.5
    p: float = 1.0
    values: tuple = ()
    cutoff: int = 0

    def __post_init__(self):
        for key in ("a", "b", "p"):
            object.__setattr__(self, key, _number(getattr(self, key), key))
        if isinstance(self.values, (str, bytes)) or not isinstance(self.values, Iterable):
            raise ValueError(f"the table values must be a list of numbers, "
                             f"not {self.values!r:.40}")
        vals = tuple(_number(v, "a table value") for v in self.values)
        if not all(map(math.isfinite, (self.a, self.b, self.p, *vals))):
            raise ValueError(f"{self.family} profile parameters must be finite")
        if self.family == "exponential":
            if self.a <= 0 or not 0.0 < self.b < 1.0:
                raise ValueError("exponential profile needs a > 0 and 0 < b < 1")
        elif self.family == "power":
            if self.a <= 0 or self.p <= 0:
                raise ValueError("power profile needs a > 0 and p > 0")
        elif self.family == "table":
            if not vals or any(v <= 0 for v in vals):
                raise ValueError("table profile needs positive values")
            if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
                raise ValueError("table profile must be non-increasing")
            object.__setattr__(self, "cutoff", _whole(self.cutoff, "the table cutoff"))
            if self.cutoff < len(vals) - 1:
                raise ValueError("cutoff must cover the listed values")
            object.__setattr__(self, "values", vals)
        else:
            raise ValueError(f"unknown profile family {self.family!r}")

    @classmethod
    def exponential(cls, b: float, a: float = 1.0) -> "DecayProfile":
        return cls(family="exponential", a=a, b=b)

    @classmethod
    def power(cls, p: float, a: float = 1.0) -> "DecayProfile":
        return cls(family="power", a=a, p=p)

    @classmethod
    def table(cls, values, cutoff: int) -> "DecayProfile":
        return cls(family="table", values=values, cutoff=cutoff)

    def __call__(self, s: int) -> float:
        if s < 0:
            raise ValueError("the profile is defined on s >= 0")
        if self.family == "exponential":
            return self.a * self.b ** s
        if self.family == "power":
            try:
                return self.a / (s + 1) ** self.p
            except OverflowError:   # (s + 1)^p is beyond a float: 0.0 or tiny
                return math.exp(math.log(self.a) - self.p * math.log(s + 1))
        if s > self.cutoff:
            return 0.0
        return self.values[min(s, len(self.values) - 1)]


class CurveRow(NamedTuple):
    K: int
    M: int
    rank_term: float
    tail_term: float
    upper_bound: float


class DepthTable:
    """The depth-K windows of one target rho at one l, each decomposed once.

    spectrum(K) is the pooled spectrum of the depth-K window, made by
    tensors.window_spectrum on its first read and kept by this instance;
    masses(K) are its tail masses t_{K,0}, ..., t_{K,l*K-K}, t_{K,s} the
    tail beyond kept rank s + K - 1.  This is the one place that offset
    rule is written: the complexity measure and the error curves read
    every mass and their l here, and a command that reads one target's
    windows through one table decomposes each window once.  l is read
    (sequences._depth) when the table is built, and kept as an int.
    """

    def __init__(self, rho: Sequence | Family, l: int):
        self.rho, self.l, self._spectra = rho, _depth(l)[0], {}

    def spectrum(self, K: int) -> tensors.Spectrum:
        if K not in self._spectra:
            self._spectra[K] = tensors.window_spectrum(self.rho, self.l, K)
        return self._spectra[K]

    def masses(self, K: int) -> list:
        return tensors.truncation_error_bound(self.spectrum(K), range(K - 1, self.l * K))


def complexity_measure(table: DepthTable, g: DecayProfile) -> Scalar:
    """Smallest constant bounding every spectrum tail mass by c * g(s).

    The masses t_{K,s} are those of the table, at its l, for window depths K
    from 1 up to the coverage depth (the smallest K whose window holds the
    whole support); deeper windows only duplicate masses (the padding law),
    so no deeper one is read, and support beyond a window is accounted
    separately through tail norms.  The supremum is the largest E(s) / g(s)
    over the envelope E(s) = max over K of t_{K,s}, the largest single
    ratio, since correctly rounded division by a positive g(s) is
    monotone.  Every stored value of the table's target is support, however
    small, and the noise floor, COMPLEXITY_NOISE_REL_TOL times its norm, is
    the only small-value rule: a mass at or below it counts as an exact
    zero.  Returns infinity at the first depth with a mass above that
    floor where g(s) = 0, decomposing no deeper window, and when a ratio
    passes the largest float, as it does for a g(s) that underflows to a
    subnormal.
    A generated target is measured up to its horizon, so it needs one (see
    tensors.analysis_window).  This reads and fills the table's windows.
    """
    rho = tensors.analysis_window(table.rho, table.l)
    r = rho.radius()
    if r is None:
        return Scalar(0.0)
    k_star = tensors.coverage_depth(table.l, r)
    noise = COMPLEXITY_NOISE_REL_TOL * float(rho.norm())
    envelope = []
    for K in range(1, k_star + 1):
        masses = table.masses(K)
        if any(g(s) == 0.0 for s, t in enumerate(masses) if t > noise):
            return Scalar(math.inf)
        envelope = list(map(max, itertools.zip_longest(envelope, masses, fillvalue=0.0)))
    ratios = (e / g(s) for s, e in enumerate(envelope) if e > noise)
    return Scalar(max(ratios, default=0.0))


def effective_filters(channels, l: int) -> float:
    """Pairwise-channel parameter count of the stack of width plan channels.

    channels is the full width list (M_0, ..., M_K), whose number fixes
    the depth K >= 1, checked as a CnnSpec checks it (tensors.width_plan),
    and l is read with that K (sequences._depth).
    Returns the sum of the products of consecutive widths among M_1, ...,
    M_K, less l*K.  A single layer has no width pairs and returns 0.  The
    value can be negative for very narrow stacks; a count beyond the
    largest float is refused.
    """
    widths = tensors.width_plan(channels)
    l, K = _depth(l, len(widths) - 1)
    if K == 1:
        return 0.0
    pair_sum = sum(a * b for a, b in zip(widths[1:], widths[2:]))
    try:
        return float(pair_sum - l * K)
    except OverflowError:
        raise ValueError(f"the effective filter count of channels "
                         f"{','.join(map(str, widths))!r:.40} at l = {l!r:.40} is "
                         f"beyond the float limit {_HUGE!r}") from None


def rank_budget(K: int, M) -> int:
    """The rank a depth-K stack of M effective filters keeps:
    floor(K * M^(1/K)), with K read as a whole number of at least 1 that
    a float can hold, and M as a finite real of at least 0."""
    K, M = _whole(K, "K"), _number(M, "M")
    if K < 1:
        raise ValueError(f"K must be >= 1, not {K}")
    if not 0.0 <= M <= _HUGE:
        raise ValueError(f"M must be finite and >= 0, not {M!r}")
    try:
        return math.floor(K * M ** (1.0 / K))
    except OverflowError:
        raise ValueError(f"K is beyond the float limit {_HUGE!r}") from None


def rate_bound_interval(rho: Sequence | Family, l: int, channels, g: DecayProfile):
    """Two-sided approximation bound for a width-budgeted stack.

    channels is the full width list (M_0, ..., M_K), whose number fixes
    the depth K; its effective filter count M must be at least 1.  The
    lower bound is the sup of the representation beyond the receptive
    field; the upper bound is g(rank_budget(K, M) - K) * complexity + the
    tail norm beyond the receptive field, and +inf for an infinite
    complexity, whatever g is.
    """
    M = effective_filters(channels, l)
    if M < 1:
        raise ValueError("effective filter count must be at least 1")
    l, K = _depth(l, len(channels) - 1)
    size = l ** K
    g_arg = max(0, rank_budget(K, M) - K)
    c_val = complexity_measure(DepthTable(tensors.analysis_window(rho, l, K), l), g)
    tail = rho.tail_norm(size)
    rank = c_val.value if math.isinf(c_val.value) else g(g_arg) * c_val.value
    upper = Scalar(rank + tail.value, tail.halfwidth)
    lower = Scalar(rho.sup_abs_from(size))
    if lower.value > upper.upper + 1e-12 * max(1.0, upper.upper):
        raise ArithmeticError("bound inversion; this indicates a defect")
    return lower, upper


def error_curve(table: DepthTable, K_list, M_range) -> tuple:
    """Bound split per (K, M): spectrum truncation plus window tail.

    Returns the CurveRows in ascending (K, M) order.  Every row satisfies
    upper_bound = rank_term + tail_term, and within one depth the rows are
    non-increasing in M.  The rank term at width M is the spectrum tail
    beyond rank_budget(K, M), the mass at offset s = rank_budget(K, M) -
    K + 1 of the table and 0.0 past its end; the tail term is the norm of
    the representation outside the length-l^K window at the table's l,
    the upper end of its bracket, so the bound stays valid.  The rows hold
    no label: the command line writes their CSV (_jsontext.csv_text).
    This reads and fills the table's windows.
    """
    widths = sorted({_whole(m, "a width M") for m in M_range})
    if widths and widths[0] < 1:
        raise ValueError("widths must be >= 1")
    rows = []
    for K in sorted({_depth(table.l, k)[1] for k in K_list}):
        masses = table.masses(K)
        tail_term = table.rho.tail_norm(table.l ** K).upper
        for M in widths:
            s = rank_budget(K, M) - K + 1
            rank_term = masses[s] if s < len(masses) else 0.0
            rows.append(CurveRow(K, M, rank_term, tail_term, rank_term + tail_term))
    return tuple(rows)


def curve_points(rows, K: int):
    """(M values, upper bounds) of the error-curve rows at depth K, in row
    order: ascending in M."""
    depth = [r for r in rows if r.K == K]
    return [r.M for r in depth], [r.upper_bound for r in depth]
