"""Exact arithmetic on discrete-time scalar sequences.

A Sequence models a causal map rho: N -> R with an explicit finite
support, and a Family one given by a rule (geometric decay, inverse-time
decay) plus an optional hard truncation horizon.  These objects carry the
representations rho of the linear temporal functionals
H_t(x) = sum_s rho(s) x(t - s), which every analysis reads in place of
the functional itself, and the filters of the convolutional models.

A Sequence is stored as one sorted int64 array of distinct times and one
float64 array of their values, none of them zero: an exact zero, read or
summed, is dropped, so no sum depends on how many zeros a document spells
out.  That is the one zero rule: every stored value is support, however
small beside the largest, so the radius is the last stored time.  Every
operation on it is an array operation.  A Family is read through its
window, values_upto(n), its rule applied to arange(n) in one pass
(gamma ** t, 1 / t), or truncate(n), the nonzeros of that array as a
Sequence, and through its tail beyond a window in closed form (tail_norm,
sup_abs_from).  Time indices must stay below 2^63: a larger index raises
ValueError before any int64 arithmetic runs, so no time wraps silently.

Sequence.from_json reads a text in the row layout that to_json writes
through json.dumps, compact or indented, without building a list per
row: once the entries are seen to hold only numbers, JSON whitespace,
commas and brackets, in the bracket skeleton of that layout, json reads
the numbers as one flat list with the brackets as spaces.  Every other
text (another key order, another dim, a string, NaN, malformed JSON, an
int beyond a float) is decoded whole, as a dict, so either way the
sequence or the error is the same.

The builtin target ids (rho1, rho2, rho3[:H], exp:GAMMA, impulse:T) live
here too, beside the grammar they abbreviate: make_target reads each
argument id as shorthand for the family form from_json reads, so every
way of naming a target is read in this module.

All operations are pure: sequences are immutable after construction and
every operation returns a new value.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

MAX_TIME = int(np.iinfo(np.int64).max)
_TAIL_BLOCK = 1 << 20
# A power tail of more terms than this is summed in closed form beyond its
# first _TAIL_HEAD_TERMS terms.
_EXACT_TAIL_TERMS = 1 << 24
_TAIL_HEAD_TERMS = 1 << 12
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)
_EPS = float(np.finfo(float).eps)

# The row layout Sequence.to_json writes, as json.dumps prints it; JSON
# whitespace is these four characters only, not what \s or str.strip take.
_WS = " \t\n\r"
_ROWS_HEAD = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*"dim"[ \t\n\r]*:[ \t\n\r]*1'
                        r'[ \t\n\r]*,[ \t\n\r]*"entries"[ \t\n\r]*:[ \t\n\r]*\[')
# The bracket skeleton of one row [t,[v]] and the comma after it.
_ROW = b"[,[]],"
_ROW_END = re.compile(r"\][ \t\n\r]*\][ \t\n\r]*,")
_ROWS_BLOCK = 1 << 16
# Every number character reads as 0 and JSON whitespace is dropped.
_NUMBER_CHARS = b"0123456789+-.eE"
_SHAPE = bytes.maketrans(_NUMBER_CHARS, b"0" * len(_NUMBER_CHARS))
_UNBRACKET = bytes.maketrans(b"[]", b"  ")


def root_sum_squares(x) -> float:
    """sqrt(sum(x * x)) over all of x, at any scale.

    Where the plain sum of squares is finite and at least the smallest
    normal double, or x is all zero, its root is the result, bit for bit.
    Elsewhere, where the squares overflow or underflow, x is first
    divided by its largest magnitude and the root multiplied back.
    """
    with np.errstate(over="ignore"):
        sq = float((x * x).sum())
    if _TINY <= sq <= _HUGE or not x.any():
        return math.sqrt(sq)
    unit = min(float(np.abs(x).max()), _HUGE)   # an inf entry keeps the sum inf, NaN stays NaN
    x = x / unit
    return unit * math.sqrt(float((x * x).sum()))


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


def _power_tail_norm(start, stop) -> Scalar:
    """sqrt of the sum of 1/t^2 over start <= t <= stop, for a stop far
    beyond start.

    The first _TAIL_HEAD_TERMS terms are summed with one rounding
    (math.fsum); the rest, from a to stop, is the Euler-Maclaurin sum
    through the B4 term, evaluated exactly in integers and rounded once.
    1/t^2 is completely monotone, so the omitted remainder lies between 0
    and the B6 term, (a^-7 - stop^-7) / 42.  The half-width covers that
    term and the rounding of the terms and sums, a few units in the last
    place.
    """
    a, b = start + _TAIL_HEAD_TERMS, stop
    t = np.arange(start, a, dtype=float)
    head = math.fsum((1.0 / (t * t)).tolist())
    # (a^-1 - b^-1) + (a^-2 + b^-2) / 2 + (a^-3 - b^-3) / 6 - (a^-5 - b^-5) / 30
    # over the one denominator 30 (ab)^5; an int divided by an int rounds once.
    ab = a * b
    rest = (30 * (b - a) * ab ** 4 + 15 * (a * a + b * b) * ab ** 3 +
            5 * (b ** 3 - a ** 3) * ab ** 2 - (b ** 5 - a ** 5)) / (30 * ab ** 5)
    sq = head + rest
    err = (b ** 7 - a ** 7) / (42 * ab ** 7) + 4 * _EPS * sq
    lo, hi = math.sqrt(sq - err), math.sqrt(sq + err)
    return Scalar((lo + hi) / 2.0, (hi - lo) / 2.0)


def _check_time(t):
    if t > MAX_TIME:
        raise ValueError(f"a {int(t).bit_length()}-bit time index is beyond "
                         f"the int64 limit 2^63 - 1")


def _whole(t, what="a time index") -> int:
    """A time index (or another integer field) as an int; a bool, a
    string, None or a fractional or non-finite number is not one."""
    if not isinstance(t, bool) and (isinstance(t, numbers.Integral) or
                                    isinstance(t, numbers.Real) and float(t).is_integer()):
        return int(t)
    raise ValueError(f"{what} must be a whole number, not {t!r}")


def _number(x, what) -> float:
    """A real parameter as a float; a bool, a string or None is not one."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        return float(x)
    raise ValueError(f"{what} must be a number, not {x!r}")


def _read_number(text: str, what):
    """The number a text names: an int for an integer text, else a float."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"{what} must be a number, not {text!r:.40}") from None


def _matrix(values):
    """values as np.asarray(values, dtype=float) reads them, so the result
    or the error is np.asarray's; n rows [v] give an (n, 1) array.  In a
    list, a string or a bool, as a value or as an item of a list or tuple
    value, is refused, though numpy would read it as a number."""
    if isinstance(values, list):
        for x in chain.from_iterable(v if type(v) in (list, tuple) else (v,)
                                     for v in values):
            if isinstance(x, (str, bool)):
                raise ValueError(f"a value must be a number, not {x!r:.40}")
    return np.asarray(values, dtype=float)


def _whole_rows(block) -> bool:
    """Whether the bytes block are rows of the skeleton _ROW, joined by
    commas, with one number in each number slot and nothing else but JSON
    whitespace.  Its buffers are freed before json reads the block."""
    shape = block.translate(_SHAPE, _WS.encode())
    skeleton = shape.translate(None, b"0") + b","
    # A number beside the outer side of a bracket is outside its slot.
    at = np.frombuffer(shape, np.uint8)
    number = at == ord("0")
    return (skeleton == _ROW * (len(skeleton) // len(_ROW)) and
            not (number[1:] & (at[:-1] == ord("]"))).any() and
            not (number[:-1] & (at[1:] == ord("["))).any())


def _flat_rows(text):
    """(times, values) of a row-form text in the layout to_json writes,
    compact or indented, read as one flat list of numbers; None for any
    other text, which json then reads as a whole.

    The entries must hold only number characters, JSON whitespace, commas
    and brackets, and their bracket skeleton must be [t,[v]], each number
    in its slot.  The brackets then carry no information, and json.loads
    reads the entries with them as spaces, in row-aligned blocks of about
    _ROWS_BLOCK characters.  json still reads
    every number, so each keeps its int or float type; a number json
    refuses, or an int beyond a float, gives None, so that the whole
    document raises what json or _columns make of it.
    """
    head = _ROWS_HEAD.match(text)
    close = len(text.rstrip(_WS)) - 1
    stop = text.rfind("]", head.end(), close) if head else -1
    if stop < 0 or text[close] != "}" or text[stop + 1:close].strip(_WS):
        return None
    start = head.end()
    times, values = [], []
    while start < stop:
        end = _ROW_END.search(text, start + _ROWS_BLOCK, stop)
        end = end.end() - 1 if end else stop
        block = text[start:end]
        if not block.isascii():
            return None
        block = block.encode()
        if not _whole_rows(block):
            return None
        try:
            flat = json.loads(b"[" + block.translate(_UNBRACKET) + b"]")
            times += flat[::2]
            del flat[::2]
            values.append(np.fromiter(flat, float, count=len(flat)))
        except (ValueError, OverflowError):
            return None
        start = end + 1
    return (times, np.concatenate(values)) if times else None


def _columns(times, values):
    """Sorted distinct int64 times and their finite values, read from n
    values or n rows [v].

    A repeated time keeps its last value, as a dict built from the same
    (time, value) pairs would, and a last value of zero drops its time,
    so an explicit zero reads as an absent entry.
    """
    arr = np.asarray(times)
    if arr.dtype.kind not in "iu":  # floats, strings, None, or beyond 64 bits
        arr = np.array([_whole(t) for t in times], dtype=object)
    if arr.size:
        if arr.min() < 0:
            raise ValueError("entries must live at t >= 0")
        _check_time(int(arr.max()))
    times = arr.astype(np.int64).reshape(-1)
    values = _matrix(values)
    if values.shape[1:] == (1,):  # rows [v]
        values = values[:, 0]
    if values.shape != times.shape:
        raise ValueError(f"expected {len(times)} values, got shape {values.shape}")
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"the value at t={times[finite.argmin()]} is not finite")
    order = np.argsort(times, kind="stable")
    times, values = times[order], values[order]
    last = np.ones(len(times), dtype=bool)
    last[:-1] = times[1:] != times[:-1]
    last &= values != 0.0
    return times[last], values[last]


class Sequence:
    """A finitely supported scalar sequence rho: N -> R.

    It stores sorted distinct int64 times with their nonzero float64
    values, and every one is built by from_arrays or through it.
    geometric, power and the family form of from_json give a Family
    instead.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a Sequence is built by Sequence.from_arrays or its callers")

    @classmethod
    def _of(cls, times, values) -> "Sequence":
        """Finite sequence over already sorted distinct int64 times."""
        seq = object.__new__(cls)
        seq._times, seq._values = times, values
        return seq

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "Sequence":
        return cls.from_arrays((), ())

    @classmethod
    def from_values(cls, values) -> "Sequence":
        """Sequence from the dense prefix (v0, v1, ...)."""
        v = np.asarray(values, dtype=float).reshape(-1)
        t = np.flatnonzero(v)
        return cls.from_arrays(t, v[t])

    @classmethod
    def from_arrays(cls, times, values) -> "Sequence":
        """Finite sequence from a time array and a matching value array.

        values has shape (n,), or (n, 1) as the rows [v] of the row form,
        and must be finite; times need not be sorted, and a repeated time
        keeps its last value.
        """
        return cls._of(*_columns(times, values))

    @classmethod
    def impulse(cls, t, value=1.0) -> "Sequence":
        """Unit (or scaled) impulse at time t >= 0."""
        if t < 0:
            raise ValueError("impulse position must be >= 0")
        return cls.from_arrays([int(t)], [float(value)])

    @classmethod
    def geometric(cls, gamma, horizon=None) -> "Family":
        """rho(t) = gamma^t for t >= 0, with 0 < gamma < 1."""
        return Family("geometric", gamma, horizon)

    @classmethod
    def power(cls, horizon=None) -> "Family":
        """rho(0) = 0 and rho(t) = 1/t for t >= 1."""
        return Family("power", horizon=horizon)

    # -- basic accessors -----------------------------------------------

    def arrays(self):
        """Read-only (times, values) views of the support."""
        times, values = self._times.view(), self._values.view()
        times.flags.writeable = values.flags.writeable = False
        return times, values

    def _count_before(self, t) -> int:
        """Number of stored times below t."""
        if t > MAX_TIME:
            return len(self._times)
        return int(np.searchsorted(self._times, t))

    def _at(self, t: np.ndarray) -> np.ndarray:
        """The values at the int64 times t; zero off the support."""
        out = np.zeros(len(t))
        if len(self._times):
            idx = np.minimum(np.searchsorted(self._times, t), len(self._times) - 1)
            hit = self._times[idx] == t
            out[hit] = self._values[idx[hit]]
        return out

    def value(self, t: int) -> float:
        """rho(t); zero outside the support (and for t < 0)."""
        if t < 0:
            return 0.0
        _check_time(t)
        return float(self._at(np.array([t], dtype=np.int64))[0])

    def values_upto(self, n: int) -> np.ndarray:
        """Dense array of rho(0), ..., rho(n-1)."""
        _check_time(n - 1)
        out = np.zeros(int(n))
        k = self._count_before(n)
        out[self._times[:k]] = self._values[:k]
        return out

    # -- support and norms -----------------------------------------------

    def radius(self):
        """The last stored time, or None for the zero sequence: every
        stored value is support, however small."""
        return int(self._times[-1]) if len(self._times) else None

    def tail_norm(self, start: int) -> Scalar:
        """sqrt of the summed squared entries at t >= start, exactly."""
        if start < 0:
            raise ValueError("start must be >= 0")
        return Scalar(root_sum_squares(self._values[self._count_before(start):]))

    def norm(self) -> Scalar:
        return self.tail_norm(0)

    def sup_abs_from(self, start: int) -> float:
        """sup over t >= start of |rho(t)|."""
        return float(np.max(np.abs(self._values[self._count_before(start):]), initial=0.0))

    # -- derived sequences -----------------------------------------------

    def truncate(self, length: int) -> "Sequence":
        """Finite restriction to the window [0, length - 1]."""
        if length < 0:
            raise ValueError("length must be >= 0")
        k = self._count_before(length)
        return Sequence._of(self._times[:k], self._values[:k])

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict:
        rows = [[t, [v]] for t, v in zip(self._times.tolist(), self._values.tolist())]
        return {"dim": 1, "entries": rows}

    @classmethod
    def from_json(cls, obj) -> "Sequence | Family":
        """Sequence from its JSON description: the row form {"dim", "entries"},
        whose dim, if given, is 1, or the family form {"family", "params",
        "horizon"}, which gives a Family for "geometric" and "power" and
        is zero beyond its horizon, an impulse too.  A
        document of any other shape, or with a field of the wrong type,
        raises ValueError.  A text in the row layout to_json writes is read
        without per-row objects (_flat_rows); any other text is decoded
        whole."""
        if isinstance(obj, str):
            rows = _flat_rows(obj)
            if rows:
                return cls.from_arrays(*rows)
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError(f"a sequence description is a JSON object, not {obj!r:.40}")
        if "entries" in obj:
            entries = obj["entries"]
            if not isinstance(entries, list):
                raise ValueError(f"entries must be a list of (time, value) rows, "
                                 f"not {entries!r:.40}")
            dim = _whole(obj.get("dim", 1), "dim")
            if dim != 1:
                raise ValueError(f"memlens reads one-dimensional targets: "
                                 f"dim must be 1, not {dim}")
            try:
                times, values = [t for t, _ in entries], [v for _, v in entries]
            except TypeError:
                raise ValueError("each entry must be a (time, value) pair") from None
            try:
                return cls.from_arrays(times, values)
            except TypeError as exc:  # a value numpy cannot read as a number
                raise ValueError(str(exc)) from None
        family = obj.get("family")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"params must be a JSON object, not {params!r:.40}")
        horizon = obj.get("horizon")
        if horizon is not None:
            horizon = _whole(horizon, "horizon")
        for name, key in (("impulse", "t"), ("geometric", "gamma")):
            if family == name and key not in params:
                raise ValueError(f"the {name} family needs params.{key}")
        if family == "impulse":
            rho = cls.impulse(_whole(params["t"], "an impulse position"),
                              _number(params.get("value", 1.0), "an impulse value"))
            if horizon is not None and horizon < 0:
                raise ValueError("horizon must be >= 0")
            return rho if horizon is None else rho.truncate(horizon + 1)
        if family == "geometric":
            return cls.geometric(_number(params["gamma"], "gamma"), horizon=horizon)
        if family == "power":
            return cls.power(horizon=horizon)
        raise ValueError(f"unknown sequence description {obj!r:.40}")

    def __repr__(self):
        return f"Sequence(support={self._times.tolist()})"


@dataclass(frozen=True)
class Family:
    """A rule-generated scalar sequence, zero beyond an optional horizon.

    family "geometric" is rho(t) = gamma^t with 0 < gamma < 1; family
    "power" is the inverse-time sequence rho(0) = 0, rho(t) = 1/t, and
    takes no gamma.  A Family stores no entries: its rule is written once,
    in values_upto(n), a dense array whose nonzeros truncate(n) keeps as a
    finite Sequence, and its tail beyond a window is a closed form
    (tail_norm, sup_abs_from).  Sequence.geometric, Sequence.power and
    Sequence.from_json build one.
    """

    family: str
    gamma: float | None = None
    horizon: int | None = None

    def __post_init__(self):
        if self.horizon is not None:
            object.__setattr__(self, "horizon", int(self.horizon))
            if self.horizon < 0:
                raise ValueError("horizon must be >= 0")
        if self.family not in ("geometric", "power"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "geometric":
            g = float(self.gamma or 0.0)
            if not 0.0 < g < 1.0:
                raise ValueError("geometric family needs 0 < gamma < 1")
            object.__setattr__(self, "gamma", g)
        elif self.gamma is not None:
            raise ValueError("the power family takes no gamma")

    def truncate(self, length: int) -> Sequence:
        """The finite restriction to the window [0, length - 1]: the
        nonzeros of values_upto, up to the horizon."""
        if length < 0:
            raise ValueError("length must be >= 0")
        m = length if self.horizon is None else min(length, self.horizon + 1)
        v = self.values_upto(m)
        t = np.flatnonzero(v)
        return Sequence._of(t, v[t])

    def values_upto(self, n: int) -> np.ndarray:
        """Dense array of rho(0), ..., rho(n-1): the rule applied in place
        to arange(n), zero at time 0 for the power rule and past the
        horizon, with no other array."""
        _check_time(n - 1)
        m = n if self.horizon is None else min(n, self.horizon + 1)
        out = np.arange(n, dtype=float)    # exact: no window reaches 2^53
        live = out[:m]
        if self.family == "geometric":
            np.power(self.gamma, live, out=live)
        elif m:
            live[0] = 0.0
            np.divide(1.0, live[1:], out=live[1:])
        out[m:] = 0.0
        return out

    def tail_norm(self, start: int) -> Scalar:
        """sqrt of the summed squared values at t >= start.

        Geometric decay is a closed form within a few units in the last
        place for every gamma.  Inverse-time decay without a horizon
        returns an integral bracket, and with more than 2^24 terms to its
        horizon a bracket of a few units in the last place
        (_power_tail_norm).
        """
        if start < 0:
            raise ValueError("start must be >= 0")
        if self.family == "geometric":
            # gamma^s sqrt((1 - gamma^(2n)) / (1 - gamma^2)) over the n terms to
            # the horizon: expm1 keeps both differences from cancelling as
            # gamma -> 1, and gamma^s stays normal where gamma^(2s) underflows.
            n = math.inf if self.horizon is None else max(self.horizon + 1 - start, 0)
            log_sq = 2.0 * math.log(self.gamma)
            return Scalar(self.gamma ** start *
                          math.sqrt(math.expm1(n * log_sq) / math.expm1(log_sq)))
        s0 = max(start, 1)
        if self.horizon is not None:
            if s0 > self.horizon:
                return Scalar(0.0)
            if self.horizon - s0 >= _EXACT_TAIL_TERMS:
                return _power_tail_norm(int(s0), self.horizon)
            # Smallest terms first, added strictly in sequence (a cumulative
            # sum), in blocks that bound the memory used.
            sq = 0.0
            for top in range(self.horizon, s0 - 1, -_TAIL_BLOCK):
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
        """sup over t >= start of |rho(t)|."""
        if self.horizon is not None and start > self.horizon:
            return 0.0
        if self.family == "geometric":
            return self.gamma ** start
        if self.horizon == 0:
            return 0.0
        return 1.0 / max(start, 1)

    def to_json(self) -> dict:
        params = {"gamma": self.gamma} if self.family == "geometric" else {}
        obj = {"family": self.family, "params": params}
        if self.horizon is not None:
            obj["horizon"] = self.horizon
        return obj


SPARSE_VALUE = math.pi ** 2 / 12.0

# Zero-based window slots; chosen so the length-32 window tensors of the
# two sparse targets have pooled ranks 5 and 10 (one-based listings of
# the same patterns shift every slot up by one and change the ranks).
RHO1_SLOTS = (16, 17, 24, 25)
RHO2_SLOTS = (8, 14, 18, 25)

# The family document each builtin id with an argument stands for.
_SHORTHAND = {"rho3": lambda x: {"family": "power", "horizon": x},
              "exp": lambda x: {"family": "geometric", "params": {"gamma": x}},
              "impulse": lambda x: {"family": "impulse", "params": {"t": x}}}


def make_target(text: str) -> Sequence | Family:
    """The builtin analysis target a target id names.

    "rho1" and "rho2" put the value pi^2 / 12 on four window slots each
    (a low-rank and a full-rank pattern under tensorisation); "rho3" is
    the inverse-time sequence.  "rho3:H", "exp:G" and "impulse:T" are
    shorthand for the family documents in _SHORTHAND, which
    Sequence.from_json reads, with an integer argument text as an int and
    any other as a float.  "exp:0" is the unit impulse at 0 (0^0 = 1).
    """
    name, colon, arg = text.partition(":")
    if name in ("rho1", "rho2"):
        if colon:
            raise ValueError(f"target {name} takes no argument, not {text!r}")
        slots = RHO1_SLOTS if name == "rho1" else RHO2_SLOTS
        return Sequence.from_arrays(slots, [SPARSE_VALUE] * len(slots))
    if text == "rho3":
        return Sequence.power()
    if name not in _SHORTHAND:
        raise ValueError(f"unknown target {text!r}")
    x = _read_number(arg, f"the argument of {name}")
    if name == "exp" and x == 0:
        return Sequence.impulse(0)
    return Sequence.from_json(_SHORTHAND[name](x))


def dilated_conv(f: Sequence, g: Sequence, dilation: int) -> Sequence:
    """Dilated convolution (f *_dilation g)(t).

    The first operand is the dilated one: the result at time t is the sum
    over s of f(s) g(t - dilation * s).  The support satisfies radius =
    dilation * radius(f) + radius(g).
    """
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    for name, operand in (("f", f), ("g", g)):
        if not isinstance(operand, Sequence):
            raise ValueError(f"{name} must be finitely supported")
    ft, fv = f.arrays()
    gt, gv = g.arrays()
    _check_time(dilation)
    if len(ft) and len(gt):
        _check_time(dilation * int(ft[-1]) + int(gt[-1]))
    # Pairs run s-major then u, and np.add.at sums the terms that share a
    # time in that order.
    times, at = np.unique(dilation * ft[:, None] + gt[None, :], return_inverse=True)
    out = np.zeros(len(times))
    np.add.at(out, at.reshape(-1), (fv[:, None] * gv[None, :]).reshape(-1))
    live = out != 0.0
    return Sequence._of(times[live], out[live])
