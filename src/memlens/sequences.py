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
(gamma ** t by libm's pow, np.float_power, on every host; 1 / t), or
truncate(n), the nonzeros of that array as a Sequence, and through its
tail beyond a window in closed form (tail_norm, sup_abs_from).  A power
tail to a horizon, of any length, is one bracketed sum
(_power_tail_norm): its first terms one by one, the rest by
Euler-Maclaurin, all of it from a start of 2^511 on, where 1/t^2 leaves
the normal doubles.  So is a tail without a horizon, summed to infinity,
from a start of 2^48 on, where its integral bracket would be narrower
than its rounding.  The tail readers take any whole start.  Time indices
of a window must stay below 2^63: a larger index raises ValueError before
any int64 arithmetic runs, so no time wraps silently.

Sequence.from_json reads a text in the row layout that to_json writes
through json.dumps, compact or indented, without building a list per
row: once the entries are seen to hold only numbers, JSON whitespace,
commas and brackets, in the bracket skeleton of that layout, json reads
the numbers as one flat list with the brackets as spaces.  Every other
text (another key order, another dim, a string, NaN, malformed JSON, an
int beyond a float) is decoded whole, as a dict, so either way the
sequence or the error is the same.

The argument readers of the library live here: _whole reads a time index
or another whole number, _number a real parameter, _length the length
n >= 0 of a window (values_upto), of at most the 2^60 - 1 float64
entries numpy holds in one array, _depth the filter size l and depth K
of a dilated stack, as ints with l >= 2 and K >= 1, and _window_depth
those of a length-l^K window, refused when its last time l^K - 1 is past
the int64 limit, before any power past that limit is formed.
Each refuses a bool, a string or (for a whole number) a fraction by name,
and _number a whole number beyond the float range, and never cuts one to
an int.  Sequence.impulse, Family and the time readers of both (value,
values_upto, truncate, tail_norm, sup_abs_from) read their own arguments
through them, so from_json passes its fields on as they are.

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
# A power tail is summed term by term over at most this many terms, and in
# closed form beyond them.
_TAIL_HEAD_TERMS = 1 << 12
# From this start on, 1/t^2 is no longer a normal double (and t * t
# overflows from 2^512), so a power tail is all closed form.
_CLOSED_FORM_START = 1 << 511
# From this start on, a power tail without a horizon is summed to infinity
# (_power_tail_norm): its integral bracket, about 1/(4 start) of the tail
# wide, falls under the rounding of its ends and misses from 2^51 on.
_SUMMED_TAIL_START = 1 << 48
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
    bracket: the tail norms of inverse-time decay, whose half-width covers
    the terms left out of a closed form and the rounding of the sum.  The
    true value then lies in [value - halfwidth, value + halfwidth].
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


def _power_tail_norm(start, stop=math.inf) -> Scalar:
    """sqrt of the sum of 1/t^2 over start <= t <= stop, for 1 <= start
    <= stop, within a few units in the last place; with no stop, the sum
    runs to infinity.

    The first _TAIL_HEAD_TERMS terms, all of a shorter range, are summed
    with one rounding (math.fsum); any rest, from a to stop, is the
    Euler-Maclaurin sum through the B4 term, evaluated exactly in integers
    and rounded once.  1/t^2 is completely monotone, so the omitted
    remainder lies between 0 and the B6 term, (a^-7 - stop^-7) / 42, or
    a^-7 / 42 with no stop.  The half-width covers that term and the
    rounding of the terms and sums, a few units in the last place,
    whatever the length.  From a start of _CLOSED_FORM_START on, the
    whole range is the closed form, its sum rounded at the scale 4^e that
    puts it near 1 and its root scaled back by 2^-e, so the tail of any
    whole start reads 0.0 only where it underflows.
    """
    closed = start >= _CLOSED_FORM_START
    a, b = start if closed else min(start + _TAIL_HEAD_TERMS, stop + 1), stop
    sq, err, e = 0.0, 0.0, 0
    if not closed:
        # Each t rounded once, also beyond 2^53, where arange's float step
        # rounds away: float(start) plus the small whole offset of each t.
        near = float(start)
        t = near + np.arange(start - int(near), a - int(near), dtype=float)
        sq = math.fsum((1.0 / (t * t)).tolist())
    if a <= b:
        # (a^-1 - b^-1) + (a^-2 + b^-2) / 2 + (a^-3 - b^-3) / 6 - (a^-5 - b^-5) / 30
        # over the one denominator 30 (ab)^5, its limit over 30 a^5 with no
        # stop; an int divided by an int rounds once.
        if b == math.inf:
            num, den = 30 * a ** 4 + 15 * a ** 3 + 5 * a * a - 1, 30 * a ** 5
            rest, rest_den = 1, 42 * a ** 7
        else:
            ab = a * b
            num = (30 * (b - a) * ab ** 4 + 15 * (a * a + b * b) * ab ** 3 +
                   5 * (b ** 3 - a ** 3) * ab ** 2 - (b ** 5 - a ** 5))
            den = 30 * ab ** 5
            rest, rest_den = b ** 7 - a ** 7, 42 * ab ** 7
        if closed:
            e = (den.bit_length() - num.bit_length()) // 2
        sq += (num << 2 * e) / den
        err = (rest << 2 * e) / rest_den
    err += 4 * _EPS * sq
    lo, hi = math.ldexp(math.sqrt(sq - err), -e), math.ldexp(math.sqrt(sq + err), -e)
    if hi < _TINY:
        # Scaled back to a subnormal, each end rounds on a coarser grid: one
        # step outwards keeps the true value inside.
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
    return Scalar((lo + hi) / 2.0, (hi - lo) / 2.0)


def _int_text(n: int) -> str:
    """The decimal text of a whole number, or, for one too long for Python
    to convert to text, its sign and bit length."""
    try:
        return str(n)
    except ValueError:
        return f"a {'negative ' if n < 0 else ''}{n.bit_length()}-bit whole number"


def _check_time(t):
    if t > MAX_TIME:
        raise ValueError(f"a {int(t).bit_length()}-bit time index is beyond "
                         f"the int64 limit 2^63 - 1")


def _whole(t, what="a time index") -> int:
    """A time index (or another integer field) as an int; a bool, a
    string, None or a fractional or non-finite number is not one."""
    # A plain int (in _number, a plain int or float) passes before the
    # abstract-class checks, which cost several times more: an error curve
    # reads its K and M at each of its cells.
    if type(t) is int or not isinstance(t, bool) and (
            isinstance(t, numbers.Integral) or
            isinstance(t, numbers.Real) and float(t).is_integer()):
        return int(t)
    raise ValueError(f"{what} must be a whole number, not {t!r}")


def _length(n) -> int:
    """The length n of a dense window as an int: a whole number of at
    least 0 whose last time index n - 1 passes _check_time, and of at
    most 2^60 - 1 entries, as many float64 entries as numpy holds in one
    array."""
    n = _whole(n, "n")
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_time(n - 1)
    if n >> 60:
        raise ValueError(f"a window of {n} entries is beyond numpy's array "
                         f"limit 2^60 - 1")
    return n


def _number(x, what) -> float:
    """A real parameter as a float; a bool, a string or None is not one,
    and a whole number beyond the float range is refused by name."""
    if type(x) in (float, int) or isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            raise ValueError(f"{what} is beyond the float limit {_HUGE!r}") from None
    raise ValueError(f"{what} must be a number, not {x!r}")


def _depth(l, K=1) -> tuple:
    """The filter size l and the depth K of a dilated stack as ints, read
    as whole numbers, with l >= 2 and K >= 1; K = 1 reads l alone."""
    l, K = _whole(l, "l"), _whole(K, "K")
    if l < 2 or K < 1:
        raise ValueError("need l >= 2 and K >= 1")
    return l, K


def _window_depth(l, K) -> tuple:
    """l and K as _depth reads them, for a length-l^K window whose last
    time l^K - 1 passes _check_time.  A window past the int64 limit is
    refused before any power beyond it is formed: every l >= 2 passes the
    limit at K = 64, and at l = 2^a the last time has a * K bits."""
    l, K = _depth(l, K)
    if K < 64:
        _check_time(l ** K - 1)
        return l, K
    a = l.bit_length() - 1
    if l == 1 << a:
        raise ValueError(f"a {_int_text(a * K)}-bit time index is beyond "
                         f"the int64 limit 2^63 - 1")
    raise ValueError(f"the time index l^K - 1 at l = {_int_text(l)}, K = "
                     f"{_int_text(K)} is beyond the int64 limit 2^63 - 1")


def _read_number(text: str, what):
    """The number a text names: an int for an integer text, else a float."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"{what} must be a number, not {text!r:.40}") from None


def _read_values(values):
    """values as np.asarray(values, dtype=float) reads them, so the result
    or the error is np.asarray's, with n rows [v] read as their n values.
    A string given as the values is refused, and so is a string or a bool
    in a list or a tuple, as a value or as an item of a list or tuple
    value, though numpy would read each as a number, and a whole number
    beyond the float range, where numpy's error names no value."""
    if isinstance(values, (str, bytes)):
        raise ValueError(f"the values must be numbers, not {values!r:.40}")
    if isinstance(values, (list, tuple)):
        for x in chain.from_iterable(v if type(v) in (list, tuple) else (v,)
                                     for v in values):
            if isinstance(x, (str, bool)):
                raise ValueError(f"a value must be a number, not {x!r:.40}")
    try:
        values = np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"a value is beyond the float limit {_HUGE!r}") from None
    return values[:, 0] if values.shape[1:] == (1,) else values


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
    values = _read_values(values)
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
        """Sequence from the dense prefix (v0, v1, ...): n values or n rows
        [v], read as from_arrays reads its values."""
        v = _read_values(values)
        if v.ndim != 1:
            raise ValueError(f"expected n values, got shape {v.shape}")
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
        """Unit (or scaled) impulse at the whole time t >= 0."""
        t, value = _whole(t, "an impulse position"), _number(value, "an impulse value")
        if t < 0:
            raise ValueError("impulse position must be >= 0")
        return cls.from_arrays([t], [value])

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
        t = _whole(t, "t")
        if t < 0:
            return 0.0
        _check_time(t)
        return float(self._at(np.array([t], dtype=np.int64))[0])

    def values_upto(self, n: int) -> np.ndarray:
        """Dense array of rho(0), ..., rho(n-1)."""
        n = _length(n)
        out = np.zeros(n)
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
        start = _whole(start, "start")
        if start < 0:
            raise ValueError("start must be >= 0")
        return Scalar(root_sum_squares(self._values[self._count_before(start):]))

    def norm(self) -> Scalar:
        return self.tail_norm(0)

    def sup_abs_from(self, start: int) -> float:
        """sup over t >= start of |rho(t)|."""
        start = _whole(start, "start")
        return float(np.max(np.abs(self._values[self._count_before(start):]), initial=0.0))

    # -- derived sequences -----------------------------------------------

    def truncate(self, length: int) -> "Sequence":
        """Finite restriction to the window [0, length - 1]."""
        length = _whole(length, "length")
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
            rho = cls.impulse(params["t"], params.get("value", 1.0))
            if horizon is not None and horizon < 0:
                raise ValueError("horizon must be >= 0")
            return rho if horizon is None else rho.truncate(horizon + 1)
        if family == "geometric":
            return cls.geometric(params["gamma"], horizon=horizon)
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
            object.__setattr__(self, "horizon", _whole(self.horizon, "horizon"))
            if self.horizon < 0:
                raise ValueError("horizon must be >= 0")
        if self.family not in ("geometric", "power"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "geometric":
            g = _number(self.gamma, "gamma")
            if not 0.0 < g < 1.0:
                raise ValueError("geometric family needs 0 < gamma < 1")
            object.__setattr__(self, "gamma", g)
        elif self.gamma is not None:
            raise ValueError("the power family takes no gamma")

    def truncate(self, length: int) -> Sequence:
        """The finite restriction to the window [0, length - 1]: the
        nonzeros of values_upto, up to the horizon."""
        length = _whole(length, "length")
        if length < 0:
            raise ValueError("length must be >= 0")
        m = length if self.horizon is None else min(length, self.horizon + 1)
        v = self.values_upto(m)
        t = np.flatnonzero(v)
        return Sequence._of(t, v[t])

    def values_upto(self, n: int) -> np.ndarray:
        """Dense array of rho(0), ..., rho(n-1): the rule applied in place
        to arange(n), zero at time 0 for the power rule and past the
        horizon, with no other array.  gamma^t is np.float_power, libm's
        pow at every SIMD level, so each entry is Python's gamma ** t, as
        tail_norm and sup_abs_from read it."""
        n = _length(n)
        m = n if self.horizon is None else min(n, self.horizon + 1)
        out = np.arange(n, dtype=float)    # exact: no window reaches 2^53
        live = out[:m]
        if self.family == "geometric":
            np.float_power(self.gamma, live, out=live)
        elif m:
            live[0] = 0.0
            np.divide(1.0, live[1:], out=live[1:])
        out[m:] = 0.0
        return out

    def tail_norm(self, start: int) -> Scalar:
        """sqrt of the summed squared values at t >= start.

        Geometric decay is a closed form within a few units in the last
        place for every gamma.  Inverse-time decay with a horizon returns
        a bracket of a few units in the last place (_power_tail_norm), as
        it does without one, summed to infinity, from a start of
        _SUMMED_TAIL_START (2^48) on; below it, a tail without a horizon
        is the integral bracket between the roots of 1/start and
        1/(start - 1).  Any whole start is read as it is, also past the
        float range, where a tail that underflows is 0.0.
        """
        start = _whole(start, "start")
        if start < 0:
            raise ValueError("start must be >= 0")
        if self.family == "geometric":
            # Past the float range gamma^start underflows, and a horizon is
            # as good as none.
            if start > _HUGE:
                return Scalar(0.0)
            # gamma^s sqrt((1 - gamma^(2n)) / (1 - gamma^2)) over the n terms to
            # the horizon: expm1 keeps both differences from cancelling as
            # gamma -> 1, and gamma^s stays normal where gamma^(2s) underflows.
            n = (math.inf if self.horizon is None or self.horizon > _HUGE
                 else max(self.horizon + 1 - start, 0))
            log_sq = 2.0 * math.log(self.gamma)
            return Scalar(self.gamma ** start *
                          math.sqrt(math.expm1(n * log_sq) / math.expm1(log_sq)))
        s0 = max(start, 1)
        if self.horizon is not None:
            if s0 > self.horizon:
                return Scalar(0.0)
            return _power_tail_norm(s0, self.horizon)
        if s0 >= _SUMMED_TAIL_START:
            return _power_tail_norm(s0)
        lo_sq = 1.0 / s0
        hi_sq = 1.0 / (s0 * s0) + 1.0 / s0
        if s0 >= 2:
            hi_sq = min(hi_sq, 1.0 / (s0 - 1))
        lo, hi = math.sqrt(lo_sq), math.sqrt(hi_sq)
        return Scalar((lo + hi) / 2.0, (hi - lo) / 2.0)

    def norm(self) -> Scalar:
        return self.tail_norm(0)

    def sup_abs_from(self, start: int) -> float:
        """sup over t >= start of |rho(t)|; rho is 0 before t = 0, so a
        negative start reads as 0."""
        start = max(_whole(start, "start"), 0)
        if self.horizon is not None and start > self.horizon:
            return 0.0
        if self.family == "geometric":
            return 0.0 if start > _HUGE else self.gamma ** start
        if self.horizon == 0:
            return 0.0
        # Past the float range an int quotient rounds 1/start once.
        return 1.0 / max(start, 1) if start <= _HUGE else 1 / start

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
