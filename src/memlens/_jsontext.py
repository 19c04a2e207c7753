"""The JSON text of every artifact the command line writes.

dump(obj) is json.dumps(obj, indent=2, sort_keys=True) plus a newline,
byte for byte, for the objects json accepts with string keys.  json
formats indented output with its pure-Python encoder, one generator step
per item.  This writer joins each list of one scalar type in one call,
and writes a dict of float rows -- a non-empty dict whose values are all
lists of one length >= 1 holding only floats, such as a filter bank --
without a step per member: one format template is mapped over its quoted
keys and its columns of number texts, _BLOCK members at a time.

csv_field(text) is the one quoting rule of the CSV artifacts.
"""

from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

# json's names for the float reprs of the non-finite numbers
_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Members of a dict of float rows formatted at a time; it bounds the
# number texts alive at once, so a large bank costs no more memory to
# write than it did one member at a time.
_BLOCK = 512


def dump(obj) -> str:
    """The artifact text of obj: its indented JSON and a newline."""
    parts = []
    _write(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def csv_field(text: str) -> str:
    """text as one CSV field: quoted, with its quotes doubled, when it
    holds a comma, a quote or a line break (RFC 4180), else as it is."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write(obj, indent, parts):
    """Append the JSON text of obj to parts; its nested lines start with
    indent and two more spaces."""
    inner = indent + "  "
    if isinstance(obj, dict):
        text = _rows(obj, inner)
        if text is not None:
            parts.append("{" + text + indent + "}")
            return
        brackets, items = "{}", [(_quote(key) + ": ", obj[key]) for key in sorted(obj)]
    elif isinstance(obj, (list, tuple)):
        text = _scalars(obj, "," + inner)
        if text is not None:
            parts.append("[" + inner + text + indent + "]")
            return
        brackets, items = "[]", [("", item) for item in obj]
    else:
        text = _scalars((obj,), "")
        if text is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        parts.append(text)
        return
    if not items:
        parts.append(brackets)
        return
    lead = brackets[0] + inner
    for head, value in items:
        parts.append(lead + head)
        _write(value, inner, parts)
        lead = "," + inner
    parts.append(indent + brackets[1])


def _scalars(items, sep):
    """items joined by sep, each as json writes it, when they are all of
    one scalar type; None otherwise (also for no items)."""
    kinds = set(map(type, items))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is bool:
        return sep.join(map(("false", "true").__getitem__, items))
    if kind is type(None):
        return sep.join(["null"] * len(items))
    if issubclass(kind, float):
        text = sep.join(map(float.__repr__, items))
        # A finite float's repr holds no "n"; nan and inf become json's names.
        return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text
    if issubclass(kind, int):
        return sep.join(map(int.__repr__, items))
    if issubclass(kind, str):
        return sep.join(map(_quote, items))
    return None


def _rows(obj, inner):
    """The members of the dict obj as json writes them, when its values are
    lists of one length >= 1 holding only floats; None for any other dict
    (also for an empty one)."""
    values = obj.values()
    if not values or not all(issubclass(kind, (list, tuple)) for kind in set(map(type, values))):
        return None
    width = len(next(iter(values)))
    if not width or set(map(len, values)) != {width}:
        return None
    if not all(issubclass(kind, float) for kind in set(map(type, chain.from_iterable(values)))):
        return None
    finite = all(map(isfinite, chain.from_iterable(values)))
    item = inner + "  "
    row = inner + "{}: [" + item + ("{}," + item) * (width - 1) + "{}" + inner + "]"
    keys, texts = sorted(obj), []
    for at in range(0, len(keys), _BLOCK):
        block = keys[at:at + _BLOCK]
        nums = list(map(float.__repr__, chain.from_iterable(list(map(obj.__getitem__, block)))))
        if not finite:
            nums = list(map(_NAMES.get, nums, nums))
        columns = (nums[c::width] for c in range(width))
        texts.append(",".join(map(row.format, list(map(_quote, block)), *columns)))
    return ",".join(texts)
