"""The JSON text of every artifact the command line writes.

dump(obj) is json.dumps(obj, indent=2, sort_keys=True) plus a newline,
byte for byte, for the objects json accepts with string keys.  json
formats indented output with its pure-Python encoder, one generator step
per item.  This writer joins each list of one scalar type in one call.
An object json does not accept is written by its json_parts(indent)
method, when it has one: the texts it yields go into the artifact's
parts as they are.  That is how a filter bank (models.CnnSpec) is
written: straight from its arrays, 512 filters per block, with the
bytes json.dumps gives for its to_json() dict and no dict built.
float_texts formats the numbers of such a block.

csv_field(text) is the one quoting rule of the CSV artifacts.  Every
artifact is written as UTF-8: CSV and SVG text shows U+FFFD for what
UTF-8 cannot write, the lone surrogates of a label from a file name that
is not UTF-8 (_SURROGATE), while JSON keeps them as \\u escapes.
"""

import re
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

# json's names for the float reprs of the non-finite numbers
_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# A lone surrogate, which is what a byte of a file name that is not UTF-8
# decodes to; UTF-8 cannot write one, and the text artifacts are UTF-8.
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def dump(obj) -> str:
    """The artifact text of obj: its indented JSON and a newline."""
    parts = []
    _write(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def csv_field(text: str) -> str:
    """text as one CSV field: quoted, with its quotes doubled, when it
    holds a comma, a quote or a line break (RFC 4180), else as it is; a
    lone surrogate becomes U+FFFD."""
    text = _SURROGATE.sub("\ufffd", text)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write(obj, indent, parts):
    """Append the JSON text of obj to parts; its nested lines start with
    indent and two more spaces."""
    inner = indent + "  "
    if isinstance(obj, dict):
        brackets, items = "{}", [(_quote(key) + ": ", obj[key]) for key in sorted(obj)]
    elif isinstance(obj, (list, tuple)):
        text = _scalars(obj, "," + inner)
        if text is not None:
            parts += ("[" + inner, text, indent + "]")
            return
        brackets, items = "[]", [("", item) for item in obj]
    else:
        text = _scalars((obj,), "")
        if text is not None:
            parts.append(text)
        elif hasattr(obj, "json_parts"):
            # Its texts go in as they are: joining them would copy them.
            parts += obj.json_parts(indent)
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
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


def float_texts(values: np.ndarray) -> list:
    """The JSON texts of the entries of a float64 array, in C order: one
    float repr per distinct bit pattern, so -0.0 and each NaN keep their
    own, and json's names for the non-finite ones."""
    bits, at = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map(float.__repr__, bits.view(np.float64).tolist()))
    if not np.isfinite(bits.view(np.float64)).all():
        texts = list(map(_NAMES.get, texts, texts))
    return list(map(texts.__getitem__, at.reshape(-1).tolist()))
