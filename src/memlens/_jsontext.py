"""The JSON and CSV text of every artifact the command line writes.

dump(obj) is json.dumps(obj, indent=2, sort_keys=True) plus a newline,
byte for byte.  json writes a placeholder string for each object it
does not accept that has a json_parts(indent) method, and dump puts
the texts that method yields in its place, as they are.  That is how a
filter bank (models.CnnSpec) is written: straight from its arrays, 512
filters per block, with the bytes json.dumps gives for its to_json()
dict and no dict built.  The placeholder holds NUL, which no label can
hold (file names cannot, builtin ids refuse it), so a document holding
it as a string beside a bank is refused with ValueError.
float_texts formats the numbers of such a block.

csv_text(label, l, columns, rows) is the text of every CSV artifact,
spectrum and error curve alike, and csv_field(text) the one quoting
rule of its label.  Every artifact is written as UTF-8: CSV and SVG
text shows U+FFFD for what UTF-8 cannot write, the lone surrogates of
a label from a file name that is not UTF-8 (_SURROGATE), while JSON
keeps them as \\u escapes.
"""

import json
import re

import numpy as np

# json's names for the float reprs of the non-finite numbers
_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# A lone surrogate, which is what a byte of a file name that is not UTF-8
# decodes to; UTF-8 cannot write one, and the text artifacts are UTF-8.
_SURROGATE = re.compile(r"[\ud800-\udfff]")
_PLACEHOLDER = "\0json_parts\0"


def dump(obj) -> str:
    """The artifact text of obj: its indented JSON and a newline."""
    banks = []

    def default(value):
        if not hasattr(value, "json_parts"):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        banks.append(value)
        return _PLACEHOLDER

    text = json.dumps(obj, indent=2, sort_keys=True, default=default)
    if not banks:
        return text + "\n"
    # json calls default in output order, so the k-th cut is the k-th bank.
    pieces = text.split(json.dumps(_PLACEHOLDER))
    if len(pieces) != len(banks) + 1:
        raise ValueError("a string of the document is the placeholder of a filter bank")
    parts = []
    for piece, bank in zip(pieces, banks):
        # The bank's nested lines start with the indent of the line it
        # starts on: its key's for a dict member, its own for a list item.
        line = piece.rpartition("\n")[2]
        parts.append(piece)
        # Its texts go in as they are: joining them would copy them.
        parts += bank.json_parts("\n" + " " * (len(line) - len(line.lstrip(" "))))
    parts += (pieces[-1], "\n")
    return "".join(parts)


def csv_field(text: str) -> str:
    """text as one CSV field: quoted, with its quotes doubled, when it
    holds a comma, a quote or a line break (RFC 4180), else as it is; a
    lone surrogate becomes U+FFFD."""
    text = _SURROGATE.sub("\ufffd", text)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(label: str, l: int, columns, rows) -> str:
    """The CSV artifact of one target: the header target,l,<columns>, then
    one line per row, the label as csv_field writes it, l, and each field
    of the row as repr writes it (the rows hold Python ints and floats)."""
    head = f"{csv_field(label)},{l},"
    lines = ["target,l," + ",".join(columns)]
    lines += [head + ",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def float_texts(values: np.ndarray) -> list:
    """The JSON texts of the entries of a float64 array, in C order: one
    float repr per distinct bit pattern, so -0.0 and each NaN keep their
    own, and json's names for the non-finite ones."""
    bits, at = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map(float.__repr__, bits.view(np.float64).tolist()))
    if not np.isfinite(bits.view(np.float64)).all():
        texts = list(map(_NAMES.get, texts, texts))
    return list(map(texts.__getitem__, at.reshape(-1).tolist()))
