"""The JSON text of every artifact the command line writes.

dump(obj) is json.dumps(obj, indent=2, sort_keys=True) plus a newline,
byte for byte, for the objects json accepts with string keys.  json
formats indented output with its pure-Python encoder, one generator step
per item; this writer joins each list of one scalar type in one call.
"""

from json.encoder import encode_basestring_ascii as _quote


def dump(obj) -> str:
    """The artifact text of obj: its indented JSON and a newline."""
    parts = []
    _write(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write(obj, indent, parts):
    """Append the JSON text of obj to parts; its nested lines start with
    indent and two more spaces."""
    inner = indent + "  "
    if isinstance(obj, dict):
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
