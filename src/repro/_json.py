"""``dumps_report(doc)`` is ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``,
its oracle, but each container of scalars is one C encoder call whose item
separator is its depth's line break.  Other input goes whole to the stdlib.
"""

import json
from json import encoder as _stdlib

_SCALARS = frozenset((str, int, float, bool, type(None)))
_ROWS = frozenset((list, tuple))
_encoders: dict = {}  # one C encoder per depth (TypeError if C is missing)


def _flat(obj, depth: int) -> str:
    """``obj`` with its items separated by the line break of ``depth``."""
    if depth not in _encoders:  # the None default is never called
        _encoders[depth] = _stdlib.c_make_encoder(
            None, None, _stdlib.encode_basestring_ascii, None, ": ",
            ",\n" + "  " * depth, True, False, True,
        )
    return "".join(_encoders[depth](obj, 0))


def _write(obj, depth: int, out: list) -> None:
    kind = type(obj)
    if kind in _SCALARS or (kind is dict or kind in _ROWS) and not obj:
        out.append(_flat(obj, 0))
        return
    if kind is not dict and kind not in _ROWS:
        raise TypeError  # the stdlib decides
    # Encoded strings hold no raw line break, so the C text of rows splits
    # at "],<pad2>[" and that of scalars at ",<pad>".
    outer = "\n" + "  " * depth
    pad = outer + "  "
    if _SCALARS.issuperset(map(type, obj.values() if kind is dict else obj)):
        text = _flat(obj, depth + 1)
        out += (text[0], pad, text[1:-1], outer, text[-1])
    elif kind is not dict and all(
        type(row) in _ROWS and row and _SCALARS.issuperset(map(type, row))
        for row in obj
    ):
        pad2 = pad + "  "
        text = _flat(obj, depth + 2).replace(
            "]," + pad2 + "[", pad + "]," + pad + "[" + pad2
        )
        out += ("[", pad, "[", pad2, text[2:-2], pad, "]", outer, "]")
    else:
        items = sorted(obj.items()) if kind is dict else list(enumerate(obj))
        scalars = [(k, v) for k, v in items if type(v) in _SCALARS]
        scalars = dict(scalars) if kind is dict else [v for _, v in scalars]
        texts = iter(_flat(scalars, depth + 1)[1:-1].split("," + pad))
        sep = "{" + pad if kind is dict else "[" + pad
        for key, value in items:
            out.append(sep)
            sep = "," + pad
            if type(value) in _SCALARS:
                out.append(next(texts))
                continue
            if kind is dict:  # a non-str key raises TypeError here
                out += (_stdlib.encode_basestring_ascii(key), ": ")
            _write(value, depth + 1, out)
        out += (outer, "}" if kind is dict else "]")


def dumps_report(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, faster."""
    out: list = []
    try:
        _write(doc, 0, out)
    except (TypeError, ValueError, RecursionError):
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)
