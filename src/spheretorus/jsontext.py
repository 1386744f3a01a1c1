"""The one JSON renderer: pretty and compact text, 17 significant digits.

Numbers are written with 17 significant digits, so emit -> load -> emit is
byte-identical.  A matrix is, duck-typed, an n x n object that lists its
nonzero entries by flat position (``reps._Diags``), rendered as rows of
[re, im] pairs.  Its text is the zero matrix's, made by string repetition,
with the nonzero entries (O(n) of the n^2 in a banded representation),
formatted in one batch, spliced in at offsets computed from their rows and
columns.  Every other number is a Python int or float.  This module imports
neither numpy nor ``reps``: it takes numpy from ``sys.modules``, because
until ``reps`` has loaded it no matrix can exist.
"""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional, Union

from .errors import DomainError


def _num_str(x: Union[int, float]) -> str:
    if isinstance(x, int):
        return str(int(x))
    xf = float(x)
    if not math.isfinite(xf):
        raise DomainError(f"cannot serialize non-finite number {xf!r}")
    if xf == 0.0:
        return "0"  # never emit "-0": it would reload as integer zero
    return "%.17g" % xf


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _inline_list(lst: list) -> bool:
    if all(_is_number(v) for v in lst):
        return True
    return bool(lst) and all(
        isinstance(v, list) and len(v) == 2 and all(_is_number(e) for e in v)
        for v in lst
    )


def _matrix(mat, pad: Optional[str]) -> str:
    """The text of an n x n matrix: an object with a size ``n`` whose
    ``entries()`` gives the flat positions (ascending) and the values of its
    nonzero entries.  Every "[0, 0]" has one width, so the zero matrix's text
    is made whole and the formatted entries are spliced in at the offsets
    their rows and columns give."""
    np = sys.modules["numpy"]
    n, (index, values) = mat.n, mat.entries()
    sep = "," if pad is None else ", "
    indent = "" if pad is None else "\n" + pad + "  "  # as _block writes
    zero = "[0" + sep + "0]"
    row = "[" + sep.join([zero] * n) + "]"
    text = _block("[", [row] * n, "]", pad)
    if not len(index):
        return text
    parts = values.view(float) + 0.0  # -0.0 becomes 0.0
    for bad in parts[~np.isfinite(parts)][:1].tolist():
        _num_str(bad)  # raises DomainError
    # "[" and the indent open the block, "," and the indent part its rows,
    # "[" opens a row and each cell before the entry is a zero and sep
    rows, cols = np.divmod(index, n)
    at = rows * (len(row) + 1 + len(indent)) + cols * (len(zero) + len(sep))
    at += 2 + len(indent)
    ends, at = (at + len(zero)).tolist(), at.tolist()
    # all entries formatted by one %, parted at NULs, which no number holds
    entry = "[%.17g" + sep + "%.17g]\0"
    pieces = [None] * (2 * len(at) + 1)
    pieces[::2] = [text[a:b] for a, b in zip([0] + ends, at + [len(text)])]
    pieces[1::2] = (entry * len(at) % tuple(parts.tolist())).split("\0")[:-1]
    return "".join(pieces)


def _block(open_: str, items: List[str], close: str, pad: Optional[str]) -> str:
    if not items:
        return open_ + close
    if pad is None:
        return open_ + ",".join(items) + close
    indent = "\n" + pad + "  "
    return f"{open_}{indent}{(',' + indent).join(items)}\n{pad}{close}"


def _render(obj, pad: Optional[str]) -> str:
    """JSON text of obj: compact when pad is None, else pretty at that indent."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (int, float)):  # not a bool: those returned above
        return _num_str(obj)
    sep = "," if pad is None else ", "
    child = None if pad is None else pad + "  "
    if isinstance(obj, list):
        items = [_render(v, child) for v in obj]
        if pad is not None and _inline_list(obj):
            return "[" + sep.join(items) + "]"
        return _block("[", items, "]", pad)
    if isinstance(obj, dict):
        colon = ":" if pad is None else ": "
        items = [_quote(str(k)) + colon + _render(v, child)
                 for k, v in obj.items()]
        return _block("{", items, "}", pad)
    if hasattr(obj, "entries"):
        return _matrix(obj, pad)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(obj) -> str:
    """Pretty, deterministic JSON text (17 significant digits, final newline)."""
    return _render(obj, "") + "\n"


def render_json_compact(obj) -> str:
    """Single-line JSON with no whitespace, same number formatting."""
    return _render(obj, None)
