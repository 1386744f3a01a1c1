"""The one JSON renderer: pretty and compact text, 17 significant digits.

Numbers are written with 17 significant digits, so emit -> load -> emit is
byte-identical.  Matrices are complex ndarrays, rendered as rows of
[re, im] pairs; a run of zero entries is "[0, 0]" repeated, so only the
nonzero entries (O(n) of the n^2 in a banded representation) are
formatted.  Every other number is a Python int or float.  This module does
not import numpy: an ndarray is recognised through ``sys.modules``, because
until numpy has been imported none can exist.
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


def _matrix_rows(mat, sep: str) -> List[str]:
    """Rows of a 2-D array as "[[re, im], ...]" texts; only nonzeros are
    formatted, and a run of zeros is "[0, 0]" repeated."""
    np = sys.modules["numpy"]
    arr = np.asarray(mat, dtype=complex)
    nrows, ncols = arr.shape
    index = np.flatnonzero(arr)
    parts = arr.ravel()[index].view(float) + 0.0  # -0.0 becomes 0.0
    for bad in parts[~np.isfinite(parts)][:1].tolist():
        _num_str(bad)  # raises DomainError
    parts = parts.tolist()
    zero, entry = "[0" + sep + "0]" + sep, "[%.17g" + sep + "%.17g]" + sep
    lines: List[list] = [[] for _ in range(nrows)]
    ends = [0] * nrows
    for i, re_, im in zip(index.tolist(), parts[::2], parts[1::2]):
        r, c = divmod(i, ncols)
        lines[r] += (zero * (c - ends[r]), entry % (re_, im))
        ends[r] = c + 1
    return ["[" + ("".join(line) + zero * (ncols - end))[:-len(sep)] + "]"
            for line, end in zip(lines, ends)]


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
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
        return _block("[", _matrix_rows(obj, sep), "]", pad)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(obj) -> str:
    """Pretty, deterministic JSON text (17 significant digits, final newline)."""
    return _render(obj, "") + "\n"


def render_json_compact(obj) -> str:
    """Single-line JSON with no whitespace, same number formatting."""
    return _render(obj, None)
