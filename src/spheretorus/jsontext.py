"""The one JSON renderer: pretty and compact text, 17 significant digits.

Numbers are written with 17 significant digits, so emit -> load -> emit is
byte-identical.  Matrices are complex ndarrays, rendered as rows of
[re, im] pairs; every zero entry is the constant "[0, 0]", so only the
nonzero entries (O(n) of the n^2 in a banded representation) are
formatted.  This module does not import numpy: ndarrays and numpy scalars
are recognised through ``sys.modules``, because until numpy has been
imported no such object can exist.
"""

from __future__ import annotations

import json
import math
import sys
from typing import List, Optional, Union

from .errors import DomainError


def _num_str(x: Union[int, float]) -> str:
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, int):
        return str(int(x))
    # any other number is a numpy scalar, so numpy is loaded
    if not isinstance(x, float) and isinstance(x, sys.modules["numpy"].integer):
        return str(int(x))
    xf = float(x)
    if not math.isfinite(xf):
        raise DomainError(f"cannot serialize non-finite number {xf!r}")
    if xf == 0.0:
        return "0"  # never emit "-0": it would reload as integer zero
    return "%.17g" % xf


def _is_number(v) -> bool:
    if isinstance(v, (int, float)):
        return not isinstance(v, bool)
    np = sys.modules.get("numpy")
    return np is not None and isinstance(v, (np.integer, np.floating))


def _inline_list(lst: list) -> bool:
    if all(_is_number(v) for v in lst):
        return True
    return bool(lst) and all(
        isinstance(v, list) and len(v) == 2 and all(_is_number(e) for e in v)
        for v in lst
    )


def _matrix_rows(mat, sep: str) -> List[str]:
    """Rows of a 2-D array as "[[re, im], ...]" texts; only nonzeros are formatted."""
    np = sys.modules["numpy"]
    arr = np.asarray(mat, dtype=complex)
    nrows, ncols = arr.shape
    zero = "[0" + sep + "0]"
    rows = [[zero] * ncols for _ in range(nrows)]
    r_idx, c_idx = np.nonzero(arr)
    for r, c, v in zip(r_idx.tolist(), c_idx.tolist(), arr[r_idx, c_idx].tolist()):
        rows[r][c] = "[" + _num_str(v.real) + sep + _num_str(v.imag) + "]"
    return ["[" + sep.join(row) + "]" for row in rows]


def _block(open_: str, items: List[str], close: str, pad: Optional[str]) -> str:
    if not items:
        return open_ + close
    if pad is None:
        return open_ + ",".join(items) + close
    inner = ",\n".join(pad + "  " + item for item in items)
    return open_ + "\n" + inner + "\n" + pad + close


def _render(obj, pad: Optional[str]) -> str:
    """JSON text of obj: compact when pad is None, else pretty at that indent."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
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
        items = [json.dumps(str(k)) + colon + _render(v, child)
                 for k, v in obj.items()]
        return _block("{", items, "}", pad)
    if _is_number(obj):  # a numpy scalar
        return _num_str(obj)
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
