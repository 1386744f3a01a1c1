"""The one JSON renderer: pretty and compact text, 17 significant digits.

Numbers are written with 17 significant digits, so emit -> load -> emit is
byte-identical.  ``_render`` walks a document once and checks every number;
each matrix stands as a NUL in the text it returns, the maker of its pieces
set aside.  ``render_pieces`` gives out that text cut at the NULs and each
matrix's pieces, made when they are reached, so one matrix's text is held
at a time; ``render_json`` joins them once.  A matrix is, duck-typed, an
n x n object with a size ``n`` and a dict ``d`` of diagonals, ``d[a][i]``
at row i and column i + a (``reps._Diags``), rendered as rows of [re, im]
pairs: the zero matrix's text with the nonzero entries, formatted in one
batch, spliced in at offsets from their rows.  Every other number is a
Python int or float.  This module imports neither numpy nor ``reps``: it
takes numpy from ``sys.modules``, because until ``reps`` has loaded it no
matrix can exist.
"""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterator, List, Optional, Union

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


def _pieces(mat, pad: Optional[str]) -> Callable[[], List[str]]:
    """Check the entries of the n x n matrix mat, and return the maker of
    its text's pieces: the zero matrix's text cut at the entries, and the
    entries.  Every "[0, 0]" has one width, so an entry's offset follows
    from its row and diagonal.  Values past a diagonal's end are ignored."""
    np = sys.modules["numpy"]
    n, sep = mat.n, "," if pad is None else ", "
    indent = "" if pad is None else "\n" + pad + "  "  # as _block writes
    zero = "[0" + sep + "0]"
    row = "[" + sep.join([zero] * n) + "]"
    # "[" and the indent open the block, "," and the indent part its rows,
    # "[" opens a row and each cell before the entry is a zero and sep
    cell, line = len(zero) + len(sep), len(row) + 1 + len(indent)
    at, values = [np.zeros(0, np.intp)], [np.zeros(0, complex)]  # no entry
    for a, v in mat.d.items():
        lo = max(0, -a)  # the rows i with 0 <= i + a < n
        rows = np.flatnonzero(v[lo:max(lo, min(n, n - a))]) + lo
        if len(rows):
            at.append(rows * (line + cell) + (a * cell + 2 + len(indent)))
            values.append(v[rows])
    if len(at) > 2:  # entries on two diagonals or more: row-major order
        at, values = np.concatenate(at), np.concatenate(values)
        order = np.argsort(at, kind="stable")
        at, values = [at[order]], [values[order]]
    at, parts = at[-1], values[-1].astype(complex, copy=False).view(float) + 0.0
    if not np.isfinite(parts).all():  # the + 0.0 made each -0.0 a 0.0
        _num_str(parts[~np.isfinite(parts)][0])  # raises DomainError
    # all entries formatted by one %, parted at NULs, which no number holds
    entries = (("[%.17g" + sep + "%.17g]\0") * len(at)
               % tuple(parts.tolist())).split("\0")[:-1]
    starts, stops = [0] + (at + len(zero)).tolist(), at.tolist() + [None]

    def make() -> List[str]:
        text = _block("[", [row] * n, "]", pad)  # freed on return
        pieces = [None] * (2 * len(entries) + 1)
        pieces[::2] = [text[a:b] for a, b in zip(starts, stops)]
        pieces[1::2] = entries
        return pieces

    return make


def _matrix(mat, pad: Optional[str]) -> str:
    """The text of an n x n matrix (see ``_pieces``)."""
    return "".join(_pieces(mat, pad)())


def _block(open_: str, items: List[str], close: str, pad: Optional[str]) -> str:
    if not items:
        return open_ + close
    if pad is None:
        return open_ + ",".join(items) + close
    indent = "\n" + pad + "  "
    return f"{open_}{indent}{(',' + indent).join(items)}\n{pad}{close}"


def _render(obj, pad: Optional[str], later: list) -> str:
    """JSON text of obj: compact when pad is None, else pretty at that
    indent.  A matrix is checked here and written as a NUL, which no other
    JSON text holds (``_quote`` escapes it); the maker of its pieces goes
    to later."""
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
        items = [_render(v, child, later) for v in obj]
        if pad is not None and _inline_list(obj):
            return "[" + sep.join(items) + "]"
        return _block("[", items, "]", pad)
    if isinstance(obj, dict):
        colon = ":" if pad is None else ": "
        items = [_quote(str(k)) + colon + _render(v, child, later)
                 for k, v in obj.items()]
        return _block("{", items, "}", pad)
    if hasattr(obj, "d"):
        later.append(_pieces(obj, pad))
        return "\0"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _made(texts: List[str], later: list) -> Iterator[str]:
    for text, make in zip(texts, later):
        yield text
        yield from make()  # a matrix's pieces, made when they are reached
    yield texts[-1]


def render_pieces(obj, pad: Optional[str] = "") -> Iterator[str]:
    """``render_json(obj)`` (``render_json_compact``'s if pad is None) in
    pieces to write as they come; every number is checked before the first."""
    later: list = []
    text = _render(obj, pad, later) + ("" if pad is None else "\n")
    return _made(text.split("\0"), later)


def render_json(obj) -> str:
    """Pretty, deterministic JSON text (17 significant digits, final newline)."""
    return "".join(render_pieces(obj))


def render_json_compact(obj) -> str:
    """Single-line JSON with no whitespace, same number formatting."""
    return "".join(render_pieces(obj, None))
