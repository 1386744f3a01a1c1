"""Deterministic file emitters: representation JSON, sweep CSV, circle SVG.

All numbers are serialized with 17 significant digits, so emit -> load ->
emit is byte-identical and loaded matrices reproduce residuals exactly.
One renderer, ``jsontext``, writes both the pretty and the compact JSON;
this module re-exports ``render_json`` and ``render_json_compact``.
Representation documents, a clock/shift pair's among them, hold their
matrices as diagonals (``reps._Diags``).  ``load_rep_json`` reads a text in
this module's layout in one pass over its matrices: it builds the band its
header names, and a matrix whose text is byte for byte that band's render
loads as the band, while any other has its nonzero entries parsed straight
into diagonals.  Any other text is read by json.loads.  Neither
path makes an n x n array.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import fields
from itertools import accumulate
from typing import Iterable, Optional, Union

import numpy as np

from .classify import SweepRow
from .errors import InvalidSpec
from .jsontext import _matrix, _quote, render_json, render_json_compact
from .reps import (
    Family,
    NcTorusPair,
    ReprMatrices,
    ReprSpec,
    ResidualReport,
    build,
    nc_torus_pair,
    nc_torus_reason,
    nc_torus_residuals,
    spec_reason,
    verify_relations,
    _Diags,
)

TWO_PI = 2.0 * math.pi


# representation JSON -------------------------------------------------------


def rep_document(m: ReprMatrices, report: Optional[ResidualReport] = None) -> dict:
    """The JSON document (as a dict) for a representation; its matrices are
    the representation's diagonals, which the renderer writes as n x n."""
    spec = m.spec
    residuals = (verify_relations(m) if report is None else report).residuals
    return {
        "family": spec.family.value,
        "R": float(spec.R),
        "n": int(spec.n),
        "alpha": float(spec.alpha),
        "beta_prime": float(spec.beta_prime),
        "beta": float(spec.beta),
        "k": None if spec.k is None else int(spec.k),
        "nu": [float(spec.nu.real), float(spec.nu.imag)],
        "eps": float(spec.eps),
        "matrices": dict(zip(("u", "ap", "am"), m.diags)),
        "residuals": {key: float(residuals[key]) for key in sorted(residuals)},
    }


def nc_torus_document(u, v, n: int, k: int, beta: float, nu: complex) -> dict:
    """A clock/shift pair's document (as a dict), u and v as diagonals."""
    u, v = _Diags.of(u), _Diags.of(v)
    residuals = nc_torus_residuals(u, v, n, k)
    return {
        "family": Family.NC_TORUS.value,
        "n": int(n),
        "k": int(k),
        "beta": float(beta),
        "nu": [float(complex(nu).real), float(complex(nu).imag)],
        "matrices": {"u": u, "v": v},
        "residuals": {key: float(residuals[key]) for key in sorted(residuals)},
    }


def document(m: Union[ReprMatrices, NcTorusPair],
             report: Optional[ResidualReport] = None) -> dict:
    """A representation's document, or a clock/shift pair's (report unused)."""
    if isinstance(m, NcTorusPair):
        return nc_torus_document(*m.diags, m.n, m.k, m.beta, m.nu)
    return rep_document(m, report)


def emit_rep_json(m: Union[ReprMatrices, NcTorusPair],
                  report: Optional[ResidualReport] = None) -> str:
    """The JSON text of ``document(m, report)``."""
    return render_json(document(m, report))


def emit_nc_torus_json(u, v, n: int, k: int, beta: float = 0.0,
                       nu: complex = 1.0 + 0.0j) -> str:
    return render_json(nc_torus_document(u, v, n, k, beta, nu))


def _head(value, width: int = 40) -> str:
    """repr(value)[:width], without the whole repr of a long list or dict."""
    if not isinstance(value, (list, dict)):
        return repr(value)[:width]
    pairs = isinstance(value, dict)
    out = "{" if pairs else "["
    for item in value.items() if pairs else value:
        if len(out) >= width:
            break
        rest = width - len(out)  # a child cut short fills out past width
        out += (", " if len(out) > 1 else "") + (
            _head(item[0], rest) + ": " + _head(item[1], rest) if pairs
            else _head(item, rest))
    return (out + ("}" if pairs else "]"))[:width]


def _field(doc: dict, key: str, shape: tuple = (), kinds: str = "iuf") -> np.ndarray:
    """doc[key] as an array of that shape and dtype kind, with finite entries."""
    value = doc.get(key)
    if not shape and (type(value) is int and -2**63 <= value < 2**63 or
                      type(value) is float and "f" in kinds and math.isfinite(value)):
        return value  # passes the checks below as it is
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None  # ragged nesting
    if arr is None or arr.shape != shape or arr.dtype.kind not in kinds:
        want = (f"an array of shape {shape}" if shape
                else "an integer" if kinds == "i" else "a number")
        raise InvalidSpec(f"field {key!r} must be {want}, got {_head(value)}")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise InvalidSpec(f"field {key!r} holds a non-finite number")
    return arr


_MATRICES = '\n  "matrices": '
_TAIL = '\n  },\n  "residuals": {'
_KEY = re.compile(r'\n    "(\w+)": \[\n')
# an entry other than [0, 0]: two numbers that float() reads, with no inf or nan
_NUM = r"(-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?)"
_ENTRY = re.compile(rf"\[(?!0, 0\]){_NUM}, {_NUM}\]")


def _header(text: str) -> Optional[tuple]:
    """(doc, start, end): json.loads(text) with the matrices value,
    text[start:end], cut to {}; None unless text has render_json's layout
    there and an n that fits.  The block ends where the residuals object,
    the document's last few hundred bytes, begins: the block itself is not
    read.  With no backslash and one '"matrices"' left, and that key on a
    line of its own, the {} is the top-level value."""
    start = text.find(_MATRICES) + len(_MATRICES)
    end = text.rfind(_TAIL, start) + 4
    head = text[:start] + "{}" + text[end:]
    if start < len(_MATRICES) or end < 4 or "\\" in head or \
            head.count('"matrices"') != 1:
        return None
    try:
        doc = json.loads(head)
    except (ValueError, RecursionError):
        return None
    n = doc.get("n") if isinstance(doc, dict) and doc.get("matrices") == {} else 0
    if type(n) is not int or not 0 < 8 * n * n <= end - start:
        return None  # an n x n block takes 8 n^2 characters or more
    return doc, start, end


def _read_matrices(text: str, doc: dict, start: int, end: int,
                   band: dict) -> Optional[dict]:
    """The matrices of text[start:end], each a ``_Diags``, read one
    "name": value at a time; None unless the block renders itself: "{" or
    "," and the quoted name before each value, and the block's end after
    the last.  A value that is byte for byte the render of band[name] is
    that band matrix, as the entries read it: ascending offsets, each with
    a nonzero entry, no -0.0 part.  Any other value is filled from its
    entries other than [0, 0], and must be a zero matrix with those entries
    put back to [0, 0], each number written as render_json writes it
    (finite, never -0)."""
    n, mats, at, zeros = doc["n"], {}, start, None
    while at < end - 4:  # a value never runs past the block's "\n  }"
        key = _KEY.match(text, at + 1, end)
        if not key or text[at:key.end() - 2] != (
                ("," if mats else "{") + "\n    " + _quote(key[1]) + ": "):
            return None
        name, value, stop = key[1], key.end() - 2, None
        if name in band:
            d = band[name]  # zero off the matrix, as every _Diags is
            d = _Diags(n, {a: v + 0.0 for a, v in sorted(d.d.items()) if v.any()})
            rendered = _matrix(d, "    ")
            if text.startswith(rendered, value):
                stop = value + len(rendered)
            del rendered  # before the next render: one matrix's text at a time
        if stop is None:
            after = _KEY.search(text, value + 2, end)
            stop = after.start() - 1 if after else end - 4
            zeros = zeros or _matrix(_Diags(n, {}), "    ")
            pieces = _ENTRY.split(text[value:stop])  # gap, re, im, ..., gap
            if "-0" in pieces or "[0, 0]".join(pieces[::3]) != zeros:
                return None  # not a zero matrix around the entries, or a -0
            # an entry's flat position counts the [0, 0] and entries before it
            index = accumulate([g.count("[0, 0]") + 1 for g in pieces[:-1:3]],
                               initial=-1)
            del pieces[::3]  # re and im of each entry in turn
            parts = list(map(float, pieces))
            if ",".join(pieces) != ("%.17g," * len(parts))[:-1] % tuple(parts):
                return None
            d = _Diags.at(n, np.fromiter(index, np.intp)[1:],
                          np.array(parts).view(complex))
        mats[name], at = d, stop
    return mats


def _fields(doc: dict) -> tuple:
    """(n, spec) of a document, spec a clock/shift pair's (n, k, beta, nu)
    for nc-torus; a missing, mistyped or refused field raises InvalidSpec."""
    family = doc.get("family")
    try:
        fam = Family(family)
    except ValueError:
        raise InvalidSpec(f"unknown representation family {_head(family)}") from None
    n = int(_field(doc, "n", kinds="i"))
    nu = complex(*_field(doc, "nu", (2,)).tolist())
    if fam == Family.NC_TORUS:
        k, beta = int(_field(doc, "k", kinds="i")), float(_field(doc, "beta"))
        return n, (n, k, beta, nu)
    return n, ReprSpec(
        family=fam,
        R=float(_field(doc, "R")),
        n=n,
        alpha=float(_field(doc, "alpha")),
        beta_prime=float(_field(doc, "beta_prime")),
        k=None if doc.get("k") is None else int(_field(doc, "k", kinds="i")),
        nu=nu,
    )


def load_rep_json(text: str) -> Union[ReprMatrices, NcTorusPair]:
    """Read back a representation document emitted by this module.

    Missing or mistyped fields, matrices that are not n x n [re, im] pairs
    and non-finite numbers raise InvalidSpec; then, on the scalars alone, so
    does a document that its builder refuses: a spec failing
    reps.spec_reason, an alpha, beta or eps other than the spec's, or a
    clock/shift pair failing reps.nc_torus_reason.

    A text in this module's layout is read in one pass, ``_read_matrices``:
    the header is parsed once, build (nc_torus_pair for a clock/shift pair)
    makes its band, and each matrix whose text is byte for byte that band's
    render loads as the band; any other matrix is read from its entries
    other than [0, 0] as json.loads would read it, straight into diagonals.
    Any other text goes through json.loads and dense arrays.  Entries off
    the band load as they are, for verify to report.  spec_reason runs
    once, inside build, unless json.loads must read a text whose header was
    parsed.
    """
    head = _header(text) if isinstance(text, str) else None
    known = reason = mats = None  # known: (n, spec) read off the header
    if head is not None:
        doc = head[0]
        try:
            n, spec = known = _fields(doc)
            band, reason = (dict(zip(("u", "ap", "am"), build(spec).diags))
                            if isinstance(spec, ReprSpec) else
                            dict(zip("uv", nc_torus_pair(*spec).diags))), ""
        except InvalidSpec as exc:  # a builder's reason is its rule's
            band, reason = {}, str(exc) if known else None
        mats = _read_matrices(text, *head, band)
    if mats:
        doc["matrices"] = mats
    else:
        known = reason = None  # json.loads may read other fields
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InvalidSpec(f"not a JSON document: {exc}") from None
        if not isinstance(doc, dict):
            raise InvalidSpec("a representation document is a JSON object")
    n, spec = known or _fields(doc)
    mats = doc["matrices"] if isinstance(doc.get("matrices"), dict) else {}

    def matrix(name: str) -> Union[_Diags, np.ndarray]:
        if type(mats.get(name)) is _Diags:  # read from the band or the scan
            return mats[name]
        arr = _field(mats, name, (n, n, 2)).astype(float, copy=False)
        return arr.view(complex)[..., 0]

    if not isinstance(spec, ReprSpec):
        loaded = NcTorusPair(*spec, matrix("u"), matrix("v"))
        if reason is None:
            reason = nc_torus_reason(n, spec[1], spec[3])
    else:
        loaded = ReprMatrices(spec, matrix("u"), matrix("ap"), matrix("am"))
        if reason is None:
            reason = spec_reason(spec)
        # the fields derived from the spec must be the ones build writes
        for name in ("alpha", "beta", "eps"):
            got, want = float(_field(doc, name)), getattr(spec, name)
            if not reason and got != want:
                reason = f"{name} must be {want!r}, got {got!r}"
    if reason:
        raise InvalidSpec(reason)
    return loaded


# sweep CSV -----------------------------------------------------------------

SWEEP_HEADER = tuple(f.name for f in fields(SweepRow))


def _csv_cell(x) -> str:
    """A CSV cell: a float "0" or to 12 significant digits, None blank, a
    bool true or false, and an int or str as ``str()``."""
    if isinstance(x, float):  # most cells, so tested first
        return "0" if x == 0.0 else "%.12g" % x
    if x is None:
        return ""
    if isinstance(x, bool):  # before str(), which prints True
        return "true" if x else "false"
    return str(x)


def emit_sweep_csv(rows: Iterable[SweepRow]) -> str:
    """CSV table of sweep rows; empty optional fields stay blank."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    # a dataclass instance's __dict__ holds its fields in declaration order,
    # the order of SWEEP_HEADER
    writer.writerows(map(_csv_cell, vars(row).values()) for row in rows)
    return buf.getvalue()


# circle-diagram SVG --------------------------------------------------------

_CENTER = 220.0
_RADIUS = 200.0


def _pt(theta: float) -> str:
    x = _CENTER + _RADIUS * math.cos(theta)
    y = _CENTER - _RADIUS * math.sin(theta)
    return f"{x:.3f},{y:.3f}"


def emit_diagram_svg(spec: ReprSpec) -> str:
    """Circle diagram: unit circle, forbidden wedge, vertex polygon, dots.

    Vertices sit at angles beta' + m*alpha; the forbidden sector is the
    wedge about angle pi with half-width delta/2, cos(delta/2) =
    R*cos(alpha/2), drawn whenever R <= sec(alpha/2).  Sphere chains are
    joined by an open polyline, torus cycles by a closed polygon.
    """
    R, n, alpha, bp = spec.R, spec.n, spec.alpha, spec.beta_prime
    closed = spec.family in (Family.T2, Family.T2WINDOW)
    lo = -spec.M if spec.family == Family.T2WINDOW else 0

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="440" height="440" '
        'viewBox="0 0 440 440">',
        f'<circle cx="{_CENTER:.3f}" cy="{_CENTER:.3f}" r="{_RADIUS:.3f}" '
        'fill="none" stroke="#444444" stroke-width="1.5"/>',
    ]

    c = R * math.cos(0.5 * alpha)
    if c <= 1.0:
        delta = 2.0 * math.acos(max(c, -1.0))
        if delta >= TWO_PI - 1e-12:
            parts.append(
                f'<circle cx="{_CENTER:.3f}" cy="{_CENTER:.3f}" '
                f'r="{_RADIUS:.3f}" fill="#f3d6d6" stroke="none"/>'
            )
        else:
            start = _pt(math.pi - 0.5 * delta)
            end = _pt(math.pi + 0.5 * delta)
            large = 1 if delta > math.pi else 0
            parts.append(
                f'<path d="M {_CENTER:.3f},{_CENTER:.3f} L {start} '
                f'A {_RADIUS:.3f},{_RADIUS:.3f} 0 {large} 0 {end} Z" '
                'fill="#f3d6d6" stroke="none"/>'
            )

    points = [_pt(bp + m * alpha) for m in range(lo, lo + n)]
    tag = "polygon" if closed else "polyline"
    parts.append(
        f'<{tag} points="{" ".join(points)}" fill="none" stroke="#1f77b4" '
        'stroke-width="2"/>'
    )
    for point in points:
        x, y = point.split(",")
        parts.append(f'<circle cx="{x}" cy="{y}" r="4.000" fill="#d62728"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
