"""Deterministic file emitters: representation JSON, sweep CSV, circle SVG.

All numbers are serialized with 17 significant digits, so emit -> load ->
emit is byte-identical and loaded matrices reproduce residuals exactly.
One renderer, ``jsontext``, writes both the pretty and the compact JSON;
this module re-exports ``render_json`` and ``render_json_compact``.
Representation documents hold their matrices as complex ndarrays, and
``load_rep_json`` reads its own text back from the nonzero entries.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from itertools import accumulate
from typing import Iterable, Optional, Union

import numpy as np

from .classify import SweepRow
from .errors import InvalidSpec
from .jsontext import _block, _quote, render_json, render_json_compact
from .reps import (
    Family,
    NcTorusPair,
    ReprMatrices,
    ReprSpec,
    ResidualReport,
    nc_torus_reason,
    nc_torus_residuals,
    spec_reason,
    verify_relations,
)

TWO_PI = 2.0 * math.pi


# representation JSON -------------------------------------------------------


def rep_document(m: ReprMatrices, report: Optional[ResidualReport] = None) -> dict:
    """The JSON document (as a dict) for a representation; its matrices are
    dense arrays made from the representation's diagonals."""
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
        "matrices": {"u": m.u, "ap": m.ap, "am": m.am},
        "residuals": {key: float(residuals[key]) for key in sorted(residuals)},
    }


def nc_torus_document(
    u: np.ndarray, v: np.ndarray, n: int, k: int, beta: float, nu: complex
) -> dict:
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


def emit_rep_json(m: Union[ReprMatrices, NcTorusPair],
                  report: Optional[ResidualReport] = None) -> str:
    """The JSON text of a representation or of a clock/shift pair (whose
    document always carries freshly computed residuals)."""
    if isinstance(m, NcTorusPair):
        return render_json(nc_torus_document(m.u, m.v, m.n, m.k, m.beta, m.nu))
    return render_json(rep_document(m, report))


def emit_nc_torus_json(u: np.ndarray, v: np.ndarray, n: int, k: int,
                       beta: float = 0.0, nu: complex = 1.0 + 0.0j) -> str:
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
_KEY = re.compile(r'\n    "(\w+)": \[\n')
# an entry other than [0, 0]: two numbers that float() reads, with no inf or nan
_NUM = r"(-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?)"
_ENTRY = re.compile(rf"\[(?!0, 0\]){_NUM}, {_NUM}\]")


def _band_doc(text: str) -> Optional[dict]:
    """json.loads(text) with each matrix an (n, n, 2) array read from its
    entries other than [0, 0]; None unless text has render_json's layout.

    The header is parsed with the matrices value cut to {}, which with no
    backslash and one '"matrices"' is the top-level value.  The block must
    render itself: with its entries put back to [0, 0] it is zero matrices,
    and each number is written as render_json writes it (finite, never -0).
    """
    start = text.find(_MATRICES) + len(_MATRICES)
    end = text.find("\n  }", start) + 4
    head = text[:start] + "{}" + text[end:]
    if start < len(_MATRICES) or "\\" in head or head.count('"matrices"') != 1:
        return None
    try:
        doc = json.loads(head)
    except (ValueError, RecursionError):
        return None
    n = doc.get("n") if isinstance(doc, dict) and doc.get("matrices") == {} else 0
    if type(n) is not int or not 0 < 8 * n * n <= end - start:
        return None  # an n x n block takes 8 n^2 characters or more
    names = _KEY.findall(text, start, end)
    pieces = _ENTRY.split(text[start:end])  # gap, re, im, gap, re, im, ..., gap
    zeros = _block("[", ["[" + ("[0, 0], " * n)[:-2] + "]"] * n, "]", "    ")
    if "-0" in pieces or "[0, 0]".join(pieces[::3]) != _block(
            "{", [_quote(name) + ": " + zeros for name in names], "}", "  "):
        return None  # not zero matrices around the entries, or a -0
    # an entry's flat position counts the [0, 0] and the entries before it
    index = accumulate([g.count("[0, 0]") + 1 for g in pieces[:-1:3]], initial=-1)
    del pieces[::3]  # re and im of each entry in turn
    parts = list(map(float, pieces))
    if ",".join(pieces) != ("%.17g," * len(parts))[:-1] % tuple(parts):
        return None
    flat = np.zeros(len(names) * n * n, dtype=complex)
    flat.put(list(index)[1:], np.array(parts).view(complex))
    doc["matrices"] = dict(zip(names, flat.view(float).reshape(-1, n, n, 2)))
    return doc


def load_rep_json(text: str) -> Union[ReprMatrices, NcTorusPair]:
    """Read back a representation document emitted by this module.

    Missing or mistyped fields, matrices that are not n x n [re, im] pairs
    and non-finite numbers raise InvalidSpec; then, on the scalars alone, so
    does a document that its builder refuses: a spec failing
    reps.spec_reason, an alpha, beta or eps other than the spec's, or a
    clock/shift pair failing reps.nc_torus_reason.  Entries off the band
    load as they are, for verify to report; _band_doc reads this module's
    own text as json.loads would.
    """
    try:
        doc = isinstance(text, str) and _band_doc(text) or json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidSpec(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidSpec("a representation document is a JSON object")
    family = doc.get("family")
    try:
        fam = Family(family)
    except ValueError:
        raise InvalidSpec(f"unknown representation family {_head(family)}") from None
    n = int(_field(doc, "n", kinds="i"))
    mats = doc["matrices"] if isinstance(doc.get("matrices"), dict) else {}

    def matrix(name: str) -> np.ndarray:
        arr = _field(mats, name, (n, n, 2)).astype(float, copy=False)
        return arr.view(complex)[..., 0]

    nu = complex(*_field(doc, "nu", (2,)).tolist())
    if fam == Family.NC_TORUS:
        k = int(_field(doc, "k", kinds="i"))
        loaded = NcTorusPair(n, k, float(_field(doc, "beta")), nu,
                             matrix("u"), matrix("v"))
        reason = nc_torus_reason(n, k, nu)
    else:
        spec = ReprSpec(
            family=fam,
            R=float(_field(doc, "R")),
            n=n,
            alpha=float(_field(doc, "alpha")),
            beta_prime=float(_field(doc, "beta_prime")),
            k=None if doc.get("k") is None else int(_field(doc, "k", kinds="i")),
            nu=nu,
        )
        loaded = ReprMatrices(spec, matrix("u"), matrix("ap"), matrix("am"))
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

SWEEP_HEADER = (
    "R", "n", "family", "k", "alpha", "beta_lo", "beta_hi", "exists",
    "reject_reason",
)


def _csv_num(x: Optional[float]) -> str:
    if x is None:
        return ""
    if float(x) == 0.0:
        return "0"
    return "%.12g" % float(x)


def emit_sweep_csv(rows: Iterable[SweepRow]) -> str:
    """CSV table of sweep rows; empty optional fields stay blank."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for row in rows:
        writer.writerow([
            _csv_num(row.R),
            str(row.n),
            row.family,
            "" if row.k is None else str(row.k),
            _csv_num(row.alpha),
            _csv_num(row.beta_lo),
            _csv_num(row.beta_hi),
            "true" if row.exists else "false",
            row.reject_reason,
        ])
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
