"""Deterministic file emitters: representation JSON, sweep CSV, circle SVG.

All numbers are serialized with 17 significant digits, so emit -> load ->
emit is byte-identical and loaded matrices reproduce residuals exactly.
One renderer, ``jsontext``, writes both the pretty and the compact JSON;
this module re-exports ``render_json`` and ``render_json_compact``.
Representation documents hold their matrices as complex ndarrays.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Iterable, Optional, Union

import numpy as np

from .classify import SweepRow
from .errors import InvalidSpec
from .jsontext import render_json, render_json_compact
from .reps import (
    Family,
    NcTorusPair,
    ReprMatrices,
    ReprSpec,
    ResidualReport,
    nc_torus_residuals,
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


def _field(doc: dict, key: str, shape: tuple = (), kinds: str = "iuf") -> np.ndarray:
    """doc[key] as an array of that shape and dtype kind, with finite entries."""
    try:
        arr = np.array(doc.get(key))
    except ValueError:
        arr = None  # ragged nesting
    if arr is None or arr.shape != shape or arr.dtype.kind not in kinds:
        want = (f"an array of shape {shape}" if shape
                else "an integer" if kinds == "i" else "a number")
        raise InvalidSpec(f"field {key!r} must be {want}, got {doc.get(key)!r:.40}")
    if not np.isfinite(arr).all():
        raise InvalidSpec(f"field {key!r} holds a non-finite number")
    return arr


def load_rep_json(text: str) -> Union[ReprMatrices, NcTorusPair]:
    """Read back a representation document emitted by this module.

    Missing or mistyped fields, matrices that are not n x n [re, im] pairs
    and non-finite numbers raise InvalidSpec.  Entries off the band load
    as they are, so that verify reports them in the residuals.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidSpec(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidSpec("a representation document is a JSON object")
    family = doc.get("family")
    try:
        fam = Family(family)
    except ValueError:
        raise InvalidSpec(f"unknown representation family {family!r:.40}") from None
    n = int(_field(doc, "n", kinds="i"))
    mats = doc["matrices"] if isinstance(doc.get("matrices"), dict) else {}

    def matrix(name: str) -> np.ndarray:
        return _field(mats, name, (n, n, 2)).astype(float).view(complex)[..., 0]

    nu = complex(*_field(doc, "nu", (2,)).tolist())
    if fam == Family.NC_TORUS:
        k = int(_field(doc, "k", kinds="i"))
        return NcTorusPair(n, k, float(_field(doc, "beta")), nu,
                           matrix("u"), matrix("v"))
    spec = ReprSpec(
        family=fam,
        R=float(_field(doc, "R")),
        n=n,
        alpha=float(_field(doc, "alpha")),
        beta_prime=float(_field(doc, "beta_prime")),
        k=None if doc.get("k") is None else int(_field(doc, "k", kinds="i")),
        nu=nu,
        M=(n - 1) // 2 if fam == Family.T2WINDOW else None,
        # keep the stored deformation value authoritative so that
        # emit -> load -> emit is byte-identical
        eps_value=float(_field(doc, "eps")),
    )
    if spec.n != n:
        raise InvalidSpec(f"window dimension must be odd, got n={n}")
    return ReprMatrices(spec, matrix("u"), matrix("ap"), matrix("am"))


# sweep CSV -----------------------------------------------------------------

SWEEP_HEADER = (
    "R", "n", "family", "k", "alpha", "beta_lo", "beta_hi", "exists",
    "reject_reason",
)


def _csv_num(x: Optional[float]) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
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
    closed = spec.family in (Family.T2, Family.T2WINDOW, Family.NC_TORUS)
    if spec.family == Family.T2WINDOW:
        half = (n - 1) // 2
        ms = range(-half, half + 1)
    else:
        ms = range(n)

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

    points = [_pt(bp + m * alpha) for m in ms]
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
