"""Explicit matrix representations of every classified family.

All families share one scaffold: a diagonal unitary ``u`` with eigenvalues
e^{i(beta + m*alpha)} and a ladder pair ``ap``/``am`` whose couplings are
square roots of

    |C|^2(theta') = sec(alpha/2) * cos(theta') + R,   theta' = beta' + m*alpha,

with beta' = beta - alpha/2.  A sphere-type chain starts and ends on zeros
of |C|^2; a torus-type cycle of length n closes when n*alpha is a multiple
of 2*pi and carries a free wrap phase nu; an irrational alpha gives an
infinite lattice of which a finite window is materialized.  Two reference
models (the standard fuzzy sphere and the finite noncommutative torus) are
included as independent cross-checks of the scaffold.

One constructor, ``_band``, fills that scaffold for every family from its
eigen-angles, its coupling vector and an optional wrap corner.  Each spec
family's existence rule is stated once, in ``spec_reason`` (R_eps from the
region table; ``_repeat`` for a window); ``build(spec)`` applies it and makes
all five (``build_s2``, ``build_t2_*`` name it too), and ``verify_relations``
holds every relation table: the deformed relations, the fuzzy sphere's su(2)
relations, or the Weyl relation of an ``NcTorusPair``.  A ``ReprMatrices``
(u, ap, am) and an ``NcTorusPair`` (u, v) store their matrices once, as
nonzero diagonals (``_Diags``, the DIA format) that residuals,
``rep_evaluate`` and ``check_irreducible`` use in O(n * diagonals), and
that documents are rendered from, diagonal by diagonal, and loaded into
by flat position (``_Diags.at``), with no n x n array.  Dense input (a
document that json.loads reads, an edited matrix) is read once, off-band
entries included; ``.u``, ``.ap``, ``.am`` and ``.v`` are dense copies.
Products and norms sum in offset order and ``rep_evaluate`` in (r, s) key
order, so no dict insertion order reaches a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .algebra import ContextMismatch, NormalForm
# the scalar chain core lives in the numpy-free classify; re-exported here
from .classify import (
    Family,
    alpha_of_epsilon,
    c_squared,
    chain_reason,
    classify_region,
    cycle_reason,
    epsilon_of_alpha,
    minimal_reason,
)
from .errors import InvalidSpec

TWO_PI = 2.0 * math.pi
IRREDUCIBLE_TOL = 2.0 ** -43  # 512 ulps of 1: closer eigenvalues are equal


def _wrap_half_open(x: float, lo: float, period: float = TWO_PI) -> float:
    """Wrap x into the half-open interval (lo, lo + period]."""
    y = x - period * math.floor((x - lo) / period)
    if y == lo:
        y += period
    return y


@dataclass(frozen=True)
class ReprSpec:
    """Parameters selecting one representation, of any family but nc-torus.

    ``n`` is the dimension; a T2WINDOW's is odd and >= 3, with half-width
    ``M`` = (n - 1) // 2 (a given ``M`` sets n = 2*M + 1).  For a finite
    torus ``alpha`` is derived from ``k`` as 2*pi*k/n.  ``beta_prime`` is
    normalized into (-2*pi, 0] for sphere chains and (pi - 2*pi/n, pi] for
    finite-torus cycles.
    """

    family: Family
    R: float
    n: int
    alpha: float
    beta_prime: float
    k: Optional[int] = None
    nu: complex = 1.0 + 0.0j
    M: Optional[int] = None

    def __post_init__(self):
        set_ = object.__setattr__
        try:
            set_(self, "family", Family(self.family))
        except ValueError:
            raise InvalidSpec(f"unknown family {self.family!r}") from None
        if self.family == Family.NC_TORUS:
            raise InvalidSpec("nc-torus has no spec; nc_torus_pair makes it")
        if self.family == Family.T2 and self.k is not None:
            set_(self, "alpha", TWO_PI * self.k / self.n)
        if self.family == Family.T2WINDOW:
            if self.M is not None:
                set_(self, "n", 2 * self.M + 1)
            if self.n % 2 == 0 or self.n < 3:
                raise InvalidSpec(
                    f"window dimension must be odd and >= 3, got {self.n}")
            set_(self, "M", (self.n - 1) // 2)
        if not 0.0 < self.alpha < math.pi:
            raise InvalidSpec(f"alpha must lie in (0, pi), got {self.alpha!r}")
        if self.n < 1:
            raise InvalidSpec(f"dimension must be positive, got {self.n!r}")
        for name, x in (("R", self.R), ("beta_prime", self.beta_prime)):
            if not math.isfinite(x):
                raise InvalidSpec(f"{name} must be a finite number, got {x!r}")
        if self.family in (Family.S2MIN, Family.S2NONMIN):
            set_(self, "beta_prime", _wrap_half_open(self.beta_prime, -TWO_PI))
        elif self.family == Family.T2:
            # a cycle's beta_prime is defined modulo the point spacing 2*pi/n
            period = TWO_PI / self.n
            set_(self, "beta_prime",
                 _wrap_half_open(self.beta_prime, math.pi - period, period))
        nu = complex(self.nu)
        mag = abs(nu)
        if not abs(mag - 1.0) <= 1e-9:  # a NaN |nu| fails this test too
            raise InvalidSpec(f"wrap phase must be unimodular, |nu| = {mag!r}")
        set_(self, "nu", nu)
        if self.family == Family.FUZZY_SPHERE and self.n < 2:
            raise InvalidSpec(f"fuzzy sphere needs n >= 2, got {self.n}")

    @property
    def eps(self) -> float:
        # a fuzzy sphere's angle is derived from its eps, and
        # tan(2*atan(e)/2) can lose the last ulp
        if self.family == Family.FUZZY_SPHERE:
            return 2.0 / math.sqrt(self.n * self.n - 1.0)
        return math.tan(0.5 * self.alpha)

    @property
    def beta(self) -> float:
        return self.beta_prime + 0.5 * self.alpha


class ReprMatrices:
    """A spec with its u, ap and am as ``_Diags``; any other matrix is
    read with ``_Diags.of``."""

    __slots__ = ("spec", "diags")

    def __init__(self, spec: ReprSpec, u, ap, am):
        self.spec = spec
        self.diags = tuple(map(_Diags.of, (u, ap, am)))

    u = property(lambda self: self.diags[0].dense(writeable=False))
    ap = property(lambda self: self.diags[1].dense(writeable=False))
    am = property(lambda self: self.diags[2].dense(writeable=False))


class NcTorusPair:
    """A clock/shift pair: (n, k, beta, nu) and u, v as ``_Diags``."""

    __slots__ = ("n", "k", "beta", "nu", "diags")

    def __init__(self, n: int, k: int, beta: float, nu: complex, u, v):
        self.n, self.k, self.beta, self.nu = n, k, beta, nu
        self.diags = (_Diags.of(u), _Diags.of(v))

    u = property(lambda self: self.diags[0].dense(writeable=False))
    v = property(lambda self: self.diags[1].dense(writeable=False))


@dataclass(frozen=True)
class ResidualReport:
    residuals: Dict[str, float]
    excluded: Tuple[int, ...] = ()

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def ok(self, tol: float) -> bool:
        return self.max_residual <= tol


def _band(angles, couplings, corner: Optional[complex] = None):
    """The shared scaffold as diagonals (u, ap, am).

    u = diag(e^{i*angles}); am holds the couplings on its superdiagonal,
    am[j, j+1] = couplings[j], plus the wrap corner am[n-1, 0] of a cycle;
    ap = am^dagger.
    """
    u = np.exp(1j * np.asarray(angles, dtype=float))
    n = len(u)
    am = {1: np.append(np.asarray(couplings, dtype=complex), 0)}
    if corner is not None:
        am[1 - n] = np.append(np.zeros(n - 1, dtype=complex), corner)
    am = _Diags(n, am)
    return _Diags(n, {0: u}), am.H, am


def spec_reason(spec: ReprSpec) -> str:
    """"" if build makes spec, else why not: each spec family's one rule, R_eps
    from the region table, distinct eigenvalues for a window (``_repeat``, on
    the ones build makes), and for a fuzzy sphere the spec its n fixes."""
    if spec.family in (Family.S2MIN, Family.S2NONMIN):
        if spec.n < 2:
            return f"sphere chain needs n >= 2, got {spec.n}"
        if spec.family == Family.S2NONMIN:
            return chain_reason(spec.R, spec.n, spec.alpha, spec.beta_prime)
        if spec.k is not None:
            return f"a minimal chain has no winding integer, got k={spec.k}"
        return minimal_reason(spec.R, spec.n, spec.alpha, spec.beta_prime)
    if spec.family == Family.T2:
        return cycle_reason(spec.R, spec.n, spec.k, spec.beta_prime)
    if spec.family == Family.T2WINDOW:
        info = classify_region(spec.R, spec.eps)
        if not info.infinite_t2:
            return (f"window needs R >= sec(alpha/2) = {info.R_eps:.12g}, "
                    f"got R = {spec.R!r}")
        d = _repeat(np.exp(1j * (
            spec.beta + np.arange(-spec.M, spec.M + 1) * spec.alpha)))
        p = round(d * spec.alpha / TWO_PI)  # 0 when alpha is below resolution
        return "" if not d else (f"alpha = 2*pi*{Fraction(p, d)} is a rational "
                                 "angle; build the finite torus" if p else
                                 f"eigenvalues {d} apart coincide within "
                                 "IRREDUCIBLE_TOL")
    return ("" if spec == _fuzzy_spec(spec.n) else
            f"a fuzzy sphere spec is the one n = {spec.n} fixes")


def build(spec: ReprSpec) -> ReprMatrices:
    """The representation a spec selects, or InvalidSpec with spec_reason.

    A fuzzy sphere's couplings come from su(2); every other family's are
    sqrt(|C|^2) at m = lo .. lo + n - 1 (lo = -M for a window, else 0),
    clamped at 0 for float dust, and m = lo is a cycle's wrap corner.

    ``build_s2``, ``build_t2_finite`` and ``build_t2_window`` are names for
    it, kept as package exports that the demos and the benchmark call.
    """
    reason = spec_reason(spec)
    if reason:
        raise InvalidSpec(reason)
    if spec.family == Family.FUZZY_SPHERE:
        r = np.arange(spec.n)
        angles = np.arcsin(spec.eps * (r - 0.5 * (spec.n - 1)))
        coup = spec.eps * np.sqrt((spec.n - r) * r)
    else:
        lo = -spec.M if spec.family == Family.T2WINDOW else 0
        angles = spec.beta + np.arange(lo, lo + spec.n) * spec.alpha
        c2 = [c_squared(spec.beta_prime + m * spec.alpha, spec.R, spec.alpha)
              for m in range(lo, lo + spec.n)]
        coup = np.sqrt(np.maximum(c2, 0.0))
    corner = spec.nu * coup[0] if spec.family == Family.T2 else None
    return ReprMatrices(spec, *_band(angles, coup[1:], corner))


build_s2 = build_t2_finite = build_t2_window = build


# diagonal-offset kernel ------------------------------------------------------


def _shift(d: np.ndarray, a: int) -> np.ndarray:
    """e[i] = d[i + a], zero where i + a falls outside."""
    if a == 0:
        return d
    e = np.zeros(d.shape, d.dtype)
    if a > 0:
        e[:-a] = d[a:]
    else:
        e[-a:] = d[:a]
    return e


class _Diags:
    """A square matrix held by its diagonals.

    ``d[a][i] = M[i, i+a]``, zero where i+a falls outside the matrix; a
    missing offset is a zero diagonal, and ``of`` keeps only the diagonals
    that hold a nonzero entry.  Every family is a diagonal u plus a ladder
    with one off-diagonal and at most one wrap corner, so products stay
    within a few diagonals and cost O(n * diagonals) instead of a dense
    O(n^3).  The format is exact for any matrix: entries off the band of a
    hand-edited file are diagonals like any other.  No array is written
    after the operation that made it, so results share arrays freely.
    Products and norms sum in offset order, and every other operation acts
    offset by offset, so no dict order reaches a float.
    """

    __slots__ = ("n", "d")
    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    def __init__(self, n: int, d: Dict[int, np.ndarray]):
        self.n = n
        self.d = d

    @classmethod
    def of(cls, mat) -> "_Diags":
        """The diagonals of a dense matrix that hold a nonzero entry (a
        ``_Diags`` is returned as it is)."""
        if isinstance(mat, _Diags):
            return mat
        index = np.flatnonzero(mat)
        return cls.at(mat.shape[0], index, np.ravel(mat)[index])

    @classmethod
    def at(cls, n: int, index: np.ndarray, values: np.ndarray) -> "_Diags":
        """The n x n matrix with values[k] at flat position index[k] = i*n + j
        and zeros elsewhere; its offsets in ascending order."""
        rows, cols = np.divmod(index, n)
        offsets = cols - rows
        d = {}
        for a in sorted(set(offsets.tolist())):
            on = offsets == a
            v = np.zeros(n, dtype=complex)
            v[rows[on]] = values[on]
            d[a] = v
        return cls(n, d)

    @classmethod
    def eye(cls, n: int) -> "_Diags":
        return cls(n, {0: np.ones(n, dtype=complex)})

    def __add__(self, other: "_Diags") -> "_Diags":
        d = dict(self.d)
        for a, v in other.d.items():
            d[a] = d[a] + v if a in d else v
        return _Diags(self.n, d)

    def __sub__(self, other: "_Diags") -> "_Diags":
        d = dict(self.d)
        for a, v in other.d.items():
            d[a] = d[a] - v if a in d else -v
        return _Diags(self.n, d)

    def __rmul__(self, c: complex) -> "_Diags":
        return _Diags(self.n, {a: c * v for a, v in self.d.items()})

    def __matmul__(self, other: "_Diags") -> "_Diags":
        # (AB)[i, i+a+b] += A[i, i+a] * B[i+a, i+a+b], summed in a's order
        # (each a meets each a+b once); |a+b| >= n lies outside the matrix
        n = self.n
        d: Dict[int, np.ndarray] = {}
        for a, u in sorted(self.d.items()):
            for b, v in other.d.items():
                c = a + b
                if abs(c) < n:
                    p = u * _shift(v, a)
                    d[c] = d[c] + p if c in d else p
        return _Diags(n, d)

    @property
    def H(self) -> "_Diags":
        """The conjugate transpose: M^dagger[i, i-a] = conj(M[i-a, i])."""
        return _Diags(self.n, {-a: np.conj(_shift(v, -a))
                               for a, v in self.d.items()})

    def norm(self, keep: Optional[np.ndarray] = None) -> float:
        """Frobenius norm over the entries whose row and column are kept."""
        total = 0.0
        for a, v in sorted(self.d.items()):
            if keep is not None:
                v = v[keep & _shift(keep, a)]
            total += float(np.vdot(v, v).real)
        return math.sqrt(total)

    def dense(self, writeable: bool = True) -> np.ndarray:
        mat = np.zeros((self.n, self.n), dtype=complex)
        for a, v in self.d.items():
            rows = np.arange(max(0, -a), min(self.n, self.n - a))
            mat[rows, rows + a] = v[rows]
        mat.flags.writeable = writeable
        return mat


def _coords(m: ReprMatrices):
    """u and the Hermitian coordinates x, y, z, w as diagonals."""
    u, ap, am = m.diags
    ud = u.H
    return (u, 0.5 * (ap + am), -0.5j * (ap - am), -0.5j * (u - ud),
            0.5 * (u + ud))


def split_xyzw(m: ReprMatrices):
    """Hermitian coordinates x, y, z, w as dense matrices."""
    return tuple(c.dense() for c in _coords(m)[1:])


def verify_relations(m: Union[ReprMatrices, NcTorusPair]) -> ResidualReport:
    """Frobenius residuals of the defining relations of m's family.

    The relation table is picked by family, after one shared setup of the
    coordinates: the fuzzy sphere is checked against su(2) and the unit
    Casimir, every other spec family against the deformed relations, and an
    NcTorusPair against the Weyl relation.  For a window build, boundary rows
    and columns are excluded from the norms (truncation corrupts them) and
    reported in ``excluded``.
    """
    if isinstance(m, NcTorusPair):
        return ResidualReport(nc_torus_residuals(*m.diags, m.n, m.k))
    u, x, y, z, w = _coords(m)
    eps, R = m.spec.eps, m.spec.R
    eye = _Diags.eye(u.n)
    if m.spec.family == Family.FUZZY_SPHERE:
        deltas = {
            "comm_xy": (x @ y - y @ x) - 1j * eps * z,
            "comm_yz": (y @ z - z @ y) - 1j * eps * x,
            "comm_zx": (z @ x - x @ z) - 1j * eps * y,
            "casimir": x @ x + y @ y + z @ z - eye,
            "unitary": u @ u.H - eye,
        }
    else:
        deltas = {
            "comm_xy": (x @ y - y @ x) - 1j * eps * z,
            "comm_yz": (y @ z - z @ y) - 1j * eps * (w @ x + x @ w),
            "comm_zx": (z @ x - x @ z) - 1j * eps * (w @ y + y @ w),
            "circle": z @ z + w @ w - eye,
            "radius": x @ x + y @ y - R * eye - w,
            "unitary": u @ u.H - eye,
            "herm_x": x - x.H,
            "herm_y": y - y.H,
            "herm_z": z - z.H,
        }
    excluded: Tuple[int, ...] = ()
    keep = None
    if m.spec.family == Family.T2WINDOW:
        excluded = (0, u.n - 1)
        keep = np.ones(u.n, dtype=bool)
        keep[list(excluded)] = False
    return ResidualReport({k: v.norm(keep) for k, v in deltas.items()},
                          excluded)


def rep_evaluate(f: NormalForm, m: ReprMatrices) -> np.ndarray:
    """Matrix image of a normal form under this representation."""
    if float(f.ctx.R) != m.spec.R:
        raise ContextMismatch(
            f"form has R={float(f.ctx.R)!r}, representation has R={m.spec.R!r}"
        )
    vals = f.eval_numeric(m.spec.eps)
    u, ap, am = m.diags
    # u^s of an invertible diagonal u is an elementwise power; only a
    # hand-edited u off the diagonal (or a singular one) takes matrix_power
    elementwise = u.d.keys() == {0} and u.d[0].all()
    acc = _Diags(u.n, {})
    for (r, s), val in sorted(vals.items()):
        mat = _Diags.eye(u.n)
        for _ in range(abs(r)):
            mat = mat @ (ap if r > 0 else am)
        if s:
            mat = mat @ (_Diags(u.n, {0: u.d[0] ** s}) if elementwise
                         else _Diags.of(np.linalg.matrix_power(m.u, s)))
        acc = acc + val * mat
    return acc.dense()


def _repeat(z: np.ndarray) -> int:
    """Index distance d > 0 of a pair of z's entries within IRREDUCIBLE_TOL,
    or 0.  Sorted by the part across their sum, where a short arc spreads,
    each meets its k-th successor while some pair k apart is close in it."""
    key = z.imag if abs(z.real.sum()) > abs(z.imag.sum()) else z.real
    order = np.argsort(key, kind="stable")
    key, z = key[order], z[order]
    for k in range(1, len(z)):
        near = np.flatnonzero(key[k:] - key[:-k] <= IRREDUCIBLE_TOL)
        hit = near[np.abs(z[near + k] - z[near]) <= IRREDUCIBLE_TOL]
        if hit.size or not near.size:
            return hit.size and abs(int(order[hit[0] + k] - order[hit[0]]))
    return 0


def check_irreducible(m: ReprMatrices) -> bool:
    """Distinct winding eigenvalues (``_repeat`` on u's diagonal) and a
    connected ladder graph: an edge wherever |ap| + |ap|^T exceeds 1e-12."""
    u, ap, _ = m.diags
    n = u.n
    if _repeat(u.d.get(0, np.zeros(n, dtype=complex))):
        return False
    mag = _Diags(n, {a: np.abs(v) for a, v in ap.d.items()})
    # edges (i, i+a) on each diagonal a of |ap| + |ap|^T
    edges = {a: v > 1e-12 for a, v in (mag + mag.H).d.items()}
    if 1 in edges and edges[1][:n - 1].all():
        return True  # the path 0-1-...-(n-1) spans the graph
    edges = [(np.flatnonzero(on), a) for a, on in edges.items()]
    # component labels by min-label hooking with pointer jumping; each
    # label stays a node of its own component, so all are 0 iff connected
    label = np.arange(n)
    while True:
        hooked = label.copy()
        for i, a in edges:
            np.minimum.at(hooked, i, label[i + a])
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return not label.any()
        label = hooked


# reference models ---------------------------------------------------------


def _fuzzy_spec(n: int) -> ReprSpec:
    """The one fuzzy-sphere spec at dimension n: the round sphere R = 1 at
    eps = 2/sqrt(n^2 - 1)."""
    if n < 2:
        raise InvalidSpec(f"fuzzy sphere needs n >= 2, got {n}")
    eps = 2.0 / math.sqrt(n * n - 1.0)
    return ReprSpec(Family.FUZZY_SPHERE, 1.0, n, alpha_of_epsilon(eps), 0.0)


def build_fuzzy_sphere(n: int) -> ReprMatrices:
    """The standard su(2) fuzzy sphere at dimension n, from build().

    It satisfies [x,y] = i*eps*z (and cyclic) with x^2 + y^2 + z^2 = 1; u's
    angles are arcsin of z's eigenvalues, so z = (u - u^dagger)/2i.
    """
    return build(_fuzzy_spec(n))


# the su(2) table of verify_relations, as the plain dict the package exports
def fuzzy_sphere_residuals(m: ReprMatrices) -> Dict[str, float]:
    return verify_relations(m).residuals


def nc_torus_reason(n: int, k: int, nu: complex) -> str:
    """"" if a clock/shift pair exists at (n, k, nu), else why not."""
    if n < 2:
        return f"torus reference needs n >= 2, got {n}"
    if math.gcd(n, k) != 1:
        return f"gcd(n, k) must be 1, got n={n}, k={k}"
    if not abs(abs(complex(nu)) - 1.0) <= 1e-9:  # NaN included
        return "wrap phase must be unimodular"
    return ""


def nc_torus_pair(n: int, k: int, beta: float = 0.0,
                  nu: complex = 1.0 + 0.0j) -> NcTorusPair:
    """The finite noncommutative torus: clock and shift matrices.

    u is diagonal with angles beta + 2*pi*r*k/n, v the cyclic shift with
    wrap phase nu; they satisfy u v = e^{2*pi*i*k/n} v u.
    """
    reason = nc_torus_reason(n, k, nu)
    if reason:
        raise InvalidSpec(reason)
    # v is the raising half of a band with unit couplings and wrap corner nu
    u, v, _ = _band(beta + TWO_PI * np.arange(n) * k / n, np.ones(n - 1),
                    complex(nu).conjugate())
    return NcTorusPair(n, k, beta, nu, u, v)


def build_nc_torus(n: int, k: int, beta: float = 0.0, nu: complex = 1.0 + 0.0j
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``nc_torus_pair``'s u and v as dense arrays."""
    return tuple(d.dense() for d in nc_torus_pair(n, k, beta, nu).diags)


def nc_torus_residuals(u, v, n: int, k: int) -> Dict[str, float]:
    """The Weyl and unitarity residuals of u and v, dense or ``_Diags``."""
    q = np.exp(2j * math.pi * k / n)
    u, v = _Diags.of(u), _Diags.of(v)
    eye = _Diags.eye(n)
    return {
        "weyl": (u @ v - q * v @ u).norm(),
        "unitary_u": (u @ u.H - eye).norm(),
        "unitary_v": (v @ v.H - eye).norm(),
    }
