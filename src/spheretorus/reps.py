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
eigen-angles, its coupling vector and an optional wrap corner; the builders
only check existence and compute the couplings.  ``build(spec)`` picks the
builder of a spec's family, and ``verify_relations`` picks the relation
table: the deformed relations, the fuzzy sphere's su(2) relations, or the
Weyl relation of an ``NcTorusPair``.  A ``ReprMatrices`` stores u, ap and
am once, as nonzero diagonals (``_Diags``, the DIA format) that residuals,
``rep_evaluate`` and ``check_irreducible`` use in O(n * diagonals).  Dense
input (a v1 document, an edited matrix) is read once, off-band entries
included; ``.u``, ``.ap`` and ``.am`` are read-only dense copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from .algebra import ContextMismatch, NormalForm
# the scalar chain core lives in the numpy-free classify; re-exported here
from .classify import (
    ENDPOINT_TOL,
    Family,
    alpha_of_epsilon,
    c_squared,
    epsilon_of_alpha,
)
from .errors import InvalidSpec

TWO_PI = 2.0 * math.pi
IRREDUCIBLE_TOL = 1e-8  # closer winding eigenvalues make m reducible


def _wrap_half_open(x: float, lo: float, period: float = TWO_PI) -> float:
    """Wrap x into the half-open interval (lo, lo + period]."""
    y = x - period * math.floor((x - lo) / period)
    if y == lo:
        y += period
    return y


@dataclass(frozen=True)
class ReprSpec:
    """Parameters selecting one representation.

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
    # set when the deformation value itself is the primary datum and the
    # angle is derived from it; tan(2*atan(e)/2) can lose the last ulp
    eps_value: Optional[float] = None

    def __post_init__(self):
        set_ = object.__setattr__
        try:
            set_(self, "family", Family(self.family))
        except ValueError:
            raise InvalidSpec(f"unknown family {self.family!r}") from None
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
        if self.family in (Family.S2MIN, Family.S2NONMIN):
            set_(self, "beta_prime", _wrap_half_open(self.beta_prime, -TWO_PI))
        elif self.family == Family.T2:
            # a cycle's beta_prime is defined modulo the point spacing 2*pi/n
            period = TWO_PI / self.n
            set_(self, "beta_prime",
                 _wrap_half_open(self.beta_prime, math.pi - period, period))
        nu = complex(self.nu)
        mag = abs(nu)
        if abs(mag - 1.0) > 1e-9:
            raise InvalidSpec(f"wrap phase must be unimodular, |nu| = {mag!r}")
        set_(self, "nu", nu)

    @property
    def eps(self) -> float:
        if self.eps_value is not None:
            return self.eps_value
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


class NcTorusPair(NamedTuple):
    """Clock/shift reference pair, as stored in its JSON document."""

    n: int
    k: int
    beta: float
    nu: complex
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class ResidualReport:
    residuals: Dict[str, float]
    excluded: Tuple[int, ...] = ()

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def ok(self, tol: float) -> bool:
        return self.max_residual <= tol


def _chain_c2(spec: ReprSpec, m_values) -> np.ndarray:
    return np.array([
        c_squared(spec.beta_prime + m * spec.alpha, spec.R, spec.alpha)
        for m in m_values
    ])


def _angles(spec: ReprSpec, lo: int, hi: int) -> np.ndarray:
    """Winding eigen-angles beta + m*alpha for lo <= m < hi."""
    return spec.beta + np.arange(lo, hi) * spec.alpha


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
    am = _Diags.trim(n, am)
    return _Diags(n, {0: u}), _Diags.trim(n, am.H.d), am


def build_s2(spec: ReprSpec) -> ReprMatrices:
    """An n-dimensional sphere-type chain.

    The chain must start and end on zeros of |C|^2 (within ENDPOINT_TOL)
    and stay strictly positive in between; violations raise InvalidSpec
    naming the first failing index m.
    """
    if spec.family not in (Family.S2MIN, Family.S2NONMIN):
        raise InvalidSpec(f"build_s2 cannot build family {spec.family.value!r}")
    n = spec.n
    if n < 2:
        raise InvalidSpec(f"sphere chain needs n >= 2, got {n}")
    c2 = _chain_c2(spec, range(n + 1))
    for m in (0, n):
        if abs(c2[m]) > ENDPOINT_TOL:
            raise InvalidSpec(
                f"chain endpoint not a zero at m={m}: |C|^2 = {c2[m]:.6g}"
            )
    for m in range(1, n):
        if c2[m] <= ENDPOINT_TOL:
            raise InvalidSpec(
                f"interior inequality fails at m={m}: |C|^2 = {c2[m]:.6g}"
            )
    return ReprMatrices(spec, *_band(_angles(spec, 0, n), np.sqrt(c2[1:n])))


def build_t2_finite(spec: ReprSpec) -> ReprMatrices:
    """An n-dimensional torus-type cycle at alpha = 2*pi*k/n."""
    if spec.family != Family.T2:
        raise InvalidSpec(f"build_t2_finite cannot build {spec.family.value!r}")
    n, k = spec.n, spec.k
    if k is None:
        raise InvalidSpec("finite torus needs the winding integer k")
    if not 1 <= k < n / 2:
        raise InvalidSpec(f"k must satisfy 1 <= k < n/2, got k={k}, n={n}")
    if math.gcd(n, k) != 1:
        raise InvalidSpec(f"gcd(n, k) must be 1, got n={n}, k={k}")
    c2 = _chain_c2(spec, range(n))
    for m in range(n):
        if c2[m] <= 0.0:
            raise InvalidSpec(
                f"cycle inequality fails at m={m}: |C|^2 = {c2[m]:.6g}"
            )
    coup = np.sqrt(c2)
    return ReprMatrices(spec, *_band(_angles(spec, 0, n), coup[1:],
                                     spec.nu * coup[0]))


def build_t2_window(spec: ReprSpec) -> ReprMatrices:
    """A (2M+1)-dimensional window into the infinite torus lattice.

    Requires R >= sec(alpha/2), so |C|^2 >= 0 on the whole lattice; the
    defining relations then hold exactly on interior basis vectors, and
    verify_relations flags the two boundary indices.
    """
    if spec.family != Family.T2WINDOW:
        raise InvalidSpec(f"build_t2_window cannot build {spec.family.value!r}")
    sec = 1.0 / math.cos(0.5 * spec.alpha)
    if spec.R < sec:
        raise InvalidSpec(
            f"window needs R >= sec(alpha/2) = {sec:.12g}, got R = {spec.R!r}"
        )
    turn = spec.alpha / TWO_PI
    near = Fraction(turn).limit_denominator(64)
    if abs(turn - float(near)) < 1e-12:
        raise InvalidSpec(
            f"alpha = 2*pi*{near} is a rational angle; build the finite torus"
        )
    M = spec.M
    c2 = _chain_c2(spec, range(-M + 1, M + 1))
    # clamp float dust at the semi-infinite edge
    return ReprMatrices(spec, *_band(_angles(spec, -M, M + 1),
                                     np.sqrt(np.maximum(c2, 0.0))))


def build(spec: ReprSpec) -> ReprMatrices:
    """The representation a spec selects, from its family's builder."""
    if spec.family in (Family.S2MIN, Family.S2NONMIN):
        return build_s2(spec)
    if spec.family == Family.T2:
        return build_t2_finite(spec)
    if spec.family == Family.T2WINDOW:
        return build_t2_window(spec)
    raise InvalidSpec(f"no spec builder for family {spec.family.value!r}")


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
        n = mat.shape[0]
        rows, cols = np.divmod(np.flatnonzero(mat != 0), n)
        d = {}
        for a in sorted(set((cols - rows).tolist())):
            v = np.zeros(n, dtype=complex)
            v[max(0, -a):min(n, n - a)] = np.diagonal(mat, a)
            d[a] = v
        return cls(n, d)

    @classmethod
    def trim(cls, n: int, d: Dict[int, np.ndarray]) -> "_Diags":
        """d's nonzero diagonals inside the matrix, in offset order as ``of``
        keeps them (products sum their terms, and round, in that order)."""
        return cls(n, {a: d[a] for a in sorted(d)
                       if abs(a) < n and d[a].any()})

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
        # (AB)[i, i+a+b] += A[i, i+a] * B[i+a, i+a+b]; diagonals at
        # |a+b| >= n lie wholly outside the matrix, so their sum vanishes
        n = self.n
        d: Dict[int, np.ndarray] = {}
        for a, u in self.d.items():
            rows = slice(0, n - a) if a >= 0 else slice(-a, n)
            cols = slice(a, n) if a >= 0 else slice(0, n + a)
            for b, v in other.d.items():
                c = a + b
                if abs(c) >= n:
                    continue
                if a == 0:
                    p = u * v
                else:
                    p = np.zeros(n, dtype=complex)
                    np.multiply(u[rows], v[cols], out=p[rows])
                if c in d:
                    d[c] += p
                else:
                    d[c] = p
        return _Diags(n, d)

    @property
    def H(self) -> "_Diags":
        """The conjugate transpose: M^dagger[i, i-a] = conj(M[i-a, i])."""
        return _Diags(self.n, {-a: np.conj(_shift(v, -a))
                               for a, v in self.d.items()})

    def norm(self, keep: Optional[np.ndarray] = None) -> float:
        """Frobenius norm over the entries whose row and column are kept."""
        total = 0.0
        for a, v in self.d.items():
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

    A deformed family is checked against the deformed relations, the fuzzy
    sphere against su(2) and the unit Casimir, and an NcTorusPair against
    the Weyl relation.  For a window build, boundary rows and columns are
    excluded from the norms (truncation corrupts them) and reported in
    ``excluded``.
    """
    if isinstance(m, NcTorusPair):
        return ResidualReport(nc_torus_residuals(m.u, m.v, m.n, m.k))
    if m.spec.family == Family.FUZZY_SPHERE:
        return ResidualReport(fuzzy_sphere_residuals(m))
    u, x, y, z, w = _coords(m)
    eps, R = m.spec.eps, m.spec.R
    eye = _Diags.eye(u.n)
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
    for (r, s), val in vals.items():
        mat = _Diags.eye(u.n)
        for _ in range(abs(r)):
            mat = mat @ (ap if r > 0 else am)
        if s:
            mat = mat @ (_Diags(u.n, {0: u.d[0] ** s}) if elementwise
                         else _Diags.of(np.linalg.matrix_power(m.u, s)))
        acc = acc + val * mat
    return acc.dense()


def check_irreducible(m: ReprMatrices) -> bool:
    """Distinct winding eigenvalues plus a connected ladder graph.

    Two eigenvalues of u's diagonal closer than IRREDUCIBLE_TOL make m
    reducible; so does a ladder graph (an edge wherever |ap| + |ap|^T
    exceeds 1e-12, on or off the band) with more than one component.
    """
    u, ap, _ = m.diags
    n = u.n
    diag = u.d.get(0, np.zeros(n, dtype=complex))
    # a close pair is also close in its real parts: after sorting by them,
    # compare each eigenvalue with its k-th successor while any such pair
    # still lies within tol in the real part
    d = diag[np.argsort(diag.real, kind="stable")]
    for k in range(1, n):
        near = d.real[k:] - d.real[:-k] <= IRREDUCIBLE_TOL
        if not near.any():
            break
        if (np.abs(d[k:][near] - d[:-k][near]) <= IRREDUCIBLE_TOL).any():
            return False
    mag = _Diags(n, {a: np.abs(v) for a, v in ap.d.items()})
    # edges (i, i+a) on each diagonal a of |ap| + |ap|^T
    edges = [(np.flatnonzero(v > 1e-12), a)
             for a, v in (mag + mag.H).d.items()]
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


def build_fuzzy_sphere(n: int) -> ReprMatrices:
    """The standard su(2) fuzzy sphere at dimension n.

    eps = 2/sqrt(n^2 - 1); satisfies the cyclic commutators
    [x,y] = i*eps*z (and cyclic) with x^2 + y^2 + z^2 = 1.  The winding
    matrix is the diagonal unitary with angles arcsin of the z eigenvalues,
    so z is recovered as (u - u^dagger)/2i.
    """
    if n < 2:
        raise InvalidSpec(f"fuzzy sphere needs n >= 2, got {n}")
    eps = 2.0 / math.sqrt(n * n - 1.0)
    r = np.arange(n)
    zdiag = eps * (r - 0.5 * (n - 1))
    couplings = eps * np.sqrt((n - 1 - r[:-1]) * (r[:-1] + 1))
    spec = ReprSpec(
        family=Family.FUZZY_SPHERE,
        R=1.0,  # reference model: the round sphere x^2+y^2+z^2 = 1
        n=n,
        alpha=alpha_of_epsilon(eps),
        beta_prime=0.0,
        eps_value=eps,
    )
    return ReprMatrices(spec, *_band(np.arcsin(zdiag), couplings))


def fuzzy_sphere_residuals(m: ReprMatrices) -> Dict[str, float]:
    """Cyclic su(2)-type residuals and the unit Casimir."""
    u, x, y, z, _ = _coords(m)
    eps = m.spec.eps
    eye = _Diags.eye(u.n)
    return {
        "comm_xy": ((x @ y - y @ x) - 1j * eps * z).norm(),
        "comm_yz": ((y @ z - z @ y) - 1j * eps * x).norm(),
        "comm_zx": ((z @ x - x @ z) - 1j * eps * y).norm(),
        "casimir": (x @ x + y @ y + z @ z - eye).norm(),
        "unitary": (u @ u.H - eye).norm(),
    }


def build_nc_torus(
    n: int, k: int, beta: float = 0.0, nu: complex = 1.0 + 0.0j
) -> Tuple[np.ndarray, np.ndarray]:
    """The finite noncommutative torus: clock and shift matrices.

    u is diagonal with angles beta + 2*pi*r*k/n, v the cyclic shift with
    wrap phase nu; they satisfy u v = e^{2*pi*i*k/n} v u.
    """
    if n < 2:
        raise InvalidSpec(f"torus reference needs n >= 2, got {n}")
    if math.gcd(n, k) != 1:
        raise InvalidSpec(f"gcd(n, k) must be 1, got n={n}, k={k}")
    if abs(abs(complex(nu)) - 1.0) > 1e-9:
        raise InvalidSpec("wrap phase must be unimodular")
    # v is the raising half of a band with unit couplings and wrap corner nu
    u, v, _ = _band(beta + TWO_PI * np.arange(n) * k / n, np.ones(n - 1),
                    complex(nu).conjugate())
    return u.dense(), v.dense()


def nc_torus_residuals(
    u: np.ndarray, v: np.ndarray, n: int, k: int
) -> Dict[str, float]:
    q = np.exp(2j * math.pi * k / n)
    u, v = _Diags.of(u), _Diags.of(v)
    eye = _Diags.eye(n)
    return {
        "weyl": (u @ v - q * v @ u).norm(),
        "unitary_u": (u @ u.H - eye).norm(),
        "unitary_v": (v @ v.H - eye).norm(),
    }
