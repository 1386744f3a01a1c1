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
Weyl relation of an ``NcTorusPair``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from .algebra import ContextMismatch, NormalForm
from .errors import DomainError, InvalidSpec

TWO_PI = 2.0 * math.pi


class Family(str, Enum):
    S2MIN = "s2min"
    S2NONMIN = "s2nonmin"
    T2 = "t2"
    T2WINDOW = "t2window"
    FUZZY_SPHERE = "fuzzy-sphere"
    NC_TORUS = "nc-torus"


def epsilon_of_alpha(alpha: float) -> float:
    """Deformation value tan(alpha/2) for an admissible angle."""
    if not 0.0 < alpha < math.pi:
        raise DomainError(f"alpha must lie in (0, pi), got {alpha!r}")
    return math.tan(0.5 * alpha)


def alpha_of_epsilon(eps: float) -> float:
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    return 2.0 * math.atan(eps)


def c_squared(theta_prime: float, R: float, alpha: float) -> float:
    """The squared ladder coupling sec(alpha/2)*cos(theta') + R."""
    if not 0.0 < alpha < math.pi:
        raise DomainError(f"alpha must lie in (0, pi), got {alpha!r}")
    return math.cos(theta_prime) / math.cos(0.5 * alpha) + R


def _wrap_half_open(x: float, lo: float, period: float = TWO_PI) -> float:
    """Wrap x into the half-open interval (lo, lo + period]."""
    y = x - period * math.floor((x - lo) / period)
    if y == lo:
        y += period
    return y


@dataclass(frozen=True)
class ReprSpec:
    """Parameters selecting one representation.

    ``n`` is the dimension (for T2WINDOW it is derived as 2*M + 1).  For a
    finite torus ``alpha`` is derived from ``k`` as 2*pi*k/n.  ``beta_prime``
    is normalized into (-2*pi, 0] for sphere chains and (pi - 2*pi/n, pi]
    for finite-torus cycles.
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
        if self.family == Family.T2 and self.k is not None:
            set_(self, "alpha", TWO_PI * self.k / self.n)
        if self.family == Family.T2WINDOW and self.M is not None:
            set_(self, "n", 2 * self.M + 1)
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


@dataclass(frozen=True)
class ReprMatrices:
    spec: ReprSpec
    u: np.ndarray
    ap: np.ndarray
    am: np.ndarray


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
    """The shared scaffold as dense (u, ap, am).

    u = diag(e^{i*angles}); am holds the couplings on its superdiagonal,
    am[j, j+1] = couplings[j], plus the wrap corner am[n-1, 0] of a cycle;
    ap = am^dagger.
    """
    u = np.diag(np.exp(1j * np.asarray(angles, dtype=float)))
    am = np.diag(np.asarray(couplings, dtype=complex), 1)
    if corner is not None:
        am[-1, 0] = corner
    return u, am.conj().T, am


def build_s2(spec: ReprSpec, endpoint_tol: float = 1e-9) -> ReprMatrices:
    """An n-dimensional sphere-type chain.

    The chain must start and end on zeros of |C|^2 (within endpoint_tol)
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
        if abs(c2[m]) > endpoint_tol:
            raise InvalidSpec(
                f"chain endpoint not a zero at m={m}: |C|^2 = {c2[m]:.6g}"
            )
    for m in range(1, n):
        if c2[m] <= endpoint_tol:
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
    if spec.M is None:
        raise InvalidSpec("window build needs the half-width M")
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


def split_xyzw(m: ReprMatrices):
    """Hermitian coordinates from the ladder/winding matrices."""
    x = 0.5 * (m.ap + m.am)
    y = (m.ap - m.am) / 2j
    w = 0.5 * (m.u + m.u.conj().T)
    z = (m.u - m.u.conj().T) / 2j
    return x, y, z, w


def _fro(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat))


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
    x, y, z, w = split_xyzw(m)
    eps, R = m.spec.eps, m.spec.R
    eye = np.eye(m.u.shape[0])
    deltas = {
        "comm_xy": (x @ y - y @ x) - 1j * eps * z,
        "comm_yz": (y @ z - z @ y) - 1j * eps * (w @ x + x @ w),
        "comm_zx": (z @ x - x @ z) - 1j * eps * (w @ y + y @ w),
        "circle": z @ z + w @ w - eye,
        "radius": x @ x + y @ y - R * eye - w,
        "unitary": m.u @ m.u.conj().T - eye,
        "herm_x": x - x.conj().T,
        "herm_y": y - y.conj().T,
        "herm_z": z - z.conj().T,
    }
    excluded: Tuple[int, ...] = ()
    if m.spec.family == Family.T2WINDOW:
        last = m.u.shape[0] - 1
        excluded = (0, last)
        for mat in deltas.values():
            mat[[0, last], :] = 0.0
            mat[:, [0, last]] = 0.0
    return ResidualReport({k: _fro(v) for k, v in deltas.items()}, excluded)


def rep_evaluate(f: NormalForm, m: ReprMatrices) -> np.ndarray:
    """Matrix image of a normal form under this representation."""
    if float(f.ctx.R) != m.spec.R:
        raise ContextMismatch(
            f"form has R={float(f.ctx.R)!r}, representation has R={m.spec.R!r}"
        )
    vals = f.eval_numeric(m.spec.eps)
    dim = m.u.shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for (r, s), val in vals.items():
        if r > 0:
            mat = np.linalg.matrix_power(m.ap, r)
        elif r < 0:
            mat = np.linalg.matrix_power(m.am, -r)
        else:
            mat = np.eye(dim, dtype=complex)
        if s:
            mat = mat @ np.linalg.matrix_power(m.u, s)
        acc += val * mat
    return acc


def check_irreducible(m: ReprMatrices, tol: float = 1e-8) -> bool:
    """Distinct winding eigenvalues plus a connected ladder graph.

    Two eigenvalues closer than tol make m reducible; so does a ladder
    graph (an edge wherever |ap| + |ap|^T exceeds 1e-12, on or off the
    band) with more than one component.
    """
    diag = np.diag(m.u)
    n = len(diag)
    # a close pair is also close in its real parts: after sorting by them,
    # compare each eigenvalue with its k-th successor while any such pair
    # still lies within tol in the real part
    d = diag[np.argsort(diag.real, kind="stable")]
    for k in range(1, n):
        near = d.real[k:] - d.real[:-k] <= tol
        if not near.any():
            break
        if (np.abs(d[k:][near] - d[:-k][near]) <= tol).any():
            return False
    strength = np.abs(m.ap) + np.abs(m.ap).T
    src, dst = np.nonzero(strength > 1e-12)
    # component labels by min-label hooking with pointer jumping; each
    # label stays a node of its own component, so all are 0 iff connected
    label = np.arange(n)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, src, label[dst])
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
    x, y, z, _ = split_xyzw(m)
    eps = m.spec.eps
    eye = np.eye(m.u.shape[0])
    return {
        "comm_xy": _fro((x @ y - y @ x) - 1j * eps * z),
        "comm_yz": _fro((y @ z - z @ y) - 1j * eps * x),
        "comm_zx": _fro((z @ x - x @ z) - 1j * eps * y),
        "casimir": _fro(x @ x + y @ y + z @ z - eye),
        "unitary": _fro(m.u @ m.u.conj().T - eye),
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
    return u, v


def nc_torus_residuals(
    u: np.ndarray, v: np.ndarray, n: int, k: int
) -> Dict[str, float]:
    q = np.exp(2j * math.pi * k / n)
    eye = np.eye(n)
    return {
        "weyl": _fro(u @ v - q * v @ u),
        "unitary_u": _fro(u @ u.conj().T - eye),
        "unitary_v": _fro(v @ v.conj().T - eye),
    }
