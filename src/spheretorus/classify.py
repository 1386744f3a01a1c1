"""Parameter-region solvers.

Sphere-type chains of length n exist where the chain equation
cos(beta') + R*cos(alpha/2) = 0 has solutions compatible with beta' + n*alpha
landing on the other zero, torus-type cycles where n*alpha is a full number
of turns and every cycle point clears the forbidden sector, and the region
of the (R, eps) plane decides which families are available at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional

from .errors import DomainError
from .reps import ENDPOINT_TOL, Family, c_squared

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SolutionRecord:
    """One solved (or rejected) chain/cycle candidate at fixed (R, n)."""

    family: Family
    R: float
    n: int
    k: Optional[int]
    alpha: Optional[float]
    beta_prime: Optional[float]
    exists: bool
    reject_reason: str = ""
    residual: float = 0.0
    branch: str = ""

    @property
    def beta(self) -> Optional[float]:
        """beta' + alpha/2, or None when either is missing."""
        if self.alpha is None or self.beta_prime is None:
            return None
        return self.beta_prime + 0.5 * self.alpha


@dataclass(frozen=True)
class BetaWindow:
    """Admissible beta' interval for a finite torus cycle.

    kind 'none': no interval.  kind 'restricted': the open interval
    (lo, hi) carved out by the forbidden sector of half-width delta/2.
    kind 'full': the half-open interval (lo, hi] = (pi - 2*pi/n, pi].
    """

    kind: str
    lo: Optional[float]
    hi: Optional[float]
    delta: Optional[float]


class RegionLabel(str, Enum):
    NULL = "Null"
    POINT = "Point"
    SPHERE = "Sphere"
    VARIETY = "Variety"
    SPHERE_TORUS = "SphereTorus"
    SPHERE_TORUS_BOUNDARY = "SphereTorusBoundary"
    TORUS = "Torus"


@dataclass(frozen=True)
class RegionInfo:
    label: RegionLabel
    R: float
    eps: float
    R_eps: float
    minimal_s2: bool
    nonminimal_s2: bool
    finite_t2: bool
    semi_infinite_t2: bool
    infinite_t2: bool

    @property
    def flags(self) -> dict:
        return {
            "minimal_s2": self.minimal_s2,
            "nonminimal_s2": self.nonminimal_s2,
            "finite_t2": self.finite_t2,
            "semi_infinite_t2": self.semi_infinite_t2,
            "infinite_t2": self.infinite_t2,
        }


def _rhat(alpha: float, n: int) -> float:
    """The R value whose minimal chain has angle alpha; strictly increasing
    from -1 to sec(pi/n) on (0, 2*pi/n)."""
    return -math.cos(0.5 * n * alpha) / math.cos(0.5 * alpha)


def solve_minimal_s2(R: float, n: int, tol: float = 1e-12) -> SolutionRecord:
    """The unique minimal sphere chain angle, by bisection.

    Exists iff -1 < R < sec(pi/n); then beta' = -n*alpha/2 and the chain
    spans the allowed arc symmetrically.
    """
    if n < 2:
        raise DomainError(f"chain length must be at least 2, got {n}")
    r_max = 1.0 / math.cos(math.pi / n)
    none = SolutionRecord(
        family=Family.S2MIN, R=R, n=n, k=None, alpha=None, beta_prime=None,
        exists=False,
        reject_reason=f"no root: R outside (-1, sec(pi/n)) = (-1, {r_max:.6g})",
    )
    if not -1.0 < R < r_max:
        return none
    lo = 1e-13
    hi = (TWO_PI / n) * (1.0 - 1e-13)
    f_lo = _rhat(lo, n) - R
    f_hi = _rhat(hi, n) - R
    if not f_lo < 0.0 < f_hi:
        return none  # R within float dust of an endpoint
    alpha = 0.5 * (lo + hi)
    for _ in range(200):
        alpha = 0.5 * (lo + hi)
        f_mid = _rhat(alpha, n) - R
        if abs(f_mid) < tol:
            break
        if f_mid < 0.0:
            lo = alpha
        else:
            hi = alpha
    return SolutionRecord(
        family=Family.S2MIN, R=R, n=n, k=None, alpha=alpha,
        beta_prime=-0.5 * n * alpha, exists=True,
        residual=abs(_rhat(alpha, n) - R),
    )


def _inequality_reason(R: float, n: int, alpha: float, beta_prime: float) -> str:
    """First interior index whose coupling is not strictly positive."""
    for m in range(1, n):
        c2 = c_squared(beta_prime + m * alpha, R, alpha)
        if c2 <= ENDPOINT_TOL:
            return f"inequality fails at m={m}: |C|^2 = {c2:.4g}"
    return ""


def _candidate(
    R: float, n: int, branch: str, k: int, alpha: float, beta_prime: float,
    residual: float,
) -> SolutionRecord:
    reason = _inequality_reason(R, n, alpha, beta_prime)
    return SolutionRecord(
        family=Family.S2NONMIN, R=R, n=n, k=k, alpha=alpha,
        beta_prime=beta_prime, exists=reason == "", reject_reason=reason,
        residual=residual, branch=branch,
    )


def _branch_k(x: float) -> Optional[int]:
    """Unique integer in the open interval (x - 3/2, x - 1/2), if any."""
    k = math.floor(x - 1.5) + 1
    if x - 1.5 < k < x - 0.5:
        return k
    return None


def enumerate_s2_nonminimal(
    R: float, n: int, grid: int = 4096, tol: float = 1e-12
) -> List[SolutionRecord]:
    """All non-minimal sphere chain candidates at fixed (R, n).

    Branch A scans alpha in (2*pi/n, pi) for roots of
    cos(pi*k - n*alpha/2) + R*cos(alpha/2) with k the unique integer putting
    beta' = pi*k - n*alpha/2 inside (-3*pi/2, -pi/2).  Branch B takes the
    rational angles alpha = 2*pi*k'/n, gcd(k', n) = 1, and solves
    cos(beta') = -R*cos(pi*k'/n) for both roots in (-2*pi, 0].  Candidates
    failing an interior inequality are kept with the failing index recorded.
    """
    if n < 2:
        raise DomainError(f"chain length must be at least 2, got {n}")
    records: List[SolutionRecord] = []

    def h(alpha: float, k: int) -> float:
        return math.cos(math.pi * k - 0.5 * n * alpha) + R * math.cos(0.5 * alpha)

    lo = TWO_PI / n + 1e-12
    hi = math.pi - 1e-12
    if lo < hi:
        pts = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
        ks = [_branch_k(n * a / TWO_PI) for a in pts]
        roots = []
        for i in range(grid):
            k = ks[i]
            if k is None or ks[i + 1] != k:
                continue
            a1, a2 = pts[i], pts[i + 1]
            h1, h2 = h(a1, k), h(a2, k)
            if h1 == 0.0:
                roots.append((a1, k))
                continue
            if h1 * h2 >= 0.0:
                continue
            for _ in range(100):
                mid = 0.5 * (a1 + a2)
                hm = h(mid, k)
                if abs(hm) < tol:
                    break
                if h1 * hm < 0.0:
                    a2 = mid
                else:
                    a1, h1 = mid, hm
            roots.append((0.5 * (a1 + a2), k))
        for alpha, k in roots:
            if records and records[-1].branch == "A" and \
                    abs((records[-1].alpha or 0.0) - alpha) < 1e-9:
                continue
            beta_prime = math.pi * k - 0.5 * n * alpha
            records.append(
                _candidate(R, n, "A", k, alpha, beta_prime, abs(h(alpha, k)))
            )

    for kp in range(1, (n - 1) // 2 + 1):
        if math.gcd(kp, n) != 1:
            continue
        alpha = TWO_PI * kp / n
        if not alpha < math.pi:
            continue
        c = -R * math.cos(math.pi * kp / n)
        if abs(c) > 1.0:
            continue
        base = math.acos(c)
        betas = [-base]
        if base not in (0.0, math.pi) and base - TWO_PI > -TWO_PI:
            betas.append(base - TWO_PI)
        for beta_prime in betas:
            resid = abs(math.cos(beta_prime) + R * math.cos(0.5 * alpha))
            records.append(_candidate(R, n, "B", kp, alpha, beta_prime, resid))

    records.sort(key=lambda r: (r.alpha or 0.0, r.beta_prime or 0.0, r.branch))
    return records


def t2_beta_window(R: float, n: int, k: int) -> BetaWindow:
    """Admissible beta' interval for the finite torus cycle at (R, n, k).

    Empty for R <= cos(pi/n)*sec(pi*k/n); restricted by the forbidden
    sector (cos(delta/2) = R*cos(pi*k/n)) up to R = sec(pi*k/n); the full
    (pi - 2*pi/n, pi] beyond.  Ties go to the closed side of each range.
    """
    if n < 3 or not 1 <= k < n / 2:
        raise DomainError(f"need n >= 3 and 1 <= k < n/2, got n={n}, k={k}")
    if math.gcd(n, k) != 1:
        raise DomainError(f"gcd(n, k) must be 1, got n={n}, k={k}")
    ck = math.cos(math.pi * k / n)
    if R <= math.cos(math.pi / n) / ck:
        return BetaWindow("none", None, None, None)
    if R <= 1.0 / ck:
        delta = 2.0 * math.acos(min(R * ck, 1.0))
        return BetaWindow(
            "restricted",
            math.pi - TWO_PI / n + 0.5 * delta,
            math.pi - 0.5 * delta,
            delta,
        )
    return BetaWindow("full", math.pi - TWO_PI / n, math.pi, 0.0)


_REGION_FLAGS = {
    # label: (minimal, nonminimal, finite_t2, semi_inf_t2, inf_t2)
    RegionLabel.NULL: (False, False, False, False, False),
    RegionLabel.POINT: (False, False, False, False, False),
    RegionLabel.SPHERE: (True, False, False, False, False),
    RegionLabel.VARIETY: (True, False, False, False, False),
    RegionLabel.SPHERE_TORUS: (True, True, True, False, False),
    RegionLabel.SPHERE_TORUS_BOUNDARY: (False, True, True, True, True),
    RegionLabel.TORUS: (False, False, True, False, True),
}


# relative tolerance of the R = R_eps boundary in classify_region
R_EPS_REL_TOL = 1e-7


def classify_region(R: float, eps: float) -> RegionInfo:
    """Region of the (R, eps) plane and the families available there.

    R = -1 and R = 1 are matched exactly, as in geometry.topology_of, so
    both agree on the surface type.  Above R = 1 the irrational boundary
    R = R_eps = sqrt(1 + eps^2) is matched with the relative tolerance
    R_EPS_REL_TOL: probe values are typically decimal roundings of the
    exact square root and cannot hit it at float equality.
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    r_eps = math.sqrt(1.0 + eps * eps)
    if R < -1.0:
        label = RegionLabel.NULL
    elif R == -1.0:
        label = RegionLabel.POINT
    elif R < 1.0:
        label = RegionLabel.SPHERE
    elif R == 1.0:
        label = RegionLabel.VARIETY
    elif abs(R - r_eps) <= R_EPS_REL_TOL * r_eps:
        label = RegionLabel.SPHERE_TORUS_BOUNDARY
    elif R < r_eps:
        label = RegionLabel.SPHERE_TORUS
    else:
        label = RegionLabel.TORUS
    flags = _REGION_FLAGS[label]
    return RegionInfo(label, R, eps, r_eps, *flags)


@dataclass(frozen=True)
class SweepRow:
    """One row of a family-availability sweep, ready for CSV emission."""

    R: float
    n: int
    family: str
    k: Optional[int]
    alpha: Optional[float]
    beta_lo: Optional[float]
    beta_hi: Optional[float]
    exists: bool
    reject_reason: str = ""

    @classmethod
    def of_chain(cls, rec: SolutionRecord) -> "SweepRow":
        """The row of a solved or rejected sphere chain."""
        return cls(rec.R, rec.n, rec.family.value, rec.k, rec.alpha,
                   rec.beta_prime, rec.beta_prime, rec.exists,
                   rec.reject_reason)


def sweep_regions(
    n: int, R_values: Iterable[float], grid: int = 4096
) -> List[SweepRow]:
    """Solve every family at each R; rows ordered by R, family, k, alpha."""
    rows: List[SweepRow] = []
    for R in sorted(R_values):
        rows.append(SweepRow.of_chain(solve_minimal_s2(R, n)))
        rows += map(SweepRow.of_chain, enumerate_s2_nonminimal(R, n, grid=grid))
        for k in range(1, (n - 1) // 2 + 1):
            if math.gcd(k, n) != 1:
                continue
            win = t2_beta_window(R, n, k)
            rows.append(
                SweepRow(R, n, Family.T2.value, k, TWO_PI * k / n,
                         win.lo, win.hi, win.kind != "none",
                         "" if win.kind != "none"
                         else "below the finite-torus threshold")
            )
    return rows
