"""Parameter-region solvers.

A sphere-type chain of length n has |C|^2 zero at both ends and positive in
between (``chain_reason``); a torus-type cycle has n*alpha a full number of
turns and |C|^2 positive at every point (``cycle_reason``).  The region of
the (R, eps) plane decides which families exist at all; its table,
``classify_region``, alone states the boundary R_eps, for every caller, and
``minimal_reason`` joins it to the chain test as the minimal-chain rule.
The solvers, ``t2_beta_window`` and the ``reps`` builders all decide with
these rules, so no reporter lists what a builder refuses.

The scalar chain core (the ``Family`` enum, the coupling ``c_squared`` and
the angle/deformation conversions) lives here too, and ``reps`` re-exports
it.  Only the scan of ``enumerate_s2_nonminimal`` needs arrays; ``_scan``
memoises its R-free ones per (n, grid) and imports numpy when first run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Optional

from .errors import DomainError

TWO_PI = 2.0 * math.pi
ENDPOINT_TOL = 1e-9  # sphere chains: |C|^2 ends within it of 0 (chain_reason)


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


@dataclass(frozen=True)
class SolutionRecord:
    """One solved (or rejected) chain/cycle candidate at fixed (R, n)."""

    family: Family
    R: float
    n: int
    k: Optional[int]
    alpha: Optional[float]
    beta_prime: Optional[float]
    beta: Optional[float] = field(init=False)  # beta' + alpha/2, or None
    exists: bool
    reject_reason: str = ""
    residual: float = 0.0
    branch: str = ""

    def __post_init__(self) -> None:
        beta = (None if self.alpha is None or self.beta_prime is None
                else self.beta_prime + 0.5 * self.alpha)
        object.__setattr__(self, "beta", beta)


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


def _check_domain(R: float, grid: int = 1, n: int = 2) -> None:
    """The one argument check of every entry point: R finite, grid >= 1 and
    a chain length n >= 2."""
    if not math.isfinite(R):
        raise DomainError(f"R must be a finite number, got {R!r}")
    if grid < 1:
        raise DomainError(f"grid must be at least 1, got {grid}")
    if n < 2:
        raise DomainError(f"chain length must be at least 2, got {n}")


def _rhat(alpha: float, n: int) -> float:
    """The R value whose minimal chain has angle alpha; strictly increasing
    from -1 to sec(pi/n) on (0, 2*pi/n)."""
    return -math.cos(0.5 * n * alpha) / math.cos(0.5 * alpha)


def _bisect(f, lo: float, hi: float) -> float:
    """The root of f's sign change on [lo, hi]: the first midpoint where f
    is exactly 0, else the last one, once lo and hi are adjacent floats.
    Each step moves an end to a float strictly between them, so it ends."""
    neg_lo = f(lo) < 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = f(mid)
        if f_mid == 0.0:
            break
        if (f_mid < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return mid


def solve_minimal_s2(R: float, n: int) -> SolutionRecord:
    """The unique minimal sphere chain angle, by bisection to adjacent floats.

    A root exists iff _rhat(0) = -1 < R < _rhat(2*pi/n) = sec(pi/n), the
    ends of the bracket; beta' = -n*alpha/2 spans the arc symmetrically, and
    the chain exists iff ``minimal_reason``, the rule ``reps.build``
    applies, accepts it at the root.  So the verdict depends on (R, n) only.
    """
    _check_domain(R, n=n)
    reason = ("no root: R outside (-1, sec(pi/n)) = "
              f"(-1, {1.0 / math.cos(math.pi / n):.6g})")
    hi = TWO_PI / n
    if -1.0 < R < _rhat(hi, n):  # _rhat(0.0, n) is -1.0
        alpha = _bisect(lambda a: _rhat(a, n) - R, 0.0, hi)
        reason = minimal_reason(R, n, alpha, -0.5 * n * alpha)
    if reason:
        return SolutionRecord(Family.S2MIN, R, n, None, None, None, False,
                              reason)
    return SolutionRecord(Family.S2MIN, R, n, None, alpha, -0.5 * n * alpha,
                          True, residual=abs(_rhat(alpha, n) - R))


def chain_reason(R: float, n: int, alpha: float, beta_prime: float) -> str:
    """"" if |C|^2 is within ENDPOINT_TOL of 0 at m = 0 and n and above
    ENDPOINT_TOL * min(1, R + sec(alpha/2)), a share of its top, in between;
    else why not, at the first failing m."""
    ca = math.cos(0.5 * alpha)  # c_squared bit for bit, cos(alpha/2) hoisted
    floor = ENDPOINT_TOL * min(1.0, R + 1.0 / ca)
    for m in range(n + 1):
        c2 = math.cos(beta_prime + m * alpha) / ca + R
        if 0 < m < n:
            if c2 <= floor:
                return f"inequality fails at m={m}: |C|^2 = {c2:.4g}"
        elif abs(c2) > ENDPOINT_TOL:
            return f"endpoint not a zero at m={m}: |C|^2 = {c2:.4g}"
    return ""


def cycle_reason(R: float, n: int, k: Optional[int],
                 beta_prime: Optional[float] = None) -> str:
    """"" if 1 <= k < n/2, gcd(n, k) = 1 and (given beta') |C|^2 > 0 at all
    n points of the cycle at alpha = 2*pi*k/n; else why not."""
    if k is None or not 1 <= k < n / 2:  # so n >= 3
        return f"need n >= 3 and 1 <= k < n/2, got n={n}, k={k}"
    if math.gcd(n, k) != 1:
        return f"gcd(n, k) must be 1, got n={n}, k={k}"
    alpha = TWO_PI * k / n
    for m in range(0 if beta_prime is None else n):
        c2 = c_squared(beta_prime + m * alpha, R, alpha)
        if c2 <= 0.0:
            return f"inequality fails at m={m}: |C|^2 = {c2:.4g}"
    return ""


def _candidate(
    R: float, n: int, branch: str, k: int, alpha: float, beta_prime: float,
    residual: float,
) -> SolutionRecord:
    reason = chain_reason(R, n, alpha, beta_prime)
    return SolutionRecord(
        family=Family.S2NONMIN, R=R, n=n, k=k, alpha=alpha,
        beta_prime=beta_prime, exists=reason == "", reject_reason=reason,
        residual=residual, branch=branch,
    )


@functools.lru_cache(maxsize=8)
def _scan(n: int, grid: int) -> Optional[tuple]:
    """Branch A's read-only alpha grid, its k, same-k pair mask, cos(pi*k -
    n*alpha/2) and cos(alpha/2) at (n, grid), or None for an empty range; a
    key holds 33*(grid + 1) bytes, 135 KiB at 4096, 2.2 MiB at MAX_GRID."""
    import numpy as np

    lo, hi = TWO_PI / n + 1e-12, math.pi - 1e-12
    if lo >= hi:
        return None
    pts = lo + (hi - lo) * np.arange(grid + 1) / grid
    x = n * pts / TWO_PI
    ks = np.floor(x - 1.5) + 1.0
    # k is defined where it lies in the open interval (x - 3/2, x - 1/2)
    defined = (x - 1.5 < ks) & (ks < x - 0.5)
    arrays = (pts, ks, defined[:-1] & defined[1:] & (ks[:-1] == ks[1:]),
              np.cos(np.pi * ks - 0.5 * n * pts), np.cos(0.5 * pts))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def enumerate_s2_nonminimal(
    R: float, n: int, grid: int = 4096
) -> List[SolutionRecord]:
    """All non-minimal sphere chain candidates at fixed (R, n).

    Branch A scans alpha in (2*pi/n, pi) for roots of
    cos(pi*k - n*alpha/2) + R*cos(alpha/2) with k the unique integer putting
    beta' = pi*k - n*alpha/2 inside (-3*pi/2, -pi/2).  ``_scan`` memoises
    the R-free grid arrays per (n, grid); per call, one multiply-add only
    marks candidate brackets: a sign change, or |h| within float dust of
    zero at either end, so that np.cos differing from math.cos in the last
    ulp can add a bracket but never drop one.  Each candidate is
    re-evaluated with math.cos and its root comes from ``_bisect``, the one
    bisection, to adjacent floats, so every root is what a scalar scan of
    the grid finds.
    Branch B takes the rational angles alpha = 2*pi*k'/n, gcd(k', n) = 1,
    and solves cos(beta') = -R*cos(pi*k'/n) for both roots in (-2*pi, 0].
    Candidates failing ``chain_reason`` are kept with its reason.
    """
    _check_domain(R, grid, n)
    records: List[SolutionRecord] = []
    if (scan := _scan(n, grid)) is not None:
        pts, ks, same_k, phase_cos, half_cos = scan
        hs = phase_cos + R * half_cos
        # a sign test, not h1*h2, which overflows (and warns) at huge R.
        # |h| near zero marks the exact zeros the scalar code takes as roots
        # and the signs np.cos may flip against math.cos in the last ulp;
        # the bound scales with R, as the rounding of R*cos does
        near = abs(hs) < 1e-9 * (1.0 + abs(R))
        brackets = same_k & (
            ((hs[:-1] < 0.0) != (hs[1:] < 0.0)) | near[:-1] | near[1:])
        half_n = 0.5 * n
        for i in brackets.nonzero()[0].tolist():
            k = int(ks[i])
            pk = math.pi * k

            def h(alpha: float) -> float:
                return math.cos(pk - half_n * alpha) + R * math.cos(0.5 * alpha)
            a1, a2 = float(pts[i]), float(pts[i + 1])
            h1, h2 = h(a1), h(a2)
            if h1 == 0.0:
                alpha = a1
            elif h1 * h2 < 0.0:
                alpha = _bisect(h, a1, a2)
            else:
                continue
            if records and abs(records[-1].alpha - alpha) < 1e-9:
                continue  # a root at the end two brackets share
            records.append(_candidate(R, n, "A", k, alpha, pk - half_n * alpha,
                                      abs(h(alpha))))

    for kp in range(1, (n - 1) // 2 + 1):
        if math.gcd(kp, n) != 1:
            continue
        alpha = TWO_PI * kp / n  # below pi, as 2*kp < n
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

    The full (pi - 2*pi/n, pi] for R > sec(pi*k/n); below it the interval
    left by the forbidden sector (cos(delta/2) = R*cos(pi*k/n)), which is
    'restricted' only if it is not empty and ``cycle_reason``, the rule
    ``reps.build`` applies, accepts its midpoint, the beta' the CLI builds.
    So the rule, not a threshold of its own, decides the onset.
    """
    _check_domain(R)
    reason = cycle_reason(R, n, k)
    if reason:
        raise DomainError(reason)
    ck = math.cos(math.pi * k / n)
    # the rule at beta' = pi, bit for bit: 0.5*(TWO_PI*k/n) is math.pi*k/n
    # in binary floating point and cos(pi) is -1.0, so c_squared(pi, R,
    # alpha) <= 0 exactly when R <= 1.0/ck; the split spares n cosines
    if R > 1.0 / ck:
        return BetaWindow("full", math.pi - TWO_PI / n, math.pi, 0.0)
    # R*ck < -1 below the onset
    delta = 2.0 * math.acos(max(-1.0, min(R * ck, 1.0)))
    lo, hi = math.pi - TWO_PI / n + 0.5 * delta, math.pi - 0.5 * delta
    if lo < hi and not cycle_reason(R, n, k, 0.5 * (lo + hi)):
        return BetaWindow("restricted", lo, hi, delta)
    return BetaWindow("none", None, None, None)


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
    R = R_eps = sqrt(1 + eps^2) is matched from above only, up to R_eps *
    (1 + R_EPS_REL_TOL): probe values are decimal roundings of the exact
    root, and below R_eps no window builds.
    """
    _check_domain(R)
    if not eps > 0.0:  # nan included
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
    elif r_eps <= R <= r_eps * (1.0 + R_EPS_REL_TOL):
        label = RegionLabel.SPHERE_TORUS_BOUNDARY
    elif R < r_eps:
        label = RegionLabel.SPHERE_TORUS
    else:
        label = RegionLabel.TORUS
    flags = _REGION_FLAGS[label]
    return RegionInfo(label, R, eps, r_eps, *flags)


def minimal_reason(R: float, n: int, alpha: float, beta_prime: float) -> str:
    """The one minimal-chain rule: "" if ``chain_reason`` accepts the chain
    and the region table lists a minimal chain at (R, tan(alpha/2)); else
    why not.  The solver and ``reps.spec_reason`` both ask it."""
    reason = chain_reason(R, n, alpha, beta_prime)
    if reason:
        return reason
    info = classify_region(R, math.tan(0.5 * alpha))
    return "" if info.minimal_s2 else (
        f"no minimal chain in region {info.label.value}: R = {R!r}, "
        f"R_eps = sqrt(1 + tan^2(alpha/2)) = {info.R_eps!r}")


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
    R_values = sorted(R_values)
    for R in R_values:
        _check_domain(R, grid)
    rows: List[SweepRow] = []
    for R in R_values:
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
