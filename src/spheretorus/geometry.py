"""The commutative limit surface and its symplectic structure.

The surface M(R) is the level set z^2 + (x^2 + y^2 - R)^2 = 1.  On the
patch x^2 + y^2 > 0 it carries the chart

    x = rho * cos(q),  y = -rho * sin(q),  z = sin(2p),
    rho = sqrt(R + cos(2p)),

valid where R + cos(2p) > 0, with canonical bracket {p, q} = 1.  The
topology as R crosses -1, 0, 1 runs: empty, point, (convex) sphere,
pinched variety, torus.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, List, NamedTuple, Tuple

from .errors import ChartDomainError, DomainError

if TYPE_CHECKING:  # an annotation only: topology and slice load no algebra
    from .algebra import CommutativePoly


class Point3(NamedTuple):
    x: float
    y: float
    z: float


class DarbouxPoint(NamedTuple):
    p: float
    q: float


class TopologyLabel(str, Enum):
    NULL = "Null"
    POINT = "Point"
    CONVEX_SPHERE = "ConvexSphere"
    SPHERE = "Sphere"
    VARIETY = "Variety"
    TORUS = "Torus"


def variety_residual(point: Point3, R: float) -> float:
    """How far a point sits from the surface (zero on it)."""
    x, y, z = point
    w = x * x + y * y - R
    return z * z + w * w - 1.0


def darboux_point(p: float, q: float, R: float) -> Point3:
    """Chart map; raises ChartDomainError off the patch R + cos(2p) > 0."""
    rho2 = R + math.cos(2.0 * p)
    if rho2 <= 0.0:
        raise ChartDomainError(
            f"chart undefined at p={p!r}: R + cos(2p) = {rho2:.6g}"
        )
    rho = math.sqrt(rho2)
    return Point3(rho * math.cos(q), -rho * math.sin(q), math.sin(2.0 * p))


def topology_of(R: float) -> TopologyLabel:
    """Diffeomorphism type of the surface at this R."""
    if R < -1.0:
        return TopologyLabel.NULL
    if R == -1.0:
        return TopologyLabel.POINT
    if R <= 0.0:
        return TopologyLabel.CONVEX_SPHERE
    if R < 1.0:
        return TopologyLabel.SPHERE
    if R == 1.0:
        return TopologyLabel.VARIETY
    return TopologyLabel.TORUS


def slice_curve(R: float, samples: int = 256) -> List[Tuple[float, float]]:
    """The y = 0 section of the surface: points (x, z) with
    z^2 + (x^2 - R)^2 = 1.

    Parametrized by x^2 = R + cos(t), z = sin(t).  For R < 1 the two x-sign
    branches join at the poles into one closed curve; for R >= 1 each branch
    is sampled over the full turn (two ovals, pinched together at R = 1).
    Ordering is deterministic: the x >= 0 branch by increasing t, then the
    mirrored branch.
    """
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    if R < -1.0:
        return []
    if R == -1.0:
        return [(0.0, 0.0)]
    t_max = math.pi if R >= 1.0 else math.acos(max(-R, -1.0))
    ts = [-t_max + 2.0 * t_max * i / (samples - 1) for i in range(samples)]
    plus = [
        (math.sqrt(max(R + math.cos(t), 0.0)), math.sin(t)) for t in ts
    ]
    if R >= 1.0:
        minus = [(-x, z) for (x, z) in plus]
    else:
        # drop the shared pole points so the closed curve has no duplicates
        minus = [(-x, z) for (x, z) in reversed(plus[1:-1])]
    return plus + minus


def poisson_fd(
    f: CommutativePoly,
    g: CommutativePoly,
    dp: DarbouxPoint,
    R: float,
    h: float = 1e-5,
) -> complex:
    """Central-difference Poisson bracket {f, g} at a chart point.

    The five-point stencil must stay on the patch; otherwise
    ChartDomainError propagates from the evaluations.
    """
    p, q = dp
    fp = (f.eval_chart(p + h, q, R) - f.eval_chart(p - h, q, R)) / (2.0 * h)
    fq = (f.eval_chart(p, q + h, R) - f.eval_chart(p, q - h, R)) / (2.0 * h)
    gp = (g.eval_chart(p + h, q, R) - g.eval_chart(p - h, q, R)) / (2.0 * h)
    gq = (g.eval_chart(p, q + h, R) - g.eval_chart(p, q - h, R)) / (2.0 * h)
    return fp * gq - fq * gp
