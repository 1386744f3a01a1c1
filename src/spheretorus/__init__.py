"""Exact and numeric tools for the one-parameter sphere-to-torus algebra.

The package splits along the natural seams of the subject:

- ``epsring``: exact scalars (rational functions of the deformation
  parameter with complex-rational coefficients),
- ``algebra``: unique normal forms and exact products, adjoints, the
  commutative limit and its Poisson bracket,
- ``reps``: explicit matrix representations of every classified family
  plus two reference models,
- ``classify``: parameter-region solvers and the region table,
- ``geometry``: the commutative surface, its chart and topology,
- ``parser`` / ``emit`` / ``cli``: expression surface syntax, JSON/CSV/SVG
  emitters and the command-line front end.
"""

from .epsring import CRat, EpsScalar, NotDivisible
from .algebra import (
    AlgebraContext,
    CommutativePoly,
    ContextMismatch,
    NormalForm,
    UnknownGenerator,
)
from .errors import ChartDomainError, DomainError, InvalidSpec
from .reps import (
    Family,
    NcTorusPair,
    ReprMatrices,
    ReprSpec,
    ResidualReport,
    build,
    build_fuzzy_sphere,
    build_nc_torus,
    build_s2,
    build_t2_finite,
    build_t2_window,
    c_squared,
    check_irreducible,
    epsilon_of_alpha,
    fuzzy_sphere_residuals,
    nc_torus_residuals,
    rep_evaluate,
    verify_relations,
)
from .classify import (
    BetaWindow,
    RegionInfo,
    RegionLabel,
    SolutionRecord,
    SweepRow,
    classify_region,
    enumerate_s2_nonminimal,
    solve_minimal_s2,
    sweep_regions,
    t2_beta_window,
)
from .geometry import (
    DarbouxPoint,
    Point3,
    TopologyLabel,
    darboux_point,
    poisson_fd,
    slice_curve,
    topology_of,
    variety_residual,
)
from .parser import ParseError, fold, parse, parse_expr
from .emit import (
    emit_diagram_svg,
    emit_rep_json,
    emit_sweep_csv,
    load_rep_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
