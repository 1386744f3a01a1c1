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
- ``parser`` / ``jsontext`` / ``emit`` / ``cli``: expression surface
  syntax, the JSON renderer, JSON/CSV/SVG emitters and the command-line
  front end.

Importing the package loads none of them: each export is imported from its
module on first access (PEP 562).  Only ``reps``, ``emit`` and the
non-minimal chain scan import numpy, so work that needs no arrays never
loads it.
"""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "epsring": ("CRat", "EpsScalar", "NotDivisible"),
    "algebra": ("AlgebraContext", "CommutativePoly", "ContextMismatch",
                "NormalForm", "UnknownGenerator"),
    "errors": ("ChartDomainError", "DomainError", "InvalidSpec"),
    "reps": ("NcTorusPair", "ReprMatrices", "ReprSpec", "ResidualReport",
             "build", "build_fuzzy_sphere", "build_nc_torus", "build_s2",
             "build_t2_finite", "build_t2_window", "check_irreducible",
             "fuzzy_sphere_residuals", "nc_torus_residuals", "rep_evaluate",
             "verify_relations"),
    "classify": ("BetaWindow", "Family", "RegionInfo", "RegionLabel",
                 "SolutionRecord", "SweepRow", "c_squared", "classify_region",
                 "enumerate_s2_nonminimal", "epsilon_of_alpha",
                 "solve_minimal_s2", "sweep_regions", "t2_beta_window"),
    "geometry": ("DarbouxPoint", "Point3", "TopologyLabel", "darboux_point",
                 "poisson_fd", "slice_curve", "topology_of",
                 "variety_residual"),
    "parser": ("ParseError", "fold", "parse", "parse_expr"),
    "emit": ("emit_diagram_svg", "emit_rep_json", "emit_sweep_csv",
             "load_rep_json"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
