"""Command-line interface.

Subcommands: topology, slice, solve-min-s2, enum-s2, t2-window, classify,
build, verify, reduce, poisson, sweep, diagram.  Exit codes: 0 on success,
1 on domain errors (including non-existence), 2 on usage or expression
parse errors.  Errors go to standard error, as JSON unless --format text;
usage errors always as JSON.  Sizes are capped (MAX_DIM, MAX_GRID,
MAX_SWEEP) before anything is built.
The only environment variable honored is NO_COLOR (suppresses ANSI codes
in text output; JSON/CSV/SVG are never colored).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import List, Optional

from .algebra import AlgebraContext, ContextMismatch, UnknownGenerator
from .classify import (
    SolutionRecord,
    SweepRow,
    classify_region,
    enumerate_s2_nonminimal,
    solve_minimal_s2,
    sweep_regions,
    t2_beta_window,
)
from .emit import (
    emit_diagram_svg,
    emit_rep_json,
    emit_sweep_csv,
    load_rep_json,
    render_json,
    render_json_compact,
)
from .epsring import NotDivisible
from .errors import DomainError, InvalidSpec
from .geometry import slice_curve, topology_of
from .parser import ParseError, parse_expr
from .reps import (
    Family,
    NcTorusPair,
    ReprMatrices,
    ReprSpec,
    build,
    build_fuzzy_sphere,
    build_nc_torus,
    check_irreducible,
    verify_relations,
)

TWO_PI = 2.0 * math.pi
# size caps; the dense matrices of a `build` document are 805 MB at MAX_DIM
MAX_DIM = 4096
MAX_GRID = 65536
MAX_SWEEP = 1024

_REP_FAMILIES = ("s2min", "s2nonmin", "t2", "t2window")
_BUILD_FAMILIES = _REP_FAMILIES + ("fuzzy-sphere", "nc-torus")


def _paint(text: str, code: str, stream) -> str:
    if "NO_COLOR" in os.environ:
        return text
    if not hasattr(stream, "isatty") or not stream.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _tnum(x: Optional[float]) -> str:
    return "" if x is None else "%.12g" % x


def _fail(args, message: str, payload: Optional[dict] = None) -> int:
    fmt = getattr(args, "format", "json") or "json"
    if fmt == "text":
        sys.stderr.write(_paint(f"error: {message}", "31", sys.stderr) + "\n")
    else:
        doc = {"error": message}
        if payload:
            doc.update(payload)
        sys.stderr.write(render_json_compact(doc) + "\n")
    return 1


def _print_doc(args, doc: dict, text_lines: List[str], compact: bool = False) -> None:
    if getattr(args, "format", "json") == "text":
        for line in text_lines:
            sys.stdout.write(line + "\n")
    elif compact:
        sys.stdout.write(render_json_compact(doc) + "\n")
    else:
        sys.stdout.write(render_json(doc))


def _deliver(args, text: str) -> None:
    """Send emitter output to --out (with a receipt on stdout) or stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        sys.stdout.write(render_json_compact({"out": args.out}) + "\n")
    else:
        sys.stdout.write(text)


def _require(args, **flags) -> None:
    missing = [flag for flag, value in flags.items() if value is None]
    if missing:
        pretty = ", ".join("--" + flag.replace("_", "-") for flag in missing)
        args._parser.error(f"{args.command} needs {pretty}")


def _nu(args) -> complex:
    phase = getattr(args, "nu_phase", None)
    if phase is None:
        return 1.0 + 0.0j
    return complex(math.cos(phase), math.sin(phase))


def _record_doc(rec: SolutionRecord) -> dict:
    beta = None
    if rec.alpha is not None and rec.beta_prime is not None:
        beta = rec.beta_prime + 0.5 * rec.alpha
    return {
        "family": rec.family.value,
        "R": rec.R,
        "n": rec.n,
        "k": rec.k,
        "alpha": rec.alpha,
        "beta_prime": rec.beta_prime,
        "beta": beta,
        "exists": rec.exists,
        "reject_reason": rec.reject_reason,
        "residual": rec.residual,
        "branch": rec.branch,
    }


def _record_line(rec: SolutionRecord, stream) -> str:
    flag = _paint("true", "32", stream) if rec.exists else \
        _paint("false", "31", stream)
    bits = [f"family={rec.family.value}"]
    if rec.branch:
        bits.append(f"branch={rec.branch}")
    if rec.k is not None:
        bits.append(f"k={rec.k}")
    if rec.alpha is not None:
        bits.append(f"alpha={_tnum(rec.alpha)}")
    if rec.beta_prime is not None:
        bits.append(f"beta_prime={_tnum(rec.beta_prime)}")
        bits.append(f"beta={_tnum(rec.beta_prime + 0.5 * (rec.alpha or 0.0))}")
    bits.append(f"exists={flag}")
    if rec.reject_reason:
        bits.append(f"reject={rec.reject_reason!r}")
    return " ".join(bits)


# spec assembly shared by build/verify/diagram -------------------------------


def _resolve_spec(args, family: str) -> ReprSpec:
    if family == "s2min":
        _require(args, R=args.R, n=args.n)
        rec = solve_minimal_s2(args.R, args.n)
        if not rec.exists:
            raise DomainError(rec.reject_reason)
        return ReprSpec(Family.S2MIN, args.R, args.n, rec.alpha,
                        rec.beta_prime)
    if family == "s2nonmin":
        _require(args, R=args.R, n=args.n, alpha=args.alpha,
                 beta_prime=args.beta_prime)
        return ReprSpec(Family.S2NONMIN, args.R, args.n, args.alpha,
                        args.beta_prime, k=args.k)
    if family == "t2":
        _require(args, R=args.R, n=args.n, k=args.k)
        bp = args.beta_prime
        if bp is None:
            win = t2_beta_window(args.R, args.n, args.k)
            if win.kind == "none":
                raise DomainError(
                    "no admissible beta': below the finite-torus threshold"
                )
            bp = math.pi if win.kind == "full" else 0.5 * (win.lo + win.hi)
        return ReprSpec(Family.T2, args.R, args.n, TWO_PI * args.k / args.n,
                        bp, k=args.k, nu=_nu(args))
    if family == "t2window":
        _require(args, R=args.R, n=args.n, alpha=args.alpha)
        if args.n % 2 == 0 or args.n < 3:
            raise InvalidSpec(
                f"window dimension must be odd and >= 3, got {args.n}"
            )
        bp = math.pi if args.beta_prime is None else args.beta_prime
        return ReprSpec(Family.T2WINDOW, args.R, args.n, args.alpha, bp,
                        M=(args.n - 1) // 2)
    raise InvalidSpec(f"unknown family {family!r}")


def _build_target(args, family: str):
    """What build or verify names by family: a ReprMatrices, or the
    clock/shift NcTorusPair for nc-torus."""
    if family == "fuzzy-sphere":
        _require(args, n=args.n)
        return build_fuzzy_sphere(args.n)
    if family == "nc-torus":
        _require(args, n=args.n, k=args.k)
        beta = 0.0 if args.beta_prime is None else args.beta_prime
        nu = _nu(args)
        return NcTorusPair(args.n, args.k, beta, nu,
                           *build_nc_torus(args.n, args.k, beta=beta, nu=nu))
    return build(_resolve_spec(args, family))


# subcommand handlers --------------------------------------------------------


def _cmd_topology(args) -> int:
    label = topology_of(args.R).value
    _print_doc(args, {"label": label}, [label], compact=True)
    return 0


def _cmd_slice(args) -> int:
    points = slice_curve(args.R, samples=args.grid)
    if args.format == "csv":
        lines = ["x,z"] + [f"{_tnum(x)},{_tnum(z)}" for x, z in points]
        _deliver(args, "\n".join(lines) + "\n")
        return 0
    doc = {"R": args.R, "samples": args.grid,
           "points": [[x, z] for x, z in points]}
    _print_doc(args, doc, [f"{_tnum(x)} {_tnum(z)}" for x, z in points])
    return 0


def _cmd_solve_min_s2(args) -> int:
    rec = solve_minimal_s2(args.R, args.n, tol=args.tol)
    if not rec.exists:
        return _fail(args, rec.reject_reason, _record_doc(rec))
    _print_doc(args, _record_doc(rec), [_record_line(rec, sys.stdout)])
    return 0


def _cmd_enum_s2(args) -> int:
    records = enumerate_s2_nonminimal(args.R, args.n, grid=args.grid,
                                      tol=args.tol)
    if args.format == "csv":
        _deliver(args, emit_sweep_csv(map(SweepRow.of_chain, records)))
        return 0
    doc = {
        "R": args.R,
        "n": args.n,
        "count": len(records),
        "count_existing": sum(1 for r in records if r.exists),
        "records": [_record_doc(r) for r in records],
    }
    _print_doc(args, doc, [_record_line(r, sys.stdout) for r in records])
    return 0


def _cmd_t2_window(args) -> int:
    win = t2_beta_window(args.R, args.n, args.k)
    doc = {
        "family": "t2",
        "R": args.R,
        "n": args.n,
        "k": args.k,
        "alpha": TWO_PI * args.k / args.n,
        "kind": win.kind,
        "beta_lo": win.lo,
        "beta_hi": win.hi,
        "delta": win.delta,
    }
    if win.kind == "none":
        return _fail(args, "no admissible beta': below the finite-torus "
                           "threshold", doc)
    line = (f"kind={win.kind} beta_lo={_tnum(win.lo)} "
            f"beta_hi={_tnum(win.hi)} delta={_tnum(win.delta)}")
    _print_doc(args, doc, [line])
    return 0


def _cmd_classify(args) -> int:
    info = classify_region(args.R, args.eps)
    doc = {
        "label": info.label.value,
        "R": info.R,
        "eps": info.eps,
        "R_eps": info.R_eps,
        "flags": info.flags,
    }
    flag_bits = " ".join(f"{k}={str(v).lower()}" for k, v in info.flags.items())
    lines = [f"label={info.label.value} R={_tnum(info.R)} "
             f"eps={_tnum(info.eps)} R_eps={_tnum(info.R_eps)}", flag_bits]
    _print_doc(args, doc, lines)
    return 0


def _cmd_build(args) -> int:
    _deliver(args, emit_rep_json(_build_target(args, args.family)))
    return 0


def _cmd_verify(args) -> int:
    target = args.target
    if os.path.isfile(target):
        with open(target, encoding="utf-8", errors="replace") as fh:
            loaded = load_rep_json(fh.read())
    elif target in _BUILD_FAMILIES:
        loaded = _build_target(args, target)
    else:
        args._parser.error(
            f"target {target!r} is neither a readable file nor a family "
            f"({', '.join(_BUILD_FAMILIES)})"
        )
    report = verify_relations(loaded)
    residuals = report.residuals
    # a clock/shift pair has no ladder, so no irreducibility verdict
    ladder = isinstance(loaded, ReprMatrices)
    family, n = ((loaded.spec.family, loaded.spec.n) if ladder
                 else (Family.NC_TORUS, loaded.n))
    tol = args.tol if args.tol is not None else 1e-10 * n
    worst = report.max_residual
    ok = worst <= tol
    doc = {
        "family": family.value,
        "n": n,
        "tol": tol,
        "ok": ok,
        "max_residual": worst,
        "residuals": {key: residuals[key] for key in sorted(residuals)},
        "excluded": list(report.excluded),
    }
    if ladder:
        doc["irreducible"] = check_irreducible(loaded)
    verdict = _paint("ok", "32", sys.stdout) if ok else \
        _paint("FAIL", "31", sys.stdout)
    lines = [f"{key} {residuals[key]:.6e}" for key in sorted(residuals)]
    lines.append(f"max {worst:.6e} tol {tol:.6e} {verdict}")
    _print_doc(args, doc, lines)
    return 0 if ok else _fail(args, f"max residual {worst:.6e} exceeds tol "
                                    f"{tol:.6e}")


def _cmd_reduce(args) -> int:
    ctx = AlgebraContext(args.R)
    nf = parse_expr(args.expr, ctx)
    rendered = str(nf)
    _print_doc(args, rendered, [rendered], compact=True)
    return 0


def _cmd_poisson(args) -> int:
    ctx = AlgebraContext(args.R)
    bracket = parse_expr(args.f, ctx).poisson(parse_expr(args.g, ctx))
    rendered = str(bracket)
    _print_doc(args, rendered, [rendered], compact=True)
    return 0


def _parse_R_range(args) -> List[float]:
    text = args.R
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo, hi, count = float(parts[0]), 0.0, 1
        elif len(parts) == 3:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        else:
            raise ValueError
        if not (1 <= count <= MAX_SWEEP and math.isfinite(lo)
                and math.isfinite(hi)):
            raise ValueError
        if count == 1:
            return [lo]
        step = (hi - lo) / (count - 1)
        return [lo + i * step for i in range(count)]
    except ValueError:
        pass
    args._parser.error(f"--R must be a number or lo:hi:count with "
                       f"1 <= count <= {MAX_SWEEP}, got {text!r}")


def _cmd_sweep(args) -> int:
    rows = sweep_regions(args.n, _parse_R_range(args), grid=args.grid)
    if args.format == "json":
        _print_doc(args, {"n": args.n, "rows": list(map(asdict, rows))}, [])
        return 0
    _deliver(args, emit_sweep_csv(rows))
    return 0


def _cmd_diagram(args) -> int:
    spec = _resolve_spec(args, args.family)
    _deliver(args, emit_diagram_svg(spec))
    return 0


# parser assembly ------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type of every float option: nan and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}")
    return value


def _bounded_int(lo: int, hi: int):
    """argparse type of an integer size option: values outside [lo, hi] are
    usage errors, caught before anything is allocated."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r:.40}") from None
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"must lie in [{lo}, {hi}], got {value}")
        return value

    return parse


_dim = _bounded_int(1, MAX_DIM)
_grid = _bounded_int(1, MAX_GRID)


class _Parser(argparse.ArgumentParser):
    """Usage errors go to stderr as a JSON error record, exit code 2."""

    def error(self, message):
        sys.stderr.write(render_json_compact(
            {"error": f"{self.prog}: {message}"}) + "\n")
        raise SystemExit(2)


def _add_common(sp, *, R=False, R_exact=False, n=False, k=False, alpha=False,
                beta_prime=False, nu_phase=False, eps=False, tol=None,
                grid=None, out=False, formats=None, default_format="json"):
    if R:
        sp.add_argument("--R", type=_finite_float, required=True,
                        help="surface parameter R")
    if R_exact:
        sp.add_argument("--R", type=Fraction, required=True,
                        help="surface parameter R, exact (e.g. 5/8 or 0.625)")
    if n:
        sp.add_argument("--n", type=_dim, help="matrix dimension")
    if k:
        sp.add_argument("--k", type=int, help="winding integer k")
    if alpha:
        sp.add_argument("--alpha", type=_finite_float, help="angle step alpha")
    if beta_prime:
        sp.add_argument("--beta-prime", type=_finite_float, dest="beta_prime",
                        help="angle offset beta'")
    if nu_phase:
        sp.add_argument("--nu-phase", type=_finite_float, dest="nu_phase",
                        help="wrap phase angle; nu = exp(i*phase)")
    if eps:
        sp.add_argument("--eps", type=_finite_float, required=True,
                        help="deformation parameter eps = tan(alpha/2)")
    if tol is not None:
        sp.add_argument("--tol", type=_finite_float, default=tol,
                        help=f"numeric tolerance (default {tol})")
    if grid is not None:
        sp.add_argument("--grid", type=_grid, default=grid,
                        help=f"grid/sample count (default {grid})")
    if out:
        sp.add_argument("--out", help="write output to this file")
    if formats:
        sp.add_argument("--format", choices=formats, default=default_format,
                        help=f"output format (default {default_format})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spheretorus",
        description="Deformed sphere-torus algebra: exact normal forms, "
                    "matrix representations, parameter classification, and "
                    "diagram emitters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, func, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=func, _parser=sp)
        return sp

    sp = new("topology", _cmd_topology,
             "label the commutative surface at R")
    _add_common(sp, R=True, formats=("json", "text"))

    sp = new("slice", _cmd_slice,
             "sample the y=0 slice curve of the surface")
    _add_common(sp, R=True, grid=256, out=True,
                formats=("json", "csv", "text"))

    sp = new("solve-min-s2", _cmd_solve_min_s2,
             "solve the minimal sphere chain angle at (R, n)")
    _add_common(sp, R=True, tol=1e-12, formats=("json", "text"))
    sp.add_argument("--n", type=_dim, required=True, help="chain length")

    sp = new("enum-s2", _cmd_enum_s2,
             "enumerate non-minimal sphere chain candidates at (R, n)")
    _add_common(sp, R=True, tol=1e-12, grid=4096, out=True,
                formats=("json", "csv", "text"))
    sp.add_argument("--n", type=_dim, required=True, help="chain length")

    sp = new("t2-window", _cmd_t2_window,
             "admissible beta' window for the finite torus at (R, n, k)")
    _add_common(sp, R=True, formats=("json", "text"))
    sp.add_argument("--n", type=_dim, required=True, help="cycle length")
    sp.add_argument("--k", type=int, required=True, help="winding integer")

    sp = new("classify", _cmd_classify,
             "classify the (R, eps) parameter point and its families")
    _add_common(sp, R=True, eps=True, formats=("json", "text"))

    sp = new("build", _cmd_build,
             "build a representation and emit its JSON document")
    sp.add_argument("family", choices=_BUILD_FAMILIES)
    _add_common(sp, R=False, n=True, k=True, alpha=True, beta_prime=True,
                nu_phase=True, out=True)
    sp.add_argument("--R", type=_finite_float, help="surface parameter R")

    sp = new("verify", _cmd_verify,
             "check defining-relation residuals of a file or fresh build")
    sp.add_argument("target",
                    help="path to a representation JSON file, or a family "
                         "name to build from the flags")
    _add_common(sp, n=True, k=True, alpha=True, beta_prime=True,
                nu_phase=True, formats=("json", "text"))
    sp.add_argument("--R", type=_finite_float, help="surface parameter R")
    sp.add_argument("--tol", type=_finite_float, default=None,
                    help="pass threshold (default 1e-10 * n)")

    sp = new("reduce", _cmd_reduce,
             "parse an expression and print its normal form")
    _add_common(sp, R_exact=True, formats=("json", "text"))
    sp.add_argument("--expr", required=True, help="expression to reduce")

    sp = new("poisson", _cmd_poisson,
             "Poisson bracket of two expressions in the commutative limit")
    _add_common(sp, R_exact=True, formats=("json", "text"))
    sp.add_argument("--f", required=True, help="first expression")
    sp.add_argument("--g", required=True, help="second expression")

    sp = new("sweep", _cmd_sweep,
             "solve every family over a range of R and tabulate rows")
    _add_common(sp, grid=4096, out=True, formats=("csv", "json"),
                default_format="csv")
    sp.add_argument("--n", type=_dim, required=True, help="dimension")
    sp.add_argument("--R", required=True,
                    help="single value or lo:hi:count range")

    sp = new("diagram", _cmd_diagram,
             "emit the circle diagram SVG for a representation spec")
    sp.add_argument("family", choices=_REP_FAMILIES)
    _add_common(sp, n=True, k=True, alpha=True, beta_prime=True,
                nu_phase=True, out=True)
    sp.add_argument("--R", type=_finite_float, help="surface parameter R")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse reports usage problems by raising SystemExit(2); fold
        # them back into the return-code contract
        return exc.code if isinstance(exc.code, int) else 2
    except ParseError as exc:
        _fail(args, str(exc))
        return 2
    except (DomainError, InvalidSpec, ContextMismatch, UnknownGenerator,
            NotDivisible) as exc:
        return _fail(args, str(exc))
    except OSError as exc:
        return _fail(args, f"i/o error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
