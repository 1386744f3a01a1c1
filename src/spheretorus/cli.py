"""Command-line interface.

Subcommands: topology, slice, solve-min-s2, enum-s2, t2-window, classify,
build, verify, reduce, poisson, sweep, diagram.  Exit codes: 0 on success,
1 on domain errors (including non-existence, and results that overflow to
a non-finite number), 2 on usage or expression parse errors.  A failure
is a SpheretorusError carrying its exit code; _fail() writes its one
record to standard error, as JSON unless --format text (usage errors
always as JSON), cut to MAX_MESSAGE characters.  Sizes are capped
(MAX_DIM, MAX_GRID, MAX_SWEEP) before anything is built.
The only environment variable honored is NO_COLOR (suppresses ANSI codes
in text output; JSON/CSV/SVG are never colored).

build_parser() declares each subcommand with its own flags; main() parses
with one parser, built on its first call and kept for the process.
Importing this module loads no numpy.  The handlers that compute with
arrays (enum-s2, build, verify, sweep, diagram) load it when they run:
they import ``reps`` and ``emit`` there, and the non-minimal chain scan
imports numpy itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from fractions import Fraction
from typing import Iterable, List, Optional

from .algebra import AlgebraContext
from .classify import (
    Family,
    SolutionRecord,
    SweepRow,
    classify_region,
    enumerate_s2_nonminimal,
    solve_minimal_s2,
    sweep_regions,
    t2_beta_window,
)
from .errors import DomainError, SpheretorusError, UsageError
from .geometry import slice_curve, topology_of
from .jsontext import render_json, render_json_compact, render_pieces
from .parser import parse_expr

TWO_PI = 2.0 * math.pi
# size caps; `build` writes 403 MB (s2min) or 269 MB (nc-torus) at MAX_DIM
MAX_DIM = 4096
MAX_GRID = 65536
MAX_SWEEP = 1024
# longest error message written; a longer one is cut and ends in "..."
MAX_MESSAGE = 240

_NO_BETA = "no admissible beta': below the finite-torus threshold"
_BUILD_FAMILIES = tuple(family.value for family in Family)
# the families with an (R, n, alpha, beta') spec that diagram can draw
_REP_FAMILIES = tuple(family.value for family in Family
                      if family not in (Family.FUZZY_SPHERE, Family.NC_TORUS))


def _paint(text: str, code: str, stream) -> str:
    if "NO_COLOR" in os.environ:
        return text
    if not hasattr(stream, "isatty") or not stream.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _tnum(x: Optional[float]) -> str:
    return "" if x is None else "%.12g" % x


def _fail(args, exc: SpheretorusError) -> int:
    """Write the one error record of a failure; return its exit code."""
    message = str(exc)
    if len(message) > MAX_MESSAGE:
        message = message[:MAX_MESSAGE] + "..."
    if getattr(args, "format", None) == "text" and \
            not isinstance(exc, UsageError):
        sys.stderr.write(_paint(f"error: {message}", "31", sys.stderr) + "\n")
    else:
        sys.stderr.write(render_json_compact(
            {"error": message, **(exc.record or {})}) + "\n")
    return exc.exit_code


def _print_doc(args, doc: dict, text_lines: List[str], compact: bool = False) -> None:
    if args.format == "text":
        text = "".join(line + "\n" for line in text_lines)
    elif compact:
        text = render_json_compact(doc) + "\n"
    else:
        text = render_json(doc)
    _deliver(args, text)


def _deliver(args, text: Iterable[str]) -> None:
    """Send output to --out (with a receipt on stdout) or stdout: a str, or
    the pieces of one (``render_pieces``), each written as it is made."""
    pieces = [text] if isinstance(text, str) else text
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        sys.stdout.write(render_json_compact({"out": args.out}) + "\n")
    else:
        sys.stdout.writelines(pieces)


def _require(args, *dests) -> None:
    missing = [dest for dest in dests if getattr(args, dest) is None]
    if missing:
        pretty = ", ".join("--" + dest.replace("_", "-") for dest in missing)
        args._parser.error(f"{args.command} needs {pretty}")


def _nu(args) -> complex:
    if args.nu_phase is None:
        return 1.0 + 0.0j
    return complex(math.cos(args.nu_phase), math.sin(args.nu_phase))


def _record_doc(rec) -> dict:
    """A record dataclass's fields, in declaration order."""
    return {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}


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
        bits.append(f"beta={_tnum(rec.beta)}")
    bits.append(f"exists={flag}")
    if rec.reject_reason:
        bits.append(f"reject={rec.reject_reason!r}")
    return " ".join(bits)


# spec assembly shared by build/verify/diagram -------------------------------


# the flags each family needs; they are checked before reps is imported,
# so that a missing flag is a usage error that loads no numpy
_SPEC_FLAGS = {
    "s2min": ("R", "n"),
    "s2nonmin": ("R", "n", "alpha", "beta_prime"),
    "t2": ("R", "n", "k"),
    "t2window": ("R", "n", "alpha"),
    "fuzzy-sphere": ("n",),
    "nc-torus": ("n", "k"),
}


def _resolve_spec(args, family: str) -> ReprSpec:
    _require(args, *_SPEC_FLAGS[family])
    from .reps import ReprSpec

    if family == "s2min":
        rec = solve_minimal_s2(args.R, args.n)
        if not rec.exists:
            raise DomainError(rec.reject_reason)
        return ReprSpec(Family.S2MIN, args.R, args.n, rec.alpha,
                        rec.beta_prime)
    if family == "s2nonmin":
        return ReprSpec(Family.S2NONMIN, args.R, args.n, args.alpha,
                        args.beta_prime, k=args.k)
    if family == "t2":
        bp = args.beta_prime
        if bp is None:
            win = t2_beta_window(args.R, args.n, args.k)
            if win.kind == "none":
                raise DomainError(_NO_BETA)
            bp = math.pi if win.kind == "full" else 0.5 * (win.lo + win.hi)
        return ReprSpec(Family.T2, args.R, args.n, TWO_PI * args.k / args.n,
                        bp, k=args.k, nu=_nu(args))
    bp = math.pi if args.beta_prime is None else args.beta_prime
    return ReprSpec(Family.T2WINDOW, args.R, args.n, args.alpha, bp)


def _build_target(args, family: str):
    """What build or verify names by family: a ReprMatrices, or the
    clock/shift NcTorusPair for nc-torus."""
    _require(args, *_SPEC_FLAGS[family])
    from .reps import build, build_fuzzy_sphere, nc_torus_pair

    if family == "fuzzy-sphere":
        return build_fuzzy_sphere(args.n)
    if family == "nc-torus":
        beta = 0.0 if args.beta_prime is None else args.beta_prime
        return nc_torus_pair(args.n, args.k, beta, _nu(args))
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
    rec = solve_minimal_s2(args.R, args.n)
    if not rec.exists:
        raise DomainError(rec.reject_reason, _record_doc(rec))
    _print_doc(args, _record_doc(rec), [_record_line(rec, sys.stdout)])
    return 0


def _cmd_enum_s2(args) -> int:
    records = enumerate_s2_nonminimal(args.R, args.n, grid=args.grid)
    if args.format == "csv":
        from .emit import emit_sweep_csv

        _deliver(args, emit_sweep_csv(map(SweepRow.of_chain, records)))
        return 0
    doc = {
        "R": args.R,
        "n": args.n,
        "count": len(records),
        "count_existing": sum(1 for r in records if r.exists),
        "records": [_record_doc(r) for r in records],
    }
    stream = None if args.out else sys.stdout  # no colour in a file
    _print_doc(args, doc, [_record_line(r, stream) for r in records])
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
        raise DomainError(_NO_BETA, doc)
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
    target = _build_target(args, args.family)
    from .emit import document

    # every number is checked before the first piece is written
    _deliver(args, render_pieces(document(target)))
    return 0


def _cmd_verify(args) -> int:
    target = args.target
    if os.path.isfile(target):
        from .emit import load_rep_json

        with open(target, encoding="utf-8", errors="replace") as fh:
            loaded = load_rep_json(fh.read())
    elif target in _BUILD_FAMILIES:
        loaded = _build_target(args, target)
    else:
        args._parser.error(
            f"target {target!r} is neither a readable file nor a family "
            f"({', '.join(_BUILD_FAMILIES)})"
        )
    from .reps import ReprMatrices, check_irreducible, verify_relations

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
    if not ok:
        raise DomainError(f"max residual {worst:.6e} exceeds tol {tol:.6e}")
    return 0


def _print_form(args, nf) -> int:
    """Print a normal form; one past Python's int/str digit limit is a
    domain failure."""
    try:
        rendered = str(nf)
    except ValueError:
        raise DomainError(f"result has an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits, too long "
                          f"to print") from None
    _print_doc(args, rendered, [rendered], compact=True)
    return 0


def _cmd_reduce(args) -> int:
    return _print_form(args, parse_expr(args.expr, AlgebraContext(args.R)))


def _cmd_poisson(args) -> int:
    ctx = AlgebraContext(args.R)
    f, g = parse_expr(args.f, ctx), parse_expr(args.g, ctx)
    return _print_form(args, f.poisson(g))


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
        values = [lo + i * step for i in range(count)]
        if all(map(math.isfinite, values)):  # hi - lo may overflow
            return values
    except ValueError:
        pass
    args._parser.error(f"--R must be a number or lo:hi:count with "
                       f"1 <= count <= {MAX_SWEEP}, got {text!r}")


def _cmd_sweep(args) -> int:
    rows = sweep_regions(args.n, _parse_R_range(args), grid=args.grid)
    if args.format == "json":
        # a SweepRow's __dict__ holds its fields in declaration order
        _print_doc(args, {"n": args.n, "rows": list(map(vars, rows))}, [])
        return 0
    from .emit import emit_sweep_csv

    _deliver(args, emit_sweep_csv(rows))
    return 0


def _cmd_diagram(args) -> int:
    spec = _resolve_spec(args, args.family)
    from .emit import emit_diagram_svg

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


def _fraction(text: str) -> Fraction:
    """argparse type of an exact option: 1/0 is a usage error as well."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid Fraction value: {text!r}") from None


_dim = _bounded_int(1, MAX_DIM)
# every residue k mod n of an n <= MAX_DIM lies in this range
_winding = _bounded_int(-MAX_DIM, MAX_DIM)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise UsageError (exit code 2) instead of exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _flag(name: str, **kwargs):
    """One argument of a subcommand: its name and add_argument keywords."""
    return name, kwargs


def _format(*choices):
    """--format over choices; the first is the default."""
    return _flag("--format", choices=choices, default=choices[0],
                 help=f"output format (default {choices[0]})")


def _grid(default: int):
    return _flag("--grid", type=_bounded_int(1, MAX_GRID), default=default,
                 help=f"grid/sample count (default {default})")


_R = _flag("--R", type=_finite_float, required=True,
           help="surface parameter R")
_R_SPEC = _flag("--R", type=_finite_float, help="surface parameter R")
_R_EXACT = _flag("--R", type=_fraction, required=True,
                 help="surface parameter R, exact (e.g. 5/8 or 0.625)")
_CHAIN = _flag("--n", type=_dim, required=True, help="chain length")
_OUT = _flag("--out", help="write output to this file")
_JSON_TEXT = _format("json", "text")
_JSON_CSV_TEXT = _format("json", "csv", "text")


def build_parser() -> argparse.ArgumentParser:
    """The `spheretorus` parser; main() builds it once per process."""
    parser = _Parser(
        prog="spheretorus",
        description="Deformed sphere-torus algebra: exact normal forms, "
                    "matrix representations, parameter classification, and "
                    "diagram emitters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the five flags that pick a representation, for build, verify, diagram
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--n", type=_dim, help="matrix dimension")
    spec.add_argument("--k", type=_winding, help="winding integer k")
    spec.add_argument("--alpha", type=_finite_float, help="angle step alpha")
    spec.add_argument("--beta-prime", type=_finite_float,
                      help="angle offset beta'")
    spec.add_argument("--nu-phase", type=_finite_float,
                      help="wrap phase angle; nu = exp(i*phase)")

    def new(name, func, help_, *flags, parents=()):
        sp = sub.add_parser(name, help=help_, parents=parents)
        sp.set_defaults(func=func, _parser=sp)
        for flag, kwargs in flags:
            sp.add_argument(flag, **kwargs)

    new("topology", _cmd_topology, "label the commutative surface at R",
        _R, _JSON_TEXT)
    new("slice", _cmd_slice, "sample the y=0 slice curve of the surface",
        _R, _grid(256), _OUT, _JSON_CSV_TEXT)
    new("solve-min-s2", _cmd_solve_min_s2,
        "solve the minimal sphere chain angle at (R, n)",
        _R, _JSON_TEXT, _CHAIN)
    new("enum-s2", _cmd_enum_s2,
        "enumerate non-minimal sphere chain candidates at (R, n)",
        _R, _grid(4096), _OUT, _JSON_CSV_TEXT, _CHAIN)
    new("t2-window", _cmd_t2_window,
        "admissible beta' window for the finite torus at (R, n, k)",
        _R, _JSON_TEXT,
        _flag("--n", type=_dim, required=True, help="cycle length"),
        _flag("--k", type=_winding, required=True, help="winding integer"))
    new("classify", _cmd_classify,
        "classify the (R, eps) parameter point and its families",
        _R, _flag("--eps", type=_finite_float, required=True,
                  help="deformation parameter eps = tan(alpha/2)"),
        _JSON_TEXT)
    new("build", _cmd_build,
        "build a representation and emit its JSON document",
        _flag("family", choices=_BUILD_FAMILIES), _OUT, _R_SPEC,
        parents=[spec])
    new("verify", _cmd_verify,
        "check defining-relation residuals of a file or fresh build",
        _flag("target", help="path to a representation JSON file, or a "
                             "family name to build from the flags"),
        _JSON_TEXT, _R_SPEC,
        _flag("--tol", type=_finite_float, default=None,
              help="pass threshold (default 1e-10 * n)"),
        parents=[spec])
    new("reduce", _cmd_reduce,
        "parse an expression and print its normal form",
        _R_EXACT, _JSON_TEXT,
        _flag("--expr", required=True, help="expression to reduce"))
    new("poisson", _cmd_poisson,
        "Poisson bracket of two expressions in the commutative limit",
        _R_EXACT, _JSON_TEXT,
        _flag("--f", required=True, help="first expression"),
        _flag("--g", required=True, help="second expression"))
    new("sweep", _cmd_sweep,
        "solve every family over a range of R and tabulate rows",
        _grid(4096), _OUT, _format("csv", "json"),
        _flag("--n", type=_dim, required=True, help="dimension"),
        _flag("--R", required=True, help="single value or lo:hi:count range"))
    new("diagram", _cmd_diagram,
        "emit the circle diagram SVG for a representation spec",
        _flag("family", choices=_REP_FAMILIES), _OUT, _R_SPEC,
        parents=[spec])
    return parser


_shared_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    args = None
    try:
        args = _shared_parser().parse_args(argv)
        for dest, value in vars(args).items():
            if isinstance(value, list):  # `--flag=--` before Python 3.13
                args._parser.error(f"argument --{dest.replace('_', '-')}: "
                                   f"expected one argument")
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code
    except SpheretorusError as exc:
        return _fail(args, exc)
    except OSError as exc:
        return _fail(args, SpheretorusError(f"i/o error: {exc}"))


if __name__ == "__main__":
    sys.exit(main())
