"""Seeded input sets and checked operations of the four benchmark workloads.

A workload is a fixed list of ops built from a seed.  Each op is a callable
returning ``(ok, output)``: ``ok`` is the op's correctness check and
``output`` is the text folded into the workload's digest, so that two
commits can be compared byte for byte.  The seed chooses generators,
coefficients, parameters and argv values; the mix of op kinds and size
classes is fixed, so every seed makes the same op-count mix.

The ops call the package through module attributes (``reps.build_s2``),
never through names bound at import time, so a tracer that patches the
modules sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from spheretorus import algebra, classify, cli, emit, parser, reps

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Op:
    kind: str
    size: int
    run: Callable[[], Tuple[bool, str]]


# exact ----------------------------------------------------------------------

EXACT_R = ("5/8", "0", "2", "3/2", "-1/2")
_CLASSES = {"L": ("x", "y"), "W": ("z", "w"), "P": ("ap", "am"),
            "U": ("u", "ud"), "E": ("eps",)}
_COEFFS = ("1", "-1", "2", "0.5", "i")
# Monomial shapes by generator class; at most four generators each.  Fixed
# shapes keep the cost of an op nearly independent of the seed, which only
# picks class members, factor order and coefficients.
_TRIPLES = (
    ("LP", "PU", "W"), ("P", "LW", "PU"), ("LWU", "P", "E"),
    ("PP", "U", "LW"), ("WU", "LP", "P"), ("L", "W", "PUE"),
    ("PW", "PU", "L"), ("LU", "E", "PW"), ("P", "P", "LWU"),
    ("W", "LPU", "U"), ("LPPU", "P", "W"), ("LW", "PU", "PE"),
    ("LPWU", "P", "U"),
)
_PAIRS = (("LP", "W"), ("PU", "L"), ("LW", "P"), ("P", "WU"), ("LPU", "E"),
          ("U", "LW"), ("PW", "PU"))
# (summand classes, power); sums of a ladder and a winding sum such as
# (x+z)^2 cost 150-300 ms each and would alone set the p90
_SUMS = ((("L", "P"), 3), (("W", "U"), 3), (("P", "U"), 3), (("P", "W"), 2),
         (("L", "E"), 2), (("P", "E"), 3))
_POISSON = (("L", "W"), ("P", "U"), ("LU", "P"), ("W", "LP"))
# ops per pass: ~60% associativity, then commutator, adjoint, power, poisson
EXACT_MIX = (("assoc", 120), ("commutator", 30), ("adjoint", 20),
             ("power", 20), ("poisson", 10))


def _monomials(rng: random.Random, shapes, slot: int) -> List[str]:
    """Monomials of the given shapes; coefficients cycle with the slot."""
    out = []
    for j, shape in enumerate(shapes):
        factors = [rng.choice(_CLASSES[c]) for c in shape]
        rng.shuffle(factors)
        out.append("*".join([_COEFFS[(slot + j) % len(_COEFFS)]] + factors))
    return out


def reduce_op(kind: str, R: str, text: str, expected: str = "0") -> Op:
    """One `spheretorus reduce`: fresh context, parse, fold, print."""

    def run():
        out = str(parser.parse_expr(text, algebra.AlgebraContext(Fraction(R))))
        return out == expected, out

    return Op(kind, 0, run)


def poisson_op(R: str, f: str, g: str) -> Op:
    """Both brackets {f,g} and {g,f}; they must cancel exactly."""

    def run():
        ctx = algebra.AlgebraContext(Fraction(R))
        a = parser.parse_expr(f, ctx).poisson(parser.parse_expr(g, ctx))
        b = parser.parse_expr(g, ctx).poisson(parser.parse_expr(f, ctx))
        return (a + b).is_zero(), str(a)

    return Op("poisson", 0, run)


def exact_ops(seed: int) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    for kind, count in EXACT_MIX:
        for i in range(count):
            R = EXACT_R[i % len(EXACT_R)]
            if kind == "assoc":
                a, b, c = _monomials(rng, _TRIPLES[i % len(_TRIPLES)], i)
                ops.append(reduce_op(kind, R, f"({a})*(({b})*({c})) - (({a})*({b}))*({c})"))
            elif kind == "commutator":
                f, g = _monomials(rng, _PAIRS[i % len(_PAIRS)], i)
                ops.append(reduce_op(kind, R, f"[{f},{g}] + [{g},{f}]"))
            elif kind == "adjoint":
                f, g = _monomials(rng, _PAIRS[i % len(_PAIRS)], i)
                ops.append(reduce_op(kind, R, f"({f} + {g})'' - ({f} + {g})"))
            elif kind == "power":
                classes, p = _SUMS[i % len(_SUMS)]
                s = " + ".join(rng.choice(_CLASSES[c]) for c in classes)
                ops.append(reduce_op(kind, R, f"({s})^{p} - ({s})^{p - 1}*({s})"))
            else:
                f, g = _monomials(rng, _POISSON[i % len(_POISSON)], i)
                ops.append(poisson_op(R, f, g))
    return ops


# matrix ---------------------------------------------------------------------

MATRIX_FAMILIES = ("s2min", "t2", "t2window", "fuzzy-sphere", "s2nonmin")
# Ops per pass by size class; the p50 rank (50.5 of 100) lies mid-way in the
# 128 class and the p90 rank (90.9) inside the 256 class.  n = 1024 is left
# out: its single op took 3-4 s, 40% of a pass, which left 2-3 passes in a
# 30 s run and let that one op set ops_per_s.
MATRIX_CLASSES = ((64, 26), (128, 58), (256, 13), (512, 3))
# R values whose non-minimal enumeration has an existing chain at every size
_S2NONMIN_R = ("1.1", "1.5")


def _decimal(rng: random.Random, lo: float, hi: float) -> str:
    """A value with three decimals, so float(text) and Fraction(text) agree."""
    return f"{rng.uniform(lo, hi):.3f}"


def _window_alpha(rng: random.Random, n: int) -> float:
    """An angle whose first n multiples stay 1e-6 turns apart mod 1, so the
    window's winding eigenvalues are distinct and the angle is irrational
    as far as build_t2_window can tell."""
    while True:
        turn = 0.381966 + rng.uniform(-0.01, 0.01)
        if all(abs(d * turn - round(d * turn)) > 1e-6 for d in range(1, n)):
            return TWO_PI * turn


def _rel_err(left: np.ndarray, right: np.ndarray) -> float:
    return float(np.linalg.norm(left - right) / (1.0 + np.linalg.norm(right)))


def _spec_for(family: str, n: int, rng: random.Random):
    """Everything an op needs to solve and build one representation.

    Returns (R text for the algebra context, solve-and-build callable)."""
    if family == "s2min":
        R = _decimal(rng, -0.9, 0.9)

        def build():
            rec = classify.solve_minimal_s2(float(R), n)
            if not rec.exists:
                raise ValueError(rec.reject_reason)
            return reps.build_s2(reps.ReprSpec(
                reps.Family.S2MIN, float(R), n, rec.alpha, rec.beta_prime))
        return R, build
    if family == "s2nonmin":
        R = rng.choice(_S2NONMIN_R)

        def build():
            rec = next(r for r in classify.enumerate_s2_nonminimal(float(R), n)
                       if r.exists)
            return reps.build_s2(reps.ReprSpec(
                reps.Family.S2NONMIN, float(R), n, rec.alpha, rec.beta_prime,
                k=rec.k))
        return R, build
    if family == "t2":
        k = rng.choice([k for k in (1, 3, 5) if k < n / 2 and math.gcd(n, k) == 1
                        and 1.0 / math.cos(math.pi * k / n) < 2.5])
        R = _decimal(rng, 1.0 / math.cos(math.pi * k / n) + 0.05, 2.95)

        def build():
            win = classify.t2_beta_window(float(R), n, k)
            bp = math.pi if win.kind == "full" else 0.5 * (win.lo + win.hi)
            return reps.build_t2_finite(reps.ReprSpec(
                reps.Family.T2, float(R), n, 0.0, bp, k=k))
        return R, build
    if family == "t2window":
        dim = n - 1 if n % 2 == 0 else n
        alpha = _window_alpha(rng, dim)
        R = _decimal(rng, 1.0 / math.cos(0.5 * alpha) + 0.05,
                     1.0 / math.cos(0.5 * alpha) + 1.0)

        def build():
            return reps.build_t2_window(reps.ReprSpec(
                reps.Family.T2WINDOW, float(R), dim, alpha, math.pi,
                M=(dim - 1) // 2))
        return R, build
    if family == "fuzzy-sphere":
        return "1", lambda: reps.build_fuzzy_sphere(n)
    raise ValueError(f"unknown family {family!r}")


def _residuals(m) -> reps.ResidualReport:
    if m.spec.family == reps.Family.FUZZY_SPHERE:
        return reps.ResidualReport(reps.fuzzy_sphere_residuals(m))
    return reps.verify_relations(m)


def matrix_op(family: str, n: int, rng: random.Random) -> Op:
    """Solve, build, verify at 1e-10*n, check irreducibility, and check one
    product against the matrix product of its factors."""
    R, build = _spec_for(family, n, rng)
    # winding-only forms on the fuzzy sphere, whose ladder obeys su(2)
    f = rng.choice(("u", "ud") if family == "fuzzy-sphere" else ("x", "y"))
    g = rng.choice(("z", "w"))

    def run():
        m = build()
        report = _residuals(m)
        irreducible = reps.check_irreducible(m)
        ctx = algebra.AlgebraContext(Fraction(R))
        fa, ga = ctx.generator(f), ctx.generator(g)
        left = reps.rep_evaluate(fa * ga, m)
        right = reps.rep_evaluate(fa, m) @ reps.rep_evaluate(ga, m)
        if m.spec.family == reps.Family.T2WINDOW:
            # truncation corrupts the rows next to the window edges
            left, right = left[2:-2, 2:-2], right[2:-2, 2:-2]
        ok = (report.ok(1e-10 * m.spec.n) and irreducible
              and _rel_err(left, right) < 1e-9)
        spec = m.spec
        return ok, (f"{family} n={spec.n} R={R} alpha={spec.alpha:.12g} "
                    f"beta'={spec.beta_prime:.12g} irreducible={irreducible} "
                    f"product={f}*{g}")

    return Op(family, n, run)


def _sized_ops(seed: int, classes, families, make) -> List[Op]:
    """Families rotate within each size class, so a class with one op
    always holds the first family."""
    rng = random.Random(seed)
    ops = []
    for n, count in classes:
        for i in range(count):
            ops.append(make(families[i % len(families)], n, rng))
    return ops


def matrix_ops(seed: int, classes=MATRIX_CLASSES) -> List[Op]:
    return _sized_ops(seed, classes, MATRIX_FAMILIES, matrix_op)


# roundtrip ------------------------------------------------------------------

# p50 (rank 50.5) in the 32 class, p90 (rank 90.9) in the 64 class; n = 256
# is left out like matrix n = 1024 (its one op took 1.5-2.5 s)
ROUNDTRIP_CLASSES = ((16, 30), (32, 54), (64, 14), (128, 2))
ROUNDTRIP_FAMILIES = ("s2min", "t2", "nc-torus", "t2window", "fuzzy-sphere",
                      "s2nonmin")


def roundtrip_op(family: str, n: int, rng: random.Random) -> Op:
    """emit -> load -> verify + irreducibility -> emit; texts must match.

    The representation is built while the input set is made; the op starts
    from it."""
    if family == "nc-torus":
        return _nc_torus_roundtrip(n, rng)
    _, build = _spec_for(family, n, rng)
    m = build()

    def run():
        text = emit.emit_rep_json(m)
        loaded = emit.load_rep_json(text)
        report = _residuals(loaded)
        irreducible = reps.check_irreducible(loaded)
        again = emit.emit_rep_json(loaded, report=report)
        ok = again == text and report.ok(1e-10 * m.spec.n) and irreducible
        return ok, text

    return Op(family, n, run)


def _nc_torus_roundtrip(n: int, rng: random.Random) -> Op:
    k = rng.choice([k for k in range(1, max(2, n // 2)) if math.gcd(n, k) == 1][:4])
    beta = float(_decimal(rng, -1.0, 1.0))
    nu = complex(math.cos(beta), math.sin(beta))
    u, v = reps.build_nc_torus(n, k, beta=beta, nu=nu)

    def run():
        text = emit.emit_nc_torus_json(u, v, n, k, beta, nu)
        pair = emit.load_rep_json(text)
        residuals = reps.nc_torus_residuals(pair.u, pair.v, pair.n, pair.k)
        again = emit.emit_nc_torus_json(pair.u, pair.v, pair.n, pair.k,
                                        pair.beta, pair.nu)
        ok = again == text and max(residuals.values()) <= 1e-10 * n
        return ok, text

    return Op("nc-torus", n, run)


def roundtrip_ops(seed: int, classes=ROUNDTRIP_CLASSES) -> List[Op]:
    return _sized_ops(seed, classes, ROUNDTRIP_FAMILIES, roundtrip_op)


# survey ---------------------------------------------------------------------

# criterion 11's identity corpus; every entry reduces to 0 at R = 5/8
IDENTITY_CORPUS = (
    "[x,y] - i*eps*z",
    "[y,z] - i*eps*(w*x + x*w)",
    "[z,x] - i*eps*(w*y + y*w)",
    "z^2 + w^2 - 1",
    "x^2 + y^2 - w - 0.625",
    "u*ud - 1",
    "ud*u - 1",
    "u^-1 - ud",
    "ap - x - i*y",
    "am - x + i*y",
    "ap*am - am*ap - 2*eps*z",
    "w - (u + ud)*0.5",
    "z + (u - ud)*i*0.5",
    "u*ap - ap*u*(1 + 2*i*eps - eps^2)*(1+eps^2)^-1",
    "ud*ap - ap*ud*(1 - 2*i*eps - eps^2)*(1+eps^2)^-1",
    "u*am - am*u*(1 - 2*i*eps - eps^2)*(1+eps^2)^-1",
    "ap*am - (1 - i*eps)*u*0.5 - (1 + i*eps)*ud*0.5 - 0.625",
    "am*ap - (1 + i*eps)*u*0.5 - (1 - i*eps)*ud*0.5 - 0.625",
    "[x,y]' + i*eps*z",
    "(x*y*z)' - z*y*x",
    "[eps, x*y*u]",
    "[z^2 + w^2, ap]",
    "[x^2 + y^2 - w, u]",
    "(ap^2)' - am^2",
    "(u*ap)' - am*ud",
    "x*(y*z) - (x*y)*z",
    "(x+y)^2 - x^2 - x*y - y*x - y^2",
    "2*x - ap - am",
    "i^2 + 1",
    "(1+eps^2)*(1+eps^2)^-1 - 1",
)


def cli_op(argv: Sequence[str], expected_exit: int, expected_stdout=None) -> Op:
    """One in-process `spheretorus` call with stdout and stderr captured."""
    argv = list(argv)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        ok = code == expected_exit and (
            expected_stdout is None or text == expected_stdout)
        return ok, f"{code}\n{text}"

    return Op(argv[0], 0, run)


def survey_ops(seed: int, workdir: str) -> List[Op]:
    """The README command set over seeded parameters, with the exit code
    each argv class documents.  Files for `verify <file>` are written into
    workdir while the input set is made."""
    rng = random.Random(seed)
    ops: List[Op] = []

    def d(lo, hi):
        return _decimal(rng, lo, hi)

    def fmt(i, formats):
        return ["--format", formats[i % len(formats)]]

    def add(count, make, expected_exit=0):
        for i in range(count):
            ops.append(cli_op(make(i), expected_exit))

    add(8, lambda i: ["topology", "--R", d(-1.5, 3.0)] + fmt(i, ("json", "text")))
    add(6, lambda i: ["slice", "--R", d(-0.9, 2.5), "--grid", "64"]
        + fmt(i, ("csv", "json", "text")))
    add(8, lambda i: ["solve-min-s2", "--R", d(-0.9, 0.9), "--n",
                      str(rng.randint(3, 12))] + fmt(i, ("json", "text")))
    add(3, lambda i: ["solve-min-s2", "--R", d(2.1, 3.0), "--n",
                      str(rng.randint(3, 12))], expected_exit=1)
    add(6, lambda i: ["enum-s2", "--R", d(1.0, 2.4), "--n", "11"]
        + fmt(i, ("csv", "json", "text")))
    add(5, lambda i: ["t2-window", "--R", d(1.6, 3.0), "--n", "11", "--k",
                      str(1 + i % 3)] + fmt(i, ("json", "text")))
    add(3, lambda i: ["t2-window", "--R", d(0.2, 0.8), "--n", "11", "--k",
                      str(1 + i % 5)], expected_exit=1)
    add(6, lambda i: ["classify", "--R", d(-1.5, 3.0), "--eps", d(0.05, 2.0)]
        + fmt(i, ("json", "text")))
    for i, expr in enumerate(IDENTITY_CORPUS):
        ops.append(cli_op(["reduce", "--R", "5/8", "--expr", expr]
                          + fmt(i, ("json", "text")), 0,
                          '"0"\n' if i % 2 == 0 else "0\n"))
    add(2, lambda i: ["reduce", "--R", "5/8", "--expr",
                      rng.choice(("x +", "[x, y", "x*q"))], expected_exit=2)
    gens = ("x", "y", "z", "w", "ap", "am", "u", "ud")
    add(6, lambda i: ["poisson", f"--R={rng.choice(EXACT_R)}", "--f",
                      rng.choice(gens), "--g", rng.choice(gens)])
    add(4, lambda i: ["sweep", "--n", str((7, 9, 11)[i % 3]),
                      f"--R={d(0.6, 1.0)}:{d(1.8, 2.4)}:6"]
        + fmt(i, ("csv", "json")))
    add(4, lambda i: ["build", "s2min", "--R", d(-0.9, 0.9), "--n",
                      str(rng.randint(3, 16))])
    add(1, lambda i: ["build", "t2", "--R", d(2.7, 4.0), "--n", "5", "--k", "2"])
    add(1, lambda i: ["build", "fuzzy-sphere", "--n", str(rng.randint(2, 16))])
    add(1, lambda i: ["build", "nc-torus", "--n", "7", "--k",
                      str(rng.randint(1, 6))])
    # `verify s2min` on a fresh build raises at the seed (the solver gets
    # --tol None); s2min chains are verified from files below
    add(3, lambda i: ["verify", "t2", "--R", d(2.0, 3.0), "--n", "11", "--k",
                      str(1 + i)] + fmt(i, ("json", "text")))
    add(2, lambda i: ["verify", "t2window", "--R", d(3.3, 3.8), "--n", "9",
                      "--alpha", d(2.3, 2.5)] + fmt(i, ("json", "text")))
    add(2, lambda i: ["verify", "t2", "--R", d(2.0, 3.0), "--n", "11",
                      "--k", "3", "--tol", "1e-30"], expected_exit=1)
    for i in range(3):
        path = os.path.join(workdir, f"chain{i}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_survey_file(rng, i))
        ops.append(cli_op(["verify", path] + fmt(i, ("json", "text")), 0))
    add(2, lambda i: ["diagram", "s2min", "--R", d(-0.9, 0.9), "--n",
                      str(rng.randint(3, 16))])
    add(2, lambda i: ["diagram", "t2", "--R", d(2.0, 3.0), "--n", "11",
                      "--k", str(1 + i)])
    return ops


def _survey_file(rng: random.Random, i: int) -> str:
    if i == 2:
        u, v = reps.build_nc_torus(9, 2)
        return emit.emit_nc_torus_json(u, v, 9, 2)
    family = ("s2min", "t2")[i]
    _, build = _spec_for(family, rng.randint(5, 16), rng)
    return emit.emit_rep_json(build())


def make_ops(workload: str, seed: int, workdir: str) -> List[Op]:
    if workload == "exact":
        return exact_ops(seed)
    if workload == "matrix":
        return matrix_ops(seed)
    if workload == "roundtrip":
        return roundtrip_ops(seed)
    if workload == "survey":
        return survey_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def op_mix(ops: Sequence[Op]) -> Dict[str, int]:
    """Op counts by kind and size class, to compare seeds."""
    mix: Dict[str, int] = {}
    for op in ops:
        key = f"{op.kind}.n{op.size}" if op.size else op.kind
        mix[key] = mix.get(key, 0) + 1
    return dict(sorted(mix.items()))
