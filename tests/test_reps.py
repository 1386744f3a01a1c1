"""Matrix representations: builders, residuals, reference models."""

import cmath
import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheretorus.algebra import AlgebraContext, ContextMismatch, NormalForm
from spheretorus.classify import (
    classify_region,
    enumerate_s2_nonminimal,
    solve_minimal_s2,
    t2_beta_window,
)
from spheretorus.emit import emit_nc_torus_json, emit_rep_json, load_rep_json
from spheretorus.errors import DomainError, InvalidSpec
from spheretorus.parser import parse_expr
from spheretorus.reps import (
    IRREDUCIBLE_TOL,
    Family,
    NcTorusPair,
    ReprMatrices,
    ReprSpec,
    alpha_of_epsilon,
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
    nc_torus_reason,
    nc_torus_residuals,
    rep_evaluate,
    spec_reason,
    split_xyzw,
    verify_relations,
)

TWO_PI = 2.0 * math.pi


def _minimal(R, n):
    rec = solve_minimal_s2(R, n)
    assert rec.exists
    return ReprSpec(Family.S2MIN, R, n, rec.alpha, rec.beta_prime)


def test_angle_parameter_round_trip():
    for alpha in (0.1, 0.5, math.pi / 2, 3.0):
        assert alpha_of_epsilon(epsilon_of_alpha(alpha)) == pytest.approx(
            alpha, abs=1e-15)
    assert epsilon_of_alpha(math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        epsilon_of_alpha(math.pi)
    with pytest.raises(DomainError):
        epsilon_of_alpha(0.0)
    with pytest.raises(DomainError):
        alpha_of_epsilon(-1.0)


def test_coupling_formula():
    # sec(pi/4)*cos(0) + 0 = sqrt(2)
    assert c_squared(0.0, 0.0, math.pi / 2) == pytest.approx(
        math.sqrt(2.0), rel=1e-15)
    assert c_squared(math.pi, 1.0, 0.5) == pytest.approx(
        1.0 - 1.0 / math.cos(0.25), rel=1e-14)
    for alpha in (0.0, math.pi, math.nan):
        with pytest.raises(DomainError, match="alpha must lie in"):
            c_squared(0.0, 0.5, alpha)


def test_two_site_chain_entry_is_fourth_root_of_two():
    m = build_s2(_minimal(0.0, 2))
    assert m.ap[1, 0].real == pytest.approx(2.0 ** 0.25, rel=1e-12)
    assert m.ap[1, 0].imag == 0.0
    assert m.ap[0, 1] == 0.0
    assert np.array_equal(m.am, m.ap.conj().T)


def test_sphere_chain_residuals_across_sizes():
    for R, n in ((0.0, 2), (0.5, 3), (0.5, 8), (-0.9, 5), (1.01, 17), (0.5, 64)):
        m = build_s2(_minimal(R, n))
        report = verify_relations(m)
        assert report.ok(1e-10 * n), (R, n, report.residuals)
        assert report.excluded == ()


def test_sphere_chain_winding_spectrum():
    spec = _minimal(0.5, 6)
    m = build_s2(spec)
    diag = np.diag(m.u)
    for idx in range(6):
        want = np.exp(1j * (spec.beta + idx * spec.alpha))
        assert abs(diag[idx] - want) < 1e-15


def test_sphere_chain_ladder_is_nilpotent():
    for R, n in ((0.0, 4), (0.5, 7)):
        m = build_s2(_minimal(R, n))
        assert np.linalg.norm(np.linalg.matrix_power(m.ap, n)) == 0.0


def test_sphere_chain_rejects_shifted_offset():
    rec = solve_minimal_s2(0.0, 4)
    spec = ReprSpec(Family.S2MIN, 0.0, 4, rec.alpha, rec.beta_prime + 0.3)
    with pytest.raises(InvalidSpec) as err:
        build_s2(spec)
    assert "m=0" in str(err.value)


def test_sphere_chain_rejects_interior_violation():
    # this candidate solves the endpoint equations but dips negative inside
    bad = [r for r in enumerate_s2_nonminimal(2.22, 11)
           if not r.exists and r.branch == "A" and abs(r.alpha - 2.40065) < 1e-3]
    assert len(bad) == 1
    rec = bad[0]
    assert "m=3" in rec.reject_reason
    spec = ReprSpec(Family.S2NONMIN, rec.R, rec.n, rec.alpha, rec.beta_prime)
    with pytest.raises(InvalidSpec) as err:
        build_s2(spec)
    assert "m=3" in str(err.value)


def test_nonminimal_chains_from_enumeration():
    for rec in enumerate_s2_nonminimal(1.97, 11):
        if not rec.exists:
            continue
        spec = ReprSpec(Family.S2NONMIN, rec.R, rec.n, rec.alpha,
                        rec.beta_prime)
        report = verify_relations(build_s2(spec))
        assert report.ok(1e-10 * rec.n), report.residuals


def _boundary_draws(end, count=300, seed=16):
    """(R, n) at log-spaced gaps from one end of the minimal range, with
    n = round(2^U(1, 12)): R = -1 + 10^U(-9, 0) at the low end,
    -1 + 10^U(-16, -9) at the lowest, and sec(pi/n) - 10^U(-12, -1) at
    the high end."""
    rng = random.Random(seed)
    for _ in range(count):
        n = round(2.0 ** rng.uniform(1.0, 12.0))
        if end == "low":
            yield -1.0 + 10.0 ** rng.uniform(-9.0, 0.0), n
        elif end == "lowest":
            yield -1.0 + 10.0 ** rng.uniform(-16.0, -9.0), n
        else:
            gap = 10.0 ** rng.uniform(-12.0, -1.0)
            yield 1.0 / math.cos(math.pi / n) - gap, n


@pytest.mark.parametrize("end", ["low", "lowest", "high"])
def test_every_solved_minimal_chain_builds(end):
    # every chain the solver reports must build, and the region table must
    # list it: near R = -1 every |C|^2 scales with 1 + R, so an absolute
    # interior floor would reject chains that verify; near sec(pi/n) the
    # solved R lies within float dust of R_eps = sqrt(1 + tan^2(alpha/2)).
    # At the lowest gaps the root's interior |C|^2, about 4(1 + R)/n, can
    # round to or below zero; the solver then refuses with the builder's
    # chain test, and only there: the root is bisected to adjacent floats
    solved = 0
    reducible = []
    for R, n in _boundary_draws(end):
        rec = solve_minimal_s2(R, n)
        if not rec.exists:
            if end == "lowest":
                assert rec.reject_reason.startswith(
                    "inequality fails at m="), (R, n, rec.reject_reason)
                assert 1.0 + R <= 1e-13, (R, n, rec.reject_reason)
            continue
        solved += 1
        assert classify_region(R, math.tan(0.5 * rec.alpha)).minimal_s2, (R, n)
        m = build_s2(ReprSpec(Family.S2MIN, R, n, rec.alpha, rec.beta_prime))
        assert verify_relations(m).ok(1e-10 * n), (R, n)
        if not check_irreducible(m):
            reducible.append((R, n, rec.alpha))
    assert solved > (110 if end == "lowest" else 250)
    assert not reducible, reducible


def test_every_enumerated_nonminimal_chain_is_listed():
    # R above 1 at log-spaced gaps, and R at log-spaced gaps either side of
    # a rational angle's R_eps = sec(pi*k'/n), where branch B's chains lie
    rng = random.Random(20)
    live = 0
    for _ in range(300):
        n = rng.randrange(3, 33)
        kp = rng.randrange(1, (n + 1) // 2)
        gap = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -1.0)
        for R in (1.0 + 10.0 ** rng.uniform(-9.0, 1.0),
                  (1.0 + gap) / math.cos(math.pi * kp / n)):
            for rec in enumerate_s2_nonminimal(R, n):
                if rec.exists:
                    live += 1
                    info = classify_region(R, math.tan(0.5 * rec.alpha))
                    assert info.nonminimal_s2, (R, n, rec.alpha)
    assert live > 2000


def test_finite_torus_residuals_and_wrap_independence():
    # R = 3 < sec(2*pi/5)/1, so the (5, 2) cycle only exists in a
    # restricted offset window; probe its midpoint
    from spheretorus.classify import t2_beta_window

    win = t2_beta_window(3.0, 5, 2)
    assert win.kind == "restricted"
    mid = 0.5 * (win.lo + win.hi)
    for nu in (1.0, complex(math.cos(2.0), math.sin(2.0))):
        spec = ReprSpec(Family.T2, 3.0, 5, 0.0, mid, k=2, nu=nu)
        m = build_t2_finite(spec)
        report = verify_relations(m)
        assert report.ok(1e-10 * 5), (nu, report.residuals)
        assert report.excluded == ()


def test_finite_torus_ladder_power_reproduces_wrap():
    nu = complex(math.cos(0.7), math.sin(0.7))
    spec = ReprSpec(Family.T2, 1.6, 11, 0.0, math.pi, k=3, nu=nu)
    m = build_t2_finite(spec)
    c2 = [c_squared(spec.beta_prime + j * spec.alpha, spec.R, spec.alpha)
          for j in range(11)]
    total = math.prod(math.sqrt(v) for v in c2)
    want = nu.conjugate() * total * np.eye(11)
    got = np.linalg.matrix_power(m.ap, 11)
    assert np.linalg.norm(got - want) < 1e-9 * total


def test_finite_torus_validation():
    with pytest.raises(InvalidSpec):  # gcd(10, 4) != 1
        build_t2_finite(ReprSpec(Family.T2, 3.0, 10, 0.0, math.pi, k=4))
    with pytest.raises(InvalidSpec):  # k too large
        build_t2_finite(ReprSpec(Family.T2, 3.0, 6, 0.0, math.pi, k=3))
    with pytest.raises(InvalidSpec):  # missing k
        build_t2_finite(ReprSpec(Family.T2, 3.0, 5, 1.0, math.pi))
    with pytest.raises(InvalidSpec) as err:  # offset outside its window
        build_t2_finite(ReprSpec(Family.T2, 1.02, 11, 0.0, 2.5, k=1))
    assert "m=" in str(err.value)


def test_gauge_conjugation_preserves_residuals():
    rng = random.Random(11)
    spec = ReprSpec(Family.T2, 3.0, 7, 0.0, math.pi, k=2)
    m = build_t2_finite(spec)
    phases = np.exp(1j * np.array([rng.uniform(0, TWO_PI) for _ in range(7)]))
    d = np.diag(phases)
    dh = d.conj().T
    rotated = ReprMatrices(spec, d @ m.u @ dh, d @ m.ap @ dh, d @ m.am @ dh)
    assert verify_relations(rotated).ok(1e-9)


def test_window_build_interior_residuals():
    spec = ReprSpec(Family.T2WINDOW, 1.5, 0, 0.9, math.pi, M=16)
    assert spec.n == 33
    m = build_t2_window(spec)
    report = verify_relations(m)
    assert report.excluded == (0, 32)
    assert report.ok(1e-10 * 33), report.residuals


def test_window_build_validation():
    with pytest.raises(InvalidSpec) as err:  # radius below the lattice bound
        build_t2_window(ReprSpec(Family.T2WINDOW, 1.0, 0, 0.9, math.pi, M=8))
    assert "sec" in str(err.value)
    with pytest.raises(InvalidSpec) as err:  # rational angle
        build_t2_window(
            ReprSpec(Family.T2WINDOW, 2.0, 0, TWO_PI / 6, math.pi, M=8))
    assert "rational" in str(err.value)
    # the spec alone decides the shape: an odd n >= 3 gives M = (n - 1) // 2
    spec = ReprSpec(Family.T2WINDOW, 1.5, 9, 0.9, math.pi)
    assert spec.M == 4
    by_n = build_t2_window(spec)
    by_M = build_t2_window(ReprSpec(Family.T2WINDOW, 1.5, 0, 0.9, math.pi,
                                    M=4))
    for got, want in zip(by_n.diags, by_M.diags):
        assert list(got.d) == list(want.d)
        for a in want.d:
            assert np.array_equal(got.d[a], want.d[a])
    # even n, n < 3 and M = 0 (n = 1) are one error, raised before alpha
    for n, M in ((8, None), (1, None), (-3, None), (0, 0)):
        shown = n if M is None else 2 * M + 1
        with pytest.raises(InvalidSpec, match=rf"^window dimension must be "
                           rf"odd and >= 3, got {shown}$"):
            ReprSpec(Family.T2WINDOW, 2.0, n, 9.0, math.pi, M=M)


def test_a_window_is_refused_where_its_points_repeat():
    # one distinctness rule: a window whose own points repeat is refused,
    # naming alpha's p/q, and every window the rule admits builds and reads
    # irreducible.  A rule that caps q (at 64, say) admits 2*pi*p/q with a
    # larger q < n, which then reads reducible
    rng = random.Random(5)
    admitted = refused = 0
    for draw in range(600):
        n = rng.randrange(5 if draw % 2 else 3, 402, 2)
        if draw % 2:
            q = rng.randrange(3, n)
            p = rng.choice([p for p in range(1, (q + 1) // 2)
                            if math.gcd(p, q) == 1])
            alpha = TWO_PI * p / q
        else:
            alpha = rng.uniform(0.001, math.pi - 0.001)
        R = 1 / math.cos(0.5 * alpha) + rng.uniform(0.05, 2.0)
        spec = ReprSpec(Family.T2WINDOW, R, n, alpha,
                        rng.uniform(-math.pi, math.pi))
        reason = spec_reason(spec)
        if reason:
            refused += 1
            assert draw % 2 and reason == (
                f"alpha = 2*pi*{p}/{q} is a rational angle; build the "
                "finite torus"), (n, alpha, reason)
        else:
            admitted += 1
            assert check_irreducible(build_t2_window(spec)), (n, alpha)
    assert admitted > 250 and refused > 250, (admitted, refused)


def test_representation_respects_adjoints():
    rng = random.Random(2024)
    ctx = AlgebraContext(Fraction(1, 2))
    gens = [ctx.generator(g) for g in ("x", "y", "z", "w", "u", "ud",
                                       "ap", "am", "eps")]
    spec = _minimal(0.5, 6)
    m = build_s2(spec)
    for _ in range(25):
        f = ctx.scalar(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 3)):
            f = f * rng.choice(gens) + ctx.scalar(rng.randint(-2, 2))
        lhs = rep_evaluate(f.adjoint(), m)
        rhs = rep_evaluate(f, m).conj().T
        assert np.linalg.norm(lhs - rhs) < 1e-9 * (1.0 + np.linalg.norm(rhs))


def test_representation_is_multiplicative():
    rng = random.Random(7)
    ctx = AlgebraContext(Fraction(4))
    gens = [ctx.generator(g) for g in ("x", "y", "u", "ap", "am")]
    # R = 4 > sec(2*pi/5): the full offset window, so beta' = pi is fine
    spec = ReprSpec(Family.T2, 4.0, 5, 0.0, math.pi, k=2)
    m = build_t2_finite(spec)
    for _ in range(25):
        f = rng.choice(gens) * rng.choice(gens)
        g = rng.choice(gens) + ctx.scalar(rng.randint(-2, 2))
        lhs = rep_evaluate(f * g, m)
        rhs = rep_evaluate(f, m) @ rep_evaluate(g, m)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * (1.0 + np.linalg.norm(rhs))


def test_representation_requires_matching_radius():
    ctx = AlgebraContext(Fraction(1, 4))
    m = build_s2(_minimal(0.5, 4))
    with pytest.raises(ContextMismatch):
        rep_evaluate(ctx.generator("x"), m)


def test_irreducibility_check():
    m = build_s2(_minimal(0.5, 5))
    assert check_irreducible(m)
    doubled = ReprMatrices(
        m.spec,
        np.kron(np.eye(2), m.u),
        np.kron(np.eye(2), m.ap),
        np.kron(np.eye(2), m.am),
    )
    assert not check_irreducible(doubled)


def test_spec_normalization():
    # sphere offsets wrap into (-2*pi, 0]
    spec = ReprSpec(Family.S2MIN, 0.0, 3, 1.0, 1.0)
    assert spec.beta_prime == pytest.approx(1.0 - TWO_PI, rel=1e-15)
    spec = ReprSpec(Family.S2MIN, 0.0, 3, 1.0, 0.0)
    assert spec.beta_prime == 0.0
    # finite-torus offsets are modulo the point spacing
    spec = ReprSpec(Family.T2, 3.0, 5, 0.0, 0.0, k=2)
    period = TWO_PI / 5
    assert math.pi - period < spec.beta_prime <= math.pi
    assert spec.alpha == pytest.approx(TWO_PI * 2 / 5, rel=1e-15)
    # derived quantities
    spec = ReprSpec(Family.S2MIN, 0.0, 2, math.pi / 2, -math.pi / 2)
    assert spec.eps == pytest.approx(1.0, abs=1e-15)
    assert spec.beta == pytest.approx(-math.pi / 4, rel=1e-15)
    with pytest.raises(InvalidSpec):
        ReprSpec(Family.S2MIN, 0.0, 3, -0.5, 0.0)
    with pytest.raises(InvalidSpec):
        ReprSpec(Family.S2MIN, 0.0, 3, 1.0, 0.0, nu=2.0)
    with pytest.raises(InvalidSpec):
        ReprSpec(Family.S2MIN, 0.0, 0, 1.0, 0.0)
    # a family given by its name is coerced; an unknown name is rejected
    assert ReprSpec("t2window", 2.0, 9, 0.9, math.pi).family is Family.T2WINDOW
    with pytest.raises(InvalidSpec, match="unknown family 'bogus'"):
        ReprSpec("bogus", 0.0, 3, 1.0, 0.0)


def test_fuzzy_sphere_reference():
    for n in range(2, 11):
        m = build_fuzzy_sphere(n)
        res = fuzzy_sphere_residuals(m)
        assert max(res.values()) < 1e-12, (n, res)
        assert m.spec.eps == pytest.approx(2.0 / math.sqrt(n * n - 1.0),
                                           rel=1e-15)
        assert np.linalg.norm(np.linalg.matrix_power(m.ap, n)) == 0.0
    x, y, z, _ = split_xyzw(build_fuzzy_sphere(5))
    eye = np.eye(5)
    assert np.linalg.norm(x @ x + y @ y + z @ z - eye) < 1e-12
    with pytest.raises(InvalidSpec):
        build_fuzzy_sphere(1)


def test_nc_torus_reference():
    nu = complex(math.cos(1.2), math.sin(1.2))
    u, v = build_nc_torus(7, 3, beta=0.4, nu=nu)
    res = nc_torus_residuals(u, v, 7, 3)
    assert max(res.values()) < 1e-12, res
    wrap = np.linalg.matrix_power(v, 7)
    assert np.linalg.norm(wrap - nu * np.eye(7)) < 1e-12
    with pytest.raises(InvalidSpec):
        build_nc_torus(6, 2)
    with pytest.raises(InvalidSpec):
        build_nc_torus(5, 1, nu=3.0)


# reference oracles ---------------------------------------------------------
#
# Loop-filled builders and the breadth-first irreducibility check, written
# entry by entry as the scaffold reads on paper.  The package builds the
# same matrices through one band constructor; these pin it.  Values are
# compared with np.array_equal, not bit by bit: a conj().T leaves -0.0
# imaginary parts on one ladder or the other, and both zeros print as 0.


def _ref_c2(spec, ms):
    return [c_squared(spec.beta_prime + m * spec.alpha, spec.R, spec.alpha)
            for m in ms]


def _ref_u(spec, ms):
    angles = [spec.beta + m * spec.alpha for m in ms]
    return np.diag(np.exp(1j * np.asarray(angles, dtype=float)))


def _ref_s2(spec):
    n = spec.n
    c2 = _ref_c2(spec, range(n + 1))
    ap = np.zeros((n, n), dtype=complex)
    for m in range(1, n):
        ap[m, m - 1] = math.sqrt(c2[m])
    return ReprMatrices(spec, _ref_u(spec, range(n)), ap, ap.conj().T)


def _ref_t2(spec):
    n = spec.n
    c2 = _ref_c2(spec, range(n))
    am = np.zeros((n, n), dtype=complex)
    for m in range(1, n):
        am[m - 1, m] = math.sqrt(c2[m])
    am[n - 1, 0] = spec.nu * math.sqrt(c2[0])
    return ReprMatrices(spec, _ref_u(spec, range(n)), am.conj().T, am)


def _ref_window(spec):
    ms = range(-spec.M, spec.M + 1)
    c2 = [max(v, 0.0) for v in _ref_c2(spec, ms)]
    am = np.zeros((spec.n, spec.n), dtype=complex)
    for j in range(1, spec.n):
        am[j - 1, j] = math.sqrt(c2[j])
    return ReprMatrices(spec, _ref_u(spec, ms), am.conj().T, am)


def _ref_fuzzy(n, spec):
    eps = 2.0 / math.sqrt(n * n - 1.0)
    ap = np.zeros((n, n), dtype=complex)
    for r in range(n - 1):
        ap[r + 1, r] = eps * math.sqrt((n - 1 - r) * (r + 1))
    zdiag = np.array([eps * (r - 0.5 * (n - 1)) for r in range(n)])
    u = np.diag(np.exp(1j * np.arcsin(zdiag)))
    return ReprMatrices(spec, u, ap, ap.conj().T)


def _ref_nc_torus(n, k, beta, nu):
    u = np.diag(np.exp(1j * (beta + TWO_PI * np.arange(n) * k / n)))
    v = np.zeros((n, n), dtype=complex)
    for r in range(n - 1):
        v[r + 1, r] = 1.0
    v[0, n - 1] = complex(nu)
    return u, v


def _ref_irreducible(m, tol=IRREDUCIBLE_TOL):
    diag = np.diag(m.u)
    n = len(diag)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(diag[i] - diag[j]) <= tol:
                return False
    strength = np.abs(m.ap) + np.abs(m.ap).T
    seen = {0}
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if j not in seen and strength[i, j] > 1e-12:
                seen.add(j)
                queue.append(j)
    return len(seen) == n


def _specs(family, n):
    """Specs of this family at dimension n, where the family exists."""
    if family == "s2min":
        for R in (-0.5, 0.5):
            rec = solve_minimal_s2(R, n)
            if rec.exists:
                yield ReprSpec(Family.S2MIN, R, n, rec.alpha, rec.beta_prime)
    elif family == "s2nonmin":
        live = [r for r in enumerate_s2_nonminimal(1.97, n) if r.exists]
        for rec in live[:1]:
            yield ReprSpec(Family.S2NONMIN, 1.97, n, rec.alpha,
                           rec.beta_prime, k=rec.k)
    elif family == "t2":
        nu = cmath.exp(0.7j)
        for k in (1, 2, 3):
            if k < n / 2 and math.gcd(n, k) == 1:
                win = t2_beta_window(3.0, n, k)
                if win.kind != "none":
                    bp = math.pi if win.kind == "full" else 0.5 * (win.lo + win.hi)
                    yield ReprSpec(Family.T2, 3.0, n, 0.0, bp, k=k, nu=nu)
    elif family == "t2window" and n % 2:
        yield ReprSpec(Family.T2WINDOW, 1.0 / math.cos(0.45) + 0.3, n, 0.9,
                       math.pi, M=(n - 1) // 2)


_REFS = {"s2min": _ref_s2, "s2nonmin": _ref_s2, "t2": _ref_t2,
         "t2window": _ref_window}


def _assert_matches_reference(m, ref):
    for name in ("u", "ap", "am"):
        assert np.array_equal(getattr(m, name), getattr(ref, name)), name
    assert emit_rep_json(m) == emit_rep_json(ref)
    assert verify_relations(m) == verify_relations(ref)
    assert check_irreducible(m) == _ref_irreducible(ref)


@pytest.mark.parametrize("family", sorted(_REFS))
def test_spec_builders_match_loop_filled_reference(family):
    built = 0
    for n in range(2, 65):
        for spec in _specs(family, n):
            m = build(spec)
            _assert_matches_reference(m, _REFS[family](spec))
            built += 1
    assert built >= 20, built


def test_fuzzy_sphere_matches_loop_filled_reference():
    for n in range(2, 65):
        m = build_fuzzy_sphere(n)
        _assert_matches_reference(m, _ref_fuzzy(n, m.spec))


def test_nc_torus_matches_loop_filled_reference():
    for n in range(2, 65):
        for k in (1, 2, 3):
            if math.gcd(n, k) != 1:
                continue
            for beta, nu in ((0.0, 1.0), (0.4, cmath.exp(1.2j))):
                u, v = build_nc_torus(n, k, beta=beta, nu=nu)
                ref_u, ref_v = _ref_nc_torus(n, k, beta, nu)
                assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)
                pair = NcTorusPair(n, k, beta, complex(nu), u, v)
                assert emit_rep_json(pair) == emit_nc_torus_json(
                    ref_u, ref_v, n, k, beta, nu)
                assert verify_relations(pair).residuals == nc_torus_residuals(
                    ref_u, ref_v, n, k)


def _diags(m):
    return {name: {a: v.tolist() for a, v in d.d.items()}
            for name, d in zip(("u", "ap", "am"), m.diags)}


def test_build_makes_the_fuzzy_sphere_from_its_spec():
    for n in range(2, 17):
        m = build_fuzzy_sphere(n)
        assert _diags(build(m.spec)) == _diags(m)
        # the su(2) ladder in closed form: z = eps*(r - (n-1)/2) and
        # couplings eps*sqrt((n-1-r)(r+1)), bit for bit
        eps, r = 2.0 / math.sqrt(n * n - 1.0), np.arange(n)
        assert m.spec.eps == eps
        assert m.diags[0].d[0].tolist() == np.exp(
            1j * np.arcsin(eps * (r - 0.5 * (n - 1)))).tolist()
        assert m.diags[2].d[1][:-1].tolist() == (
            eps * np.sqrt((n - 1 - r[:-1]) * (r[:-1] + 1))).astype(complex).tolist()
    with pytest.raises(InvalidSpec, match="fuzzy sphere spec is the one n = 3"):
        build(dataclasses.replace(build_fuzzy_sphere(3).spec, R=2.0))
    with pytest.raises(InvalidSpec, match="nc-torus has no spec"):
        build(ReprSpec(Family.NC_TORUS, 1.0, 5, 2 * TWO_PI / 5, 0.0, k=2))


def test_fuzzy_sphere_spec_needs_two_dimensions():
    # its eps, 2/sqrt(n^2 - 1), has no value at n = 1
    with pytest.raises(InvalidSpec, match=r"^fuzzy sphere needs n >= 2, got 1$"):
        ReprSpec(Family.FUZZY_SPHERE, 1.0, 1, 0.5, 0.0)
    # every other refusal keeps its own message
    with pytest.raises(InvalidSpec, match="dimension must be positive"):
        ReprSpec(Family.FUZZY_SPHERE, 1.0, 0, 0.5, 0.0)
    with pytest.raises(InvalidSpec, match="alpha must lie in"):
        ReprSpec(Family.FUZZY_SPHERE, 1.0, 1, 4.0, 0.0)
    assert ReprSpec(Family.FUZZY_SPHERE, 1.0, 2, 0.5, 0.0).eps == 2 / math.sqrt(3)


@pytest.mark.parametrize("family, R, n, alpha, beta_prime, k, bad", [
    (Family.S2NONMIN, math.nan, 5, 1.0, -1.5, None, "R = nan"),
    (Family.S2NONMIN, 1.2, 5, 1.0, math.inf, None, "beta_prime = inf"),
    (Family.T2, math.nan, 5, 0.0, 3.0, 1, "R = nan"),
    (Family.T2, math.inf, 5, 0.0, 3.0, 1, "R = inf"),
    (Family.T2WINDOW, 1.5, 9, 0.9, math.nan, None, "beta_prime = nan"),
    (Family.T2WINDOW, 1.5, 9, 0.9, math.inf, None, "beta_prime = inf"),
])
def test_spec_refuses_non_finite_parameters(family, R, n, alpha, beta_prime,
                                            k, bad):
    # a NaN passes every existence test (each comparison is false), and an
    # infinite beta' breaks the wrap or a cosine before any test runs
    name, value = bad.split(" = ")
    message = rf"^{name} must be a finite number, got {value}$"
    with pytest.raises(InvalidSpec, match=message):
        ReprSpec(family, R, n, alpha, beta_prime, k=k)


@pytest.mark.parametrize("nu", [complex(math.nan, 0.0),
                                complex(0.0, math.nan),
                                complex(math.inf, math.nan)])
def test_wrap_phase_refuses_non_finite_values(nu):
    # |nu| is nan or inf, and a nan passes a test written as |nu| - 1 > tol
    with pytest.raises(InvalidSpec, match=r"^wrap phase must be unimodular"):
        ReprSpec(Family.T2, 3.0, 5, 0.0, 3.0, k=1, nu=nu)
    assert nc_torus_reason(5, 2, nu) == "wrap phase must be unimodular"
    with pytest.raises(InvalidSpec, match=r"^wrap phase must be unimodular$"):
        build_nc_torus(5, 2, nu=nu)
    assert nc_torus_reason(5, 2, cmath.exp(0.3j)) == ""


def test_family_entry_points_are_names_for_build():
    assert build_s2 is build_t2_finite is build_t2_window is build
    # like build, each makes whatever family its spec names
    spec = ReprSpec(Family.T2, 3.0, 5, 0.0, math.pi, k=1)
    assert _diags(build_s2(spec)) == _diags(build(spec))


_GAPS = (0.5, 0.999, 1.001, 2.0)  # eigenvalue gaps in units of tol
_WEIGHTS = (1.0, 0.3, 0.5j, 2e-12, 6e-13, 5e-13, 1e-13)  # around 1e-12


@st.composite
def _ladders(draw):
    """A chain cut into blocks, extra entries anywhere, and eigenvalue
    pairs at gaps just below and just above the tolerance."""
    n = draw(st.integers(min_value=1, max_value=10))
    index = st.integers(min_value=0, max_value=n - 1)
    angles = draw(st.lists(st.floats(0.0, TWO_PI), min_size=n, max_size=n))
    diag = np.exp(1j * np.array(angles))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i, j = draw(index), draw(index)
        if i != j:
            gap = draw(st.sampled_from(_GAPS)) * IRREDUCIBLE_TOL
            diag[j] = diag[i] + gap * cmath.exp(1j * draw(st.floats(0.0, TWO_PI)))
    ap = np.zeros((n, n), dtype=complex)
    cuts = draw(st.sets(st.integers(min_value=1, max_value=max(1, n - 1))))
    for r in range(n - 1):
        if r + 1 not in cuts:
            ap[r + 1, r] = draw(st.sampled_from(_WEIGHTS))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        ap[draw(index), draw(index)] = draw(st.sampled_from(_WEIGHTS))
    spec = ReprSpec(Family.S2MIN, 0.0, n, 1.0, 0.0)
    return ReprMatrices(spec, np.diag(diag), ap, ap.conj().T)


@settings(max_examples=300, deadline=None)
@given(_ladders())
def test_irreducibility_matches_reference_search(m):
    assert check_irreducible(m) == _ref_irreducible(m)


def test_irreducibility_block_diagonal_and_gap_edges():
    m = build_s2(_minimal(0.5, 9))
    ap = m.ap.copy()
    ap[5, 4] = 0.0  # two blocks
    cut = ReprMatrices(m.spec, m.u, ap, ap.conj().T)
    assert not check_irreducible(cut) and not _ref_irreducible(cut)
    ap[0, 8] = 1e-3  # an off-band entry joins them again
    joined = ReprMatrices(m.spec, m.u, ap, ap.conj().T)
    assert check_irreducible(joined) and _ref_irreducible(joined)
    for gap, want in ((0.99 * IRREDUCIBLE_TOL, False),
                      (1.01 * IRREDUCIBLE_TOL, True)):
        u = m.u.copy()
        u[3, 3] = u[7, 7] + gap
        near = ReprMatrices(m.spec, u, m.ap, m.am)
        assert check_irreducible(near) is want
        assert _ref_irreducible(near) is want
    # a chain cut at its first coupling, then at its last: the path
    # 0-1-...-(n-1) is whole only if every coupling on it is
    for at in (1, 8):
        ap = m.ap.copy()
        ap[at, at - 1] = 0.0
        cut = ReprMatrices(m.spec, m.u, ap, ap.conj().T)
        assert not check_irreducible(cut) and not _ref_irreducible(cut), at
    # a cycle cut at one coupling stays connected through its wrap corner
    cycle = _t2_cycle(3.0, 9, 1)
    ap = cycle.ap.copy()
    ap[5, 4] = 0.0
    cut = ReprMatrices(cycle.spec, cycle.u, ap, ap.conj().T)
    assert check_irreducible(cut) and _ref_irreducible(cut)


# one residual entry point ----------------------------------------------------


def test_verify_relations_picks_the_relation_table():
    fuzzy = verify_relations(build_fuzzy_sphere(5))
    assert sorted(fuzzy.residuals) == ["casimir", "comm_xy", "comm_yz",
                                       "comm_zx", "unitary"]
    assert fuzzy.residuals == fuzzy_sphere_residuals(build_fuzzy_sphere(5))
    assert fuzzy.excluded == ()
    u, v = build_nc_torus(7, 3, beta=0.4)
    pair = verify_relations(NcTorusPair(7, 3, 0.4, 1.0 + 0.0j, u, v))
    assert sorted(pair.residuals) == ["unitary_u", "unitary_v", "weyl"]
    assert pair.residuals == nc_torus_residuals(u, v, 7, 3)
    assert pair.excluded == ()
    chain = verify_relations(build_s2(_minimal(0.5, 5)))
    assert "radius" in chain.residuals and "casimir" not in chain.residuals


# dense oracles ---------------------------------------------------------------
#
# The residuals and the evaluation as dense matrix algebra, one full n x n
# product per term.  The package computes them on the nonzero diagonals
# only; these pin that kernel, off-band entries included.


def _ref_xyzw(u, ap, am):
    ud = u.conj().T
    return 0.5 * (ap + am), (ap - am) / 2j, (u - ud) / 2j, 0.5 * (u + ud)


def _fro(mat):
    return float(np.linalg.norm(mat))


def _ref_deformed_residuals(m):
    x, y, z, w = _ref_xyzw(m.u, m.ap, m.am)
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
    excluded = ()
    if m.spec.family == Family.T2WINDOW:
        last = m.u.shape[0] - 1
        excluded = (0, last)
        for mat in deltas.values():
            mat[[0, last], :] = 0.0
            mat[:, [0, last]] = 0.0
    return {k: _fro(v) for k, v in deltas.items()}, excluded


def _ref_fuzzy_residuals(m):
    x, y, z, _ = _ref_xyzw(m.u, m.ap, m.am)
    eps = m.spec.eps
    eye = np.eye(m.u.shape[0])
    return {
        "comm_xy": _fro((x @ y - y @ x) - 1j * eps * z),
        "comm_yz": _fro((y @ z - z @ y) - 1j * eps * x),
        "comm_zx": _fro((z @ x - x @ z) - 1j * eps * y),
        "casimir": _fro(x @ x + y @ y + z @ z - eye),
        "unitary": _fro(m.u @ m.u.conj().T - eye),
    }


def _ref_nc_torus_residuals(u, v, n, k):
    q = np.exp(2j * math.pi * k / n)
    eye = np.eye(n)
    return {
        "weyl": _fro(u @ v - q * v @ u),
        "unitary_u": _fro(u @ u.conj().T - eye),
        "unitary_v": _fro(v @ v.conj().T - eye),
    }


def _ref_residuals(m):
    if isinstance(m, NcTorusPair):
        return _ref_nc_torus_residuals(m.u, m.v, m.n, m.k), ()
    if m.spec.family == Family.FUZZY_SPHERE:
        return _ref_fuzzy_residuals(m), ()
    return _ref_deformed_residuals(m)


def _ref_evaluate(f, m):
    dim = m.u.shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for (r, s), val in f.eval_numeric(m.spec.eps).items():
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


def _assert_residuals_match(m, rel=0.0):
    """Kernel and dense residuals agree to 1e-12 (scaled by 1 + the dense
    value when rel is set), with the same keys and exclusions."""
    want, excluded = _ref_residuals(m)
    report = verify_relations(m)
    assert report.excluded == excluded
    assert sorted(report.residuals) == sorted(want)
    for key, value in want.items():
        assert abs(report.residuals[key] - value) <= 1e-12 * (
            1.0 + rel * value), (key, report.residuals[key], value)


_ORACLE_SIZES = (2, 3, 4, 5, 7, 16, 33, 64, 127, 128, 255, 256)


@pytest.mark.parametrize("family", sorted(_REFS))
def test_spec_residuals_match_dense_oracle(family):
    built = 0
    for n in _ORACLE_SIZES:
        for spec in _specs(family, n):
            _assert_residuals_match(build(spec))
            built += 1
    assert built >= 5, built


def test_reference_model_residuals_match_dense_oracle():
    for n in _ORACLE_SIZES:
        m = build_fuzzy_sphere(n)
        _assert_residuals_match(m)
        assert fuzzy_sphere_residuals(m) == verify_relations(m).residuals
        nu = cmath.exp(0.9j)
        for k in (1, 2, 3):
            if math.gcd(n, k) == 1:
                u, v = build_nc_torus(n, k, beta=0.3, nu=nu)
                _assert_residuals_match(NcTorusPair(n, k, 0.3, nu, u, v))


def _edited_documents():
    """A chain and a clock/shift pair edited off the band and loaded."""
    m = build_s2(_minimal(0.5, 4))
    doc = json.loads(emit_rep_json(m))
    doc["matrices"]["u"][0][3] = [0.25, -0.5]
    doc["matrices"]["ap"][3][0] = [1e-300, -0.0]
    doc["matrices"]["am"][1][1] = [-0.0, 2.5e-17]
    yield load_rep_json(json.dumps(doc))
    u, v = build_nc_torus(3, 1, beta=0.1, nu=1j)
    doc = json.loads(emit_nc_torus_json(u, v, 3, 1, 0.1, 1j))
    doc["matrices"]["v"][2][2] = [-1.5, 5e-324]
    yield load_rep_json(json.dumps(doc))


def test_edited_documents_match_dense_oracle():
    chain, pair = _edited_documents()
    _assert_residuals_match(chain)
    _assert_residuals_match(pair)
    # the edits show up: the chain's u is no longer unitary, v no longer
    # a shift
    assert verify_relations(chain).residuals["unitary"] > 0.1
    assert verify_relations(pair).residuals["unitary_v"] > 1.0


_ENTRIES = (0.0, 1.0, -0.5, 0.75j, 2.0 - 1.5j, 1e-9, 5e-324)


@st.composite
def _edited(draw):
    """A built representation with random entries written anywhere."""
    family = draw(st.sampled_from(("s2min", "t2", "t2window", "fuzzy",
                                   "nc-torus")))
    n = draw(st.sampled_from((3, 5, 7, 9)))
    if family == "nc-torus":
        u, v = build_nc_torus(n, 2, beta=0.2)
        mats = {"u": u.copy(), "v": v.copy()}
    else:
        if family == "fuzzy":
            m = build_fuzzy_sphere(n)
        else:
            m = build(next(_specs(family, n)))
        mats = {"u": m.u.copy(), "ap": m.ap.copy(), "am": m.am.copy()}
    index = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        name = draw(st.sampled_from(sorted(mats)))
        mats[name][draw(index), draw(index)] = draw(st.sampled_from(_ENTRIES))
    if family == "nc-torus":
        return NcTorusPair(n, 2, 0.2, 1.0 + 0.0j, mats["u"], mats["v"])
    return ReprMatrices(m.spec, mats["u"], mats["ap"], mats["am"])


@settings(max_examples=200, deadline=None)
@given(_edited())
def test_residuals_with_off_band_entries_match_dense_oracle(m):
    _assert_residuals_match(m, rel=1.0)


def _assert_evaluates_like_oracle(text, m, ctx):
    f = parse_expr(text, ctx)
    got, want = rep_evaluate(f, m), _ref_evaluate(f, m)
    scale = np.linalg.norm(want)
    assert np.linalg.norm(got - want) <= 1e-12 * scale, (text, scale)


def test_evaluate_matches_dense_oracle_past_the_wrap_corner():
    for n, k in ((5, 2), (7, 3), (16, 5)):
        m = build_t2_finite(ReprSpec(Family.T2, 5.0, n, 0.0, math.pi, k=k,
                                     nu=cmath.exp(0.6j)))
        ctx = AlgebraContext(Fraction(5))
        for r in range(-n - 1, n + 2):
            for s in (-3, -1, 0, 1, 2):
                gen = "ap" if r >= 0 else "am"
                _assert_evaluates_like_oracle(f"{gen}^{abs(r)} * u^{s}", m,
                                              ctx)


def test_evaluate_matches_dense_oracle_on_sums():
    cases = [(build_s2(_minimal(0.5, 9)), Fraction(1, 2)),
             (build(next(_specs("t2window", 11))), None),
             (build_t2_finite(ReprSpec(Family.T2, 3.0, 7, 0.0, math.pi, k=1)),
              Fraction(3))]
    for m, R in cases:
        ctx = AlgebraContext(Fraction(m.spec.R) if R is None else R)
        for text in ("(x + z)^3", "x*y - 0.5*u^-2 + [x, z]", "ud^3 * am",
                     "(ap + u)^2 * w - eps*z"):
            _assert_evaluates_like_oracle(text, m, ctx)


def test_evaluate_matches_dense_oracle_for_non_diagonal_winding():
    m = build_t2_finite(ReprSpec(Family.T2, 4.0, 5, 0.0, math.pi, k=2))
    u = m.u.copy()
    u[0, 2] = 0.3 - 0.2j  # hand-edited: invertible, but off the diagonal
    edited = ReprMatrices(m.spec, u, m.ap, m.am)
    ctx = AlgebraContext(Fraction(4))
    for text in ("u^-2", "ap * u^-1", "ud^2 * am^3", "x*z - w", "u^3"):
        _assert_evaluates_like_oracle(text, edited, ctx)


# summation order -------------------------------------------------------------

# t2 cycles whose residuals moved in the last digit when products summed
# their diagonals in dict insertion order
_ORDER_CYCLES = ((1.8, 56, 11), (2.5, 52, 7), (2.5, 56, 13), (2.5, 60, 11),
                 (2.5, 64, 3), (3.0, 24, 1), (3.0, 64, 11))


def _t2_cycle(R, n, k):
    win = t2_beta_window(R, n, k)
    bp = math.pi if win.kind == "full" else 0.5 * (win.lo + win.hi)
    return build(ReprSpec(Family.T2, R, n, 0.0, bp, k=k))


def test_residuals_do_not_depend_on_offset_order():
    for R, n, k in _ORDER_CYCLES:
        m = _t2_cycle(R, n, k)
        residuals = verify_relations(m).residuals
        for i in range(3):
            # the same matrix with its offset dict in reverse order
            diags = list(m.diags)
            d = diags[i]
            diags[i] = type(d)(d.n, dict(reversed(d.d.items())))
            turned = ReprMatrices(m.spec, *diags)
            assert verify_relations(turned).residuals == residuals, (n, k, i)
            assert check_irreducible(turned) == check_irreducible(m)


def test_evaluation_does_not_depend_on_term_order():
    m = _t2_cycle(2.5, 52, 7)
    f = parse_expr("ap + ap*u + ap*u^2 + ap*ud",
                   AlgebraContext(Fraction(5, 2)))
    assert len(f.terms) == 4
    images = {rep_evaluate(NormalForm(f.ctx, dict(terms)), m).tobytes()
              for terms in itertools.permutations(f.terms.items())}
    assert len(images) == 1


# band storage ----------------------------------------------------------------


def test_chain_at_scale_allocates_no_dense_matrix():
    # one dense complex 2048 x 2048 matrix alone takes 64 MiB
    spec = _minimal(0.5, 2048)
    tracemalloc.start()
    try:
        m = build(spec)
        report = verify_relations(m)
        irreducible = check_irreducible(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok(1e-10 * 2048) and irreducible
    assert peak < 16 * 2 ** 20, peak


def _every_family():
    for family in sorted(_REFS):
        for n in (2, 5, 9, 16):
            yield from map(build, _specs(family, n))
    # cycles whose residuals depend on the order in which products sum
    # their diagonals
    yield _t2_cycle(3.0, 24, 1)
    yield _t2_cycle(2.257, 32, 3)
    for n in (2, 5, 16):
        yield build_fuzzy_sphere(n)


def test_dense_input_matches_band_storage():
    families = set()
    for m in _every_family():
        dense = ReprMatrices(m.spec, m.u, m.ap, m.am)
        assert verify_relations(dense) == verify_relations(m)
        assert check_irreducible(dense) == check_irreducible(m)
        assert emit_rep_json(dense) == emit_rep_json(m)
        families.add(m.spec.family)
    assert families == set(Family) - {Family.NC_TORUS}


def test_dense_views_are_read_only():
    m = build_s2(_minimal(0.5, 5))
    for name in ("u", "ap", "am"):
        with pytest.raises(ValueError):
            getattr(m, name)[1, 0] = 1.0
