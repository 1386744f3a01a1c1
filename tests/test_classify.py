"""Parameter-region solvers: minimal chains, enumeration, windows, regions."""

import math
import random

import pytest

from spheretorus.classify import (
    BetaWindow,
    RegionLabel,
    SolutionRecord,
    SweepRow,
    _candidate,
    classify_region,
    enumerate_s2_nonminimal,
    solve_minimal_s2,
    sweep_regions,
    t2_beta_window,
)
from spheretorus.errors import DomainError, InvalidSpec
from spheretorus.reps import Family, ReprSpec, build_t2_finite, spec_reason

TWO_PI = 2.0 * math.pi


def _rhat(alpha, n):
    return -math.cos(0.5 * n * alpha) / math.cos(0.5 * alpha)


def test_minimal_chain_recovers_seeded_angles():
    # invert the radius map at angles seeded by hand
    for alpha0, n in ((0.5, 4), (0.7, 8), (0.3, 11), (1.2, 5)):
        rec = solve_minimal_s2(_rhat(alpha0, n), n)
        assert rec.exists
        assert rec.alpha == pytest.approx(alpha0, abs=1e-9)
        assert rec.beta_prime == pytest.approx(-0.5 * n * rec.alpha, rel=1e-15)
    # two frozen anchor radii
    assert _rhat(0.5, 4) == pytest.approx(-0.557637918310738, rel=1e-15)
    assert _rhat(0.7, 8) == pytest.approx(1.0030335433234392, rel=1e-15)


def test_minimal_chain_at_zero_radius():
    for n in (2, 3, 5, 10, 31):
        rec = solve_minimal_s2(0.0, n)
        assert rec.exists
        assert rec.alpha == pytest.approx(math.pi / n, abs=1e-9)


def test_minimal_chain_existence_interval():
    for n in (2, 5, 11):
        assert not solve_minimal_s2(-1.0, n).exists
        assert not solve_minimal_s2(-1.5, n).exists
        assert solve_minimal_s2(-1.0 + 1e-6, n).exists
    for n in (5, 11):
        r_max = 1.0 / math.cos(math.pi / n)
        assert not solve_minimal_s2(r_max, n).exists
        assert not solve_minimal_s2(r_max + 0.5, n).exists
        assert solve_minimal_s2(r_max - 1e-6, n).exists
    # at n = 2 the upper bound sec(pi/2) is effectively infinite
    assert solve_minimal_s2(100.0, 2).exists
    rec = solve_minimal_s2(2.0, 5)
    assert "no root" in rec.reject_reason
    with pytest.raises(DomainError):
        solve_minimal_s2(0.0, 1)


def test_enumeration_single_existing_chain():
    recs = enumerate_s2_nonminimal(1.97, 11)
    live = [r for r in recs if r.exists]
    assert len(live) == 1
    rec = live[0]
    assert rec.branch == "A" and rec.k == 3
    assert rec.alpha == pytest.approx(2.20011, abs=1e-4)
    assert rec.beta_prime == pytest.approx(-2.67584, abs=1e-4)
    assert rec.residual < 1e-9


def test_enumeration_mixed_branches():
    recs = enumerate_s2_nonminimal(1.50, 11)
    live = [(r.branch, r.k, round(r.alpha, 5), round(r.beta_prime, 5))
            for r in recs if r.exists]
    assert live == [
        ("A", 2, 1.69327, -3.02982),
        ("B", 3, 1.71360, -3.33007),
        ("B", 3, 1.71360, -2.95312),
        ("A", 2, 1.77207, -3.46318),
        ("A", 3, 2.14460, -2.37051),
    ]
    # the rational-angle branch sits exactly at alpha = 6*pi/11
    assert live[1][2] == round(6 * math.pi / 11, 5)


def test_enumeration_named_rejections():
    recs = enumerate_s2_nonminimal(2.22, 11)
    rec = next(r for r in recs
               if r.branch == "A" and abs(r.alpha - 2.40065) < 1e-3)
    assert not rec.exists
    assert rec.reject_reason == "inequality fails at m=3: |C|^2 = -0.4333"
    assert rec.beta_prime == pytest.approx(-3.7788, abs=1e-4)

    recs = enumerate_s2_nonminimal(1.10, 11)
    rec = next(r for r in recs
               if r.branch == "B" and r.k == 3
               and abs(r.beta_prime + 2.37510) < 1e-3)
    assert not rec.exists
    assert rec.reject_reason == "inequality fails at m=3: |C|^2 = -0.3204"


def test_enumeration_small_radius_has_no_chains():
    recs = enumerate_s2_nonminimal(0.5, 7)
    assert len(recs) == 10
    assert not any(r.exists for r in recs)


def test_enumeration_records_are_sorted():
    recs = enumerate_s2_nonminimal(1.10, 11)
    keys = [(r.alpha, r.beta_prime, r.branch) for r in recs]
    assert keys == sorted(keys)


# scalar oracle ---------------------------------------------------------------
#
# The enumeration as a Python loop over every grid point, with math.cos
# throughout.  The package marks brackets in one numpy pass and bisects only
# those; the records must be equal, not close.


def _branch_k(x):
    k = math.floor(x - 1.5) + 1
    if x - 1.5 < k < x - 0.5:
        return k
    return None


def _enumerate_scalar(R, n, grid=4096, tol=1e-12):
    records = []

    def h(alpha, k):
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


def test_enumeration_matches_scalar_oracle():
    rng = random.Random(9)
    found = 0
    # 100 and 1000 are not powers of two: i / grid rounds there
    for grid in (1, 2, 16, 64, 100, 1000, 4096):
        for _ in range(40 if grid < 1000 else 25):
            R, n = rng.uniform(-1.5, 3.0), rng.randint(2, 200)
            recs = enumerate_s2_nonminimal(R, n, grid=grid)
            assert recs == _enumerate_scalar(R, n, grid=grid), (R, n, grid)
            found += sum(r.branch == "A" for r in recs)
    assert found > 100  # the draws do reach branch A


@pytest.mark.parametrize("R", [1e6, -3e9, 1e300, -1.7e308, 5e-324])
def test_enumeration_matches_scalar_oracle_at_extreme_radius(R):
    for n in (3, 11, 40):
        assert enumerate_s2_nonminimal(R, n, grid=512) == \
            _enumerate_scalar(R, n, grid=512)


@pytest.mark.parametrize("R, n, grid, i", [
    (1.2461866659753869, 5, 64, 1),  # h falls through the zero
    (1.4563198501212613, 4, 16, 2),  # h rises through it: no sign change
])
def test_enumeration_root_on_a_grid_point(R, n, grid, i):
    # h is an exact float zero at grid point i: the root is that point,
    # taken without bisection
    lo, hi = TWO_PI / n + 1e-12, math.pi - 1e-12
    a1 = lo + (hi - lo) * i / grid
    assert math.cos(-0.5 * n * a1) + R * math.cos(0.5 * a1) == 0.0
    recs = enumerate_s2_nonminimal(R, n, grid=grid)
    assert recs == _enumerate_scalar(R, n, grid=grid)
    rec = next(r for r in recs if r.alpha == a1)
    assert (rec.branch, rec.k, rec.residual) == ("A", 0, 0.0)
    assert isinstance(rec, SolutionRecord) and type(rec.alpha) is float


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("R", NON_FINITE)
def test_non_finite_radius_is_rejected(R):
    calls = [
        lambda: solve_minimal_s2(R, 7),
        lambda: enumerate_s2_nonminimal(R, 7, grid=64),
        lambda: t2_beta_window(R, 11, 2),
        lambda: classify_region(R, 0.5),
        lambda: sweep_regions(5, [0.5, R], grid=64),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="R must be a finite number"):
            call()


def test_grid_below_one_is_rejected():
    for grid in (0, -3):
        with pytest.raises(DomainError, match="grid must be at least 1"):
            enumerate_s2_nonminimal(1.5, 11, grid=grid)
        with pytest.raises(DomainError, match="grid must be at least 1"):
            sweep_regions(5, [1.5], grid=grid)
    assert enumerate_s2_nonminimal(1.5, 11, grid=1) == \
        _enumerate_scalar(1.5, 11, grid=1)


def test_window_frozen_values():
    win = t2_beta_window(1.02, 11, 1)
    assert win.kind == "restricted"
    assert win.delta == pytest.approx(0.41369880205230114, abs=1e-12)
    assert win.lo == pytest.approx(2.7772433903268903, abs=1e-12)
    assert win.hi == pytest.approx(2.9347432525636425, abs=1e-12)
    # the window is centred on the midpoint of the offset cell
    assert 0.5 * (win.lo + win.hi) == pytest.approx(
        math.pi - math.pi / 11, rel=1e-12)


def test_window_kind_transitions():
    # onset threshold at k=1: cos(pi/n)/cos(pi/n) = 1
    assert t2_beta_window(1.0, 11, 1).kind == "none"
    assert t2_beta_window(1.0 + 1e-9, 11, 1).kind == "restricted"
    # onset threshold at k=3
    thr = math.cos(math.pi / 11) / math.cos(3 * math.pi / 11)
    assert thr == pytest.approx(1.4651862966861973, rel=1e-15)
    assert t2_beta_window(thr, 11, 3).kind == "none"
    assert t2_beta_window(thr + 1e-9, 11, 3).kind == "restricted"
    # saturation threshold: sec(3*pi/11)
    sec = 1.0 / math.cos(3 * math.pi / 11)
    assert sec == pytest.approx(1.5270422368667351, rel=1e-15)
    win = t2_beta_window(sec, 11, 3)
    assert win.kind == "restricted" and win.delta == pytest.approx(0.0, abs=3e-8)
    full = t2_beta_window(sec + 1e-6, 11, 3)
    assert full == BetaWindow("full", math.pi - TWO_PI / 11, math.pi, 0.0)
    assert t2_beta_window(100.0, 11, 3).kind == "full"


def test_window_validation():
    with pytest.raises(DomainError):
        t2_beta_window(1.5, 2, 1)
    with pytest.raises(DomainError):
        t2_beta_window(1.5, 10, 5)
    with pytest.raises(DomainError):
        t2_beta_window(1.5, 9, 3)


def test_window_midpoint_builds_and_edge_fails():
    win = t2_beta_window(1.02, 11, 1)
    mid = 0.5 * (win.lo + win.hi)
    spec = ReprSpec(Family.T2, 1.02, 11, 0.0, mid, k=1)
    build_t2_finite(spec)  # must not raise
    outside = ReprSpec(Family.T2, 1.02, 11, 0.0, win.lo - 0.01, k=1)
    with pytest.raises(InvalidSpec) as err:
        build_t2_finite(outside)
    assert "m=" in str(err.value)


REGION_CASES = [
    (-2.0, "Null", (False, False, False, False, False)),
    (-1.0, "Point", (False, False, False, False, False)),
    (0.0, "Sphere", (True, False, False, False, False)),
    (0.5, "Sphere", (True, False, False, False, False)),
    (1.0, "Variety", (True, False, False, False, False)),
    (1.05, "SphereTorus", (True, True, True, False, False)),
    (1.118034, "SphereTorusBoundary", (False, True, True, True, True)),
    (2.0, "Torus", (False, False, True, False, True)),
]


def test_region_classification_at_half_eps():
    for R, label, flags in REGION_CASES:
        info = classify_region(R, 0.5)
        assert info.label == RegionLabel(label), R
        assert (info.minimal_s2, info.nonminimal_s2, info.finite_t2,
                info.semi_infinite_t2, info.infinite_t2) == flags, R
        assert info.R_eps == pytest.approx(math.sqrt(1.25), rel=1e-15)
    with pytest.raises(DomainError):
        classify_region(0.0, 0.0)
    with pytest.raises(DomainError):
        classify_region(0.0, -0.3)
    with pytest.raises(DomainError):
        classify_region(0.0, math.nan)


def test_region_reports_a_window_only_where_one_builds():
    # R within a relative 1e-13 .. 1e-7, and 1e-16 .. 1e-13, of R_eps =
    # sec(alpha/2) on either side, where 1/cos(alpha/2) and
    # sqrt(1 + eps^2) round apart: the table's infinite-torus flag is the
    # window rule's verdict
    rng = random.Random(3)
    for _ in range(3000):
        alpha = rng.uniform(0.05, 3.0)
        sec = 1.0 / math.cos(0.5 * alpha)
        gaps = (10.0 ** rng.uniform(-13.0, -7.0),
                10.0 ** rng.uniform(-16.0, -13.0))
        for R in (sec * (1.0 + s * gap) for gap in gaps for s in (-1, 1)):
            window = ReprSpec(Family.T2WINDOW, R, 3, alpha, 0.0)
            info = classify_region(R, math.tan(0.5 * alpha))
            assert info.infinite_t2 == (spec_reason(window) == ""), (R, alpha)


def test_region_flags_mapping():
    info = classify_region(1.05, 0.5)
    assert info.flags == {
        "minimal_s2": True,
        "nonminimal_s2": True,
        "finite_t2": True,
        "semi_infinite_t2": False,
        "infinite_t2": False,
    }


def test_sweep_rows_ordered_and_complete():
    rows = sweep_regions(5, [1.5, 0.5], grid=512)
    assert [r.R for r in rows] == sorted(r.R for r in rows)
    for R in (0.5, 1.5):
        sub = [r for r in rows if r.R == R]
        assert sub[0].family == "s2min"
        t2 = [r for r in sub if r.family == "t2"]
        assert [r.k for r in t2] == [1, 2]
    # minimal chain exists at both radii for n=5 (sec(pi/5) ~ 1.236)
    minimal = {r.R: r.exists for r in rows if r.family == "s2min"}
    assert minimal == {0.5: True, 1.5: False}
    tor = next(r for r in rows if r.family == "t2" and r.R == 1.5 and r.k == 1)
    assert tor.exists and tor.alpha == pytest.approx(TWO_PI / 5, rel=1e-15)
    assert tor.beta_lo == math.pi - TWO_PI / 5 and tor.beta_hi == math.pi
    tor_low = next(
        r for r in rows if r.family == "t2" and r.R == 0.5 and r.k == 1)
    assert not tor_low.exists
    assert tor_low.reject_reason == "below the finite-torus threshold"


def test_sweep_chain_rows_follow_the_solvers():
    R, n = 1.97, 11
    chains = [solve_minimal_s2(R, n)] + enumerate_s2_nonminimal(R, n)
    rows = sweep_regions(n, [R])
    assert rows[:len(chains)] == [SweepRow.of_chain(rec) for rec in chains]
    assert {r.family for r in rows[len(chains):]} == {"t2"}
    live = next(rec for rec in chains[1:] if rec.exists)
    assert SweepRow.of_chain(live) == SweepRow(
        R, n, "s2nonmin", live.k, live.alpha, live.beta_prime,
        live.beta_prime, True, "")
    assert SweepRow.of_chain(chains[0]).k is None
