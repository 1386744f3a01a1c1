"""Byte-for-byte pins of the JSON renderer.

The sha256 digests below were taken from the list-of-pairs renderer that
the ndarray renderer replaced, so any change in spacing, number format,
key order or the treatment of zeros shows up here.  Families are pinned at
every n in {2, 3, 16, 33} they can be built at: no non-minimal chain
exists at n = 2 and R = 1.2, a finite torus needs 1 <= k < n/2, and a
window has odd dimension.

The last bit of numpy's vectorised exp/arcsin and of BLAS products depends
on the CPU, so the pinned documents snap matrix entries to multiples of
2^-40 and carry fixed residual values; the renderer sees the same floats
on every machine.
"""

import hashlib
import io
import json
import math
import struct
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheretorus import cli
from spheretorus.classify import (
    enumerate_s2_nonminimal,
    solve_minimal_s2,
    t2_beta_window,
)
from spheretorus.emit import (
    emit_rep_json,
    load_rep_json,
    nc_torus_document,
    render_json,
    render_json_compact,
)
from spheretorus.reps import (
    Family,
    ReprMatrices,
    ReprSpec,
    ResidualReport,
    build_fuzzy_sphere,
    build_nc_torus,
    build_s2,
    build_t2_finite,
    build_t2_window,
    fuzzy_sphere_residuals,
    verify_relations,
    _Diags,
)

SIZES = (2, 3, 16, 33)


def _snap(mat):
    out = np.empty(mat.shape, dtype=complex)
    out.real = np.ldexp(np.rint(np.ldexp(mat.real, 40)), -40)
    out.imag = np.ldexp(np.rint(np.ldexp(mat.imag, 40)), -40)
    return out


def _fixed(residuals):
    """Deterministic stand-ins for residuals, one of them zero."""
    return {key: i / 3 * 1e-15 for i, key in enumerate(sorted(residuals))}


def _snapped(m):
    return ReprMatrices(m.spec, _snap(m.u), _snap(m.ap), _snap(m.am))


def _emit_fixed(m):
    """emit_rep_json of m with fixed residuals."""
    if m.spec.family == Family.FUZZY_SPHERE:
        residuals = fuzzy_sphere_residuals(m)
    else:
        residuals = verify_relations(m).residuals
    return emit_rep_json(m, report=ResidualReport(_fixed(residuals)))


def _nc_torus_fixed(u, v, n, k, beta, nu):
    doc = nc_torus_document(u, v, n, k, beta, nu)
    doc["residuals"] = _fixed(doc["residuals"])
    return render_json(doc)


def _build(family, n):
    if family == "s2min":
        rec = solve_minimal_s2(0.5, n)
        return build_s2(ReprSpec(Family.S2MIN, 0.5, n, rec.alpha,
                                 rec.beta_prime))
    if family == "s2nonmin":
        live = [r for r in enumerate_s2_nonminimal(1.2, n) if r.exists]
        if not live:
            return None
        rec = live[-1]
        return build_s2(ReprSpec(Family.S2NONMIN, 1.2, n, rec.alpha,
                                 rec.beta_prime, k=rec.k))
    if family == "t2":
        if n < 3:
            return None
        win = t2_beta_window(1.8, n, 1)
        nu = complex(math.cos(0.8), math.sin(0.8))
        return build_t2_finite(ReprSpec(Family.T2, 1.8, n, 0.0,
                                        0.5 * (win.lo + win.hi), k=1, nu=nu))
    if family == "t2window":
        if n % 2 == 0:
            return None
        return build_t2_window(ReprSpec(Family.T2WINDOW, 1.5, n, 0.9,
                                        math.pi, M=(n - 1) // 2))
    return build_fuzzy_sphere(n)


def _rep_texts():
    for family in ("s2min", "s2nonmin", "t2", "t2window", "fuzzy-sphere"):
        for n in SIZES:
            m = _build(family, n)
            if m is not None:
                yield f"{family}-n{n}", _emit_fixed(_snapped(m))


def _nc_torus_texts():
    for n, k, beta in ((5, 2, 0.3), (16, 3, -0.45)):
        nu = complex(math.cos(0.7 * k), math.sin(0.7 * k))
        u, v = build_nc_torus(n, k, beta=beta, nu=nu)
        yield f"nc-torus-n{n}", _nc_torus_fixed(_snap(u), _snap(v), n, k,
                                                beta, nu)


def _off_band_texts():
    """Documents edited off the band, loaded and emitted again."""
    rec = solve_minimal_s2(0.5, 4)
    m = build_s2(ReprSpec(Family.S2MIN, 0.5, 4, rec.alpha, rec.beta_prime))
    doc = json.loads(_emit_fixed(_snapped(m)))
    doc["matrices"]["u"][0][3] = [0.25, -0.5]
    doc["matrices"]["ap"][3][0] = [1e-300, -0.0]
    doc["matrices"]["am"][1][1] = [-0.0, 2.5e-17]
    yield "s2min-off-band", _emit_fixed(load_rep_json(json.dumps(doc)))
    u, v = build_nc_torus(3, 1, beta=0.1, nu=1j)
    doc = json.loads(_nc_torus_fixed(_snap(u), _snap(v), 3, 1, 0.1, 1j))
    doc["matrices"]["v"][2][2] = [-1.5, 5e-324]
    pair = load_rep_json(json.dumps(doc))
    yield "nc-torus-off-band", _nc_torus_fixed(
        pair.u, pair.v, pair.n, pair.k, pair.beta, pair.nu)


CLI_COMMANDS = (
    ["topology", "--R", "0.5"],
    ["solve-min-s2", "--R", "0.5", "--n", "5"],
    ["t2-window", "--R", "1.02", "--n", "11", "--k", "1"],
    ["classify", "--R", "1.05", "--eps", "0.5"],
    ["reduce", "--R", "5/8", "--expr", "x*y - 0.557*u^-2 + [x, z]"],
    ["enum-s2", "--R", "1.5", "--n", "11"],
)


def _cli_texts():
    """Compact renders of CLI result documents, and their pretty stdout."""
    for argv in CLI_COMMANDS:
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(argv) == 0
        out = buf.getvalue()
        yield argv[0] + "-stdout", out
        yield argv[0] + "-compact", render_json_compact(json.loads(out))


GOLDEN = {
    "s2min-n2":
        "37690f5495456f8f30aa4192d83b08e29098f41f813b98abdf64119ebe701919",
    "s2min-n3":
        "c377e4ce2279664efb3c3266da33d8fef0f0be25db3ad27d7dce810188fd5d69",
    "s2min-n16":
        "12f310e402137d7f5a4deb36d730b2024f361fd4fb17c11eaa66efb06d1fcc9e",
    "s2min-n33":
        "a02cbeb516e206e02971e58c5e8ab17d97d2732874406edf672122f57fc84b30",
    "s2nonmin-n3":
        "849fd6c91d8d83c6f46b413c36e75942ae4d5a7fdeb0d7348e94d060f2fb3804",
    "s2nonmin-n16":
        "01f3be154808cca273fbbb109cdc195f543e62cda1dd374a3cd5497b0fdd6727",
    "s2nonmin-n33":
        "7e0d700f56b0d08bb633576c27e5126790a58e8bd73c4fd8ed3edb0c80fca14d",
    "t2-n3":
        "986976a33313e0f3b5d5076c424daed05ce3ad1fc0283db33747557a4c29e11e",
    "t2-n16":
        "ae07431fbf2978febbe606aa05f3d98764a5c3698547f5ed08e61bed03dbef3a",
    "t2-n33":
        "f8f393e173f610d265b62bbe4b66ebc99691fcdce5a01d4a1894837cd81e7e51",
    "t2window-n3":
        "1b41b04700b08e0f261124266e8faa921d3ff2b4342b5f1f4eda6882da9b7bd1",
    "t2window-n33":
        "42014774f85256ce4f26cce894e565325ec78b4efbe86b4003b6834072fac30c",
    "fuzzy-sphere-n2":
        "ad3e3804d50d15054aa1adb6e516afe86a7e7a43b1c58ab6d80b8f4170f96143",
    "fuzzy-sphere-n3":
        "c80d24088592f8697d1178838e9a8421e6889bd577d559ae84f03e18923cdd25",
    "fuzzy-sphere-n16":
        "3899b8a4b3d35bc37c72e2465cdce648db532886ee0a8dbd84c4e0798946b613",
    "fuzzy-sphere-n33":
        "8e033ec0913f90332ab36cc54bb9009c4e2751eb2a3af1338d4966e93e910bfc",
    "nc-torus-n5":
        "c0a7abaf6815d9ccf15961a3ddb33a2c77928d3aca1140422db2f77d2e17f3c0",
    "nc-torus-n16":
        "713d5f0515396e251aa875d5cae2b68e479e601a21d8079cae42e544e7866c5c",
    "s2min-off-band":
        "9ef7f014088821b3fd59d40d74ee4b894f452f616962081cf9e15f957c92b55d",
    "nc-torus-off-band":
        "02b8a46229d4f0de964976e041ec844982ed83eff746183f35ebe180d355bcc0",
    "topology-stdout":
        "4e7b12b43a63bd5c641929c9f11a06bef9f9b9c5df940219e660437ecdb10127",
    "topology-compact":
        "b3fdf8b9082e539099f3739f0bcc1d544ff496a8aa93ebb05961a5eddf2d7b40",
    "solve-min-s2-stdout":
        "5d5863eb5de62953d5cf2b8e3548c1a2d4fa2524f7414ae5fe0f28c38556ee1d",
    "solve-min-s2-compact":
        "44d4bef46ad94908df8b98faea4d40390a5e32013f71d39d88ff4622917af726",
    "t2-window-stdout":
        "975eb1adacc87dbe49e07825730d9ba7e8db8d12b4b038a624bc877a2e7ab478",
    "t2-window-compact":
        "61fa0ca9755fc8963887d98a2422f76fdacdd36b982c50ad01ad0cff4691f844",
    "classify-stdout":
        "68fbcb036bf120fe156fa4967b676bb4fc08896ac5dfe1cf6278db0ab32af65d",
    "classify-compact":
        "28f75389175025fda264594372c89d2b5ab1f72aa5c4ae6ece60fd52524b8497",
    "reduce-stdout":
        "ab8baf64a505b1d159f28930068323549f7d2d4a641209f666899ac72a03dcea",
    "reduce-compact":
        "4583e60f519e4e613f1fbb279cfe0721220b20750a1d5904d61eb5e1d68676bc",
    "enum-s2-stdout":
        "598181adbd82a0e128881f82ebb05bb51e3e6b1b62d7cc9789f502202c28be58",
    "enum-s2-compact":
        "cc206958f6b66f2cb066f91f77e36e2238449cf0d5a180843f09a739ade2c3f2",
}


def _all_texts():
    yield from _rep_texts()
    yield from _nc_torus_texts()
    yield from _off_band_texts()
    yield from _cli_texts()


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_digests():
    got = {name: _digest(text) for name, text in _all_texts()}
    assert list(got) == list(GOLDEN)
    for name, digest in GOLDEN.items():
        assert got[name] == digest, name


# random matrices --------------------------------------------------------------

_FLOATS = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072e-308, 1e-300,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _matrices(draw):
    n = draw(st.integers(1, 5))
    parts = draw(st.lists(_FLOATS, min_size=2 * n * n, max_size=2 * n * n))
    mat = np.empty((n, n), dtype=complex)
    mat.real = np.reshape(parts[::2], (n, n))
    mat.imag = np.reshape(parts[1::2], (n, n))
    return mat


def _bits(x):
    # -0.0 renders as "0", which reloads as +0.0
    return struct.pack("<d", float(x) + 0.0)


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_ndarray_render_reloads_bit_for_bit(mat):
    # the drawn ndarray is rendered from its diagonals
    pairs = [[[v.real, v.imag] for v in row] for row in mat.tolist()]
    for render in (render_json, render_json_compact):
        text = render({"m": _Diags.of(mat)})
        assert text == render({"m": pairs})
        back = json.loads(text)["m"]
        assert len(back) == mat.shape[0]
        for row, want in zip(back, mat.tolist()):
            assert len(row) == mat.shape[1]
            for (re, im), v in zip(row, want):
                assert _bits(re) == _bits(v.real)
                assert _bits(im) == _bits(v.imag)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_ndarray_render_rejects_non_finite(bad, part):
    mat = np.zeros((3, 3), dtype=complex)
    mat[1, 2] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    for render in (render_json, render_json_compact):
        with pytest.raises(ValueError):
            render({"m": _Diags.of(mat)})


def test_render_refuses_a_value_json_has_no_form_for():
    for bad in ({1}, b"x", 1j, object()):
        for render in (render_json, render_json_compact):
            with pytest.raises(TypeError, match="cannot serialize"):
                render({"v": [bad]})
