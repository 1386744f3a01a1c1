"""The readers of a representation document, and the renderer they share.

``load_rep_json`` reads a text in ``render_json``'s layout in one pass,
``emit._read_matrices``: a matrix whose text is byte for byte its spec's
band, as ``build`` makes it, loads as that band, and any other matrix from
its entries other than [0, 0]; the rest goes through ``json.loads``.  The
differential test below mutates canonical documents of all six families
and asks the readers for the same arrays, spec and error message: the
reference text ``json.dumps(json.loads(text))`` is never canonical, so it
always takes the json path.  ``_scanned`` reads a text's matrices with no
band, each from its entries.
"""

import json
import math
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheretorus import cli, emit, jsontext, reps
from spheretorus.classify import (
    enumerate_s2_nonminimal,
    solve_minimal_s2,
    t2_beta_window,
)
from spheretorus.emit import emit_rep_json, load_rep_json
from spheretorus.errors import DomainError, InvalidSpec
from spheretorus.reps import (
    Family,
    NcTorusPair,
    ReprSpec,
    build_fuzzy_sphere,
    build_s2,
    build_t2_finite,
    build_t2_window,
    check_irreducible,
    nc_torus_pair,
    spec_reason,
    verify_relations,
    _Diags,
)

SIZES = (1, 2, 3, 4, 5, 8, 9, 16, 33, 63)


# ------------------------------------------------------------ documents


def _text(family, n):
    """The canonical document of a family at n, or None where none exists."""
    try:
        return _build_text(family, n)
    except (DomainError, InvalidSpec):
        return None


def _build_text(family, n):
    if family == "s2min":
        rec = solve_minimal_s2(0.5, n)
        return emit_rep_json(build_s2(ReprSpec(Family.S2MIN, 0.5, n, rec.alpha,
                                               rec.beta_prime)))
    if family == "s2nonmin":
        live = [r for r in enumerate_s2_nonminimal(1.2, n) if r.exists]
        if not live:
            return None
        rec = live[-1]
        return emit_rep_json(build_s2(ReprSpec(Family.S2NONMIN, 1.2, n, rec.alpha,
                                               rec.beta_prime, k=rec.k)))
    if family == "t2":
        if n < 3:
            return None
        win = t2_beta_window(1.8, n, 1)
        nu = complex(math.cos(0.8), math.sin(0.8))
        return emit_rep_json(build_t2_finite(ReprSpec(
            Family.T2, 1.8, n, 0.0, 0.5 * (win.lo + win.hi), k=1, nu=nu)))
    if family == "t2window":
        if n % 2 == 0 or n < 3:
            return None
        return emit_rep_json(build_t2_window(ReprSpec(Family.T2WINDOW, 1.5, n,
                                                      0.9, math.pi)))
    if family == "fuzzy-sphere":
        return emit_rep_json(build_fuzzy_sphere(n))
    if n < 2:
        return None
    k = max(k for k in range(1, max(2, n // 2 + 1)) if math.gcd(n, k) == 1)
    nu = complex(math.cos(0.7), math.sin(0.7))
    return emit_rep_json(nc_torus_pair(n, k, 0.3, nu))


DOCUMENTS = [(family, n) for family in ("s2min", "s2nonmin", "t2", "t2window",
                                        "fuzzy-sphere", "nc-torus")
             for n in SIZES if _text(family, n) is not None]


def _bits(x):
    return struct.pack("<d", x)


def _fingerprint(loaded):
    """Everything a load returns, with floats and arrays bit for bit."""
    if isinstance(loaded, NcTorusPair):
        return ("pair", loaded.n, loaded.k, _bits(loaded.beta),
                _bits(loaded.nu.real), _bits(loaded.nu.imag),
                loaded.u.dtype.str, loaded.u.tobytes(),
                loaded.v.dtype.str, loaded.v.tobytes())
    spec = loaded.spec
    floats = (spec.R, spec.alpha, spec.beta_prime, spec.eps, spec.nu.real,
              spec.nu.imag)
    diags = tuple(tuple((a, v.tobytes()) for a, v in d.d.items())
                  for d in loaded.diags)
    return ("rep", spec.family, spec.n, spec.k, spec.M,
            tuple(map(_bits, floats)), diags)


def _scanned(text):
    """The matrices of text read from their entries (no band), or None
    unless text has render_json's layout."""
    head = emit._header(text)
    return head and emit._read_matrices(text, *head, {})


def _outcome(text):
    try:
        return _fingerprint(load_rep_json(text))
    except Exception as exc:  # the type and message must agree too
        return (type(exc).__name__, str(exc))


def _reference(text):
    """What the json path gives for text."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return ("InvalidSpec", f"not a JSON document: {exc}")
    again = json.dumps(doc)
    assert _scanned(again) is None
    return _outcome(again)


# ------------------------------------------------------------ mutations


def _slots(text):
    """Positions of the [0, 0] entries of the matrices block."""
    start = text.index('"matrices"')
    return [m.start() for m in re.finditer(r"\[0, 0\]", text[start:])], start


def _at_slot(text, rng, new):
    slots, start = _slots(text)
    if not slots:
        return text
    at = start + rng.choice(slots)
    return text[:at] + new + text[at + 6:]


def _number(text, rng, new):
    """One number of the matrices block other than 0 replaced by new."""
    start = text.index('"matrices"')
    end = text.index('"residuals"')
    hits = [m.span() for m in re.finditer(r"-?[1-9][0-9.e+-]*|-?0\.[0-9e+-]+",
                                          text[start:end])]
    a, b = rng.choice(hits)
    return text[:start + a] + new + text[start + b:]


def _reordered(text, rng):
    doc = json.loads(text)
    keys = list(doc)
    rng.shuffle(keys)
    mats = doc["matrices"]
    names = list(mats)
    rng.shuffle(names)
    doc["matrices"] = {name: mats[name] for name in names}
    return emit.render_json({key: doc[key] for key in keys})


def _drop_row(text, rng):
    rows = [m.span() for m in re.finditer(r"\n      \[\[.*?\]\](?=,?\n)", text)]
    a, b = rng.choice(rows)
    return text[:a] + text[b:]


def _ragged(text, rng):
    """One row one entry short."""
    rows = [m.span() for m in re.finditer(r"\n      \[\[.*?\]\](?=,?\n)", text)]
    a, b = rng.choice(rows)
    row = text[a:b]
    cut = row.rfind(", [")
    return text[:a] + row[:cut] + "]" + text[b:] if cut > 0 else text


MUTATIONS = {
    "off-band entry": lambda t, rng: _at_slot(t, rng, "[0.25, -0.5]"),
    "negative zero": lambda t, rng: _at_slot(t, rng, "[-0, 0]"),
    "float zero": lambda t, rng: _at_slot(t, rng, "[0.0, 0]"),
    "spaced zero": lambda t, rng: _at_slot(t, rng, "[0, 0 ]"),
    "zero imaginary -0.0": lambda t, rng: _at_slot(t, rng, "[1, -0.0]"),
    "overflow": lambda t, rng: _number(t, rng, "1e400"),
    "NaN": lambda t, rng: _number(t, rng, "NaN"),
    "not canonical number": lambda t, rng: _number(t, rng, "0.5000"),
    "bare inf": lambda t, rng: _at_slot(t, rng, "[inf, 0]"),
    "leading zero": lambda t, rng: _at_slot(t, rng, "[01, 0]"),
    "long integer": lambda t, rng: _at_slot(t, rng, "[100000000000000000000, 0]"),
    "duplicate key before": lambda t, rng: t.replace(
        '\n  "matrices": ', '\n  "matrices": {"u": []},\n  "matrices": ', 1),
    "duplicate key after": lambda t, rng: t.replace(
        '\n  "residuals": ', '\n  "matrices": {},\n  "residuals": ', 1),
    "escaped key": lambda t, rng: t.replace('"matrices"', '"\\u006datrices"', 1),
    "escaped duplicate": lambda t, rng: t.replace(
        '\n  "residuals": ', '\n  "\\u006datrices": {},\n  "residuals": ', 1),
    "repeated matrix name": lambda t, rng: t.replace(
        '\n    "u": [', '\n    "am": [', 1),
    "nested matrices": lambda t, rng: t.replace(
        '\n  "matrices": ', '\n  "wrap": {\n  "matrices": ', 1).replace(
        '\n  },\n  "residuals"', '\n  }},\n  "residuals"', 1),
    # the first three keep the tail that ends the matrices block
    "duplicate key at the end": lambda t, rng: t[:-3] + ',\n  "matrices": {}\n}\n',
    "escaped duplicate at the end": lambda t, rng: (
        t[:-3] + ',\n  "\\u006datrices": {}\n}\n'),
    "nested matrices and residuals": lambda t, rng: t.replace(
        '\n  "matrices": ', '\n  "wrap": {\n  "matrices": ', 1)[:-1] + "}\n",
    "matrix closed by a brace": lambda t, rng: t.replace(
        '\n    ],\n    "', '\n    },\n    "', 1),
    "reordered keys": _reordered,
    "CRLF": lambda t, rng: t.replace("\n", "\r\n"),
    "ragged row": _ragged,
    "missing row": _drop_row,
    "n too large": lambda t, rng: re.sub(
        r'"n": (\d+)', lambda m: f'"n": {int(m[1]) + 1}', t, count=1),
    "n too small": lambda t, rng: re.sub(
        r'"n": (\d+)', lambda m: f'"n": {int(m[1]) - 1}', t, count=1),
    "n as float": lambda t, rng: re.sub(r'"n": (\d+)', r'"n": \1.0', t, count=1),
    "trailing text": lambda t, rng: t + "x",
    "trailing object": lambda t, rng: t + "{}",
    "re-indented": lambda t, rng: json.dumps(json.loads(t), indent=2) + "\n",
}


@pytest.mark.parametrize("family,n", DOCUMENTS)
def test_both_readers_agree(family, n):
    text = _text(family, n)
    assert _scanned(text) is not None, "a canonical document takes the band path"
    assert _outcome(text) == _reference(text)
    rng = random.Random(f"{family}-{n}")
    for name, mutate in MUTATIONS.items():
        changed = mutate(text, rng)
        assert _outcome(changed) == _reference(changed), name


def test_mutations_change_the_text():
    text = _text("s2min", 5)
    rng = random.Random(0)
    for name, mutate in MUTATIONS.items():
        assert mutate(text, rng) != text, name


def test_only_canonical_text_takes_the_band_path():
    text = _text("t2", 9)
    rng = random.Random(1)
    canonical = ("off-band entry", "repeated matrix name")
    for name, mutate in MUTATIONS.items():
        changed = mutate(text, rng)
        # the block's end is found at the residuals, so a reordered text is
        # read only where they still follow the matrices
        want = name in canonical or (name == "reordered keys"
                                     and emit._TAIL in changed)
        assert (_scanned(changed) is not None) == want, name


def test_the_block_ends_where_the_residuals_begin():
    doc = json.loads(_text("t2", 9))
    doc["matrices"] = dict(reversed(doc["matrices"].items()))
    keys = [key for key in reversed(doc) if key not in ("matrices", "residuals")]
    tail = emit.render_json({key: doc[key]
                             for key in keys + ["matrices", "residuals"]})
    apart = emit.render_json({key: doc[key]
                              for key in ["matrices"] + keys + ["residuals"]})
    assert _scanned(tail) is not None and _scanned(apart) is None
    for text in (tail, apart):
        assert _outcome(text) == _reference(text) == _outcome(_text("t2", 9))


@pytest.mark.parametrize("old,new", [('{\n    "u"', '[\n    "u"'),
                                     (',\n    "ap"', ' \n    "ap"')],
                         ids=["bracket", "no comma"])
def test_a_key_line_is_checked_before_a_band_matrix(old, new):
    # every matrix is its band's text, but the "{" or "," before a key is not
    # there: no reader takes the text, and json.loads refuses it
    text = _text("s2min", 9).replace(old, new, 1)
    assert emit._header(text) is not None and _scanned(text) is None
    assert _outcome(text) == _reference(text)


def test_zero_matrices_take_the_band_path():
    doc = json.loads(_text("nc-torus", 3))
    doc["matrices"] = {"u": [[[0, 0]] * 3] * 3, "v": [[[0, 0]] * 3] * 3}
    text = emit.render_json(doc)
    assert _scanned(text) is not None
    assert _outcome(text) == _reference(text)


def test_band_path_matches_json_path_on_off_band_documents():
    """A hand-edited document off the band loads as it is on both paths."""
    doc = json.loads(_text("s2min", 4))
    doc["matrices"]["u"][0][3] = [0.25, -0.5]
    doc["matrices"]["ap"][3][0] = [1e-300, -1e308]
    doc["matrices"]["am"][1][1] = [5e-324, 2.5e-17]
    text = emit.render_json(doc)
    assert _scanned(text) is not None
    assert _outcome(text) == _reference(text)


def _refuse_dense(self, writeable=True):
    raise AssertionError("a dense matrix was made")


@pytest.mark.parametrize("family", ["s2min", "s2nonmin", "t2", "t2window",
                                    "fuzzy-sphere", "nc-torus"])
def test_the_document_path_makes_no_dense_matrix(family, monkeypatch):
    monkeypatch.setattr(_Diags, "dense", _refuse_dense)
    text = _build_text(family, 9)  # build, then emit_rep_json
    loaded = load_rep_json(text)
    report = verify_relations(loaded)
    if family != "nc-torus":  # a clock/shift pair has no ladder
        check_irreducible(loaded)
    assert report.ok(1e-10 * 9)
    assert emit_rep_json(loaded, report) == text


def test_verify_of_a_clock_shift_pair_makes_no_dense_matrix(monkeypatch,
                                                              capsys):
    monkeypatch.setattr(_Diags, "dense", _refuse_dense)
    assert cli.main(["verify", "nc-torus", "--n", "64", "--k", "5",
                     "--nu-phase", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize("family,n", DOCUMENTS)
def test_a_built_document_loads_from_its_spec_band(family, n, monkeypatch):
    # build's text is its spec's band byte for byte: it loads with the scan
    # refused, bit for bit as the scan reads it
    text = _text(family, n)
    read = emit._read_matrices
    with monkeypatch.context() as patch:
        patch.setattr(emit, "_read_matrices",
                      lambda text, doc, start, end, band:
                      read(text, doc, start, end, {}))
        scanned = _fingerprint(load_rep_json(text))

    def refuse(*args):
        raise AssertionError("the scan ran")

    # only the scan of a matrix's entries makes a _Diags with at
    monkeypatch.setattr(_Diags, "at", refuse)
    assert _fingerprint(load_rep_json(text)) == scanned


def _moved(text, name):
    """The first nonzero real part of matrix name moved up by one ulp."""
    doc = json.loads(text)
    pair = next(z for row in doc["matrices"][name] for z in row if z[0])
    pair[0] = math.nextafter(pair[0], math.inf)
    return emit.render_json(doc)


@pytest.mark.parametrize("name", ["u", "am"])
@pytest.mark.parametrize("family", ["s2min", "s2nonmin", "t2", "t2window",
                                    "fuzzy-sphere"])
def test_a_document_off_its_band_in_one_matrix_scans_that_matrix(
        family, name, monkeypatch):
    # the other two matrices are the band's text, so they load as the band
    # and only the edited one is read from its entries
    text = _moved(_text(family, 9), name)
    want = _reference(text)  # the json path makes its _Diags with at too
    at, made = _Diags.at, []

    def spy(*args):
        made.append(at(*args))
        return made[-1]

    monkeypatch.setattr(_Diags, "at", spy)
    loaded = load_rep_json(text)
    assert _fingerprint(loaded) == want
    assert len(made) == 1
    assert made[0] is loaded.diags[("u", "ap", "am").index(name)]


def _one_ulp(text):
    """The first coupling moved up by one ulp, in am and ap alike."""
    doc = json.loads(text)
    am, ap = doc["matrices"]["am"], doc["matrices"]["ap"]
    am[0][1][0] = ap[1][0][0] = math.nextafter(am[0][1][0], math.inf)
    return emit.render_json(doc)


def _edited(text, **fields):
    doc = json.loads(text)
    doc.update(fields)
    return emit.render_json(doc)


OTHER_DOCUMENTS = {
    # in build's layout, so the scan reads them
    "one-ulp coupling": lambda: _one_ulp(_text("s2min", 9)),
    "off-band entry": lambda: MUTATIONS["off-band entry"](_text("s2min", 9),
                                                          random.Random(0)),
    "nc-torus": lambda: _moved(_text("nc-torus", 9), "v"),
    "refused spec": lambda: _edited(_text("s2min", 9), beta_prime=0),
    # each matrix is the band's, but json.loads finds no "u"
    "renamed matrix": lambda: _text("s2min", 9).replace(
        '\n    "u": [', '\n    "v": [', 1),
    # each matrix is the band's, but the text is no JSON document
    "text after the matrices": lambda: _text("s2min", 9).replace(
        '\n  },\n  "residuals"', ',\n    "w": [1\n  },\n  "residuals"', 1),
}


@pytest.mark.parametrize("name", OTHER_DOCUMENTS)
def test_a_document_that_is_not_its_spec_band_takes_the_scan(name, monkeypatch):
    text = OTHER_DOCUMENTS[name]()
    want = _reference(text)  # its own values, or the json path's error
    read, reads, asked = emit._read_matrices, [], []

    def spy(*args):
        reads.append(read(*args))
        return reads[-1]

    def reason(spec):
        asked.append(spec)
        return spec_reason(spec)

    monkeypatch.setattr(emit, "_read_matrices", spy)
    monkeypatch.setattr(emit, "spec_reason", reason)
    monkeypatch.setattr(reps, "spec_reason", reason)
    assert _outcome(text) == want
    assert len(reads) == 1, "the matrices block was read more than once"
    if name == "text after the matrices":
        assert reads[0] is None  # json.loads reads it
    else:  # the scan reads it, and spec_reason runs once, inside build
        assert reads[0] is not None
        assert len(asked) == (name != "nc-torus")
    assert want != _outcome(_text("s2min", 9))


def test_verify_reports_a_one_ulp_file_s_own_residuals(tmp_path, capsys):
    # the file differs from its spec's band in one coupling's last bit:
    # verify reports what the file holds, as through json.loads, not the band
    text = _text("s2min", 9)
    paths = [tmp_path / name
             for name in ("band.json", "ulp.json", "ulp-indented.json")]
    paths[0].write_text(text)
    paths[1].write_text(_one_ulp(text))
    paths[2].write_text(json.dumps(json.loads(_one_ulp(text)), indent=1))
    outs = []
    for path in paths:
        assert cli.main(["verify", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[2] != outs[0]


# ------------------------------------------------------------ renderer


def _reference_matrix_rows(mat, sep):
    """The per-entry renderer that _matrix_rows replaced."""
    arr = np.asarray(mat, dtype=complex)
    nrows, ncols = arr.shape
    zero = "[0" + sep + "0]"
    rows = [[zero] * ncols for _ in range(nrows)]
    r_idx, c_idx = np.nonzero(arr)
    for r, c, v in zip(r_idx.tolist(), c_idx.tolist(), arr[r_idx, c_idx].tolist()):
        rows[r][c] = ("[" + jsontext._num_str(v.real) + sep
                      + jsontext._num_str(v.imag) + "]")
    return ["[" + sep.join(row) + "]" for row in rows]


# pretty (at a document's matrix indent and at the top) and compact
_LAYOUTS = ((", ", "    "), (", ", ""), (",", None))


def _assert_renders_as_reference(mat):
    """The square matrix mat, rendered from its diagonals, is the
    per-entry renderer's text in every layout."""
    for sep, pad in _LAYOUTS:
        want = jsontext._block("[", _reference_matrix_rows(mat, sep), "]", pad)
        assert jsontext._matrix(_Diags.of(mat), pad) == want, pad


_PARTS = (0.0, -0.0, 1.0, -3.0, 2.0**52, 5e-324, -2.2250738585072014e-308,
          1e308, -1e308, 0.1, 1 / 3, -7.5e-17)


def _random_matrix(rng, rows, cols, density):
    mat = np.zeros((rows, cols), dtype=complex)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                mat[r, c] = complex(rng.choice(_PARTS), rng.choice(_PARTS))
    return mat


def test_matrix_rows_match_the_per_entry_renderer():
    rng = random.Random(7)
    for n in (0, 1, 5, 12):
        for density in (0.0, 0.1, 0.5, 1.0):
            _assert_renders_as_reference(_random_matrix(rng, n, n, density))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 35), st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)), max_size=12))
def test_matrix_rows_match_on_drawn_entries(entries):
    mat = np.zeros((6, 6), dtype=complex)
    for at, re_, im in entries:
        mat.flat[at] = complex(re_, im)
    _assert_renders_as_reference(mat)


def _diags(n, **d):
    """A hand-made _Diags: d["o2"] is offset 2, d["m1"] offset -1."""
    return _Diags(n, {int(a[1:]) * (-1 if a[0] == "m" else 1):
                      np.array(v, dtype=complex) for a, v in d.items()})


HAND_MADE = {
    "all-zero diagonal": _diags(4, o0=[0, 0, 0, 0], o1=[1, 2, 3, 0]),
    "zeros and -0.0 inside": _diags(4, o0=[0, complex(-0.0, 1),
                                           complex(2, -0.0),
                                           complex(-0.0, -0.0)]),
    "junk past the ends": _diags(4, o1=[1, 2, 3, 99], m2=[99, math.nan, 1, 2],
                                 o4=[5, 5, 5, 5], m7=[6, 6, 6, 6]),
    "corner only": _diags(5, m4=[0, 0, 0, 0, 0.5 - 2j]),
    "other corner only": _diags(5, o4=[-1.5, 0, 0, 0, 0]),
    "diagonals out of order": _diags(4, o1=[1, 2, 3, 0], m1=[0, 4, 5, 6],
                                     o0=[7j, 0, 8, 9], m3=[0, 0, 0, 1e-300]),
    "n = 1": _diags(1, o0=[complex(0.25, -0.0)]),
    "n = 1, zero": _diags(1, o0=[0], o1=[3]),
}


@pytest.mark.parametrize("name", HAND_MADE)
def test_hand_made_diagonals_render_as_the_reference(name):
    # the entries of the matrix are what dense() makes of the diagonals:
    # values past a diagonal's end are not entries
    mat = HAND_MADE[name]
    for sep, pad in _LAYOUTS:
        want = jsontext._block("[", _reference_matrix_rows(mat.dense(), sep),
                               "]", pad)
        assert jsontext._matrix(mat, pad) == want, pad
    assert json.loads(emit.render_json({"m": mat})) == {
        "m": json.loads(jsontext._matrix(mat, None))}
    assert emit.render_json_compact([mat]) == "[" + jsontext._matrix(mat, None) + "]"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["real", "imag", "none"])
def test_non_finite_entries_give_the_same_error(bad, part):
    mat = np.zeros((3, 3), dtype=complex)
    mat[0, 2] = 0.5
    mat[1, 1] = {"real": complex(bad, 1.0), "imag": complex(1.0, bad),
                 "none": 2.0}[part]
    mat[2, 0] = complex(-math.inf, math.nan)  # reported only if first
    for sep, pad in _LAYOUTS:
        with pytest.raises(DomainError) as want:
            _reference_matrix_rows(mat, sep)
        with pytest.raises(DomainError) as got:
            jsontext._matrix(_Diags.of(mat), pad)
        assert str(got.value) == str(want.value)


QUOTED = ["", "u", "ap", "matrices", "a b\tc\n", 'say "hi"', "back\\slash",
          "\x00\x1f\x7f", "é ü ñ", "日本", "\U0001f600", "\ud800", "\udfff x",
          "/", "  "]


@pytest.mark.parametrize("s", QUOTED)
def test_quote_is_json_dumps(s):
    assert jsontext._quote(s) == json.dumps(s)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x10FFFF)))
def test_quote_is_json_dumps_on_drawn_text(s):
    assert jsontext._quote(s) == json.dumps(s)


# ------------------------------------------------------------ messages


_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(_VALUES, st.integers(0, 60))
def test_head_is_a_prefix_of_repr(value, width):
    assert emit._head(value, width) == repr(value)[:width]


class _Loud(list):
    def __repr__(self):
        raise AssertionError("the whole repr was built")


def test_head_does_not_build_the_whole_repr():
    big = _Loud([[0, 0]] * 10**5)
    prefix = repr([[0, 0]] * 10)[:40]
    assert emit._head(big) == prefix
    with pytest.raises(InvalidSpec) as err:
        emit._field({"u": big}, "u", (3, 3, 2))
    assert str(err.value) == \
        f"field 'u' must be an array of shape (3, 3, 2), got {prefix}"
