"""Serializers (JSON/CSV/SVG) and the command-line interface."""

import json
import math

import pytest

from spheretorus import cli
from spheretorus.classify import (
    enumerate_s2_nonminimal,
    solve_minimal_s2,
    sweep_regions,
)
from spheretorus.emit import (
    SWEEP_HEADER,
    emit_diagram_svg,
    emit_nc_torus_json,
    emit_rep_json,
    emit_sweep_csv,
    load_rep_json,
    render_json_compact,
)
from spheretorus.errors import InvalidSpec
from spheretorus.reps import (
    Family,
    ReprSpec,
    build_fuzzy_sphere,
    build_nc_torus,
    build_s2,
    build_t2_finite,
    build_t2_window,
)

TWO_PI = 2.0 * math.pi


def _sample_builds():
    rec = solve_minimal_s2(0.5, 5)
    yield build_s2(ReprSpec(Family.S2MIN, 0.5, 5, rec.alpha, rec.beta_prime))
    live = next(r for r in enumerate_s2_nonminimal(1.97, 11) if r.exists)
    yield build_s2(ReprSpec(Family.S2NONMIN, 1.97, 11, live.alpha,
                            live.beta_prime, k=live.k))
    nu = complex(math.cos(0.8), math.sin(0.8))
    yield build_t2_finite(ReprSpec(Family.T2, 3.0, 3, 0.0, math.pi, k=1,
                                   nu=nu))
    yield build_t2_window(ReprSpec(Family.T2WINDOW, 1.5, 0, 0.9, math.pi, M=4))
    yield build_fuzzy_sphere(4)


# ---------------------------------------------------------------- JSON


def test_rep_json_round_trip_is_byte_identical():
    for m in _sample_builds():
        text = emit_rep_json(m)
        again = emit_rep_json(load_rep_json(text))
        assert again == text, m.spec.family


def test_nc_torus_json_round_trip():
    nu = complex(math.cos(0.7), math.sin(0.7))
    u, v = build_nc_torus(5, 2, beta=0.3, nu=nu)
    text = emit_nc_torus_json(u, v, 5, 2, 0.3, nu)
    pair = load_rep_json(text)
    assert pair.n == 5 and pair.k == 2
    again = emit_nc_torus_json(pair.u, pair.v, pair.n, pair.k, pair.beta,
                               pair.nu)
    assert again == text


def test_rep_json_field_order():
    m = next(_sample_builds())
    doc = json.loads(emit_rep_json(m))
    assert list(doc) == ["family", "R", "n", "alpha", "beta_prime", "beta",
                         "k", "nu", "eps", "matrices", "residuals"]
    assert list(doc["matrices"]) == ["u", "ap", "am"]
    assert list(doc["residuals"]) == sorted(doc["residuals"])
    assert doc["beta"] == pytest.approx(
        doc["beta_prime"] + 0.5 * doc["alpha"], rel=1e-15)


def test_json_never_prints_negative_zero():
    for m in _sample_builds():
        text = emit_rep_json(m)
        assert "-0," not in text and "-0]" not in text, m.spec.family


def test_json_rejects_unknown_family():
    with pytest.raises(InvalidSpec):
        load_rep_json('{"family": "moebius"}')


def test_fourth_root_of_two_appears_verbatim():
    rec = solve_minimal_s2(0.0, 2)
    m = build_s2(ReprSpec(Family.S2MIN, 0.0, 2, rec.alpha, rec.beta_prime))
    assert "1.1892071150026893" in emit_rep_json(m)


# ----------------------------------------------------------------- CSV


def test_sweep_csv_shape():
    rows = sweep_regions(11, [1.10], grid=512)
    text = emit_sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == len(rows) + 1
    assert text.endswith("\n")
    # the minimal chain does not exist at R = 1.10 > sec(pi/11): the
    # numeric fields stay blank and the reason (with its comma) is quoted
    first = lines[1]
    assert first.startswith("1.1,11,s2min,,,,,false,")
    assert '"no root: R outside' in first
    for row, line in zip(rows, lines[1:]):
        assert line.split(",")[2].strip('"') == row.family


def test_sweep_csv_true_false_and_numbers():
    rows = sweep_regions(5, [3.0], grid=256)
    text = emit_sweep_csv(rows)
    tor = next(line for line in text.splitlines()
               if line.startswith("3,5,t2,1,"))
    fields = tor.split(",")
    assert fields[7] == "true"
    assert fields[4] == "%.12g" % (TWO_PI / 5)


# ----------------------------------------------------------------- SVG


def _element_positions(svg, *needles):
    return [svg.index(needle) for needle in needles]


def test_diagram_minimal_chain_has_wedge_and_open_polyline():
    rec = solve_minimal_s2(-0.557637918310738, 4)
    spec = ReprSpec(Family.S2MIN, rec.R, 4, rec.alpha, rec.beta_prime)
    svg = emit_diagram_svg(spec)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                          'width="440" height="440" viewBox="0 0 440 440">')
    pos = _element_positions(
        svg, 'stroke="#444444"', '<path d="M 220.000,220.000 L',
        "<polyline points=", 'fill="#d62728"', "</svg>")
    assert pos == sorted(pos)
    assert "<polygon" not in svg
    assert svg.count('r="4.000" fill="#d62728"') == 4
    # the wedge spans more than a half turn here
    assert ' 0 1 0 ' in svg


def test_diagram_torus_cycle_closed_without_wedge():
    spec = ReprSpec(Family.T2, 3.0, 3, 0.0, math.pi, k=1)
    svg = emit_diagram_svg(spec)
    assert "<polygon points=" in svg
    assert "<polyline" not in svg
    assert "<path" not in svg  # R > sec(alpha/2): nothing is forbidden
    assert svg.count('r="4.000" fill="#d62728"') == 3


def test_diagram_window_marks_symmetric_sites():
    spec = ReprSpec(Family.T2WINDOW, 1.5, 0, 0.9, math.pi, M=3)
    svg = emit_diagram_svg(spec)
    assert svg.count('r="4.000" fill="#d62728"') == 7
    assert "<polygon points=" in svg


def test_diagram_draws_rejected_configurations():
    # diagrams are descriptive: a chain failing the interior inequality
    # still renders, with its vertices inside the wedge
    bad = next(r for r in enumerate_s2_nonminimal(2.22, 11)
               if not r.exists and r.branch == "A"
               and abs(r.alpha - 2.40065) < 1e-3)
    spec = ReprSpec(Family.S2NONMIN, bad.R, bad.n, bad.alpha, bad.beta_prime,
                    k=bad.k)
    svg = emit_diagram_svg(spec)
    assert "<path" in svg and "<polyline" in svg


def test_diagram_repeat_emission_is_identical():
    spec = ReprSpec(Family.T2, 1.6, 11, 0.0, math.pi, k=3)
    assert emit_diagram_svg(spec) == emit_diagram_svg(spec)


# ----------------------------------------------------------------- CLI


def test_cli_topology_exact_output(capsys):
    assert cli.main(["topology", "--R", "-0.5"]) == 0
    out = capsys.readouterr()
    assert out.out == '{"label":"ConvexSphere"}\n'
    assert out.err == ""


def test_cli_topology_text_format(capsys):
    assert cli.main(["topology", "--R", "2.0", "--format", "text"]) == 0
    assert capsys.readouterr().out == "Torus\n"


def test_cli_reduce_identity_to_zero(capsys):
    rc = cli.main(["reduce", "--R", "5/8",
                   "--expr", "[x,y] - i*eps*z"])
    assert rc == 0
    assert capsys.readouterr().out == '"0"\n'


def test_cli_reduce_nontrivial(capsys):
    rc = cli.main(["reduce", "--R", "0", "--expr", "u*ud"])
    assert rc == 0
    assert capsys.readouterr().out == '"(1)"\n'


def test_cli_reduce_parse_error_exits_2(capsys):
    rc = cli.main(["reduce", "--R", "0", "--expr", "x + * y"])
    assert rc == 2
    err = capsys.readouterr().err
    doc = json.loads(err)
    assert "position 4" in doc["error"]


def test_cli_reduce_deep_nesting_exits_2(capsys):
    expr = "(" * 1200 + "x" + ")" * 1200
    rc = cli.main(["reduce", "--R", "0", "--expr", expr])
    assert rc == 2
    assert "nests deeper" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("expr, same_as", [
    (" + ".join(["x"] * 3000), "3000*x"),
    ("u" + "'" * 3001, "ud"),
    ("-" * 3001 + "x", "-x"),
    ("*".join(["u"] * 3000), "u^3000"),
], ids=["sum", "adjoints", "signs", "product"])
def test_cli_reduce_long_chains(expr, same_as, capsys):
    assert cli.main(["reduce", "--R", "0", "--expr=" + same_as]) == 0
    want = capsys.readouterr().out
    rc = cli.main(["reduce", "--R", "0", "--expr=" + expr])
    assert rc == 0
    assert capsys.readouterr().out == want


def test_cli_usage_error_exits_2(capsys):
    assert cli.main(["solve-min-s2", "--R", "0.5"]) == 2  # missing --n
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["sweep", "--n", "5", "--R", "1:2"]) == 2
    assert cli.main(["sweep", "--n", "5", "--R", "nan"]) == 2
    assert cli.main(["sweep", "--n", "5", "--R", "0:inf:3"]) == 2
    capsys.readouterr()


def test_cli_solve_nonexistence_exits_1(capsys):
    rc = cli.main(["solve-min-s2", "--R", "-1.5", "--n", "5"])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    doc = json.loads(out.err)
    assert doc["exists"] is False
    assert "no root" in doc["error"]


def test_cli_solve_success(capsys):
    rc = cli.main(["solve-min-s2", "--R", "0", "--n", "10"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == pytest.approx(math.pi / 10, abs=1e-9)
    assert doc["beta_prime"] == pytest.approx(-math.pi / 2, abs=1e-8)
    assert doc["beta"] == pytest.approx(
        doc["beta_prime"] + 0.5 * doc["alpha"], rel=1e-12)


def test_cli_t2_window_none_exits_1(capsys):
    rc = cli.main(["t2-window", "--R", "0.9", "--n", "11", "--k", "1"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["kind"] == "none"
    assert "threshold" in doc["error"]


def test_cli_t2_window_restricted(capsys):
    rc = cli.main(["t2-window", "--R", "1.02", "--n", "11", "--k", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "restricted"
    assert doc["beta_lo"] == pytest.approx(2.7772433903268903, abs=1e-12)
    assert doc["beta_hi"] == pytest.approx(2.9347432525636425, abs=1e-12)
    assert doc["delta"] == pytest.approx(0.41369880205230114, abs=1e-12)


def test_cli_classify(capsys):
    rc = cli.main(["classify", "--R", "1.05", "--eps", "0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "SphereTorus"
    assert doc["flags"]["finite_t2"] is True
    assert doc["flags"]["infinite_t2"] is False


def test_cli_build_verify_file_flow(tmp_path, capsys):
    path = tmp_path / "rep.json"
    rc = cli.main(["build", "s2min", "--R", "0.5", "--n", "6",
                   "--out", str(path)])
    assert rc == 0
    receipt = json.loads(capsys.readouterr().out)
    assert receipt == {"out": str(path)}
    rc = cli.main(["verify", str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["family"] == "s2min"
    assert doc["irreducible"] is True
    assert doc["max_residual"] < 1e-10 * 6


def test_cli_verify_detects_corruption(tmp_path, capsys):
    path = tmp_path / "rep.json"
    cli.main(["build", "s2min", "--R", "0.5", "--n", "4", "--out", str(path)])
    capsys.readouterr()
    doc = json.loads(path.read_text())
    doc["matrices"]["u"][0][0] = [2.0, 0.0]  # break unitarity
    path.write_text(json.dumps(doc))
    rc = cli.main(["verify", str(path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def _ragged(doc):
    doc["matrices"]["ap"][1] = doc["matrices"]["ap"][1][:-1]


def _shrunk(doc):
    doc["n"] = 5  # but the matrices stay 4x4


def _missing(doc):
    del doc["R"]


def _non_finite(doc):
    doc["matrices"]["am"][2][1] = [1e999, 0.0]  # reloads as inf


def _mistyped(doc):
    doc["nu"] = "1+0j"


@pytest.mark.parametrize("corrupt", [_ragged, _shrunk, _missing,
                                     _non_finite, _mistyped])
def test_cli_verify_rejects_malformed_document(corrupt, tmp_path, capsys):
    path = tmp_path / "rep.json"
    cli.main(["build", "s2min", "--R", "0.5", "--n", "4", "--out", str(path)])
    capsys.readouterr()
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    rc = cli.main(["verify", str(path)])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert "error" in json.loads(out.err)


@pytest.mark.parametrize("text", [
    '{"family": "s2min"}',
    '{"family": "nc-torus", "n": 2, "k": 1, "beta": 0, "nu": [1, 0]}',
    '[1, 2]',
    '{"family": "s2min", "n": 2',
    '{"family": "nc-torus", "n": 1, "k": 1, "beta": NaN, "nu": [1, 0],'
    ' "matrices": {"u": [[[1, 0]]], "v": [[[1, 0]]]}}',
    b'\xff\xfe{"family": "s2min"}',
], ids=["no-fields", "no-matrices", "array", "truncated", "nan", "not-utf8"])
def test_cli_verify_rejects_malformed_text(text, tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    rc = cli.main(["verify", str(path)])
    out = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in out.err
    assert "error" in json.loads(out.err)


def test_cli_verify_family_target(capsys):
    rc = cli.main(["verify", "fuzzy-sphere", "--n", "6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["family"] == "fuzzy-sphere"
    assert doc["ok"] is True
    rc = cli.main(["verify", "nonsense"])
    assert rc == 2
    capsys.readouterr()


_VERIFY_KEYS = ["excluded", "family", "max_residual", "n", "ok",
                "residuals", "tol"]


@pytest.mark.parametrize("argv, residuals, irreducible", [
    (["fuzzy-sphere", "--n", "6"],
     ["casimir", "comm_xy", "comm_yz", "comm_zx", "unitary"], True),
    (["nc-torus", "--n", "7", "--k", "3", "--nu-phase", "0.5"],
     ["unitary_u", "unitary_v", "weyl"], None),
    (["t2", "--R", "3", "--n", "5", "--k", "2"],
     ["circle", "comm_xy", "comm_yz", "comm_zx", "herm_x", "herm_y",
      "herm_z", "radius", "unitary"], True),
])
def test_cli_verify_document_keys_by_family(argv, residuals, irreducible,
                                            tmp_path, capsys):
    path = tmp_path / "rep.json"
    assert cli.main(["build"] + argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    for target in (argv, [str(path)]):
        assert cli.main(["verify"] + target) == 0
        doc = json.loads(capsys.readouterr().out)
        keys = _VERIFY_KEYS + ([] if irreducible is None else ["irreducible"])
        assert sorted(doc) == sorted(keys)
        assert sorted(doc["residuals"]) == residuals
        assert doc.get("irreducible") is irreducible
        assert doc["excluded"] == []


@pytest.mark.parametrize("eps", ["0.5", "1e-5"])
@pytest.mark.parametrize("R", ["1", "-1", "1.00000001", "0.99999999",
                               "-1.00000001", "-0.99999999",
                               "1.000000000001", "0.999999999999"])
def test_cli_topology_and_classify_agree_at_the_boundaries(R, eps, capsys):
    """Both commands compare R with +-1 exactly; a torus surface is any of
    the three torus-side regions."""
    assert cli.main(["topology", "--R", R]) == 0
    surface = json.loads(capsys.readouterr().out)["label"]
    assert cli.main(["classify", "--R", R, "--eps", eps]) == 0
    region = json.loads(capsys.readouterr().out)["label"]
    allowed = {
        "Null": {"Null"},
        "Point": {"Point"},
        "ConvexSphere": {"Sphere"},
        "Sphere": {"Sphere"},
        "Variety": {"Variety"},
        "Torus": {"SphereTorus", "SphereTorusBoundary", "Torus"},
    }
    assert region in allowed[surface], (R, surface, region)


def test_cli_verify_s2min_family_matches_file(tmp_path, capsys):
    path = tmp_path / "rep.json"
    rc = cli.main(["build", "s2min", "--R", "0.5", "--n", "5",
                   "--out", str(path)])
    assert rc == 0
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 0
    from_file = capsys.readouterr().out
    rc = cli.main(["verify", "s2min", "--R", "0.5", "--n", "5"])
    out = capsys.readouterr()
    assert rc == 0
    assert "Traceback" not in out.err
    assert out.out == from_file
    # --tol is the residual threshold only; the chain is solved as built
    rc = cli.main(["verify", "s2min", "--R", "0.5", "--n", "5",
                   "--tol", "1e-3"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["tol"] == 1e-3


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["topology", "--R={}"],
    ["classify", "--R={}", "--eps", "0.5"],
    ["classify", "--R", "1.05", "--eps={}"],
    ["solve-min-s2", "--R={}", "--n", "5"],
    ["solve-min-s2", "--R", "0.5", "--n", "5", "--tol={}"],
])
def test_cli_rejects_non_finite_floats(argv, value, capsys):
    rc = cli.main([arg.format(value) for arg in argv])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert "must be a finite number" in out.err
    assert "Traceback" not in out.err


def test_cli_build_s2min_contains_frozen_entry(capsys):
    rc = cli.main(["build", "s2min", "--R", "0", "--n", "2"])
    assert rc == 0
    assert "1.1892071150026893" in capsys.readouterr().out


def test_cli_build_nc_torus_wrap_phase(capsys):
    rc = cli.main(["build", "nc-torus", "--n", "5", "--k", "2",
                   "--nu-phase", repr(math.pi / 3)])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"nu": [0.50000000000000011, 0.8660254037844386]' in out


def test_cli_build_missing_flag_exits_2(capsys):
    assert cli.main(["build", "s2min", "--R", "0.5"]) == 2
    assert cli.main(["build", "t2", "--R", "3", "--n", "5"]) == 2
    capsys.readouterr()


def test_cli_build_nonexistent_chain_exits_1(capsys):
    rc = cli.main(["build", "s2min", "--R", "-1.5", "--n", "5"])
    assert rc == 1
    assert "no root" in json.loads(capsys.readouterr().err)["error"]


def test_cli_enum_csv_and_json_agree(capsys):
    rc = cli.main(["enum-s2", "--R", "1.5", "--n", "11"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 11
    assert doc["count_existing"] == 5
    rc = cli.main(["enum-s2", "--R", "1.5", "--n", "11", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 12
    assert sum(1 for line in lines[1:] if ",true," in line) == 5


def test_cli_sweep_range_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--n", "5", "--R=-0.6:1.2:4", "--grid", "512"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    radii = {line.split(",")[0] for line in a.read_text().splitlines()[1:]}
    assert radii == {"-0.6", "0", "0.6", "1.2"}


def test_cli_diagram_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    argv = ["diagram", "t2", "--R", "3", "--n", "3", "--k", "1"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert b"<polygon" in a.read_bytes()


def test_cli_poisson(capsys):
    rc = cli.main(["poisson", "--R", "1/2", "--f", "x", "--g", "y"])
    assert rc == 0
    assert capsys.readouterr().out == '"u^-1*(1/2*i) + u*(-1/2*i)"\n'
    rc = cli.main(["poisson", "--R", "1/2", "--f", "z^2+w^2", "--g", "x"])
    assert rc == 0
    assert capsys.readouterr().out == '"0"\n'


def test_cli_slice_csv(capsys):
    rc = cli.main(["slice", "--R", "-1", "--format", "csv"])
    assert rc == 0
    assert capsys.readouterr().out == "x,z\n0,0\n"


def test_cli_text_error_format(capsys):
    rc = cli.main(["solve-min-s2", "--R", "-1.5", "--n", "5",
                   "--format", "text"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")


# ------------------------------------------------------------ painting


class _FakeTty:
    def isatty(self):
        return True


def test_paint_honors_no_color(monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert cli._paint("hi", "31", _FakeTty()) == "\x1b[31mhi\x1b[0m"
    monkeypatch.setenv("NO_COLOR", "1")
    assert cli._paint("hi", "31", _FakeTty()) == "hi"


def test_paint_skips_non_tty(monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    class Plain:
        def isatty(self):
            return False
    assert cli._paint("hi", "31", Plain()) == "hi"
