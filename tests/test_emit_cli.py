"""Serializers (JSON/CSV/SVG) and the command-line interface."""

import dataclasses
import json
import math
import os
import pathlib
import re
import runpy
import shlex
import subprocess
import sys

import pytest

from spheretorus import cli, emit
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
    render_json,
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
    assert "1.189207115002721" in emit_rep_json(m)


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


@pytest.mark.parametrize("expr, message", [
    ("x*²", "unexpected character '²' at position 2"),
    ("x^²", "unexpected character '²' at position 2"),
    ("x*١", "unexpected character '١' at position 2"),
    ("x*½", "unexpected character '½' at position 2"),
    ("x*é", "unknown identifier 'é' at position 2"),
], ids=["superscript", "superscript-exponent", "arabic-indic", "vulgar",
        "accented-name"])
def test_cli_reduce_non_ascii_exits_2(expr, message, capsys):
    # numbers are ASCII digits only; str.isdigit would let these through
    rc = cli.main(["reduce", "--R", "0", "--expr", expr])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert "Traceback" not in out.err
    assert len(out.err.splitlines()) == 1
    assert json.loads(out.err)["error"].startswith(message)


@pytest.mark.parametrize("expr", ["ap^1100*am^1100", "am^1100*ap^1100"])
def test_cli_reduce_deep_contraction_exits_1(expr, capsys):
    rc = cli.main(["reduce", "--R", "0", "--expr", expr])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert "MAX_CONTRACTION" in json.loads(out.err)["error"]


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


def _usage_error(argv, capsys):
    """The JSON error record of a usage error; nothing on stdout."""
    rc = cli.main(argv)
    out = capsys.readouterr()
    assert rc == 2, argv
    assert out.out == ""
    assert "Traceback" not in out.err
    return json.loads(out.err)["error"]


@pytest.mark.parametrize("command", ["build", "diagram"])
def test_cli_solver_tol_is_not_an_option(command, capsys):
    # the chain solver always runs at its own tolerance
    error = _usage_error([command, "s2min", "--R", "0.5", "--n", "5",
                          "--tol", "1e-12"], capsys)
    assert "unrecognized arguments: --tol 1e-12" in error


def test_cli_usage_errors_are_json_records(capsys):
    assert "required: --n" in _usage_error(["solve-min-s2", "--R", "0.5"],
                                           capsys)
    assert "invalid choice" in _usage_error(["no-such-command"], capsys)
    assert "build needs --n" in _usage_error(["build", "s2min", "--R", "0.5"],
                                             capsys)
    assert "invalid int value" in _usage_error(
        ["t2-window", "--R", "2", "--n", "1e3", "--k", "1"], capsys)


# Caps are checked before anything is built, so none of these allocates;
# n = 10^6 would ask np.diag for 16 TB.
@pytest.mark.parametrize("argv", [
    ["build", "t2", "--R", "3", "--k", "1", "--n", "{}"],
    ["build", "nc-torus", "--k", "1", "--n", "{}"],
    ["verify", "fuzzy-sphere", "--n", "{}"],
    ["diagram", "s2min", "--R", "0.5", "--n", "{}"],
    ["solve-min-s2", "--R", "0.5", "--n", "{}"],
    ["enum-s2", "--R", "1.5", "--n", "{}"],
    ["t2-window", "--R", "2", "--k", "1", "--n", "{}"],
    ["sweep", "--R", "1", "--n", "{}"],
])
@pytest.mark.parametrize("n", ["0", "-3", "4097", "1000000"])
def test_cli_caps_dimension(argv, n, capsys):
    assert cli.MAX_DIM == 4096
    error = _usage_error([arg.format(n) for arg in argv], capsys)
    assert f"argument --n: must lie in [1, 4096], got {int(n)}" in error


@pytest.mark.parametrize("argv", [
    ["slice", "--R", "2", "--grid", "{}"],
    ["enum-s2", "--R", "1.5", "--n", "5", "--grid", "{}"],
    ["sweep", "--R", "1", "--n", "5", "--grid", "{}"],
])
@pytest.mark.parametrize("grid", ["0", "65537", str(10 ** 12)])
def test_cli_caps_grid(argv, grid, capsys):
    # grid 0 used to end enum-s2 in a ZeroDivisionError traceback
    error = _usage_error([arg.format(grid) for arg in argv], capsys)
    assert f"argument --grid: must lie in [1, 65536], got {grid}" in error


@pytest.mark.parametrize("count", ["0", "1025", str(10 ** 12)])
def test_cli_caps_sweep_count(count, capsys):
    error = _usage_error(["sweep", "--n", "5", f"--R=0.5:2:{count}"], capsys)
    assert "1 <= count <= 1024" in error


def test_readme_python_quick_start_emits(tmp_path):
    """The README's Python block runs, in a fresh interpreter with warnings
    as errors too, and its string family emits."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines[0] == "from fractions import Fraction"
    assert any(re.fullmatch(r"text = emit_rep_json\(m\) .*", line)
               for line in lines)
    (tmp_path / "quickstart.py").write_text(block)
    proc = subprocess.run([sys.executable, "-W", "error", "quickstart.py"],
                          capture_output=True, text=True, timeout=120,
                          cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(_SRC)))
    assert (proc.returncode, proc.stderr) == (0, "")
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    m = scope["m"]
    assert m.spec.family is Family.S2MIN
    assert json.loads(emit_rep_json(m))["family"] == "s2min"
    assert max(scope["verify_relations"](m).residuals.values()) < 1e-12


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


def test_cli_classify_below_r_eps_lists_no_window(capsys):
    # just below R_eps = sqrt(1.25) no window builds, so none is listed
    rc = cli.main(["classify", "--R", "1.1180339328481954", "--eps", "0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "SphereTorus"
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


@pytest.mark.parametrize("R, n", [("-0.999999", "4096"),
                                  ("-0.9999999", "1024"),
                                  ("-0.99999999", "64"),
                                  ("-0.9999999999953018", "945")])
def test_cli_verify_s2min_near_minus_one(R, n, capsys):
    # the first interior |C|^2 is about 1e-9 here, and scales with 1 + R;
    # at the last, alpha = 6.5e-9 steps the eigenvalues far wider than
    # IRREDUCIBLE_TOL, and an absolute 1e-8 called them equal
    assert cli.main(["verify", "s2min", "--R", R, "--n", n]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    doc = json.loads(out.out)
    assert doc["ok"] is True and doc["irreducible"] is True


@pytest.mark.parametrize("report, make, family, R, n, k", [
    ("solve-min-s2", "build s2min", "s2min", "-0.99999999999999", 100, None),
    ("t2-window", "verify t2", "t2", "2.6180339887498953", 5, 2),
    ("solve-min-s2", "build s2min", "s2min", "1.999999999", 3, None),
], ids=["s2min", "t2", "s2min-top"])
def test_cli_reporter_and_builder_exit_alike(report, make, family, R, n, k,
                                             capsys):
    # R just above -1, where the root's first interior |C|^2 is about 4e-16
    # and both exit 0; one ulp above the (5, 2) cycle's onset phi^2; and R
    # 1e-9 below sec(pi/3), where the root's R_eps lies below R and the
    # region table refuses: the reporter, the builder and the sweep row
    # give one verdict
    flags = [f"--R={R}", "--n", str(n)] + ([] if k is None else ["--k", str(k)])
    code = cli.main(report.split() + flags)
    assert cli.main(make.split() + flags) == code
    capsys.readouterr()
    assert cli.main(["sweep", "--format", "json"] + flags[:3]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    row, = [r for r in rows if r["family"] == family and r["k"] == k]
    assert row["exists"] == (code == 0)


_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _spheretorus(argv, cwd=None):
    """The CLI as a user runs it: ``python -m spheretorus.cli`` in a fresh
    interpreter, warnings as errors."""
    env = dict(os.environ, PYTHONPATH=str(_SRC), PYTHONWARNINGS="error")
    return subprocess.run([sys.executable, "-m", "spheretorus.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)


def test_readme_command_block_runs(tmp_path):
    # each line of the README's CLI block, in order and in one directory
    # (verify reads the file build wrote), exits 0 with warnings as errors
    readme = (_SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (CLI)", 1)[1]
    lines = block.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["spheretorus"] * 12
    for line in lines:
        proc = _spheretorus(shlex.split(line, comments=True)[1:], tmp_path)
        assert proc.returncode == 0, (line, proc.stderr)


@pytest.mark.parametrize("command", ["solve-min-s2", "verify s2min"])
def test_a_minimal_chain_near_minus_one_solves_and_verifies(command):
    # the reporter and the builder both find the chain: the builder applies
    # the solver's chain test, where the first interior |C|^2 is about 1e-9
    proc = _spheretorus(command.split() + ["--R", "-0.999999", "--n", "4096"])
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("command", ["solve-min-s2", "verify s2min"])
def test_no_minimal_chain_where_the_region_table_lists_none(command):
    # 1e-9 below sec(pi/3) = 2 the root's R_eps = sqrt(1 + tan^2(alpha/2))
    # lies below R: exit 1, nothing on stdout, one JSON record on stderr
    proc = _spheretorus(command.split() + ["--R", "1.999999999", "--n", "3"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1
    assert "error" in json.loads(proc.stderr)
    # farther below sec(pi/3) the chain exists
    proc = _spheretorus(command.split() + ["--R", "1.9999", "--n", "3"])
    assert (proc.returncode, proc.stderr) == (0, "")


def test_cli_window_refuses_a_rational_angle_of_any_denominator(capsys):
    # 2*pi/65 at n = 131 repeats each point m at m + 65; a cap of 64 on the
    # denominator admitted it, and verify then read it reducible
    argv = ["verify", "t2window", "--R", "1.5", "--n", "131",
            "--alpha", "0.0966643893412244"]
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {
        "error": "alpha = 2*pi*1/65 is a rational angle; build the finite "
                 "torus"}


@pytest.mark.parametrize("R,n,alpha", [("3", "9", "1e-14"),
                                       ("1e308", "3", "1e-300")])
def test_cli_window_below_float_resolution_names_no_torus(R, n, alpha,
                                                          capsys):
    # neighbouring eigenvalues coincide, but round(alpha/2pi) = 0: no finite
    # torus has k = 0, and 2*pi*0 is no angle in (0, pi)
    argv = ["build", "t2window", "--R", R, "--n", n, "--alpha", alpha]
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {
        "error": "eigenvalues 1 apart coincide within IRREDUCIBLE_TOL"}


def test_verify_nc_torus_at_max_dim_makes_no_dense_pair():
    # the dense pair alone is 2 * 4096^2 * 16 bytes = 512 MiB.  The child
    # reads its own peak: RUSAGE_CHILDREN would keep the largest peak of any
    # child this process has waited for
    script = (
        "import resource, sys\n"
        "from spheretorus import cli\n"
        "rc = cli.main(['verify', 'nc-torus', '--n', '4096', '--k', '1'])\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "sys.stderr.write(f'{rc} {peak}')\n")
    env = dict(os.environ, PYTHONPATH=str(_SRC), PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    rc, peak_kib = map(int, proc.stderr.split())
    assert rc == 0 and json.loads(proc.stdout)["ok"] is True
    assert peak_kib < 100 * 1024, f"peak {peak_kib / 1024:.0f} MiB"


def test_build_out_streams_the_document(tmp_path):
    # the text of the n = 2048 chain is 101 MB; build --out writes it piece
    # by piece, so it is never held whole (a render that joined it peaked at
    # about 320 MiB).  The child reads its own peak before it checks the file
    path = tmp_path / "chain.json"
    script = (
        "import resource, sys\n"
        "from spheretorus import cli, emit\n"
        "from spheretorus.classify import solve_minimal_s2\n"
        "from spheretorus.reps import Family, ReprSpec, build\n"
        "argv = ['build', 's2min', '--R', '0.5', '--n', '2048']\n"
        "rc = cli.main(argv + ['--out', sys.argv[1]])\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "rec = solve_minimal_s2(0.5, 2048)\n"
        "text = emit.emit_rep_json(build(ReprSpec(Family.S2MIN, 0.5, 2048,\n"
        "                                         rec.alpha, rec.beta_prime)))\n"
        "with open(sys.argv[1], encoding='utf-8', newline='') as fh:\n"
        "    same = fh.read() == text\n"
        "sys.stderr.write(f'{rc} {peak} {same}')\n")
    env = dict(os.environ, PYTHONPATH=str(_SRC), PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    rc, peak_kib, same = proc.stderr.split()
    assert rc == "0" and json.loads(proc.stdout) == {"out": str(path)}
    assert same == "True"
    assert int(peak_kib) < 160 * 1024, f"peak {int(peak_kib) / 1024:.0f} MiB"


def test_the_module_runs_as_a_script(monkeypatch, capsys):
    # python -m spheretorus.cli, in this process; runpy warns when the
    # module it runs as __main__ is already imported
    argv = ["topology", "--R", "0.5"]
    assert cli.main(argv) == 0
    want = capsys.readouterr()
    monkeypatch.delitem(sys.modules, "spheretorus.cli")
    monkeypatch.setattr(sys, "argv", ["spheretorus", *argv])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("spheretorus.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr() == want


def test_verify_file_loads_only_what_a_builder_would_make(tmp_path):
    # a window file with alpha and eps edited together to 2*pi/6: the
    # window's own rule refuses it; a fuzzy-sphere file verifies
    window, fuzzy = tmp_path / "w.json", tmp_path / "f.json"
    proc = _spheretorus(["build", "t2window", "--R", "1.5", "--n", "9",
                         "--alpha", "0.9", "--out", str(window)])
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(window.read_text())
    doc.update(alpha=2 * math.pi / 6, eps=math.tan(math.pi / 6))
    window.write_text(json.dumps(doc))
    proc = _spheretorus(["verify", str(window)])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1
    assert "error" in json.loads(proc.stderr)
    proc = _spheretorus(["build", "fuzzy-sphere", "--n", "9",
                         "--out", str(fuzzy)])
    assert (proc.returncode, proc.stderr) == (0, "")
    proc = _spheretorus(["verify", str(fuzzy)])
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("argv", [
    "slice --R 0.5 --format json",
    "enum-s2 --R 1.5 --n 11 --format text",
    "sweep --n 5 --R=0.8:2.2:4 --format json",
], ids=["slice-json", "enum-text", "sweep-json"])
def test_out_writes_the_bytes_stdout_shows(argv, tmp_path):
    # the file holds what stdout shows without --out, and stdout then holds
    # one line, the JSON receipt naming the file
    path = str(tmp_path / "file.txt")
    shown = _spheretorus(argv.split())
    receipt = _spheretorus(argv.split() + ["--out", path])
    assert (shown.returncode, shown.stderr) == (0, "")
    assert (receipt.returncode, receipt.stderr) == (0, "")
    with open(path, "rb") as fh:
        assert fh.read() == shown.stdout.encode()
    assert receipt.stdout.count("\n") == 1
    assert json.loads(receipt.stdout) == {"out": path}


def _scanned(text):
    """The matrices of text read from their entries (no band), or None
    unless text has render_json's layout."""
    head = emit._header(text)
    return head and emit._read_matrices(text, *head, {})


def test_verify_file_through_both_loaders(tmp_path):
    # the file build writes is read from its band, the re-indented one by
    # json.loads; verify prints the same report for both
    def run(*argv):
        proc = subprocess.run([sys.executable, *argv], capture_output=True,
                              text=True, timeout=120, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(_SRC),
                                       PYTHONWARNINGS="error"))
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        return proc.stdout

    cli = ("-m", "spheretorus.cli")
    run(*cli, "build", "s2min", "--R", "0.5", "--n", "256", "--out", "big.json")
    band = run(*cli, "verify", "big.json")
    run("-m", "json.tool", "big.json", "indented.json")
    assert run(*cli, "verify", "indented.json") == band
    assert _scanned((tmp_path / "big.json").read_text()) is not None
    assert _scanned((tmp_path / "indented.json").read_text()) is None


def _builder_document(family):
    """The document a builder writes for a small spec of the family."""
    if family == "nc-torus":
        return json.loads(emit_nc_torus_json(*build_nc_torus(5, 2), 5, 2))
    if family == "t2":
        m = build_t2_finite(ReprSpec(Family.T2, 4.0, 5, 0.0, math.pi, k=2))
    elif family == "t2window":
        m = build_t2_window(ReprSpec(Family.T2WINDOW, 1.5, 9, 0.9, math.pi))
    elif family == "fuzzy-sphere":
        m = build_fuzzy_sphere(5)
    else:
        rec = solve_minimal_s2(0.5, 5)
        m = build_s2(ReprSpec(Family.S2MIN, 0.5, 5, rec.alpha, rec.beta_prime))
    return json.loads(emit_rep_json(m))


def _pairs(mat):
    return [[[z.real, z.imag] for z in row] for row in mat]


# a one-point chain whose two ends are zeros of |C|^2, which chain_reason
# alone accepts
_ONE_POINT = {"n": 1, "R": -1.0, "alpha": 1.0, "beta_prime": -0.5,
              "eps": math.tan(0.5),
              "matrices": {"u": [[[1.0, 0.0]]], "ap": [[[0.0, 0.0]]],
                           "am": [[[0.0, 0.0]]]}}
# a clock/shift pair at n = 4, k = 2, made by hand: build_nc_torus refuses it
_CLOCK_4_2 = {"n": 4, "k": 2, "matrices": {
    "u": _pairs([[(-1) ** r if r == c else 0 for c in range(4)]
                 for r in range(4)]),
    "v": _pairs([[1 if c == (r + 1) % 4 else 0 for c in range(4)]
                 for r in range(4)])}}


@pytest.mark.parametrize("base, edit, error", [
    ("s2min", {"beta_prime": 0}, "endpoint not a zero at m=0: |C|^2 = "),
    ("s2min", {"beta_prime": -1}, "endpoint not a zero at m=0: |C|^2 = "),
    ("s2min", {"k": 0}, "a minimal chain has no winding integer, got k=0"),
    ("s2min", {"k": -1}, "a minimal chain has no winding integer, got k=-1"),
    ("t2", {"k": None}, "need n >= 3 and 1 <= k < n/2, got n=5, k=None"),
    ("t2", {"R": 1.0}, "inequality fails at m="),
    ("s2min", _ONE_POINT, "sphere chain needs n >= 2, got 1"),
    # alpha and eps agree, so the window's own rule is what fails
    ("t2window", {"alpha": TWO_PI / 6, "eps": math.tan(math.pi / 6)},
     "alpha = 2*pi*1/6 is a rational angle; build the finite torus"),
    ("t2window", {"R": 1.0}, "window needs R >= sec(alpha/2) = "
                             f"{1 / math.cos(0.45):.12g}, got R = 1.0"),
    ("fuzzy-sphere", {"R": 42}, "a fuzzy sphere spec is the one n = 5 fixes"),
    ("nc-torus", _CLOCK_4_2, "gcd(n, k) must be 1, got n=4, k=2"),
    ("nc-torus", {"nu": [2, 0]}, "wrap phase must be unimodular"),
    ("t2", {"alpha": 0.123}, f"alpha must be {TWO_PI * 2 / 5!r}, got 0.123"),
    ("s2min", "eps", "eps must be "),
    ("s2min", "beta", "beta must be "),
], ids=["beta-zero", "beta-neg", "k-zero", "k-neg", "t2-k-null",
        "t2-below-window", "s2min-n1", "window-rational", "window-below-sec",
        "fuzzy-R", "nc-gcd", "nc-nu", "t2-alpha", "eps-off-by-1e-9",
        "beta-edited"])
def test_cli_verify_checks_the_document_spec(base, edit, error, tmp_path,
                                             capsys):
    # the spec's scalars must pass the rule its builder applies, whatever
    # the matrices hold
    doc = _builder_document(base)
    if edit == "eps":
        eps = doc["eps"] * (1 + 1e-9)
        edit, error = {"eps": eps}, f"{error}{doc['eps']!r}, got {eps!r}"
    elif edit == "beta":
        edit, error = {"beta": 0.123}, f"{error}{doc['beta']!r}, got 0.123"
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(dict(doc, **edit)))
    rc = cli.main(["verify", str(path)])
    out = capsys.readouterr()
    assert (rc, out.out) == (1, "")
    assert len(out.err.splitlines()) == 1
    assert json.loads(out.err)["error"].startswith(error)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["topology", "--R={}"],
    ["classify", "--R={}", "--eps", "0.5"],
    ["classify", "--R", "1.05", "--eps={}"],
    ["solve-min-s2", "--R={}", "--n", "5"],
    ["verify", "t2", "--R", "2", "--n", "11", "--k", "1", "--tol={}"],
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
    assert "1.189207115002721" in capsys.readouterr().out


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


def test_cli_sweep_json_rows_are_the_fields_in_order(capsys):
    argv = ["sweep", "--n", "5", "--R=-0.6:1.2:4", "--grid", "512"]
    assert cli.main(argv + ["--format", "json"]) == 0
    step = (1.2 - -0.6) / 3
    rows = sweep_regions(5, [-0.6 + i * step for i in range(4)], grid=512)
    doc = {"n": 5, "rows": [dataclasses.asdict(row) for row in rows]}
    assert capsys.readouterr().out == render_json(doc)
    assert list(doc["rows"][0]) == list(SWEEP_HEADER)


@pytest.mark.parametrize("argv", [
    ["slice", "--R", "0.5", "--grid", "16", "--format", fmt]
    for fmt in ("json", "csv", "text")] + [
    ["enum-s2", "--R", "1.5", "--n", "11", "--format", fmt]
    for fmt in ("json", "csv", "text")] + [
    ["sweep", "--n", "5", "--R=0.8:2.2:4", "--grid", "512", "--format", fmt]
    for fmt in ("json", "csv")])
def test_cli_out_writes_what_stdout_shows(argv, tmp_path, capsys):
    # every format of every command with --out writes the bytes the same
    # argv prints without it, and prints only the receipt
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "out.txt"
    assert cli.main(argv + ["--out", str(path)]) == 0
    out = capsys.readouterr()
    assert path.read_bytes() == printed.encode()
    assert (out.out, out.err) == (render_json_compact({"out": str(path)})
                                  + "\n", "")


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


def test_cli_verify_failure_writes_an_error_record(capsys):
    argv = ["verify", "t2", "--R", "2.5", "--n", "11", "--k", "3"]
    assert cli.main(argv) == 0
    passing = json.loads(capsys.readouterr().out)
    assert cli.main(argv + ["--tol", "1e-30"]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out) == dict(passing, tol=1e-30, ok=False)
    lines = out.err.splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


# CLI paths that no other test runs in process ---------------------------------


def _s2nonmin_flags():
    """Flags of the first existing non-minimal chain at R = 1.2, n = 5."""
    rec = next(r for r in enumerate_s2_nonminimal(1.2, 5) if r.exists)
    assert rec.k == 1
    assert rec.alpha == pytest.approx(1.2566370614359172, abs=1e-12)
    assert rec.beta_prime == pytest.approx(-3.383760486620959, abs=1e-12)
    return ["s2nonmin", "--R", "1.2", "--n", "5", "--alpha", repr(rec.alpha),
            "--beta-prime", repr(rec.beta_prime), "--k", str(rec.k)]


def test_cli_s2nonmin_builds_verifies_and_draws(tmp_path, capsys):
    path = tmp_path / "chain.json"
    flags = _s2nonmin_flags()
    assert cli.main(["build", *flags, "--out", str(path)]) == 0
    out = capsys.readouterr()
    assert (json.loads(out.out), out.err) == ({"out": str(path)}, "")
    assert cli.main(["verify", str(path)]) == 0
    from_file = capsys.readouterr()
    doc = json.loads(from_file.out)
    assert (doc["family"], doc["ok"], doc["irreducible"]) == (
        "s2nonmin", True, True)
    assert from_file.err == ""
    # a fresh build verifies to the same report as its file
    assert cli.main(["verify", *flags]) == 0
    assert capsys.readouterr() == from_file
    assert cli.main(["diagram", *flags]) == 0
    out = capsys.readouterr()
    assert "<polyline" in out.out and out.err == ""


@pytest.mark.parametrize("argv, error", [
    (["build", "t2", "--R", "0.5", "--n", "11", "--k", "1"],
     "no admissible beta': below the finite-torus threshold"),
    (["build", "nc-torus", "--n", "1", "--k", "1"],
     "torus reference needs n >= 2, got 1"),
], ids=["t2-below-threshold", "nc-torus-n1"])
def test_cli_build_refusal_is_one_record(argv, error, capsys):
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": error}


def test_cli_diagram_below_minus_one_forbids_the_whole_disc(capsys):
    # at R = -2 the coupling sec(1/2)*cos(theta') - 2 is negative everywhere
    argv = ["diagram", "s2nonmin", "--R", "-2", "--n", "5", "--alpha", "1",
            "--beta-prime", "-1"]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert ('<circle cx="220.000" cy="220.000" r="200.000" fill="#f3d6d6"'
            in out.out)
    assert "<path" not in out.out and "<polyline" in out.out


def test_cli_sweep_lists_only_windings_coprime_to_n(capsys):
    assert cli.main(["sweep", "--n", "9", "--R=1.5", "--format", "csv"]) == 0
    out = capsys.readouterr()
    rows = [line.split(",") for line in out.out.splitlines()[1:]]
    # gcd(9, 3) = 3, so k = 3 is no cycle of length 9
    assert [row[3] for row in rows if row[2] == "t2"] == ["1", "2", "4"]
    assert out.err == ""
