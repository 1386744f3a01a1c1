"""Pins of the CLI surface, and a fuzz test of its exit-code contract.

cli_help.golden holds the --help text of the root parser and of the 12
subcommands at COLUMNS=80, and USAGE_ERRORS the JSON record of each usage
error, both taken from the parser as it stood before it was built once per
process.  Every argv, valid or not, must end in exit 0, 1 or 2 and never
in a traceback.
"""

import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheretorus import cli

COMMANDS = ("topology", "slice", "solve-min-s2", "enum-s2", "t2-window",
            "classify", "build", "verify", "reduce", "poisson", "sweep",
            "diagram")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_help_text_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = pathlib.Path(__file__).with_name("cli_help.golden")
    parts = []
    for argv in [["--help"]] + [[command, "--help"] for command in COMMANDS]:
        code, out, err = _run(argv)
        assert (code, err) == (0, "")
        parts.append("$ spheretorus " + " ".join(argv) + "\n" + out)
    assert "\n".join(parts) == golden.read_text(encoding="utf-8")


USAGE_ERRORS = [
    ([], "spheretorus: the following arguments are required: command"),
    (["no-such-command"],
     "spheretorus: argument command: invalid choice: 'no-such-command' "
     "(choose from 'topology', 'slice', 'solve-min-s2', 'enum-s2', "
     "'t2-window', 'classify', 'build', 'verify', 'reduce', 'poisson', "
     "'sweep', 'diagram')"),
    (["topology"],
     "spheretorus topology: the following arguments are required: --R"),
    (["solve-min-s2", "--R", "0.5"],
     "spheretorus solve-min-s2: the following arguments are required: --n"),
    (["classify", "--R", "1"],
     "spheretorus classify: the following arguments are required: --eps"),
    (["reduce", "--R", "0"],
     "spheretorus reduce: the following arguments are required: --expr"),
    (["poisson", "--R", "0", "--f", "x"],
     "spheretorus poisson: the following arguments are required: --g"),
    (["build", "s2min", "--R", "0.5"], "spheretorus build: build needs --n"),
    (["build", "nc-torus", "--n", "5"], "spheretorus build: build needs --k"),
    (["verify", "s2nonmin", "--R", "1.5", "--n", "5"],
     "spheretorus verify: verify needs --alpha, --beta-prime"),
    (["topology", "--R", "1", "--bogus"],
     "spheretorus: unrecognized arguments: --bogus"),
    (["build", "s2min", "--R", "0.5", "--n", "5", "--tol", "1e-12"],
     "spheretorus: unrecognized arguments: --tol 1e-12"),
    (["build", "nope"],
     "spheretorus build: argument family: invalid choice: 'nope' (choose "
     "from 's2min', 's2nonmin', 't2', 't2window', 'fuzzy-sphere', "
     "'nc-torus')"),
    (["diagram", "fuzzy-sphere", "--n", "3"],
     "spheretorus diagram: argument family: invalid choice: 'fuzzy-sphere' "
     "(choose from 's2min', 's2nonmin', 't2', 't2window')"),
    (["verify", "nope-file", "--n", "3"],
     "spheretorus verify: target 'nope-file' is neither a readable file nor "
     "a family (s2min, s2nonmin, t2, t2window, fuzzy-sphere, nc-torus)"),
    (["topology", "--R", "1", "--format", "csv"],
     "spheretorus topology: argument --format: invalid choice: 'csv' "
     "(choose from 'json', 'text')"),
    (["topology", "--R", "nan"],
     "spheretorus topology: argument --R: must be a finite number, got 'nan'"),
    (["topology", "--R", "x"],
     "spheretorus topology: argument --R: invalid float value: 'x'"),
    (["verify", "t2", "--R", "2", "--n", "11", "--k", "1", "--tol", "inf"],
     "spheretorus verify: argument --tol: must be a finite number, got 'inf'"),
    (["reduce", "--R", "x", "--expr", "x"],
     "spheretorus reduce: argument --R: invalid Fraction value: 'x'"),
    (["t2-window", "--R", "2", "--n", "1e3", "--k", "1"],
     "spheretorus t2-window: argument --n: invalid int value: '1e3'"),
    (["t2-window", "--R", "2", "--n", "5", "--k", "x"],
     "spheretorus t2-window: argument --k: invalid int value: 'x'"),
    (["build", "s2min", "--n", "4097", "--R", "0.5"],
     "spheretorus build: argument --n: must lie in [1, 4096], got 4097"),
    (["slice", "--R", "2", "--grid", "0"],
     "spheretorus slice: argument --grid: must lie in [1, 65536], got 0"),
    (["enum-s2", "--R", "1.5", "--n", "5", "--grid", "65537"],
     "spheretorus enum-s2: argument --grid: must lie in [1, 65536], got "
     "65537"),
    (["sweep", "--n", "5", "--R=0.5:2:0"],
     "spheretorus sweep: --R must be a number or lo:hi:count with 1 <= "
     "count <= 1024, got '0.5:2:0'"),
]


@pytest.mark.parametrize("argv, error", USAGE_ERRORS)
def test_usage_error_records_are_pinned(argv, error):
    assert _run(argv) == (2, "", json.dumps({"error": error},
                                            separators=(",", ":")) + "\n")


def test_repeated_calls_share_no_state():
    # the parser is built once per process: flags of one call must not
    # leak into the next
    calls = [
        ["build", "t2", "--R", "3", "--n", "5", "--k", "2",
         "--beta-prime", "2.5", "--nu-phase", "0.5"],
        ["build", "t2", "--R", "3", "--n", "5", "--k", "2"],
        ["verify", "t2", "--R", "3", "--n", "5", "--k", "2", "--format",
         "text", "--tol", "1e-30"],
        ["verify", "t2", "--R", "3", "--n", "5", "--k", "2"],
        ["solve-min-s2", "--R", "0.5", "--n", "5"],
        ["build", "s2min", "--R", "0.5"],
        ["topology", "--R", "2"],
    ]
    first = [_run(argv) for argv in calls]
    assert [_run(argv) for argv in calls] == first
    assert [_run(argv) for argv in reversed(calls)] == first[::-1]
    assert cli._shared_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["classify", "--R", "1", "--eps", "1e200"],
    ["build", "t2", "--R", "1.7e308", "--n", "5", "--k", "1"],
    ["verify", "t2", "--R", "1.7e308", "--n", "5", "--k", "1"],
    ["verify", "t2window", "--R", "1.7e308", "--n", "3", "--alpha", "2.4"],
])
def test_non_finite_results_exit_1(argv):
    code, out, err = _run(argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert "non-finite" in json.loads(err)["error"]


def test_zero_denominator_is_a_usage_error():
    # Fraction("1/0") raises ZeroDivisionError, which argparse lets through
    code, out, err = _run(["poisson", "--R", "1/0", "--f", "x", "--g", "y"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "spheretorus poisson: argument --R: "
                                        "invalid Fraction value: '1/0'"}


@pytest.mark.parametrize("argv", [
    ["slice", "--R=0", "--grid=--"],
    ["build", "t2", "--R=3", "--n=5", "--k=--"],
    ["verify", "t2", "--R=3", "--n=5", "--k=2", "--beta-prime=--"],
    ["reduce", "--R=--", "--expr=x"],
    ["poisson", "--R=0", "--f=x", "--g=--"],
])
def test_double_dash_value_is_a_usage_error(argv):
    # before Python 3.13 argparse drops the "--" of `--flag=--` and stores
    # an empty list that no type function has checked
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert "error" in json.loads(err)


# argv fuzzing ----------------------------------------------------------------
#
# Sizes stay small (n <= 16, grid <= 64, a sweep's count <= 4, exponents
# <= 3) so that every call is cheap; --out is left out so nothing is
# written.

JUNK = ("", "abc", "--", "1e", "0x10", "1,5", "-")
FLOATS = st.sampled_from(("0", "0.5", "-0.5", "1", "-1", "1.05", "1.5", "2",
                          "2.4", "3", "-1.5", "1.7e308", "-1.7e308", "1e200",
                          "-0.0", "5e-324", "nan", "inf", "1e999")
                         + JUNK)
EXACT = st.sampled_from(("0", "5/8", "1/2", "-1", "3", "0.625", "1/0",
                         "1.7e308", "1e999", "nan") + JUNK)
SMALL_INTS = st.one_of(st.integers(-2, 16).map(str), st.sampled_from(JUNK))
GRIDS = st.one_of(st.integers(-1, 64).map(str), st.sampled_from(JUNK))
TOLS = st.one_of(FLOATS, st.sampled_from(("1e-12", "1e-30", "1e-3")))
FAMILIES = ("s2min", "s2nonmin", "t2", "t2window", "fuzzy-sphere", "nc-torus")

_atoms = st.sampled_from(("x", "y", "z", "w", "ap", "am", "u", "ud", "i",
                          "eps", "2", "1/3", "q", "x'"))
EXPRS = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(("+", "-", "*")), inner).map(
            lambda t: f"{t[0]}{t[1]}{t[2]}"),
        st.tuples(inner, st.integers(-1, 3)).map(
            lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"[{t[0]},{t[1]}]"),
        inner.map(lambda e: f"({e})'"),
    ),
    max_leaves=6,
)
SWEEP_R = st.one_of(
    FLOATS,
    st.tuples(FLOATS, FLOATS, st.integers(-1, 4)).map(
        lambda t: f"{t[0]}:{t[1]}:{t[2]}"),
)

_REP = {"--n": SMALL_INTS, "--k": SMALL_INTS, "--alpha": FLOATS,
        "--beta-prime": FLOATS, "--nu-phase": FLOATS, "--R": FLOATS}
FLAGS = {
    "topology": {"--R": FLOATS},
    "slice": {"--R": FLOATS, "--grid": GRIDS},
    "solve-min-s2": {"--R": FLOATS, "--n": SMALL_INTS, "--tol": TOLS},
    "enum-s2": {"--R": FLOATS, "--n": SMALL_INTS, "--tol": TOLS,
                "--grid": GRIDS},
    "t2-window": {"--R": FLOATS, "--n": SMALL_INTS, "--k": SMALL_INTS},
    "classify": {"--R": FLOATS, "--eps": FLOATS},
    "build": _REP,
    "verify": dict(_REP, **{"--tol": TOLS}),
    "reduce": {"--R": EXACT, "--expr": EXPRS},
    "poisson": {"--R": EXACT, "--f": EXPRS, "--g": EXPRS},
    "sweep": {"--R": SWEEP_R, "--n": SMALL_INTS, "--grid": GRIDS},
    "diagram": _REP,
}
FORMATS = {
    "slice": ("json", "csv", "text"), "enum-s2": ("json", "csv", "text"),
    "sweep": ("csv", "json"), "build": (), "diagram": (),
}
POSITIONAL = {"build": FAMILIES, "verify": FAMILIES, "diagram": FAMILIES}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command in POSITIONAL:
        argv.append(draw(st.sampled_from(POSITIONAL[command] + ("x",))))
    for flag, values in FLAGS[command].items():
        # mostly present, so that calls get past the required-flag checks
        if draw(st.integers(0, 4)):
            argv.append(f"{flag}={draw(values)}")
    formats = FORMATS.get(command, ("json", "text"))
    if formats and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(formats + ("xml",)))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs())
def test_every_argv_ends_in_an_exit_code(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    text = "--format" in argv and argv[argv.index("--format") + 1] == "text"
    if code and not text:
        record = json.loads(err.splitlines()[-1])
        assert isinstance(record, dict) and "error" in record, argv
