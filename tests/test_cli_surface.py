"""Pins of the CLI surface, and a fuzz test of its exit-code contract.

cli_help.golden holds the --help text of the root parser and of the 12
subcommands at COLUMNS=80, and USAGE_ERRORS the JSON record of each usage
error, both taken from the parser as it stood before it was built once per
process; its last rows pin the bound on --k, a sweep step that overflows,
messages cut to MAX_MESSAGE and the --tol the chain solvers do not take.
Every argv, valid or not, must end in exit 0, 1 or 2 and never in a
traceback, and every error class of the package must reach the one record
writer.
"""

import contextlib
import importlib
import inspect
import io
import json
import pathlib
import pkgutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spheretorus
from spheretorus import cli
from spheretorus.errors import SpheretorusError, UsageError
from spheretorus.parser import ParseError

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


_LONG = "7" * 5000  # past Python's default 4300-digit int/str limit
_HALF = "7" * 3000  # its square prints 6000 digits


def _cut(prefix):
    """The message of an error that echoes a run of 7s past MAX_MESSAGE."""
    return prefix + "7" * (cli.MAX_MESSAGE - len(prefix)) + "..."


_K_BOUND = "argument --k: must lie in [-4096, 4096], got "
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
    # a step that overflows is refused like a malformed range
    (["sweep", "--n", "5", "--R=1e308:-1e308:3"],
     "spheretorus sweep: --R must be a number or lo:hi:count with 1 <= "
     "count <= 1024, got '1e308:-1e308:3'"),
    (["sweep", "--n", "5", "--R=-1e308:1e308:3"],
     "spheretorus sweep: --R must be a number or lo:hi:count with 1 <= "
     "count <= 1024, got '-1e308:1e308:3'"),
    (["sweep", "--n", "5",
      "--R=-8.988465674311579e307:8.988465674311579e307:4"],
     "spheretorus sweep: --R must be a number or lo:hi:count with 1 <= "
     "count <= 1024, got '-8.988465674311579e307:8.988465674311579e307:4'"),
    # --k is bounded like --n; before, these overflowed or ran
    (["build", "nc-torus", "--n", "5", "--k", "5001"],
     "spheretorus build: " + _K_BOUND + "5001"),
    (["t2-window", "--R", "1", "--n", "5", "--k", "5000"],
     "spheretorus t2-window: " + _K_BOUND + "5000"),
    (["build", "nc-torus", "--n", "5", "--k", _LONG[:400]],
     _cut("spheretorus build: " + _K_BOUND)),
    (["verify", "nc-torus", "--n", "5", "--k", _LONG[:400]],
     _cut("spheretorus verify: " + _K_BOUND)),
    (["build", "t2", "--R", "3", "--n", "5", "--k", _LONG[:400],
      "--beta-prime", "1"], _cut("spheretorus build: " + _K_BOUND)),
    (["verify", "t2", "--R", "3", "--n", "5", "--k", _LONG[:400],
      "--beta-prime", "1"], _cut("spheretorus verify: " + _K_BOUND)),
    (["diagram", "t2", "--R", "3", "--n", "5", "--k", _LONG[:400],
      "--beta-prime", "1"], _cut("spheretorus diagram: " + _K_BOUND)),
    (["t2-window", "--R", "1", "--n", "5", "--k", _LONG[:400]],
     _cut("spheretorus t2-window: " + _K_BOUND)),
    # over-long values are cut where the record is written
    (["reduce", "--R", _LONG, "--expr", "x"],
     _cut("spheretorus reduce: argument --R: invalid Fraction value: '")),
    (["build", _LONG[:300]],
     _cut("spheretorus build: argument family: invalid choice: '")),
    (["verify", _LONG[:300]], _cut("spheretorus verify: target '")),
    (["topology", "--R", "1", "--" + _LONG[:300]],
     _cut("spheretorus: unrecognized arguments: --")),
    (["build", "s2min", "--n", _LONG[:300]],
     _cut("spheretorus build: argument --n: must lie in [1, 4096], got ")),
    # the chain solvers take no tolerance; verify's --tol is the residual
    # threshold
    (["solve-min-s2", "--R", "0.5", "--n", "5", "--tol", "1e-12"],
     "spheretorus: unrecognized arguments: --tol 1e-12"),
    (["enum-s2", "--R", "1.5", "--n", "11", "--tol", "1e-12"],
     "spheretorus: unrecognized arguments: --tol 1e-12"),
]


@pytest.mark.parametrize("argv, error", USAGE_ERRORS)
def test_usage_error_records_are_pinned(argv, error):
    assert len(error) <= cli.MAX_MESSAGE + len("...")
    assert _run(argv) == (2, "", json.dumps({"error": error},
                                            separators=(",", ":")) + "\n")


@pytest.mark.parametrize("k", ["-4096", "4096"])
def test_winding_bound_is_inclusive(k):
    code, out, err = _run(["build", "nc-torus", "--n", "5", "--k", k])
    assert (code, err) == (0, "") and json.loads(out)["k"] == int(k)


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
    # the residuals, one of which overflows, follow the matrices in the
    # document: --out F is not made, and an F that exists keeps its bytes
    ["build", "t2", "--R", "1.7e308", "--n", "5", "--k", "1", "--out", "absent"],
    ["build", "t2", "--R", "1.7e308", "--n", "5", "--k", "1", "--out", "kept"],
])
def test_non_finite_results_exit_1(argv, tmp_path):
    path = tmp_path / argv[-1]
    if argv[-1] == "kept":
        path.write_bytes(b"kept\n")
    code, out, err = _run(argv[:-1] + [str(path)] if "--out" in argv else argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert "non-finite" in json.loads(err)["error"]
    if "--out" in argv:
        assert (path.read_bytes() if path.exists() else None) == (
            b"kept\n" if argv[-1] == "kept" else None)


def test_zero_denominator_is_a_usage_error():
    # Fraction("1/0") raises ZeroDivisionError, which argparse lets through
    code, out, err = _run(["poisson", "--R", "1/0", "--f", "x", "--g", "y"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "spheretorus poisson: argument --R: "
                                        "invalid Fraction value: '1/0'"}


@pytest.mark.parametrize("command", ["build", "verify", "diagram"])
@pytest.mark.parametrize("n", ["1", "4"])
def test_window_dimension_must_be_odd(command, n):
    argv = [command, "t2window", "--R", "1.5", "--n", n, "--alpha", "0.9"]
    error = f"window dimension must be odd and >= 3, got {n}"
    assert _run(argv) == (1, "", json.dumps({"error": error},
                                            separators=(",", ":")) + "\n")


@pytest.mark.parametrize("argv, code, error", [
    (["reduce", "--R", "0", "--expr", _LONG], 2,
     "number literal of 5000 characters is too long at position 0"),
    (["reduce", "--R", "0", "--expr", "1." + _LONG], 2,
     "number literal of 5002 characters is too long at position 0"),
    (["reduce", "--R", "0", "--expr", "x^" + _LONG], 2,
     "number literal of 5000 characters is too long at position 2"),
    (["poisson", "--R", "0", "--f", f"x*{_LONG}", "--g", "y"], 2,
     "number literal of 5000 characters is too long at position 2"),
    (["reduce", "--R", "0", "--expr", f"{_HALF}*{_HALF}"], 1,
     "result has an integer of more than 4300 digits, too long to print"),
    (["poisson", "--R", "0", "--f", f"{_HALF}*{_HALF}*x", "--g", "y"], 1,
     "result has an integer of more than 4300 digits, too long to print"),
], ids=["literal", "decimal", "exponent", "poisson-literal", "reduce-result",
        "poisson-result"])
def test_numbers_past_the_digit_limit_end_in_a_record(argv, code, error):
    assert _run(argv) == (code, "", json.dumps({"error": error},
                                               separators=(",", ":")) + "\n")


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


# one error path --------------------------------------------------------------


def _error_classes():
    """Every exception class defined in a module of the package."""
    found = []
    for info in pkgutil.iter_modules(spheretorus.__path__):
        module = importlib.import_module(f"spheretorus.{info.name}")
        found += [obj for _, obj in inspect.getmembers(module, inspect.isclass)
                  if issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__]
    return sorted(found, key=lambda cls: cls.__name__)


ERROR_CLASSES = _error_classes()


def test_every_package_error_derives_from_the_root():
    names = [cls.__name__ for cls in ERROR_CLASSES]
    assert {"ChartDomainError", "ContextMismatch", "DomainError",
            "InvalidSpec", "NotDivisible", "ParseError", "SpheretorusError",
            "UnknownGenerator", "UsageError"} <= set(names)
    for cls in ERROR_CLASSES:
        assert issubclass(cls, SpheretorusError), cls
        assert cls.exit_code in (1, 2), cls


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_writes_one_record(cls, fmt, monkeypatch):
    exc = cls("boom", 0) if cls is ParseError else cls("boom")
    monkeypatch.setattr(cli, "topology_of", _raise(exc))
    code, out, err = _run(["topology", "--R", "1", "--format", fmt])
    assert (code, out) == (cls.exit_code, "")
    assert len(err.splitlines()) == 1
    if fmt == "text" and not issubclass(cls, UsageError):
        assert err == f"error: {exc}\n"
    else:
        assert json.loads(err) == {"error": str(exc)}


@pytest.mark.parametrize("fmt, record", [
    ("json", '{"error":"boom","R":1}\n'), ("text", "error: boom\n")])
def test_a_record_follows_the_message(fmt, record, monkeypatch):
    monkeypatch.setattr(cli, "topology_of", _raise(
        cli.DomainError("boom", {"R": 1})))
    assert _run(["topology", "--R", "1", "--format", fmt]) == (1, "", record)


# argv fuzzing ----------------------------------------------------------------
#
# Sizes stay small (n <= 16, grid <= 64, a sweep's count <= 4, exponents
# <= 3) so that every call is cheap.  --out names one of three paths: a file
# in a session temp dir, that directory itself, or a path under a directory
# that does not exist; the last two fail in cli.main's OSError branch.

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
OUTS = st.sampled_from(("file", "dir", "missing"))
_OUT_PATHS = {"file": lambda d: d / "out.txt", "dir": lambda d: d,
              "missing": lambda d: d / "missing" / "out.txt"}
SWEEP_R = st.one_of(
    FLOATS,
    st.tuples(FLOATS, FLOATS, st.integers(-1, 4)).map(
        lambda t: f"{t[0]}:{t[1]}:{t[2]}"),
)

_REP = {"--n": SMALL_INTS, "--k": SMALL_INTS, "--alpha": FLOATS,
        "--beta-prime": FLOATS, "--nu-phase": FLOATS, "--R": FLOATS}
FLAGS = {
    "topology": {"--R": FLOATS},
    "slice": {"--R": FLOATS, "--grid": GRIDS, "--out": OUTS},
    "solve-min-s2": {"--R": FLOATS, "--n": SMALL_INTS},
    "enum-s2": {"--R": FLOATS, "--n": SMALL_INTS, "--grid": GRIDS,
                "--out": OUTS},
    "t2-window": {"--R": FLOATS, "--n": SMALL_INTS, "--k": SMALL_INTS},
    "classify": {"--R": FLOATS, "--eps": FLOATS},
    "build": dict(_REP, **{"--out": OUTS}),
    "verify": dict(_REP, **{"--tol": TOLS}),
    "reduce": {"--R": EXACT, "--expr": EXPRS},
    "poisson": {"--R": EXACT, "--f": EXPRS, "--g": EXPRS},
    "sweep": {"--R": SWEEP_R, "--n": SMALL_INTS, "--grid": GRIDS,
              "--out": OUTS},
    "diagram": dict(_REP, **{"--out": OUTS}),
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


@pytest.fixture(scope="session")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("out")


def _out_examples(test):
    """Explicit examples: one argv that exits 0 per command and format
    that writes --out, with each path that cannot be opened."""
    for argv in ([["slice", "--R=0.5", "--format", fmt]
                  for fmt in FORMATS["slice"]]
                 + [["enum-s2", "--R=0.5", "--n=5", "--format", fmt]
                    for fmt in FORMATS["enum-s2"]]
                 + [["sweep", "--R=0.8:2.2:4", "--n=5", "--format", fmt]
                    for fmt in FORMATS["sweep"]]
                 + [["build", "s2min", "--R=0.5", "--n=5"],
                    ["diagram", "s2min", "--R=0.5", "--n=5"]]):
        for kind in ("dir", "missing"):
            test = example(argv=argv + [f"--out={kind}"])(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=argvs())
@_out_examples
def test_every_argv_ends_in_an_exit_code(argv, out_dir):
    kind = next((a[6:] for a in argv if a.startswith("--out=")), None)
    argv = [f"--out={_OUT_PATHS[kind](out_dir)}" if a.startswith("--out=")
            else a for a in argv]
    code, out, err = _run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    text = "--format" in argv and argv[argv.index("--format") + 1] == "text"
    if code and not text:
        record = json.loads(err.splitlines()[-1])
        assert isinstance(record, dict) and "error" in record, argv
    bare = [a for a in argv if not a.startswith("--out=")]
    if kind in ("dir", "missing") and _run(bare)[0] == 0:
        # what succeeds without --out fails to open the path, in every
        # format: exit 1, nothing on stdout, one record
        assert (code, out, len(err.splitlines())) == (1, "", 1), argv
        message = err.removeprefix("error: ") if text else record["error"]
        assert message.startswith("i/o error: "), argv


# document fuzzing ------------------------------------------------------------
#
# verify FILE on one small s2min document with each field replaced by a
# wrong value, plus broken text and windows of a dimension the CLI refuses.

_VALUES = {"null": "null", "true": "true", "str": '"x"', "list": "[]",
           "obj": "{}", "1e400": "1e400", "nan": "NaN", "neg": "-1",
           "zero": "0", "2**70": str(2 ** 70), "ragged": "[[1, 2], [3]]",
           "deep": "[" * 200 + "]" * 200}
_FIELDS = ("n", "R", "alpha", "beta_prime", "eps", "k", "nu", "family",
           "matrices")
# the one edit that still verifies: k null is the value build writes; a
# beta_prime off the chain or any integer k fails the chain's spec check
_ACCEPTED = {("k", "null")}


def _base_document():
    code, out, err = _run(["build", "s2min", "--R", "0.5", "--n", "3"])
    assert (code, err) == (0, "")
    return json.loads(out)


def _with_field(field, value):
    doc = dict(_base_document(), **{field: "@@"})
    return json.dumps(doc).replace('"@@"', value)


def _window(n):
    """A 3-dimensional window document cut or zero-padded to n x n."""
    code, out, _ = _run(["build", "t2window", "--R", "1.5", "--n", "3",
                         "--alpha", "0.9"])
    doc = json.loads(out)
    doc["n"] = n
    for name, rows in doc["matrices"].items():
        rows = [row[:n] + [[0.0, 0.0]] * (n - len(row)) for row in rows[:n]]
        doc["matrices"][name] = rows + [[[0.0, 0.0]] * n] * (n - len(rows))
    return json.dumps(doc)


@pytest.mark.parametrize("field, name", [
    (field, name) for field in _FIELDS for name in _VALUES])
def test_every_document_ends_in_an_exit_code(field, name, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(_with_field(field, _VALUES[name]), encoding="utf-8")
    code, out, err = _run(["verify", str(path)])
    if (field, name) in _ACCEPTED:
        assert (code, err) == (0, "") and json.loads(out)["ok"] is True
        return
    assert code in (1, 2)
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "error" in json.loads(err)


@pytest.mark.parametrize("text, error", [
    (lambda: json.dumps(_base_document())[:-40], "not a JSON document"),
    (lambda: "[" + json.dumps(_base_document()) + "]",
     "a representation document is a JSON object"),
    (lambda: "", "not a JSON document"),
    (lambda: "[" * 10 ** 5 + "]" * 10 ** 5, "not a JSON document"),
    (lambda: _window(1), "window dimension must be odd and >= 3, got 1"),
    (lambda: _window(4), "window dimension must be odd and >= 3, got 4"),
], ids=["truncated", "array", "empty", "nested", "window-n1", "window-n4"])
def test_broken_documents_exit_1(text, error, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(text(), encoding="utf-8")
    code, out, err = _run(["verify", str(path)])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["error"].startswith(error)
