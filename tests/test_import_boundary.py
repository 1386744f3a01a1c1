"""numpy stays off the start-up path of the package and of the CLI.

A subprocess makes every import of numpy fail (``sys.modules["numpy"] =
None``), then imports the package and the CLI and runs ``--help``, usage
errors, error records and the README commands that compute without
arrays.  Each must give the exit code, stdout and stderr of the same call
in this process, where numpy is available.
"""

import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import spheretorus
from spheretorus import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the README commands that load no numpy; enum-s2, build, verify, sweep and
# diagram compute with arrays
NUMPY_FREE = ("topology", "slice", "solve-min-s2", "t2-window", "classify",
              "reduce", "poisson")

EXPORTS = [
    "AlgebraContext", "BetaWindow", "CRat", "ChartDomainError",
    "CommutativePoly", "ContextMismatch", "DarbouxPoint", "DomainError",
    "EpsScalar", "Family", "InvalidSpec", "NcTorusPair", "NormalForm",
    "NotDivisible", "ParseError", "Point3", "RegionInfo", "RegionLabel",
    "ReprMatrices", "ReprSpec", "ResidualReport", "SolutionRecord",
    "SweepRow", "TopologyLabel", "UnknownGenerator", "algebra", "build",
    "build_fuzzy_sphere", "build_nc_torus", "build_s2", "build_t2_finite",
    "build_t2_window", "c_squared", "check_irreducible", "classify",
    "classify_region", "darboux_point", "emit", "emit_diagram_svg",
    "emit_rep_json", "emit_sweep_csv", "enumerate_s2_nonminimal",
    "epsilon_of_alpha", "epsring", "errors", "fold", "fuzzy_sphere_residuals",
    "geometry", "load_rep_json", "nc_torus_residuals", "parse", "parse_expr",
    "parser", "poisson_fd", "rep_evaluate", "reps", "slice_curve",
    "solve_minimal_s2", "sweep_regions", "t2_beta_window", "topology_of",
    "variety_residual", "verify_relations",
]

_BLOCKED = r"""
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
import spheretorus
loaded = sorted(m for m in sys.modules if m.startswith("spheretorus"))
unresolved = []
for name in spheretorus.__all__:
    try:
        getattr(spheretorus, name)
    except ImportError:
        unresolved.append(name)
from spheretorus import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"loaded": loaded, "unresolved": unresolved, "runs": runs}))
"""


def _readme_commands():
    """argv of each command in the README's CLI quick start."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start (CLI)", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def test_cli_runs_without_numpy(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    readme = _readme_commands()
    assert len(readme) == 12
    argvs = [argv for argv in readme if argv[0] in NUMPY_FREE]
    assert sorted(argv[0] for argv in argvs) == sorted(NUMPY_FREE)
    argvs += [["--help"], ["reduce", "--help"],
              ["solve-min-s2", "--R", "3", "--n", "5"]]
    # usage errors, also of the commands that compute with arrays
    argvs += [["topology"], ["reduce", "--R", "0", "--expr", "x +"],
              ["build", "s2min", "--R", "0.5"], ["verify", "nosuchfile"],
              ["diagram", "t2", "--R", "3", "--n", "5"],
              ["sweep", "--n", "5", "--R=0.5:2:0"], ["enum-s2", "--R", "1"]]
    # error records: an exit code, nothing on stdout, one JSON line on stderr
    argvs += [["build", "nosuch"], ["reduce", "--R", "1", "--expr", "x +"],
              ["solve-min-s2", "--R", "5", "--n", "5"]]
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _BLOCKED, json.dumps(argvs)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == ["spheretorus"]
    assert sorted(got["unresolved"]) == sorted(
        ["reps", "emit", *spheretorus._EXPORTS["reps"],
         *spheretorus._EXPORTS["emit"]])
    want = [_run(argv) for argv in argvs]
    assert [code for code, _, _ in want] == [0] * 9 + [1] + [2] * 9 + [1]
    assert got["runs"] == want
    for _, out, err in got["runs"][-3:]:
        assert out == "" and len(err.splitlines()) == 1
        assert "error" in json.loads(err)


def test_exports_are_pinned_and_resolve():
    assert spheretorus.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(spheretorus))
    namespace = {}
    exec("from spheretorus import *", namespace)
    for name in EXPORTS:
        value = getattr(spheretorus, name)
        assert namespace[name] is value
        if not isinstance(value, type(spheretorus)):
            home = sys.modules[value.__module__]
            assert getattr(home, name) is value
    assert spheretorus.Family is spheretorus.reps.Family
    assert spheretorus.c_squared is spheretorus.reps.c_squared
    with pytest.raises(AttributeError, match="no_such_name"):
        spheretorus.no_such_name


def test_a_submodule_resolves_through_the_package_getattr(monkeypatch):
    # an imported submodule is an attribute of the package, so __getattr__
    # sees its name only while that attribute is missing
    reps = spheretorus.reps
    monkeypatch.delattr(spheretorus, "reps")
    assert spheretorus.reps is reps
