"""Parity manifest of the CLI and the float engine: one sha256 per output.

    PYTHONPATH=src python3 tools/parity.py > manifest.json

prints one JSON object ``{name: sha256}`` with sorted keys.  A refactor that
promises the same bytes runs it on the parent tree and on the change, on
one machine, and compares the two files; a differing key names the output
that moved.  It covers:

- ``readme/``: the 12 commands of the README's CLI quick start, run in a
  temporary directory (exit code, stdout, stderr and the files written);
- ``help/``: the ``--help`` text of the root parser and the 12 subcommands
  at COLUMNS=80;
- ``argv/``: build, verify and diagram of all six families, refusals
  included, and a seeded draw of argvs over every subcommand;
- ``doc/``: ``verify FILE`` on documents with one field replaced by a wrong
  value, and on broken texts;
- ``rep/``: every family at n = 1..64 (emitted bytes, residual reprs and
  irreducibility, before and after load -> re-emit; the refusal where the
  family does not exist);
- ``cycle/``: t2 cycles over every admissible k at R = 1.8, 2.5 and 3.0;
- ``enum/``: seeded ``enum-s2`` draws;
- ``demo/``: exit code, stdout and stderr of the four demos under
  ``-W error``.

The float outputs depend on the last bit of numpy's vectorised functions,
which varies with the CPU and the numpy version, so a manifest is only
compared with one made on the same machine; none is committed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import shlex
import subprocess
import sys
import tempfile

from spheretorus import cli
from spheretorus.classify import enumerate_s2_nonminimal, solve_minimal_s2
from spheretorus.classify import t2_beta_window
from spheretorus.emit import emit_rep_json, load_rep_json
from spheretorus.errors import DomainError, SpheretorusError
from spheretorus.reps import (
    Family,
    NcTorusPair,
    ReprMatrices,
    ReprSpec,
    build,
    build_fuzzy_sphere,
    build_nc_torus,
    check_irreducible,
    verify_relations,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMANDS = ("topology", "slice", "solve-min-s2", "enum-s2", "t2-window",
            "classify", "build", "verify", "reduce", "poisson", "sweep",
            "diagram")
FAMILIES = ("s2min", "s2nonmin", "t2", "t2window", "fuzzy-sphere", "nc-torus")
MAX_N = 64


def _digest(*parts) -> str:
    """sha256 of the parts, each length-prefixed so that no two part lists
    share a digest."""
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        h.update(b"%d:" % len(data) + data)
    return h.hexdigest()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# the CLI -----------------------------------------------------------------------


def _readme_commands():
    """The argvs of the README's CLI quick start, comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start (CLI)", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.strip()]


def readme(manifest):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for i, argv in enumerate(_readme_commands(), 1):
                run = _run(argv)
                files = [(p.name, p.read_bytes())
                         for p in sorted(pathlib.Path(tmp).iterdir())]
                manifest[f"readme/{i:02d} {' '.join(argv)}"] = _digest(
                    *run, *(x for f in files for x in f))
        finally:
            os.chdir(cwd)


def help_texts(manifest):
    os.environ["COLUMNS"] = "80"
    for argv in [["--help"]] + [[c, "--help"] for c in COMMANDS]:
        manifest["help/" + " ".join(argv)] = _digest(*_run(argv))


def _family_argvs():
    """build/verify/diagram flag sets per family, refusals included."""
    rec = next(r for r in enumerate_s2_nonminimal(1.2, 5) if r.exists)
    live = ["--R", "1.2", "--n", "5", "--alpha", repr(rec.alpha),
            "--beta-prime", repr(rec.beta_prime), "--k", str(rec.k)]
    # R_eps of alpha = 0.9 and one ulp either side
    r_eps = math.sqrt(1.0 + math.tan(0.45) ** 2)
    edge = [math.nextafter(r_eps, 0.0), r_eps, math.nextafter(r_eps, 2.0)]
    return {
        "s2min": [["--R", "0.5", "--n", "5"], ["--R", "-0.557", "--n", "4"],
                  ["--R", "1.003", "--n", "8"], ["--R", "0", "--n", "2"],
                  ["--R", "-1.5", "--n", "5"], ["--R", "0.5", "--n", "1"],
                  ["--R", "0.5", "--n", "5", "--k", "1"],
                  # a root of the solver just below sec(pi/3) = 2, where
                  # R_eps of the root is R to within float dust, and one
                  # farther below
                  ["--R", "1.99999999", "--n", "3"],
                  ["--R", "1.9999", "--n", "3"]],
        "s2nonmin": [live, live[:-2],
                     ["--R", "-2", "--n", "5", "--alpha", "1",
                      "--beta-prime", "-1"],
                     ["--R", "1.5", "--n", "5"]],
        "t2": [["--R", "3", "--n", "3", "--k", "1"],
               ["--R", "2.5", "--n", "11", "--k", "3"],
               ["--R", "1.02", "--n", "11", "--k", "1"],
               ["--R", "0.5", "--n", "11", "--k", "1"],
               ["--R", "4", "--n", "5", "--k", "2", "--nu-phase", "0.8"],
               ["--R", "3", "--n", "6", "--k", "3"],
               ["--R", "3", "--n", "5", "--k", "1", "--beta-prime", "2.5"]],
        "t2window": [["--R", "1.5", "--n", "9", "--alpha", "0.9"],
                     ["--R", "1.5", "--n", "3", "--alpha", "0.9"],
                     ["--R", "1.0", "--n", "17", "--alpha", "0.9"],
                     ["--R", "1.5", "--n", "4", "--alpha", "0.9"],
                     ["--R", "1.5", "--n", "9", "--alpha",
                      repr(2 * math.pi / 6)]]
                    + [["--R", repr(R), "--n", "9", "--alpha", "0.9"]
                       for R in edge],
        "fuzzy-sphere": [["--n", "2"], ["--n", "9"], ["--n", "1"]],
        "nc-torus": [["--n", "5", "--k", "2"],
                     ["--n", "5", "--k", "2", "--nu-phase",
                      repr(math.pi / 3)],
                     ["--n", "5", "--k", "4"], ["--n", "5", "--k", "-1"],
                     ["--n", "5", "--k", "7"], ["--n", "1", "--k", "1"],
                     ["--n", "6", "--k", "3"],
                     ["--n", "7", "--k", "3", "--beta-prime", "0.4"]],
    }


_JUNK = ("", "abc", "--", "1e", "0x10", "-")
_POOLS = {
    "float": ("0", "0.5", "-0.5", "1", "-1", "1.05", "1.5", "2", "2.4", "3",
              "-1.5", "1.7e308", "1e200", "-0.0", "5e-324", "nan", "inf")
             + _JUNK,
    "exact": ("0", "5/8", "1/2", "-1", "3", "0.625", "1/0", "nan") + _JUNK,
    "int": tuple(map(str, range(-2, 17))) + _JUNK,
    "grid": ("-1", "0", "1", "2", "7", "64") + _JUNK,
    "tol": ("1e-12", "1e-30", "1e-3", "0", "nan", "abc"),
    "expr": ("x", "y", "[x,y]", "ap*am - am*ap", "(x+y)^3", "u*ud", "z^2+w^2",
             "(x*y)'", "eps*i", "[x,[y,z]]", "x +", "q", "2/3*u^-2"),
    "sweep": ("1.5", "0.5:2:3", "-0.6:1.2:4", "1:0:2", "2:2:1", "0:1:0",
              "nan"),
}
_REP = {"--n": "int", "--k": "int", "--alpha": "float",
        "--beta-prime": "float", "--nu-phase": "float", "--R": "float"}
_FLAGS = {
    "topology": {"--R": "float"},
    "slice": {"--R": "float", "--grid": "grid"},
    "solve-min-s2": {"--R": "float", "--n": "int", "--tol": "tol"},
    "enum-s2": {"--R": "float", "--n": "int", "--tol": "tol", "--grid": "grid"},
    "t2-window": {"--R": "float", "--n": "int", "--k": "int"},
    "classify": {"--R": "float", "--eps": "float"},
    "build": _REP,
    "verify": dict(_REP, **{"--tol": "tol"}),
    "reduce": {"--R": "exact", "--expr": "expr"},
    "poisson": {"--R": "exact", "--f": "expr", "--g": "expr"},
    "sweep": {"--R": "sweep", "--n": "int", "--grid": "grid"},
    "diagram": _REP,
}
_FORMATS = {"slice": ("json", "csv", "text"), "enum-s2": ("json", "csv", "text"),
            "sweep": ("csv", "json"), "build": (), "diagram": ()}


def _drawn_argv(rng):
    """One argv over any subcommand, mostly well formed (no --out)."""
    command = rng.choice(COMMANDS)
    argv = [command]
    if command in ("build", "verify", "diagram"):
        argv.append(rng.choice(FAMILIES + ("x",)))
    for flag, pool in _FLAGS[command].items():
        if rng.randrange(5):
            argv.append(f"{flag}={rng.choice(_POOLS[pool])}")
    formats = _FORMATS.get(command, ("json", "text"))
    if formats and rng.randrange(2):
        argv += ["--format", rng.choice(formats + ("xml",))]
    return argv


def argvs(manifest):
    runs = []
    for family, flag_sets in _family_argvs().items():
        for flags in flag_sets:
            runs += [["build", family, *flags], ["verify", family, *flags],
                     ["verify", family, *flags, "--format", "text"],
                     ["verify", family, *flags, "--tol", "1e-30"],
                     ["diagram", family, *flags]]
    runs.append(["sweep", "--n", "9", "--R=1.5", "--format", "csv"])
    runs += [["solve-min-s2", "--R", R, "--n", "3"]
             for R in ("1.99999999", "1.999999999", "1.9999")]
    rng = random.Random(19)
    runs += [_drawn_argv(rng) for _ in range(600)]
    for argv in runs:
        manifest["argv/" + " ".join(argv)] = _digest(*_run(argv))


# verify FILE on edited documents ----------------------------------------------

_VALUES = {"null": "null", "true": "true", "str": '"x"', "list": "[]",
           "obj": "{}", "1e400": "1e400", "nan": "NaN", "neg": "-1",
           "zero": "0", "2**70": str(2 ** 70), "ragged": "[[1, 2], [3]]",
           "deep": "[" * 200 + "]" * 200}
_FIELDS = ("n", "R", "alpha", "beta_prime", "eps", "k", "nu", "family",
           "matrices")


def _window(n):
    """A 3-dimensional window document cut or zero-padded to n x n."""
    doc = json.loads(_run(["build", "t2window", "--R", "1.5", "--n", "3",
                           "--alpha", "0.9"])[1])
    doc["n"] = n
    for name, rows in doc["matrices"].items():
        rows = [row[:n] + [[0.0, 0.0]] * (n - len(row)) for row in rows[:n]]
        doc["matrices"][name] = rows + [[[0.0, 0.0]] * n] * (n - len(rows))
    return json.dumps(doc)


def _documents():
    base = _run(["build", "s2min", "--R", "0.5", "--n", "3"])[1]
    for field in _FIELDS:
        for name, value in _VALUES.items():
            doc = dict(json.loads(base), **{field: "@@"})
            yield f"{field}={name}", json.dumps(doc).replace('"@@"', value)
    yield "truncated", base[:-40]
    yield "array", "[" + base + "]"
    yield "empty", ""
    yield "nested", "[" * 10 ** 5 + "]" * 10 ** 5
    yield "window-n1", _window(1)
    yield "window-n4", _window(4)
    # a fuzzy sphere cut to n = 1, where its eps has no value
    fuzzy = json.loads(_run(["build", "fuzzy-sphere", "--n", "2"])[1])
    matrices = {k: [v[0][:1]] for k, v in fuzzy["matrices"].items()}
    yield "fuzzy-n1", json.dumps(dict(fuzzy, n=1, matrices=matrices))


def documents(manifest):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        for name, text in _documents():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            manifest["doc/" + name] = _digest(*_run(["verify", path]))


# the float engine --------------------------------------------------------------


def _t2(R, n, k, nu=1.0):
    """The t2 cycle in the middle of its beta' window, as the CLI builds
    it; without a window, build states why the cycle does not close."""
    win = t2_beta_window(R, n, k)
    bp = 0.5 * (win.lo + win.hi) if win.kind == "restricted" else math.pi
    return build(ReprSpec(Family.T2, R, n, 0.0, bp, k=k, nu=nu))


def _reps(n):
    """(name, thunk) of each family at dimension n; a thunk returns the
    representation or raises the family's refusal."""
    def s2min(R):
        rec = solve_minimal_s2(R, n)
        if not rec.exists:
            raise DomainError(rec.reject_reason)
        return build(ReprSpec(Family.S2MIN, R, n, rec.alpha, rec.beta_prime))

    def nc_torus(k):
        nu = complex(math.cos(0.7), math.sin(0.7))
        return NcTorusPair(n, k, 0.3, nu, *build_nc_torus(n, k, 0.3, nu))

    yield "s2min/R0.5", lambda: s2min(0.5)
    yield "s2min/R-0.9", lambda: s2min(-0.9)
    live = ([r for r in enumerate_s2_nonminimal(1.2, n) if r.exists]
            if n >= 2 else [])
    for i, r in enumerate(live):
        yield f"s2nonmin/R1.2/{i}", lambda r=r: build(ReprSpec(
            Family.S2NONMIN, 1.2, n, r.alpha, r.beta_prime, k=r.k))
    yield "t2/R1.8/k1", lambda: _t2(1.8, n, 1, complex(math.cos(0.8),
                                                      math.sin(0.8)))
    yield "t2window/R1.5", lambda: build(ReprSpec(Family.T2WINDOW, 1.5, n,
                                                  0.9, math.pi))
    yield "fuzzy-sphere", lambda: build_fuzzy_sphere(n)
    yield "nc-torus/k1", lambda: nc_torus(1)
    yield "nc-torus/k-1", lambda: nc_torus(-1)


def _rep_parts(thunk):
    """Emitted bytes, residual reprs and irreducibility of the
    representation thunk makes, then of it loaded from its own document; or
    the refusal."""
    try:
        m = thunk()
    except SpheretorusError as exc:
        return [type(exc).__name__, str(exc)]
    parts = []
    for _ in range(2):
        text = emit_rep_json(m)
        report = verify_relations(m)
        parts += [text, sorted((k, repr(v)) for k, v in report.residuals.items()),
                  report.excluded]
        if isinstance(m, ReprMatrices):
            parts.append(check_irreducible(m))
        m = load_rep_json(text)
    return parts


def representations(manifest):
    for n in range(1, MAX_N + 1):
        for name, thunk in _reps(n):
            manifest[f"rep/{name}/n{n:02d}"] = _digest(*_rep_parts(thunk))


def cycles(manifest):
    """Every admissible winding of a t2 cycle at n = 3..64."""
    for R in (1.8, 2.5, 3.0):
        for n in range(3, MAX_N + 1):
            parts = []
            for k in range(1, (n + 1) // 2):
                if math.gcd(n, k) == 1:
                    parts += [k, *_rep_parts(lambda: _t2(R, n, k))]
            manifest[f"cycle/R{R}/n{n:02d}"] = _digest(*parts)


def enum_draws(manifest):
    rng = random.Random(7)
    for _ in range(40):
        R = round(rng.uniform(-1.5, 3.0), 6)
        n = rng.randrange(2, 25)
        for fmt in ("json", "csv"):
            argv = ["enum-s2", f"--R={R!r}", "--n", str(n), "--format", fmt]
            manifest["enum/" + " ".join(argv)] = _digest(*_run(argv))


# the demos ---------------------------------------------------------------------


def demos(manifest):
    import spheretorus

    env = dict(os.environ, PYTHONPATH=str(
        pathlib.Path(spheretorus.__file__).resolve().parent.parent))
    with tempfile.TemporaryDirectory() as tmp:
        for demo in sorted((ROOT / "demos").glob("*.py")):
            proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                                  cwd=tmp, env=env, capture_output=True)
            manifest["demo/" + demo.name] = _digest(
                proc.returncode, proc.stdout, proc.stderr)


def main() -> int:
    manifest = {}
    for part in (readme, help_texts, argvs, documents, representations,
                 cycles, enum_draws, demos):
        part(manifest)
    json.dump(manifest, sys.stdout, indent=0, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
