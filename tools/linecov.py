"""List the lines of the spheretorus package that a pytest run never runs.

A pytest plugin on ``sys.settrace``, with no coverage framework.  From the
repository root:

    PYTHONPATH=src:tools python3 -m pytest -q -p linecov

It prints each unrun line as path:line, then the counts.  A line counts as
executable if a code object compiled from its module names it.  Code run in
a subprocess is not seen.  The trace slows the run about fourfold.
"""

import pathlib
import sys
import threading

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "spheretorus"
_ran = set()
_ours = {}  # co_filename -> its resolved path if in PACKAGE, else None


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        path = pathlib.Path(name).resolve()
        _ours[name] = path if path.parent == PACKAGE else None
    if _ours[name] is None:
        return None
    _ran.add((_ours[name], frame.f_lineno))
    return _trace


def _lines(code):
    yield from (line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _lines(const)


def pytest_configure(config):
    # before collection, so that the package's own import is traced too
    sys.settrace(_trace)
    threading.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = set(_lines(compile(path.read_text(), str(path), "exec")))
        total += len(lines)
        for line in sorted(lines):
            if (path, line) not in _ran:
                unrun += 1
                terminalreporter.write_line(f"src/spheretorus/{path.name}:{line}")
    terminalreporter.write_line(f"{unrun} of {total} executable lines never ran")
