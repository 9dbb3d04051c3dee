#!/usr/bin/env python3
"""List the lines of src/tsvar that a test run never reaches.

Runs pytest in this process under a ``sys.settrace`` tracer that records the
lines executed in src/tsvar and nothing else.  The tracer is set before the
package is imported and set again before each test, because hypothesis
replaces the trace function, and a profile hook sets it again whenever
CPython has dropped it (a RecursionError raised inside it does that), so
the lines that handle such an error are counted too.  The executable
lines of a module are those of its code objects' ``co_lines()``; each one
that no test reached is printed with its source, or with its reason when
ALLOWED names it.  Run it in a fresh interpreter: lines a package import
ran before the tracer was set would read as unreached.

    python3 scripts/line_reach.py                  # all of tests/
    python3 scripts/line_reach.py --json tests/test_timescale.py

The exit code is pytest's.  Under the tracer the suite runs about twice as
slowly as without it.
"""

import argparse
import contextlib
import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tsvar"

#: (module, stripped source line) -> why no in-process test can reach it
ALLOWED = {
    ("__main__.py", '"""``python -m tsvar``: run the command-line frontend."""'):
        "python -m tsvar runs only in a subprocess, which the tracer does not follow",
    ("__main__.py", "import sys"): "as above",
    ("__main__.py", "from .cli import main"): "as above",
    ("__main__.py", "sys.exit(main())"): "as above",
    ("cli.py", "sys.exit(main())"):
        "the script entry point, run only when cli.py is the program",
}


def executable_lines(path):
    """The line numbers of every code object compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Tracer:
    """Records (file, line) of every line and call event in the package."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.hits = {}

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        self.hits.setdefault(name, set()).add(frame.f_lineno)
        return self.local

    def local(self, frame, event, arg):
        self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self.local

    def rearm(self, frame, event, arg):
        """Profile hook.  CPython unsets the trace function when a call of it
        raises, as a RecursionError deep in the stack does; set it again,
        and on every live frame of the package, so that the lines that
        handle the error are counted."""
        if sys.gettrace() is None:
            sys.settrace(self)
            while frame is not None:
                if frame.f_code.co_filename.startswith(self.prefix):
                    frame.f_trace = self.local
                frame = frame.f_back

    def arm(self):
        sys.settrace(self)
        threading.settrace(self)
        sys.setprofile(self.rearm)

    def disarm(self):
        sys.setprofile(None)
        sys.settrace(None)
        threading.settrace(None)


class Rearm:
    """pytest plugin that sets the tracer again before each test."""

    def __init__(self, tracer):
        self.tracer = tracer

    def pytest_runtest_setup(self, item):
        self.tracer.arm()

    def pytest_runtest_call(self, item):
        self.tracer.arm()


def unreached(hits):
    """(module, line, source, reason or None) of every executable line of
    the package that ``hits`` (file -> lines) lacks."""
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        missed = executable_lines(path) - hits.get(str(path), set())
        for line in sorted(missed):
            text = source[line - 1].strip()
            rows.append((path.name, line, text, ALLOWED.get((path.name, text))))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=["tests"], help="what pytest collects")
    ap.add_argument("-k", help="pytest's -k expression")
    ap.add_argument("--json", action="store_true", help="emit one JSON document")
    args = ap.parse_args(argv)

    # the package on the path of this process and of the subprocesses tests start
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    tracer = Tracer(str(PACKAGE) + "/")
    tracer.arm()
    import pytest

    pytest_args = ["-q", "-p", "no:cacheprovider", *args.paths]
    if args.k:
        pytest_args += ["-k", args.k]
    # with --json, pytest's report goes to stderr and the summary alone to stdout
    with contextlib.redirect_stdout(sys.stderr if args.json else sys.stdout):
        code = int(pytest.main(pytest_args, plugins=[Rearm(tracer)]))
    tracer.disarm()

    rows = unreached(tracer.hits)
    total = sum(len(executable_lines(p)) for p in PACKAGE.glob("*.py"))
    open_rows = [r for r in rows if r[3] is None]
    summary = {
        "pytest_exit": code,
        "executable": total,
        "unreached": len(rows),
        "allowed": len(rows) - len(open_rows),
        "open": len(open_rows),
        "open_raise": sum(text.startswith("raise") for _, _, text, _ in open_rows),
    }
    if args.json:
        lines = [{"module": m, "line": n, "source": t, "allowed": why}
                 for m, n, t, why in rows]
        print(json.dumps({**summary, "lines": lines}, indent=2))
    else:
        for module, line, text, why in rows:
            print(f"{module}:{line}: {text}" + (f"  [allowed: {why}]" if why else ""))
        print(", ".join(f"{k} {v}" for k, v in summary.items()))
    return code


if __name__ == "__main__":
    sys.exit(main())
