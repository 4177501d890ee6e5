"""Which lines of faceau does nothing run? A line-coverage probe that needs
only the standard library.

    python3 scripts/coverage.py [--tests]

It runs the command chain of `scripts/same_bytes.py` in this process, each
command through `faceau.cli.main` in one temporary run directory, under
`sys.settrace`. With `--tests` it then runs tier-1 (`tests/`) under pytest
in the same process and tracer. It prints each function-body line of
`src/faceau` that neither run reached, as `file:line: source`, then a
count. A body line is a statement, or an `except` clause, inside a `def`
that compiles to code, so a docstring or a `global` declaration never
counts. `grep -vE ': raise( |$)'` drops the error exits from the list.

Only this process is traced: a test that starts a subprocess runs it
untraced. The chain's exit codes should all be 0; a command that exits
otherwise is named on stderr. The probe stays out of tier-1: with `--tests`
it runs tier-1 once, more slowly than a plain run.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import shutil
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _statements(node):
    """Statement and `except` nodes under `node`, not inside nested scopes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.stmt, ast.ExceptHandler)):
            yield child
        if not isinstance(child, _SCOPES):
            yield from _statements(child)


def body_lines(path):
    """{line: source line} for each function-body line of the module at
    `path` that has code."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    with_code, stack = set(), [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        with_code.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    text = source.splitlines()
    lines = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in _statements(fn):
            if stmt.lineno in with_code and not (
                    stmt is fn.body[0] and isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)):
                lines[stmt.lineno] = text[stmt.lineno - 1].strip()
    return lines


class LineTracer:
    """Records (file, line) for every line run in files under `prefix`. A code
    object stops being traced once each of its lines has run."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.hits = set()
        self._left = {}  # code -> its lines not yet run
        self._ignored = set()  # codes outside prefix, or with every line run

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code in self._ignored:
            return None
        if code not in self._left:
            if not code.co_filename.startswith(self.prefix):
                self._ignored.add(code)
                return None
            self._left[code] = {line for _, _, line in code.co_lines() if line}
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            self.hits.add((code.co_filename, frame.f_lineno))
            left = self._left[code]
            left.discard(frame.f_lineno)
            if not left:
                self._ignored.add(code)
        return self._line

    @contextlib.contextmanager
    def active(self):
        sys.settrace(self)
        threading.settrace(self)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def run_commands(commands, run_dir):
    """Run each (name, argv) through faceau.cli.main in `run_dir`, output
    discarded; returns the names of those that did not exit 0."""
    from faceau import cli

    failed = []
    here = os.getcwd()
    os.makedirs(run_dir)
    os.chdir(run_dir)
    try:
        for name, argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                failed.append(f"{name} exited {code}")
    finally:
        os.chdir(here)
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true", help="also run tier-1 under the tracer")
    args = parser.parse_args(argv)
    package = os.path.join(ROOT, "src", "faceau")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    from same_bytes import COMMANDS

    tracer = LineTracer(package + os.sep)
    work = tempfile.mkdtemp(prefix="coverage_")
    try:
        with tracer.active():
            failed = run_commands(COMMANDS, os.path.join(work, "run"))
    finally:
        shutil.rmtree(work)
    for line in failed:
        print(f"chain: {line}", file=sys.stderr)
    if args.tests:
        import pytest

        with tracer.active():
            status = pytest.main([os.path.join(ROOT, "tests"), "-q", "-p", "no:cacheprovider",
                                  "--rootdir", ROOT])
        if status != 0:
            print(f"tier-1: pytest exited {int(status)}", file=sys.stderr)

    total = unreached = 0
    for file in sorted(os.listdir(package)):
        if not file.endswith(".py"):
            continue
        path = os.path.join(package, file)
        for line, text in sorted(body_lines(path).items()):
            total += 1
            if (path, line) not in tracer.hits:
                unreached += 1
                print(f"{file}:{line}: {text}")
    print(f"{unreached} of {total} function-body lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
