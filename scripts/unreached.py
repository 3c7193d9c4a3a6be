"""List the functions and methods of src/tqsf that no CLI configuration enters.

Usage:  python scripts/unreached.py

Runs every configuration of `same_output.py` in this process through
`tqsf.cli.main`, each in its own directory under one temporary directory,
with a `sys.settrace` hook that records every Python function entered. It
then prints `file:line name` for each function or method defined in
src/tqsf (nested ones included, lambdas not) that no configuration entered,
in file and line order, and a count on stderr. The package is imported from
the src directory beside this script, so the list describes this tree.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "scripts")]

import tqsf.cli  # noqa: E402
from same_output import _configs, _write_state  # noqa: E402


def _defined():
    """{(file, first line): (def line, qualified name)} for each def in src/tqsf.

    The first line is that of the first decorator, as in the code object's
    co_firstlineno."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = (child.lineno, prefix + child.name)
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted((SRC / "tqsf").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return found


def main() -> int:
    defined = _defined()
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))
        # no local tracer: only call events are needed

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def state_file(n: int) -> Path:
            path = tmp / f"state-n{n}.txt"
            if not path.exists():
                _write_state(path, n)
            return path

        configs = list(_configs(state_file))
        for name, argv in configs:
            workdir = tmp / name
            workdir.mkdir()
            os.chdir(workdir)
            sink = io.StringIO()
            sys.settrace(trace)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    tqsf.cli.main(argv)
            finally:
                sys.settrace(None)
                os.chdir(cwd)
    unreached = sorted((key[0], line, name) for key, (line, name) in defined.items()
                       if key not in entered)
    for path, line, name in unreached:
        print(f"{Path(path).relative_to(ROOT)}:{line} {name}")
    print(f"{len(unreached)} of {len(defined)} functions unreached by {len(configs)} "
          f"configurations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
