"""List the lines of src/discmax that a run of the test suite never executes.

    python3 tools/line_coverage.py [PYTEST_ARGS ...]

Runs pytest in this process (default arguments: the Tier-1 `-q
--continue-on-collection-errors`) from the repository root, with src/ on
the import path, under `sys.settrace` (src/discmax runs on the calling
thread); the tracer records line events only in frames whose code lies
under src/discmax.  It then prints every executable line that never ran as
`file:line: text`, a count per file and the total.  A line is executable
when the compiled file maps bytecode to it; docstring lines are skipped.
Code run in subprocesses (the CLI's `__main__` guards) is not traced, and
so is listed.  Only the standard library is used: no coverage package.
The exit code is pytest's, except that failing tests (pytest exit 1)
still give 0, since the listing is complete.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "discmax"
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set:
    """Line numbers the compiled file maps bytecode to, docstrings left out."""
    source = path.read_text(encoding="utf-8")
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # not None or 0
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and node.body and isinstance(doc := node.body[0], ast.Expr)
                and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str)):
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def traced_pytest(args: list) -> tuple:
    """(pytest's exit code, {file: line numbers that ran}) for src/discmax."""
    prefix = str(PACKAGE) + os.sep
    ran: dict = {}
    wanted: dict = {}  # code object -> its file's set of lines that ran, or None

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        hit = wanted.get(code, False)
        if hit is False:
            hit = wanted[code] = (ran.setdefault(code.co_filename, set())
                                  if code.co_filename.startswith(prefix) else None)
        return None if hit is None else local

    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                             os.environ.get("PYTHONPATH")]))
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv: list) -> int:
    code, ran = traced_pytest(argv or DEFAULT_ARGS)
    counts = []
    for path in sorted(PACKAGE.rglob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        text = path.read_text(encoding="utf-8").splitlines()
        rel = path.relative_to(ROOT)
        for line in missed:
            print(f"{rel}:{line}: {text[line - 1].strip()}")
        counts.append((rel, len(missed)))
    for rel, n in counts:
        print(f"{rel}: {n} lines never ran")
    print(f"total: {sum(n for _, n in counts)} lines never ran")
    return 0 if code in (0, 1) else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
