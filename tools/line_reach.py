"""Print the statements of src/glda that neither the tests nor the output digest run.

Run from a checkout's root:

    PYTHONPATH=src python tools/line_reach.py

It records every line run in a frame under src/glda, in the main thread and
in every thread started later, while pytest runs tests/ (criterion 5
deselected: the digest runs the same fits) and then while
tools/output_digest.py runs. Definitions, imports, docstrings and
global/nonlocal declarations are not counted. Child processes are not
followed. The last line gives the count.
"""

import ast
import contextlib
import os
import runpy
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "glda"
UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)
ran = set()


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(SRC)) else None


def statements(path):
    """The first line of each counted statement of the module at ``path``."""
    return sorted({node.lineno for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.stmt) and not isinstance(node, UNCOUNTED)
                   and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))})


def main():
    os.chdir(ROOT)
    sys.settrace(_calls)
    threading.settrace(_calls)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "tests",
                     "--deselect", "tests/test_acceptance.py::test_criterion_05_sim1_support_recovery"])
        with contextlib.redirect_stdout(None):
            runpy.run_path("tools/output_digest.py")["main"]()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = unrun = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for line in statements(path):
            total += 1
            if (str(path), line) not in ran:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} statements unrun")


if __name__ == "__main__":
    main()
