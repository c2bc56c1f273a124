"""Statements of src/ccradon that the tier-1 suite never runs.

    python3 scripts/line_coverage.py

Runs the tier-1 suite (``tests/``, ``-q --continue-on-collection-errors
-p no:cacheprovider``) in this process under a line tracer installed with
``sys.settrace`` and ``threading.settrace``, so pool workers are traced too.
Only frames whose code lives in ``src/ccradon`` record lines; traced, the
suite takes about 1.4 times as long.  The exit status is pytest's.

After pytest's own summary it prints one block per module, for example:

    mixednorm.py: 5 of 62 statements never ran
      46: raise ConfigError(f"exponents must lie in [1, inf], got {e}")
      66: return 0.0
      ...

The statements are the AST statements of the module, less function and class
definition lines, imports and docstrings; each never-run one is listed by
its first line.  A simple statement counts as run when any of its lines ran,
a compound one (``if``, ``for``, ``with``...) when a line of its header ran,
and a ``try`` when any statement of its body ran.  A listed line is dead
code or a path no tier-1 test reaches; a module with nothing listed prints
its count alone.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PKG = REPO / "src" / "ccradon"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _is_docstring(node, parent) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _statements(tree: ast.Module):
    """(statement, lines that mark it run) for every counted statement."""
    out = []
    for parent in ast.walk(tree):
        for field in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(parent, field, None)
            for node in block if isinstance(block, list) else ():
                if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) or _is_docstring(node, parent):
                    continue
                if isinstance(node, ast.Try):
                    first = node.body[0]
                    marks = range(first.lineno, first.end_lineno + 1)
                elif hasattr(node, "body"):
                    marks = range(node.lineno, node.body[0].lineno)
                else:
                    marks = range(node.lineno, node.end_lineno + 1)
                out.append((node, marks))
    return sorted(out, key=lambda item: item[0].lineno)


class _LineTracer:
    """Records (file, line) events of frames whose code lies in ``PKG``."""

    def __init__(self):
        self.hits = defaultdict(set)
        self._in_pkg = {}

    def _wanted(self, filename: str) -> bool:
        if filename not in self._in_pkg:
            self._in_pkg[filename] = Path(os.path.realpath(filename)).parent == PKG
        return self._in_pkg[filename]

    def global_trace(self, frame, event, arg):
        if not self._wanted(frame.f_code.co_filename):
            return None
        hits = self.hits[os.path.realpath(frame.f_code.co_filename)]

        def local_trace(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local_trace

        return local_trace


def main() -> int:
    tracer = _LineTracer()
    threading.settrace(tracer.global_trace)
    sys.settrace(tracer.global_trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(REPO / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print()
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        hit = tracer.hits.get(str(path.resolve()), set())
        stmts = _statements(ast.parse(source))
        missed = [node for node, marks in stmts if not hit.intersection(marks)]
        print(f"{path.name}: {len(missed)} of {len(stmts)} statements never ran")
        for node in missed:
            print(f"  {node.lineno}: {lines[node.lineno - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
