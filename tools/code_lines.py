"""Count the lines of Python source files, and the code lines among them.

A code line holds a token outside docstrings and comments: a blank line, a
comment line or a line of a docstring (the string that opens a module, a
class or a function) is not one, and a token that spans several lines, a
multi-line string say, makes each of them a code line.

    python tools/code_lines.py src/picardkit

prints ``total code path`` per file, then the sums; a directory stands for
the ``*.py`` files in it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of the Python source ``text``."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def files(paths: list[str]) -> list[Path]:
    """The files ``paths`` names, a directory's ``*.py`` files in sorted order."""
    found = []
    for path in map(Path, paths):
        found += sorted(path.glob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    totals = [0, 0]
    for path in files(argv):
        lines = count(path.read_text())
        totals = [a + b for a, b in zip(totals, lines)]
        print(f"{lines[0]:6d} {lines[1]:6d} {path}")
    print(f"{totals[0]:6d} {totals[1]:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
