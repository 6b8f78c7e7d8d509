"""Code lines of each module of src/fdjam: what ROADMAP item 2's target counts.

Run from anywhere:

    python3 tools/code_lines.py

A code line holds at least one token that is not a comment: blank lines,
comment lines and the lines of docstrings (the string that opens a module,
a class or a function, found with ast) do not count.  A string or bracket
that spans lines counts every line it covers.  One line per module with
its code lines and its `wc -l` lines, then the totals.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fdjam")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def counts(package: str = PACKAGE) -> dict[str, tuple[int, int]]:
    """Module file name -> (code lines, wc -l lines), for every .py file of package."""
    out = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                source = fh.read()
            out[name] = (code_lines(source), source.count("\n"))
    return out


def main() -> int:
    table = counts()
    for name, (code, wc) in table.items():
        print(f"{name:24} {code:6d} {wc:6d}")
    print(f"{'total':24} {sum(c for c, _ in table.values()):6d} {sum(w for _, w in table.values()):6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
