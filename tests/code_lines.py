"""Count the code lines of Python modules: the lines that hold a token and
are not part of a docstring, so blank lines, comments and docstrings are
left out.

Run ``python tests/code_lines.py [PATH ...]`` from the repository root. It
prints each module's count and the total; without paths it counts the
modules of ``src/bvf``.
"""

import ast
import glob
import io
import os
import sys
import tokenize

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths: list) -> None:
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "bvf")
    paths = paths or sorted(glob.glob(os.path.join(root, "*.py")))
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
