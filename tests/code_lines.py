"""Count the code lines of Python modules: the lines that hold a token and
are not part of a docstring, so blank lines, comments and docstrings are
left out.

Run ``python tests/code_lines.py [PATH ...]`` from the repository root. It
prints each module's count and the total; without paths it counts the
modules of ``src/bvf``.

``python tests/code_lines.py --private [PATH ...]`` prints instead, per
module that holds any, how many references to the fitting engine's
private names it holds, and their total; without paths it counts the
modules of ``tests`` but this one. A reference is a match of the regular
expression

    \b(_Stack|_Passes|_fit_stacks|_sums|_rowwise|_runs|_shifted|_block|
    _hazard|_curvature|_score|_profile|_ALL|_ONE|_workspace|_Fits|run_pass)\b

(one alternation, without the line break) anywhere in the module's text,
comments and docstrings included. Tests that reach the engine through
these names restate when the engine is refactored, so the total is a
measure of how tightly the tests are bound to its internals.
"""

import ast
import glob
import io
import os
import re
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


PRIVATE = re.compile(
    r"\b(_Stack|_Passes|_fit_stacks|_sums|_rowwise|_runs|_shifted|_block|_hazard|_curvature"
    r"|_score|_profile|_ALL|_ONE|_workspace|_Fits|run_pass)\b"
)


def private_references(source: str) -> int:
    """The number of references to the engine's private names in
    ``source`` (``PRIVATE``)."""
    return len(PRIVATE.findall(source))


def main(args: list) -> None:
    private = "--private" in args
    paths = [arg for arg in args if arg != "--private"]
    here = os.path.dirname(os.path.abspath(__file__))
    root = here if private else os.path.join(here, os.pardir, "src", "bvf")
    # this module names the private names in its pattern, and is no test
    found = set(glob.glob(os.path.join(root, "*.py"))) - {os.path.abspath(__file__)}
    paths = paths or sorted(found)
    count_of = private_references if private else code_lines
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = count_of(fh.read())
        total += count
        if count or not private:
            print(f"{count:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
