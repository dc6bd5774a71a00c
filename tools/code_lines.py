"""Count the code lines of each module in `src/uqsd`.

A code line holds at least one token other than a comment and lies outside
every module, class and function docstring; blank lines, comment-only lines
and docstring lines do not count.  Prints one `<count> <module>` line per
module and then the total.

Usage: python tools/code_lines.py [package directory, default src/uqsd]
"""

from __future__ import annotations

import ast
import pathlib
import sys
import tokenize

# Tokens that carry no code: comments, line structure and the encoding marker.
_LAYOUT = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """The number of code lines in the Python file at `path`."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    package = pathlib.Path(argv[1] if len(argv) > 1 else "src/uqsd")
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no Python modules in {package}", file=sys.stderr)
        return 1
    total = 0
    for module in modules:
        count = code_lines(module)
        total += count
        print(f"{count:5d} {module.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
