"""Count the code lines of each ``src/condaudit`` module: lines that hold code, not blank, comment or docstring.

Usage: ``python tests/code_lines.py [DIRECTORY]`` (default: this repository's ``src/condaudit``).  It prints one
line per module, ``<lines> <file>``, and then the total.  A line counts when a token other than a comment or a
line break starts or continues on it, outside a module, class or function docstring; so a statement spread
over three lines counts three.  It uses only the standard library, and it reports and gates nothing else.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    lines = set()
    for token in tokens:
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "condaudit"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6,} {path.name}")
    print(f"{total:6,} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
