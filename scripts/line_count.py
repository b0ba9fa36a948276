"""Count the token-bearing lines of Python modules.

    python scripts/line_count.py [PATH ...]

A line counts when it holds a token that is not a comment, a docstring or
whitespace: a blank line, a comment line and each line of a module, class
or function docstring do not count, and every line of a multi-line
expression or string that is not a docstring does. Each PATH is a module or
a directory, whose ``*.py`` files (not those of its subdirectories) are
counted; the default is the package's ``src/radarqi``. It prints one
``<count> <module>`` line per module, sorted by path, then ``<total> total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "radarqi"

# Tokens that hold no code: comments, line ends, indentation, file framing.
NO_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            value = getattr(first, "value", None)
            if isinstance(first, ast.Expr) and isinstance(value, ast.Constant) and isinstance(value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def count_lines(source: str) -> int:
    """The number of token-bearing lines of ``source``."""
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NO_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(paths) -> list[Path]:
    found = []
    for path in map(Path, paths):
        found += sorted(path.glob("*.py")) if path.is_dir() else [path]
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    total = 0
    for path in modules(argv or [PACKAGE]):
        n = count_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
