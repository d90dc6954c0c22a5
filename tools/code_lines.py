"""Count code lines in Python sources: ``python -m tools.code_lines src``.

A code line is a line that holds at least one token other than a
comment, a line break (``NL`` / ``NEWLINE``) or an indentation change
(``INDENT`` / ``DEDENT``), and that is not part of a module, class or
function docstring.  Blank lines, comment lines and docstrings therefore
never count; a multi-line string that is not a docstring counts on every
line it spans.  This is the "code lines under ``src/``" figure CHANGES.md
and ROADMAP.md quote.

Each argument is a ``.py`` file or a directory searched recursively;
the total over all of them is printed.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

__all__ = ["count_code_lines", "main"]

_NON_CODE = frozenset({
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
})
_DOCSTRING_OWNERS = (
    ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef
)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCSTRING_OWNERS) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines of one Python source text (see the module docstring)."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.code_lines",
        description="Count code lines (no comments, docstrings or blanks).",
    )
    parser.add_argument("paths", nargs="+", type=Path)
    args = parser.parse_args(argv)
    files: list[Path] = []
    for path in args.paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py" and path.is_file():
            files.append(path)
        else:
            parser.error(f"{path} is neither a directory nor a .py file")
    print(sum(count_code_lines(f.read_text(encoding="utf-8")) for f in files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
