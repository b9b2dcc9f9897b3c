#!/usr/bin/env python3
"""Count the lines of the Python files of a directory.

Usage: python scripts/count_lines.py [DIR]

Prints, for the .py files under DIR (default: the `src/pairons` of the
checkout this script sits in), the total number of lines and the number
of code lines: lines that hold a token other than a comment, a newline
or an indent, and that are not part of a docstring.  The tokens come from
`tokenize`, so a line inside a multi-line string that is not a docstring
counts as code; the docstrings, the first statement of a module, class or
function when it is a string literal, come from `ast`.
"""
import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pairons"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by the docstrings of a module's source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def count(directory: Path) -> tuple[int, int]:
    """(total lines, code lines) over the .py files under directory."""
    total = code = 0
    for path in sorted(directory.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        total += len(source.splitlines())
        code += code_lines(source)
    return total, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Count the total and the code lines of .py files.")
    ap.add_argument("directory", metavar="DIR", nargs="?", type=Path,
                    default=PACKAGE)
    args = ap.parse_args(argv)
    total, code = count(args.directory)
    print(f"{total} lines, {code} without docstrings, comments and blank "
          "lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
