#!/usr/bin/env python3
"""Count the code lines of Python modules: lines that hold a token other
than a comment, less the lines of docstrings.

A line counts when any token other than a comment, a line break or an
indent lies on it (a string spanning several lines holds each of them).
Docstrings are the leading string statements of modules, classes and
functions, found with ``ast``; their lines do not count.  Blank and
comment-only lines hold no such token.

    python3 scripts/code_lines.py [PATH ...]

Each PATH is a module or a directory of modules (default ``src/apolar``);
one line per module, then the total.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/apolar"])
    args = parser.parse_args(argv)
    modules = []
    for path in map(Path, args.paths):
        modules.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    total = 0
    for module in modules:
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
