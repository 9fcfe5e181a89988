"""Size of the package: code lines per module of ``jumpga`` and the public names.

A code line is a line that holds a token other than a comment, and that is not
part of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines are therefore not counted.

    PYTHONPATH=src python studies/code_size.py

It prints a markdown table, one row per module and a total row, then the
length of ``jumpga.__all__``, on stdout; its wall time goes to stderr.  The
output depends only on the source, so two runs print the same bytes.
"""

from __future__ import annotations

import ast
import io
import sys
import time
import tokenize
from pathlib import Path

import jumpga

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code, as the module docstring defines it."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    begin = time.perf_counter()
    package = Path(jumpga.__file__).parent
    rows = [(path.name, code_lines(path.read_text())) for path in sorted(package.glob("*.py"))]
    print("| module | code lines |")
    print("| --- | --- |")
    for name, lines in rows:
        print(f"| {name} | {lines} |")
    print(f"| total | {sum(lines for _, lines in rows)} |")
    print()
    print(f"`jumpga.__all__`: {len(jumpga.__all__)} names")
    print(f"wall {time.perf_counter() - begin:.2f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
