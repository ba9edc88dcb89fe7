"""Print the code lines of each ``src/riskchoice`` module and the number of
settable config values.

A code line is a line that holds a token other than a comment, and that is
not part of a docstring (the string that opens a module, class or function
body). The settable config values are the leaves that
``pipeline.config_fields()`` yields, one per field of ``ExperimentConfig``
and of its sections.

    python tools/codelines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "riskchoice"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        if node.body and isinstance(node.body[0], ast.Expr):
            value = node.body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(value.lineno, value.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from riskchoice.pipeline import config_fields

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.stem:<12} {n:>5}")
    print(f"{'total':<12} {total:>5}")
    print(f"settable config values: {sum(1 for _ in config_fields())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
