"""Print the code lines of every source file under ``src/``, and their total.

Run from the repository root: ``python -m tests.sloc``.

A ``.py`` line counts when it holds code: blank lines, comment lines and the
lines of a docstring (the string a module, class or function body starts
with) do not. An ``.ini`` line counts unless it is blank or a ``;`` or ``#``
comment. Two checkouts compare by their totals; a file's count is the one to
quote for a change to it.
"""
from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: tokens that are not code on their own
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
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


def python_lines(text: str) -> int:
    """Code lines of a Python source: lines a code token spans, docstrings
    left out."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def ini_lines(text: str) -> int:
    """Code lines of an INI file: neither blank nor a comment."""
    return sum(1 for line in text.splitlines() if line.strip() and line.strip()[0] not in ";#")


def count(path: Path) -> int:
    text = path.read_text()
    return python_lines(text) if path.suffix == ".py" else ini_lines(text)


def main() -> None:
    files = sorted(p for p in SRC.rglob("*") if p.suffix in (".py", ".ini"))
    total = 0
    for path in files:
        n = count(path)
        total += n
        print(f"{n:6d}  {path.relative_to(SRC.parent)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
