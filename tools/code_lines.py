"""Count the code lines of each module of `src/procnet`.

A code line is a line that holds at least one token other than a comment,
and that lies outside every docstring (the leading string statement of a
module, class or function).  Blank lines, comment-only lines and docstring
lines are not code lines; every line of a statement or expression that
spans several lines and holds a token is one.  Only the standard library is
used (`ast` and `tokenize`).

Run from the root of the repository:

    python3 tools/code_lines.py            # every module of src/procnet
    python3 tools/code_lines.py FILE ...   # the named files
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "procnet"
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of the Python source text."""
    docstrings = docstring_lines(ast.parse(text))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(SOURCE.glob("*.py"))
    total = code = 0
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for path in paths:
        text = path.read_text(encoding="utf-8")
        n_total, n_code = len(text.splitlines()), code_lines(text)
        print(f"{path.name:<20} {n_total:>6} {n_code:>6}")
        total += n_total
        code += n_code
    print(f"{'all':<20} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
