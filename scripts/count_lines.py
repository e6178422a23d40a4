#!/usr/bin/env python3
"""Print the size of a source tree: net ``src/`` lines, code-only lines, and
the number of names ``import transact`` exports.

Code-only lines are the lines holding a token of a statement, found with
``tokenize``: comments, blank lines and docstring statements are left out.
Run from the repository root, or name another checkout's root:

    python3 scripts/count_lines.py [ROOT]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that hold no code of their own.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of the module's, classes' and functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold code that is not a docstring."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1])
    sources = [p.read_text(encoding="utf-8") for p in sorted((root / "src").rglob("*.py"))]
    sys.path.insert(0, str(root / "src"))
    import transact

    # A tree older than ``__all__`` exports its public names that are not submodules.
    exported = getattr(transact, "__all__", None) or [
        name
        for name, value in vars(transact).items()
        if not name.startswith("_") and getattr(value, "__name__", None) != f"transact.{name}"
    ]
    print(f"net src/ lines: {sum(len(s.splitlines()) for s in sources)}")
    print(f"code-only lines: {sum(code_lines(s) for s in sources)}")
    print(f"exported names: {len(exported)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
