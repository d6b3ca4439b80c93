"""Count code lines — no docstrings, comments or blank lines — in whole
files or in named top-level functions and classes.

    python tools/code_lines.py FILE[:NAME[,NAME...]] ...

Prints one count per argument and their total; run it on two checkouts
to compare a change's line counts with its parent's.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: str) -> tuple[ast.Module, set[int]]:
    """The module's AST and the numbers of its lines that hold code."""
    with open(path) as f:
        src = f.read()
    tree = ast.parse(src)
    doc: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _SKIP:
            code.update(ln for ln in range(tok.start[0], tok.end[0] + 1) if ln not in doc)
    return tree, code


def count(spec: str) -> int:
    path, _, names = spec.partition(":")
    tree, code = code_lines(path)
    if not names:
        return len(code)
    total = 0
    for node in tree.body:
        if getattr(node, "name", None) in names.split(","):
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            total += sum(1 for ln in code if start <= ln <= node.end_lineno)
    return total


if __name__ == "__main__":
    grand = 0
    for spec in sys.argv[1:]:
        n = count(spec)
        grand += n
        print(f"{n:6d}  {spec}")
    print(f"{grand:6d}  total")
