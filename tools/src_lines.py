"""Print the size of a Python source tree: raw lines and code lines per file, then the total.

A code line is a line that holds a code token outside a docstring. Comments,
blank lines and docstrings (the first statement of a module, class or
function when it is a string) do not count.

    python tools/src_lines.py [directory]    # default: src
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP and tok.type != tokenize.ENCODING:
                code.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in docs)
    return len(text.splitlines()), len(code)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    total_raw = total_code = 0
    for path in sorted(root.rglob("*.py")):
        raw, code = count(path)
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{raw:6d} {code:6d}  {path}")
    print(f"{total_raw:6d} {total_code:6d}  total (raw lines, code lines)")
