#!/usr/bin/env python3
"""Line counts of the package source, the size ROADMAP aim 2 tracks.

For each src/rankprune/*.py this prints its `wc -l` line count and its code
lines, then the totals. A code line holds a token that is not a comment and
lies outside the docstring of the module, a class or a function; blank lines
do not count.

Usage: python scripts/count_lines.py [SRC_DIR]   (default: src/rankprune)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "rankprune"
    total_wc = total_code = 0
    print(f"{'module':<16}{'wc -l':>7}{'code':>7}")
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        wc, code = text.count("\n"), code_lines(text)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<16}{wc:>7}{code:>7}")
    print(f"{'total':<16}{total_wc:>7}{total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
