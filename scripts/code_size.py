#!/usr/bin/env python3
"""Count the size of each module of ``src/oneway``, and of the package.

Three counts per module:

- lines: every line of the file;
- code lines: lines that hold a token other than a comment, a blank line
  or a docstring (a module's, class's or function's leading string);
- parser tokens: every token except COMMENT and NL, as CPython's parser
  holds them, the count that ``rewrite.py``'s token guard test reads.

    python3 scripts/code_size.py

Prints one row per module, then the totals.
"""

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "oneway"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sizes(source: str) -> tuple[int, int, int]:
    """The lines, code lines and parser tokens of ``source``."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    code = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    parser_tokens = sum(tok.type not in (tokenize.COMMENT, tokenize.NL) for tok in tokens)
    return len(source.splitlines()), len(code), parser_tokens


def main(argv=None) -> int:
    rows = [(path.name, sizes(path.read_text(encoding="utf-8"))) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(counts for _, counts in rows))))))
    print(f"{'module':<16}{'lines':>8}{'code':>8}{'tokens':>8}")
    for name, counts in rows:
        print(f"{name:<16}" + "".join(f"{n:>8}" for n in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
