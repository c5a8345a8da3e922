"""Line counts of the package sources, `wc -l` and code lines, per file and in total.

    python3 scripts/src_lines.py                    # this checkout only
    python3 scripts/src_lines.py PARENT_CHECKOUT    # the parent's counts beside this checkout's

A code line holds at least one token that is neither a comment nor part of a
docstring (the string that opens a module, class or function body). Blank
lines, comment lines and docstring lines are the difference between the two
counts. A file that one checkout lacks shows `-` there. Standard library only.
"""

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "meritfed")
SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING)


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each docstring token starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def counts(source: str) -> tuple[int, int]:
    """(`wc -l` count, code-line count) of one Python source."""
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED and not (token.type == tokenize.STRING and token.start in docstrings):
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code)


def checkout_counts(checkout: str) -> dict[str, tuple[int, int]]:
    """Counts of each package module of a checkout, keyed by file name."""
    table = {}
    for path in sorted(glob.glob(os.path.join(checkout, PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            table[os.path.basename(path)] = counts(handle.read())
    return table


def main(argv: list[str]) -> None:
    sides = {"parent": argv[0], "change": ROOT} if argv else {"this checkout": ROOT}
    tables = {side: checkout_counts(path) for side, path in sides.items()}
    names = sorted(set().union(*tables.values()))
    for table in tables.values():
        table["total"] = tuple(map(sum, zip(*table.values()))) if table else (0, 0)
    header = " | ".join(f"{side} wc -l | {side} code" for side in sides)
    print(f"| file | {header} |\n| --- |{' ---: |' * 2 * len(sides)}")
    for name in names + ["total"]:
        cells = [str(value) for table in tables.values() for value in table.get(name, ("-", "-"))]
        print(f"| `{name}` | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
