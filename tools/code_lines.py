"""Print the code lines of each module of a package and their total.

A code line holds a token other than a comment; blank lines, comment
lines and docstrings do not count.  Standard library only.

    python tools/code_lines.py [PACKAGE_DIR]    # default: src/mpcg
"""

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        lines = {line for tok in tokenize.tokenize(fh.readline) if tok.type not in NOT_CODE
                 for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1] / "src" / "mpcg")
    counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, count in [*counts.items(), ("total", sum(counts.values()))]:
        print(f"{count:6d}  {name}")
