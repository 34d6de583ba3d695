"""Print the code lines of each module of src/deltamsr, then their total.

A code line is a line that holds some token other than a comment, and that
lies in no docstring: the first statement of a module, class or function
body, when it is a string, as ``ast`` reads it.  Blank lines, comment-only
lines and docstring lines are not counted; a line of a multi-line string
that is not a docstring is.  This is the count that CHANGES.md and the
ROADMAP give per module.

Run from anywhere: ``python3 scripts/code_lines.py``.
"""

import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deltamsr"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = {
        row
        for tok in tokens
        if tok.type not in NOT_CODE
        for row in range(tok.start[0], tok.end[0] + 1)
    }
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> None:
    counts = {path.name: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
