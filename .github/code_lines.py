"""Print, per module of a package directory, its lines that hold code: not
blank, not a comment and not part of a docstring; then their total.

A cut made by deleting comments or docstrings leaves these counts as they
were, where ``wc -l`` shows it as a cut.

    python .github/code_lines.py [DIR]    (DIR defaults to src/tkmia)
"""
import ast
import glob
import io
import os
import sys
import tokenize

# Tokens that hold no code: a line with only these is blank or a comment.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, "rb") as handle:
        source = handle.read()
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(directory: str) -> None:
    total = 0
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} code lines in total")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/tkmia")
