"""Count the code lines of Python modules: every line that is not blank,
not only a comment and not part of a docstring.

A line counts when a token other than a comment or a line break starts,
ends or continues on it, so each line of a multi-line expression or of a
multi-line string that is not a docstring counts.  A docstring is the
string statement that opens a module, a class or a function.

Run from the repository root:

    python3 tools/code_lines.py            # every module under src/
    python3 tools/code_lines.py a.py b/    # the given files and trees

It prints one line per module, ``<code lines>  <path>``, and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of a module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src"]
    total = 0
    for path in _modules(paths):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print("%5d  %s" % (n, path))
    print("%5d  total" % total)
    return total


if __name__ == "__main__":
    main()
