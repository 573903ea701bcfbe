"""Line counts of the package source, split by kind.

    python3 scripts/src_lines.py [ROOT]

Every line of every ``.py`` file under ROOT (``src`` of the checkout by
default) is one of four kinds:

- ``docstring``: inside the string that opens a module, class or function
  body, as ``ast`` finds it (blank lines inside it included);
- ``comment``: holds only a comment, as ``tokenize`` finds it;
- ``blank``: holds only white space;
- ``code``: everything else, a line with code and a trailing comment too.

Standard output gets one JSON object: per module (its path relative to
ROOT) and in ``total``, the four counts and ``lines``, their sum, which is
what ``wc -l`` counts for a file that ends in a newline.  Exits 1 if a
file's four counts do not add up to its lines.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree) -> set:
    """Line numbers spanned by the docstrings of the module and of every
    class and function in it."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _comment_lines(text: str) -> set:
    """Line numbers whose only token is a comment."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip():
            lines.add(tok.start[0])
    return lines


def count(path: Path) -> dict:
    """The four counts and their sum for one file."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    comments = _comment_lines(text)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        if number in docstrings:
            counts["docstring"] += 1
        elif number in comments:
            counts["comment"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:
            counts["code"] += 1
    counts["lines"] = len(text.splitlines())
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else ROOT / "src"
    modules = {str(path.relative_to(root)): count(path) for path in sorted(root.rglob("*.py"))}
    total = {key: sum(c[key] for c in modules.values()) for key in KINDS + ("lines",)}
    print(json.dumps({"modules": modules, "total": total}, indent=2))
    return 0 if all(sum(c[k] for k in KINDS) == c["lines"] for c in modules.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
