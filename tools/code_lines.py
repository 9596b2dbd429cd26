"""Print the code lines, the public options and the exported names of each
module of ``src/eafluct``, and their totals; then the code lines of
``tests/*.py``, so that code moved from the package into the tests shows.

A line counts when a token other than a comment, NL, NEWLINE, INDENT or
DEDENT (or the end marker, after the last line) starts on it; the lines of
module, class and function docstrings do not count.  An option is a
parameter with a default of a public module-level function or of a public
method of a public module-level class, or a field with a default of a public
dataclass; a bare ``field(...)`` without ``default`` or ``default_factory``
is no default.  A module's exports are the names that the package's
``__init__.py`` imports from it.  Run from anywhere:
``python tools/code_lines.py``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eafluct"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.Module, ast.ClassDef, *_FUNCTIONS)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return len({t.start[0] for t in tokens if t.type not in _SKIP} - docstrings)


def _name(node: ast.expr) -> str | None:
    """The name a decorator or a called function is spelled with."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def _defaults(function: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = function.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _field_has_default(value: ast.expr | None) -> bool:
    if isinstance(value, ast.Call) and _name(value) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def option_count(source: str) -> int:
    count = 0
    for node in ast.parse(source).body:
        if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
            count += _defaults(node)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for item in node.body:
            if isinstance(item, _FUNCTIONS) and not item.name.startswith("_"):
                count += _defaults(item)
        if any(_name(d) == "dataclass" for d in node.decorator_list):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            count += sum(_field_has_default(item.value) for item in fields)
    return count


def export_counts(init_source: str) -> dict[str, int]:
    """``{module: number of names}`` that an ``__init__.py`` of source
    ``init_source`` imports from each of its package's modules."""
    counts: dict[str, int] = {}
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            counts[node.module] = counts.get(node.module, 0) + len(node.names)
    return counts


def main() -> None:
    exports = export_counts((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    totals = [0, 0, 0]
    print(f"{'lines':>6}  {'options':>7}  {'exports':>7}  module")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        row = [code_lines(source), option_count(source), exports.get(path.stem, 0)]
        totals = [t + r for t, r in zip(totals, row)]
        print(f"{row[0]:6d}  {row[1]:7d}  {row[2]:7d}  {path.name}")
    print(f"{totals[0]:6d}  {totals[1]:7d}  {totals[2]:7d}  total")
    tests = sum(code_lines(p.read_text(encoding="utf-8")) for p in (ROOT / "tests").glob("*.py"))
    print(f"{tests:6d}  {'':7}  {'':7}  tests/*.py")


if __name__ == "__main__":
    main()
