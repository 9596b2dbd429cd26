"""The line metric of ``tools/code_lines.py`` counts what its docstring says."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment


# a comment line
def root(x):
    """A function docstring."""
    y = (x
         + 1)

    return math.sqrt(y)
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # the import, the def, both lines of the expression and the return
    assert tool.code_lines(SOURCE) == 5
