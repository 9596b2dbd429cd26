"""The metrics of ``tools/code_lines.py`` count what its docstring says."""

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


OPTIONS = '''
from dataclasses import dataclass, field


def solve(spec, method="auto", *, cap=24, fields=None):
    def inner(x=1):
        return x
    return inner()


def _helper(x=1):
    return x


class Engine:
    def run(self, steps=1):
        return steps

    def _step(self, size=2):
        return size


@dataclass(frozen=True)
class Config:
    kind: str
    seed: int = field(metadata={"top": True})
    box: tuple = (5, 5)
    tags: list = field(default_factory=list)
    beta: float = field(default=1.0, metadata={})

    def scaled(self, factor=2.0):
        return self.beta * factor


@dataclass
class _Private:
    n: int = 1
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # the import, the def, both lines of the expression and the return
    assert _tool().code_lines(SOURCE) == 5


def test_option_count_counts_the_defaults_of_public_entries():
    # solve's method, cap and fields; Engine.run's steps; Config's box, tags
    # and beta (a bare field() is no default) and scaled's factor
    assert _tool().option_count(OPTIONS) == 8
