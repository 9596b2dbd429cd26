"""The metrics of ``tools/code_lines.py`` count what its docstring says,
``tools/sweep_profile.py`` times the kernels of a real sweep, and
``tools/geometry_profile.py`` times and counts a workload's geometry."""

import importlib.util
import re
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

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


INIT = '''"""A package."""

__version__ = "1.0"

from .alpha import (  # noqa: E402
    ONE,
    two,
)
from .beta import three as four
from .alpha import five
from math import pi
from . import gamma
import os
'''


def _tool(name="code_lines"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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


def test_export_counts_count_the_names_imported_from_each_module():
    # alpha's ONE, two and five and beta's three; neither a foreign import
    # nor a bare ``from . import`` of a module counts
    assert _tool().export_counts(INIT) == {"alpha": 3, "beta": 1}


def test_main_prints_the_package_rows_and_the_code_lines_of_the_tests(capsys):
    tool = _tool()
    tool.main()
    rows = capsys.readouterr().out.splitlines()
    modules = sorted(tool.PACKAGE.glob("*.py"))
    assert [row.split()[-1] for row in rows[1:-2]] == [p.name for p in modules]
    assert int(rows[-2].split()[0]) == sum(tool.code_lines(p.read_text()) for p in modules)
    tests = sum(tool.code_lines(p.read_text()) for p in Path(__file__).parent.glob("*.py"))
    assert rows[-1].split() == [str(tests), "tests/*.py"]


def _kernels(tool):
    from eafluct import exactsolve

    return {name: getattr(exactsolve, name) for name in (*tool.KERNELS, "_chunk_rows")}


def _profile(args, capsys):
    """What ``tools/sweep_profile.py`` prints for ``args``, checked for
    every stage's line and for the kernels it leaves behind."""
    tool = _tool("sweep_profile")
    before = _kernels(tool)
    tool.main([*args, "--repeats", "2"])
    assert _kernels(tool) == before
    out = capsys.readouterr().out
    for stage in (*tool.STAGES, "timed", "sweep"):
        assert re.search(rf"^{stage} +\d+\.\d{{3}}$", out, re.M), stage
    assert re.search(r"^tracemalloc peak of one sweep: \d+\.\d\d MiB$", out, re.M)
    return out


def _chunks(out):
    """(chunk count, carried rows per chunk) that the tool printed."""
    count, rows = re.search(r"^chunks: (\d+) of (\d+) carried rows each$", out, re.M).groups()
    return int(count), int(rows)


@pytest.mark.parametrize("args", [
    ["--box", "4", "5", "--stack", "2"],
    ["--box", "5", "3", "--bc", "antiperiodic"],
    ["--box", "3", "4", "--bc", "free", "--stack", "3"],
])
def test_sweep_profile_times_every_stage_of_the_sweep(args, capsys):
    # a torus of width W carries 2^(W-1) rows in one chunk, an open strip one
    width = min(int(args[1]), int(args[2]))
    rows = 1 if "free" in args else 2 ** (width - 1)
    assert _chunks(_profile(args, capsys)) == (1, rows)


def test_sweep_profile_times_a_sweep_in_chunks(monkeypatch, capsys):
    # with no budget a wrapped sweep takes one hi row, 2^k states, a chunk:
    # a width-4 torus two chunks of 4 of its 8 carried rows, a width-6 one
    # four chunks of 8 of its 32
    from eafluct import exactsolve

    monkeypatch.setattr(exactsolve, "_STACK_DOUBLES", 0)
    assert _chunks(_profile(["--box", "4", "5", "--stack", "2"], capsys)) == (2, 4)
    assert _chunks(_profile(["--box", "6", "6", "--bc", "antiperiodic"], capsys)) == (4, 8)


def test_sweep_profile_restores_the_kernels_when_the_sweep_fails(monkeypatch):
    from eafluct import exactsolve

    def fail(*args):
        raise ArithmeticError("out of range")

    monkeypatch.setattr(exactsolve, "_log_z", fail)
    tool = _tool("sweep_profile")
    before = _kernels(tool)
    spec, values = tool.make_stack((4, 4), "periodic", 1, 1.0, 0)
    with pytest.raises(ArithmeticError, match="out of range"):
        tool.timed_sweep(spec, values)
    assert _kernels(tool) == before


def test_the_probe_geometry_builds_each_bond_once_and_tests_no_site():
    # the master set's bonds and nothing else: the free state's interior is
    # the one the master's wrapped interior shares, the fixed state's ghost
    # ring is the master's, and the plans read positions
    from eafluct.interface import master_edge_set

    counts = _tool("geometry_profile").work("probe-strip-w8")
    assert counts == {"edges": len(master_edge_set((16, 8))), "contains_site": 0}
    assert counts["edges"] == 304


@pytest.mark.parametrize("workload", ["martingale-6x6", "oracle-verify-enum"])
def test_geometry_profile_times_a_workload_in_a_child(workload, capsys):
    _tool("geometry_profile").main(["--workload", workload, "--runs", "1"])
    out = capsys.readouterr().out
    assert re.search(rf"^{workload} cold geometry: median \d+\.\d{{3}} ms over 1 runs$", out, re.M)
    assert re.search(r"^Edge constructions: \d+, Region.contains_site calls: \d+$", out, re.M)
