"""The benchmark's report check holds on every workload at seed 0.

``perfbench/run.py`` runs each workload of ``perfbench/workloads.py`` and
passes its report to ``check_report``, which reads summary keys by name
(``count``, ``variance``, ``per_edge_mean``, ...) and compares the values
with ``perfbench/reference.json``.  A reducer that drops or renames one of
those keys would break the benchmark; here each workload runs in process,
at one worker, and its report must pass the same check.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from eafluct import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(WORKLOADS.WORKLOADS))
def test_each_workload_report_passes_the_benchmark_check(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # the workload's output paths are relative
    report = harness.run(harness.parse_config_dict(WORKLOADS.make_config(name, 0)), workers=1)
    assert WORKLOADS.check_report(name, 0, report, REFERENCE[name]["0"]) == []
