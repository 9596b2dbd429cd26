"""Golden report and CSV bytes for every experiment kind.

Each directory under ``tests/golden`` holds one small config of one kind,
together with the ``report.json`` and CSV files that the per-kind ``if``
chains of the harness wrote for it before the kind table replaced them
(commit bb198fb).  Every kind must still write the same bytes, serially
and with two workers.  The six kinds whose runs take a zero-field wrapped
transfer sweep (fe, martingale, edge-martingale, bounds, mgf and scaling)
were regenerated once from their unchanged configs when that sweep began
to carry half its rows; no report float moved by more than 1e-11.  Seven
kinds (martingale, edge-martingale, bounds, mgf, probe, scaling and
oracle-verify) were regenerated once more, from the same configs, when
every transfer link began to be applied as its two Kronecker factors; no
report float or CSV cell moved by more than 8.3e-13, and fe, domain-wall,
ensemble and covariance kept their bytes.  Covariance and oracle-verify were
regenerated once more, from the same configs, when enumeration began to
build its energies from two half-state tables and one cross product and its
correlations from one second-moment matrix: only their four engine-deviation
diagnostics moved, each a rounding-level maximum below 1.8e-15, and every
other kind kept its bytes.  Probe and oracle-verify were regenerated once
more, from the same configs, when the transfer correlations began to come
from the gradients of each link's two factors: no report float or CSV cell
moved by more than 1.2e-16, and every other kind kept its bytes.
"""

import json
from pathlib import Path

import pytest
from conftest import run_in_process

from eafluct.harness import KINDS, load_config, run, write_csv_reports

GOLDEN = Path(__file__).parent / "golden"


def test_every_kind_has_a_golden_run():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(KINDS)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_report_and_csv_bytes_match_golden(kind, workers, tmp_path, monkeypatch):
    golden = GOLDEN / kind
    monkeypatch.chdir(tmp_path)  # the config's output paths are relative
    cfg = load_config(golden / "config.json")
    report = run(cfg, workers=workers)
    assert (tmp_path / "report.json").read_bytes() == (golden / "report.json").read_bytes()
    written = sorted(Path(p).name for p in write_csv_reports(report, "csv"))
    assert written == sorted(p.name for p in (golden / "csv").iterdir())
    for name in written:
        assert (tmp_path / "csv" / name).read_bytes() == (golden / "csv" / name).read_bytes()


@pytest.mark.parametrize("kind", KINDS)
def test_the_in_process_route_gives_the_golden_summary(kind):
    # the tests that run a kind through conftest.run_in_process see the
    # summary a user's report.json carries
    golden = GOLDEN / kind
    summary = run_in_process(json.loads((golden / "config.json").read_text()))[1]
    report = json.loads((golden / "report.json").read_text())
    assert json.loads(json.dumps(summary)) == report["summary"]
