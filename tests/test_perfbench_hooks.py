"""The benchmark's layer tracer still finds the functions it wraps.

``perfbench/tracer.py`` patches eafluct functions by name from outside the
package.  A renamed or bypassed function leaves its layer reading zero, and
``perfbench/run.py --trace 1`` would report that silently; here a tiny
martingale run under the tracer must count calls in each layer it touches.
The tracer runs in a fresh interpreter, because it patches module globals.
"""

import json
import subprocess
import sys
from pathlib import Path

import eafluct

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(eafluct.__file__).resolve().parents[1]

SCRIPT = """
import json, sys, time
perfbench, src, config, spans = sys.argv[1:5]
sys.path[:0] = [perfbench, src]
import tracer as tracing
from eafluct import harness

tracer = tracing.Tracer()
tracing.install(tracer)
cfg = harness.load_config(config)
start = time.perf_counter()
harness.run(cfg, workers=1)
run_s = time.perf_counter() - start
tracer.dump(spans)
with open(spans, encoding="utf-8") as fh:
    print(json.dumps(tracing.layer_metrics(json.load(fh), run_s)))
"""

CONFIG = {
    "schema_version": 1,
    "kind": "martingale",
    "seed": 3,
    "geometry": {"box": [4, 4], "window": [2, 2]},
    "physics": {"beta": 1.0, "bc": "free", "bc_prime": "periodic"},
    "sampling": {"n": 2, "n_outer": 2, "block_side": 2, "bootstrap": 10},
    "output": {"records": "records.jsonl", "report": "report.json", "csv_dir": "."},
}


def test_tracer_counts_the_martingale_layers(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    args = [str(PERFBENCH), str(SRC), str(config), str(tmp_path / "spans.json")]
    done = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])
    for layer in ("disorder.edit", "interface.pair", "fluctuation.f"):
        assert metrics[f"{layer}.calls"] > 0, layer
    # one traced sweep per stacked call: 2 realizations x (2 for F + 2 for
    # the path, whose 2 inner draws share one stack per state), 32 rows in
    # all (see below)
    assert metrics["exactsolve.transfer.sweeps"] == 8


def test_the_traced_martingale_run_sweeps_32_rows(tmp_path, monkeypatch):
    # the same run in process: its 8 stacked sweeps carry the 32 rows that
    # were 32 separate sweeps, 2 realizations x (4 of F + 2 inner draws x
    # (2 prefixes x 2 + 2)), none more than the chunk rule allows
    from eafluct import exactsolve, harness
    from eafluct.disorder import Gaussian, SeedSpec
    from eafluct.exactsolve import free_bc, periodic_bc
    from eafluct.interface import make_state_pair, sample_master

    stacks = []
    original = exactsolve._transfer_sweep

    def counting(*args, **kwargs):
        stacks.append(len(kwargs["couplings"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(exactsolve, "_transfer_sweep", counting)
    monkeypatch.chdir(tmp_path)
    harness.run(harness.parse_config_dict(CONFIG), workers=1)
    assert len(stacks) == 8
    assert sum(stacks) == 32
    master = sample_master(Gaussian(), (4, 4), SeedSpec(3, 0, "couplings"))
    pair = make_state_pair((4, 4), (2, 2), 1.0, free_bc(), periodic_bc(), master)
    assert max(stacks) <= exactsolve.stack_rows(pair.gamma, pair.gamma_prime, exactsolve.Solver())
