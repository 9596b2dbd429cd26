"""eafluct benchmark: time to report on fixed experiment configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from a source checkout (the package is taken from ``src/``); nothing needs
installing.  Every measured run is a fresh ``python3 perfbench/child.py``
process with ``EAFLUCT_WORKERS=1`` and BLAS/OpenMP threads pinned to 1 in
that process's environment only, doing what ``eafluct <kind> -c config.json``
does: import eafluct, load and validate the generated config, call
``harness.run`` once.  So every run pays the plan and cache building a user's
run pays.  Runs are sequential (a closed loop, one config at a time).

``--trace 0`` reports the end-to-end metrics, each the median over the
invocation's runs:

* ``setup_s``: import eafluct, then load and validate the config, in a fresh
  interpreter (sampled by a few setup-only processes and by every run);
* ``run_s``: wall time of one ``harness.run``: tasks, reduce, record and
  report I/O;
* ``peak_rss_mb``: peak resident memory of the run's process.

``--trace 1`` alternates untraced runs with runs whose child installs
``tracer.py`` and reports the per-layer metrics (medians over traced runs),
the tracing overhead (median traced minus median untraced ``run_s``), and
checks that two traced runs give identical exact counts and that the layer
self times sum to no more than the traced wall time.

Every run's report is checked (``workloads.check_report``).  A run that
crashes or fails the check counts in ``failed``; the error rate printed is
``failed / attempted``.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine record, each run, and medians with quartiles.  With
``--workload all`` the last line maps each workload to its result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_runs"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5
MIN_RUNS = 2
# every child, and all runs of one workload together, end within this
CHILD_TIMEOUT_S = 160
CHILD_ENV = {
    "EAFLUCT_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


def child_env() -> dict:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "child_env": CHILD_ENV,
    }


def run_child(name: str, seed: int, mode: str, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """One fresh process on the workload's generated config.  Returns the
    child's measurements plus the report (and spans, records size) it wrote,
    or ``{"error": ...}``."""
    from workloads import make_config

    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        (rundir / "config.json").write_text(json.dumps(make_config(name, seed)))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "config.json", "result.json", mode],
                cwd=rundir, env=child_env(), capture_output=True, text=True,
                timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"exit {proc.returncode}: {tail[0]}"}
        out = json.loads((rundir / "result.json").read_text())
        if not Path(out.pop("module")).resolve().is_relative_to(SRC):
            return {"error": "imported an eafluct outside this checkout"}
        if mode != "setup":
            out["report"] = json.loads((rundir / "report.json").read_text())
            out["records_bytes"] = (rundir / "records.jsonl").stat().st_size
        if mode == "trace":
            out["spans"] = json.loads((rundir / "result.json.spans").read_text())
        return out
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def show(label: str, values: list[float], unit: str) -> None:
    q1, med, q3 = quartiles(values)
    print(f"  {label:34s} median {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


class Session:
    """Runs of one workload at one seed, with their failures."""

    def __init__(self, name: str, seed: int, seconds: int):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.deadline = time.perf_counter() + CHILD_TIMEOUT_S
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.reference = reference.get(name, {}).get(str(seed))

    def child(self, mode: str) -> dict:
        return run_child(self.name, self.seed, mode, self.deadline - time.perf_counter())

    def run(self, mode: str) -> dict | None:
        """One measured run; its report is kept for ``check`` afterwards."""
        self.attempted += 1
        out = self.child(mode)
        if "error" in out:
            self.failed += 1
            self.problems.append(f"run {self.attempted} ({mode}): {out['error']}")
            print(f"run {self.attempted} {mode}: FAILED {out['error']}", flush=True)
            return None
        print(
            f"run {self.attempted} {mode}: setup_s={out['setup_s']:.6f} "
            f"run_s={out['run_s']:.6f} peak_rss_mb={out['peak_rss_mb']:.3f}",
            flush=True,
        )
        return out

    def loop(self, modes: list[str]) -> list[tuple[str, dict]]:
        """Rounds of ``modes``: at least ``MIN_RUNS`` runs, then another round
        while at least half of it fits in the time budget.  Returns the runs
        that completed, by mode."""
        done: list[tuple[str, dict | None]] = []
        start = time.perf_counter()
        last = 0.0
        while len(done) < MIN_RUNS or time.perf_counter() - start + last / 2 <= self.seconds:
            t0 = time.perf_counter()
            done += [(mode, self.run(mode)) for mode in modes]
            last = time.perf_counter() - t0
        return [(mode, out) for mode, out in done if out is not None]

    def check(self, runs: list[dict]) -> None:
        from workloads import check_report

        for out in runs:
            found = check_report(self.name, self.seed, out.pop("report"), self.reference)
            self.failed += bool(found)
            self.problems += found

    def result(self, metrics: dict) -> dict:
        for problem in self.problems:
            print(f"CHECK FAILED: {problem}")
        print(f"  error_rate {self.failed}/{self.attempted} = {self.failed / self.attempted:.6g}")
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def measure_end_to_end(session: Session) -> dict | None:
    session.child("setup")  # writes bytecode caches; not measured
    setups = []
    for _ in range(SETUP_PROBES):
        out = session.child("setup")
        if "error" in out:
            session.problems.append(f"setup probe: {out['error']}")
        else:
            setups.append(out["setup_s"])
    runs = [out for _, out in session.loop(["run"])]
    if not runs:
        return None
    session.check(runs)
    samples = {
        "setup_s": setups + [r["setup_s"] for r in runs],
        "run_s": [r["run_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    print(f"workload {session.name} seed {session.seed}:")
    metrics = {}
    for key, unit in END_TO_END:
        show(key, samples[key], unit)
        metrics[key] = {"value": statistics.median(samples[key]), "unit": unit}
    return session.result(metrics)


def measure_layers(session: Session) -> dict | None:
    import tracer

    session.child("setup")  # writes bytecode caches; not measured
    done = session.loop(["run", "trace", "trace"])
    plain = [out for mode, out in done if mode == "run"]
    traced = [out for mode, out in done if mode == "trace"]
    if not plain or len(traced) < 2:
        return None
    session.check(plain + traced)
    layers = []
    for out in traced:
        values = tracer.layer_metrics(out["spans"], out["run_s"])
        values["harness.records.bytes"] = out["records_bytes"]
        if values.pop("trace.self_sum.s") > out["run_s"]:
            session.problems.append("layer self times sum to more than the traced run_s")
        layers.append(values)
    for key in tracer.EXACT_COUNTS:
        if len({values[key] for values in layers}) != 1:
            session.problems.append(f"{key} differs between traced runs of one seed")
    plain_s = statistics.median(r["run_s"] for r in plain)
    traced_s = statistics.median(r["run_s"] for r in traced)
    print(f"workload {session.name} seed {session.seed} (traced):")
    show("run_s untraced", [r["run_s"] for r in plain], "s")
    show("run_s traced", [r["run_s"] for r in traced], "s")
    values = {
        key: first if key in tracer.EXACT_COUNTS else statistics.median(v[key] for v in layers)
        for key, first in layers[0].items()
    }
    values["trace.overhead.s"] = traced_s - plain_s
    metrics = {}
    by_module: dict[str, float] = {}
    for key, value in values.items():
        metrics[key] = {"value": value, "unit": tracer.unit(key)}
        share = ""
        if key.endswith(".s"):
            share = f"  {100 * value / traced_s:5.1f}% of traced run_s"
            if key != "trace.overhead.s":
                module = key.split(".")[0]
                by_module[module] = by_module.get(module, 0.0) + value
        print(f"  {key:34s} {value:.6g} {tracer.unit(key)}{share}")
    print("  self time by module: " + ", ".join(
        f"{module} {100 * s / traced_s:.1f}%" for module, s in by_module.items()))
    return session.result(metrics)


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eafluct" / "__init__.py").is_file():
        print(f"error: no eafluct sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: the seed must be a 64-bit non-negative integer", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("machine:", json.dumps(machine_record(), sort_keys=True), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = measure_layers if args.trace else measure_end_to_end
    results = {}
    try:
        for name in names:
            results[name] = measure(Session(name, args.seed, args.seconds))
            if results[name] is None:
                print(f"error: too few runs of {name} completed", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()]
        rate = res["failed"] / res["attempted"]
        print(f"{name:24s} " + "  ".join(cells) + f"  error_rate={rate:.6g}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
