"""Time one benchmark workload's cold geometry build and count the bonds it builds.

    python tools/geometry_profile.py [--workload probe-strip-w8] [--runs 7]

The geometry is what a run of the workload builds before its first sweep:
for an ensemble kind the master edge set of its box, the two states of one
realization (``EnsembleSpec._states``, through the state pair in pair mode)
and each state's transfer plan; for ``oracle-verify`` each geometry's state
under each bc with its plan.  The couplings are zeros, since no value is
read.  Each of ``--runs`` children is a fresh interpreter on this checkout's
``src/`` in the benchmark's child environment (``perfbench/run.child_env``),
which imports ``numpy.random`` and the package first and then times one
build.  The script prints each child's time, their median in milliseconds,
and, from one build in this process with every cache of the package
cleared, how many ``Edge`` objects and ``Region.contains_site`` calls the
build makes.  Run from anywhere: the package is taken from this checkout.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def config(workload: str):
    """The workload's config.  Its master seed is the only field a seed
    changes, and the build reads no coupling value, so seed 0 stands for all."""
    from eafluct import harness
    from workloads import make_config

    return harness.parse_config_dict(make_config(workload, 0))


def build(cfg) -> None:
    """Build the states of the config's geometry, and the transfer plan of
    each state the config's solver sends to the transfer engine."""
    import numpy as np

    from eafluct import exactsolve, harness, interface
    from eafluct.disorder import CouplingConfig

    def zeros(edges):
        return CouplingConfig(edges, np.zeros(len(edges)))

    mode = harness.KIND_TABLE[cfg.kind].ensemble
    if mode is None:
        states = []
        for extents in cfg.geometries:
            for name in harness.ORACLE_BC_NAMES:
                bc = exactsolve.BoundaryCondition.from_name(name, cfg.seam_axes)
                region = bc.region(tuple(extents))
                couplings = zeros(exactsolve.required_edges(region, bc))
                states.append(exactsolve.GibbsSpec(region, couplings, cfg.beta, bc))
    else:
        spec = harness.ensemble_spec_from_config(cfg)
        template = zeros(interface.master_edge_set(spec.box_extents))
        states = spec._states(template, spec.pair_from(template) if mode == "pair" else None)
    for state in states:
        if cfg.solver.engine(state.region) == "transfer":
            exactsolve._transfer_plan(state.region, state.bc, cfg.solver.width_cap)


def clear_caches() -> None:
    """Empty every ``lru_cache`` of the package's modules."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "eafluct":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@contextmanager
def counting():
    """Count ``Edge`` constructions and ``Region.contains_site`` calls in the
    body, into the yielded dict."""
    from eafluct.lattice import Edge, Region

    counts = {"edges": 0, "contains_site": 0}
    init, contains = Edge.__init__, Region.contains_site

    def counted_init(self, *args, **kwargs):
        counts["edges"] += 1
        init(self, *args, **kwargs)

    def counted_contains(self, site):
        counts["contains_site"] += 1
        return contains(self, site)

    Edge.__init__, Region.contains_site = counted_init, counted_contains
    try:
        yield counts
    finally:
        Edge.__init__, Region.contains_site = init, contains


def work(workload: str) -> dict:
    """The counts of one build of the workload's geometry from empty caches."""
    cfg = config(workload)
    clear_caches()
    with counting() as counts:
        build(cfg)
    return counts


def child(workload: str) -> None:
    import time

    # numpy loads numpy.random lazily, on a run's first seeded draw: imported
    # here, that import stays out of the timed build
    import numpy.random  # noqa: F401

    cfg = config(workload)
    start = time.perf_counter()
    build(cfg)
    print(json.dumps({"geometry_s": time.perf_counter() - start}))


def measure(workload: str) -> float:
    """One fresh child's geometry time, in seconds."""
    import subprocess

    from run import child_env

    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", workload],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["geometry_s"]


def main(argv=None) -> None:
    import argparse
    import statistics

    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="probe-strip-w8")
    parser.add_argument("--runs", type=int, default=7)
    args = parser.parse_args(argv)
    times = [measure(args.workload) for _ in range(args.runs)]
    print("runs (ms): " + " ".join(f"{1e3 * t:.3f}" for t in times))
    print(f"{args.workload} cold geometry: median {1e3 * statistics.median(times):.3f} ms "
          f"over {len(times)} runs")
    counts = work(args.workload)
    print(f"Edge constructions: {counts['edges']}, "
          f"Region.contains_site calls: {counts['contains_site']}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        main()
