"""Time the kernels of one stacked transfer sweep and print its memory peak.

    python tools/sweep_profile.py [--box 10 10] [--bc periodic] [--stack 1]
                                  [--beta 1.0] [--seed 0] [--repeats 5]

The sweep is ``exactsolve._transfer_sweep`` on a box of Gaussian couplings,
``--stack`` rows of them drawn from ``--seed``, on the region the bc places
itself on (``BoundaryCondition.region``): a torus for ``periodic`` or
``antiperiodic`` (the seam on axis 0), an open box for ``free``.  The script
runs that sweep with each kernel it calls wrapped by a timer in
``exactsolve``'s namespace, and sums each stage's time over the sweep:

* ``weights``: the column weights (``_column_weights``);
* ``links``: each link's two factors, the closing ones too (``_link``);
* ``steps``: each link applied (``_apply``, or ``_link_rows`` for the first
  step of a wrapped sweep);
* ``close``: the trace against each closing link (``_trace_close``) and the
  log Z of the maxima and closes (``_log_z``);
* ``remainder``: the rest of the sweep, chiefly each environment's weight
  pass and maximum, with the timers' own cost.

Every kernel is the original again when the sweep returns or fails.  The
script prints the chunk count and the carried rows per chunk (a wrapped
sweep whose environment does not fit the stack budget takes its carried
column-0 rows in chunks; the rows are what ``_chunk_rows`` returned, the
count what ``_log_z`` was handed), the median of each stage over
``--repeats`` timed sweeps, in milliseconds, their total and the median time
of the sweep without timers, and the ``tracemalloc`` peak of one sweep.  Run
it with one BLAS thread (``OPENBLAS_NUM_THREADS=1``) to time what the
benchmark's children run.  Run from anywhere: the package is taken from this
checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from eafluct import exactsolve  # noqa: E402
from eafluct.disorder import Gaussian, SeedSpec, sample_couplings  # noqa: E402
from eafluct.lattice import interior_edges  # noqa: E402

KERNELS = {"_column_weights": "weights", "_link": "links", "_apply": "steps",
           "_link_rows": "steps", "_trace_close": "close", "_log_z": "close"}
STAGES = ("weights", "links", "steps", "close", "remainder")


def make_stack(box, bc: str, stack: int, beta: float, seed: int):
    """(spec, (stack, n_edges) couplings) for the profiled sweep."""
    rule = exactsolve.BoundaryCondition.from_name(bc, (0,))
    region = rule.region(tuple(box))
    rows = [sample_couplings(Gaussian(), interior_edges(region), SeedSpec(seed, k, "profile"))
            for k in range(stack)]
    spec = exactsolve.GibbsSpec(region, rows[0], beta, rule)
    return spec, np.stack([row.values for row in rows])


def timed_sweep(spec, values) -> tuple[dict[str, float], int, int]:
    """(seconds per stage, carried rows per chunk, chunk count) of one
    ``_transfer_sweep`` of ``values`` over ``spec``, with its kernels timed
    where the sweep looks them up; restores them before it returns."""
    seconds = dict.fromkeys(STAGES, 0.0)
    calls = {}  # each wrapped function's last (args, result)
    originals = {name: getattr(exactsolve, name) for name in (*KERNELS, "_chunk_rows")}

    def timed(name, kernel):
        def run(*args):
            start = time.perf_counter()
            out = kernel(*args)
            if name in KERNELS:
                seconds[KERNELS[name]] += time.perf_counter() - start
            calls[name] = args, out
            return out
        return run

    try:
        for name, kernel in originals.items():
            setattr(exactsolve, name, timed(name, kernel))
        start = time.perf_counter()
        exactsolve._transfer_sweep(spec, couplings=values)
        seconds["remainder"] = time.perf_counter() - start - sum(seconds.values())
    finally:
        for name, kernel in originals.items():
            setattr(exactsolve, name, kernel)
    maxima = calls["_log_z"][0][0]  # (chunks, L-1, B, 1, 1)
    return seconds, calls["_chunk_rows"][1], len(maxima)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--box", type=int, nargs=2, default=[10, 10])
    parser.add_argument("--bc", choices=("antiperiodic", "free", "periodic"), default="periodic")
    parser.add_argument("--stack", type=int, default=1)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    spec, values = make_stack(args.box, args.bc, args.stack, args.beta, args.seed)

    runs, sweeps = [], []
    for _ in range(args.repeats):
        seconds, rows, chunks = timed_sweep(spec, values)
        runs.append(seconds)
        start = time.perf_counter()
        exactsolve._transfer_sweep(spec, couplings=values)
        sweeps.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        exactsolve._transfer_sweep(spec, couplings=values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    plan = exactsolve._transfer_plan(spec.region, spec.bc, exactsolve.TRANSFER_WIDTH_CAP)
    print(f"box {args.box} {args.bc}, stack {args.stack}, beta {args.beta:g}: "
          f"W={plan.width}, L={plan.length}, wrapped length axis: {plan.wrap_l}")
    print(f"chunks: {chunks} of {rows} carried rows each")
    print(f"{'stage':<12} ms (median of {args.repeats})")
    for stage in STAGES:
        print(f"{stage:<12} {1e3 * statistics.median(run[stage] for run in runs):.3f}")
    print(f"{'timed':<12} {1e3 * statistics.median(sum(run.values()) for run in runs):.3f}")
    print(f"{'sweep':<12} {1e3 * statistics.median(sweeps):.3f}")
    print(f"tracemalloc peak of one sweep: {peak / 2**20:.2f} MiB")


if __name__ == "__main__":
    main()
