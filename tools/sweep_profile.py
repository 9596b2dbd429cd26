"""Time the stages of one stacked transfer sweep and print its memory peak.

    python tools/sweep_profile.py [--box 10 10] [--bc periodic] [--stack 1]
                                  [--beta 1.0] [--seed 0] [--repeats 5]

The sweep is ``exactsolve._transfer_sweep`` on a box of Gaussian couplings,
``--stack`` rows of them drawn from ``--seed``: wrapped on both axes for a
``periodic`` or ``antiperiodic`` bc (the seam on axis 0), open for ``free``.
The script replays that sweep chunk by chunk (a wrapped sweep whose
environment does not fit the stack budget takes its carried column-0 rows in
chunks, ``exactsolve._chunk_rows``) and stage by stage with the package's own
kernels, and sums each stage's time over the sweep:

* ``weights``: the column weights (``_column_weights``);
* ``links``: each link's two factors (``_link``), with the rescale that
  divides the small one;
* ``steps``: each link applied (``_apply``, or ``_link_rows`` for the first
  step of a wrapped sweep);
* ``weight pass``: each environment multiplied by its column's weights;
* ``maxima``: each environment's maximum;
* ``close``: the closing link and the trace against it (``_trace_close``),
  or the sum of the last environment on an open axis.

It checks that the replay's log Z equals the sweep's bit for bit, then
prints the chunk count and the carried rows per chunk, the median of each stage over ``--repeats`` replays, in
milliseconds, beside the median time of the sweep itself, and the
``tracemalloc`` peak of one sweep.  Run it with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``) to time what the benchmark's children run.
Run from anywhere: the package is taken from this checkout's ``src/``.
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
from eafluct.lattice import Region, interior_edges  # noqa: E402

STAGES = ("weights", "links", "steps", "weight pass", "maxima", "close")
BCS = {"free": exactsolve.free_bc, "periodic": exactsolve.periodic_bc,
       "antiperiodic": lambda: exactsolve.antiperiodic_bc(0)}


def make_stack(box, bc: str, stack: int, beta: float, seed: int):
    """(spec, (stack, n_edges) couplings) for the profiled sweep."""
    region = Region(tuple(box), (bc != "free",) * 2)
    rows = [sample_couplings(Gaussian(), interior_edges(region), SeedSpec(seed, k, "profile"))
            for k in range(stack)]
    spec = exactsolve.GibbsSpec(region, rows[0], beta, BCS[bc]())
    return spec, np.stack([row.values for row in rows])


def replay(spec, values) -> tuple[list[float], dict[str, float], int, int]:
    """(log Z of each row, seconds per stage, carried rows per chunk, chunk
    count) of the sweep of ``values`` over ``spec``'s plan, taken chunk for
    chunk and step for step as the sweep takes them."""
    plan = exactsolve._transfer_plan(spec.region, spec.bc, exactsolve.TRANSFER_WIDTH_CAP)
    s, beta, side = plan.s_matrix, spec.beta, 1 << plan.width
    seconds = dict.fromkeys(STAGES, 0.0)
    clock = time.perf_counter

    def timed(stage, fn, *args):
        start = clock()
        out = fn(*args)
        seconds[stage] += clock() - start
        return out

    def weigh(env, w):
        env *= np.ascontiguousarray(w)

    def link(j, scale):
        hi, lo = exactsolve._link(s, j, beta)
        if scale is not None:
            lo /= scale
        return hi, lo

    jh = values.take(plan.h_pos, axis=-1) * plan.h_sign
    d = timed("weights", exactsolve._column_weights, spec, plan, None, values)
    carried = 1
    if plan.wrap_l:
        carried = side // 2 if np.array_equal(d, d[:, ::-1]) else side
    rows = exactsolve._chunk_rows(plan, carried, values.shape[-1])
    weights = d.transpose(2, 0, 1)[:, :, None]
    buf = np.empty((len(values), rows, side))
    close = buf.size >> (plan.width // 2) if plan.wrap_l else 0
    scratch = np.empty(max(min(buf.size, max(exactsolve._BLOCK_DOUBLES, side)), close))
    maxima = np.empty((carried // rows, plan.length - 1, len(values), 1, 1))
    totals = np.empty((carried // rows, len(values), 1))
    for chunk, first in enumerate(range(0, carried, rows)):
        scales = maxima[chunk]
        env = d[:, None, :, 0]
        for c in range(1, plan.length):
            hi, lo = timed("links", link, jh[..., c - 1], scales[c - 2] if c > 1 else None)
            if plan.wrap_l and c == 1:
                env = timed("steps", exactsolve._link_rows, (hi, lo), rows, buf, first)
                env *= d[:, first : first + rows, None, 0]
            else:
                env = timed("steps", exactsolve._apply, env, (hi, lo), buf, scratch)
            timed("weight pass", weigh, env, weights[c])
            timed("maxima", env.max, (1, 2), scales[c - 1], True)
        start = clock()
        if plan.wrap_l:
            hi, lo = link(jh[..., -1], scales[-1])
            totals[chunk, :, 0] = exactsolve._trace_close(env, (hi, lo), scratch, first, carried)
        else:
            totals[chunk, :, 0] = env.reshape(len(env), -1).sum(axis=1)
            if len(scales):
                totals[chunk] /= scales[-1, :, 0]
        seconds["close"] += clock() - start
    logz = [ends[0] for ends in exactsolve._log_z(maxima, totals)]
    return logz, seconds, rows, carried // rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--box", type=int, nargs=2, default=[10, 10])
    parser.add_argument("--bc", choices=sorted(BCS), default="periodic")
    parser.add_argument("--stack", type=int, default=1)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    spec, values = make_stack(args.box, args.bc, args.stack, args.beta, args.seed)
    logz, _ = exactsolve._transfer_sweep(spec, couplings=values)
    replayed, _, rows, chunks = replay(spec, values)
    if replayed != [row[0] for row in logz]:
        raise SystemExit("the replay's log Z differs from the sweep's")

    runs, sweeps = [], []
    for _ in range(args.repeats):
        runs.append(replay(spec, values)[1])
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
    print(f"{'replay':<12} {1e3 * statistics.median(sum(run.values()) for run in runs):.3f}")
    print(f"{'sweep':<12} {1e3 * statistics.median(sweeps):.3f}")
    print(f"tracemalloc peak of one sweep: {peak / 2**20:.2f} MiB")


if __name__ == "__main__":
    main()
