"""Layer tracing of eafluct from outside the package.

``install`` wraps the public functions of each module (and the transfer
engine's sweep, the one place a sweep is visible) so that every call records
a span ``[name, start, end, parent, task, work]``: ``parent`` is the index of
the enclosing span (-1 at top level), ``task`` the harness task being run
(None during the reduce step) and ``work`` counts derived from the call's
arguments, evaluated after the run so that they cost the traced run nothing.  A name bound by ``from .x import name`` is replaced in every
eafluct module that holds it, so calls between modules are traced too.
Spans stay in memory until ``dump``; ``layer_metrics`` turns them into the
per-layer metrics, with a span's self time being its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from functools import wraps

# per-layer metric prefix -> names of the spans whose self time it sums; the
# layer's ``.calls`` counts the spans named exactly like the prefix
LAYERS = {
    "harness.task": ("harness.task",),
    "harness.reduce": ("harness.reduce",),
    "fluctuation.f": ("fluctuation.f",),
    "fluctuation.bootstrap": ("fluctuation.bootstrap",),
    "interface.free_energy": ("interface.free_energy",),
    "interface.pair": ("interface.pair", "interface.pair_check"),
    "disorder.sample": ("disorder.sample",),
    "disorder.edit": ("disorder.edit",),
    "exactsolve.transfer": ("exactsolve.transfer", "exactsolve.sweep"),
    "exactsolve.corr": ("exactsolve.corr",),
    "exactsolve.enum": ("exactsolve.enum",),
}
# the reduce step runs once per run, so every other layer counts its calls
CALL_COUNTS = tuple(p for p in LAYERS if p != "harness.reduce")
# counts summed from the spans' work records
WORK_COUNTS = (
    "fluctuation.bootstrap.resamples",
    "exactsolve.transfer.sweeps",
    "exactsolve.transfer.link_flops",
    "exactsolve.transfer.link_bytes",
    "exactsolve.enum.states",
)
# counts that depend only on the config, so two traced runs must agree on them
EXACT_COUNTS = tuple(f"{p}.calls" for p in CALL_COUNTS) + WORK_COUNTS


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.task: int | None = None
        self._stack: list[int] = []

    def wrap(self, fn, name, work=None):
        """``fn`` recording a span per call; ``name`` is a string or a
        function of (args, kwargs), ``work`` an optional such function."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            rec = [span_name, clock(), 0.0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5] = (work, args, kwargs)  # evaluated by dump, after the run
            return result

        return traced

    def dump(self, path) -> None:
        for rec in self.spans:
            if rec[5] is not None:
                work, args, kwargs = rec[5]
                rec[5] = work(args, kwargs)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _arg(fn, name):
    """Reader of argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default
    return lambda args, kwargs: kwargs.get(name, args[pos] if len(args) > pos else default)


def _replace(name: str, original, wrapped) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "eafluct" and getattr(mod, name, None) is original:
            setattr(mod, name, wrapped)


def install(tracer: Tracer) -> None:
    from eafluct import disorder, exactsolve, fluctuation, harness, interface

    def patch(module, name, span, work=None):
        original = getattr(module, name)
        _replace(name, original, tracer.wrap(original, span, work))

    def states(args, kwargs):
        return {"exactsolve.enum.states": 2 ** args[0].region.n_sites}

    sweep_cap = _arg(exactsolve._transfer_sweep, "width_cap")

    def sweep_work(args, kwargs):
        # dense links of one full sweep: building a link is a (2^W x W) by
        # (W x 2^W) product; an open strip applies L-1 links to a vector, a
        # wrapped one multiplies L-1 of them into a 2^W x 2^W matrix and
        # closes the trace with one more
        spec = args[0]
        cap = sweep_cap(args, kwargs) or exactsolve.TRANSFER_WIDTH_CAP
        plan = exactsolve._transfer_plan(spec.region, spec.bc, cap)
        w, n = plan.width, plan.length
        side = 1 << w
        build = 2 * w * side * side
        if plan.wrap_l:
            links = n
            flops = links * build + (n - 1) * 2 * side**3 + 2 * side * side
        else:
            links = n - 1
            flops = links * (build + 2 * side * side)
        return {
            "exactsolve.transfer.sweeps": 1,
            "exactsolve.transfer.link_flops": flops,
            "exactsolve.transfer.link_bytes": 8 * side * side * links,
        }

    corr_method = _arg(exactsolve.edge_correlation, "method")
    corr_cap = _arg(exactsolve.edge_correlation, "width_cap")

    def corr_engine(args, kwargs):
        method = corr_method(args, kwargs)
        if method == "auto":
            supported = exactsolve.transfer_supported(args[0], corr_cap(args, kwargs))
            method = "transfer" if supported else "enum"
        return "exactsolve.corr" if method == "transfer" else "exactsolve.enum"

    def corr_work(args, kwargs):
        return states(args, kwargs) if corr_engine(args, kwargs) == "exactsolve.enum" else None

    resamples = _arg(fluctuation.bootstrap_stderr, "n_resamples")

    patch(exactsolve, "_transfer_sweep", "exactsolve.sweep", sweep_work)
    patch(exactsolve, "log_partition_transfer", "exactsolve.transfer")
    patch(exactsolve, "log_partition_enum", "exactsolve.enum", states)
    patch(exactsolve, "edge_correlation", corr_engine, corr_work)
    patch(disorder, "sample_couplings", "disorder.sample")
    for name in ("set_block", "overlay", "restrict"):
        patch(disorder, name, "disorder.edit")
    patch(interface, "make_state_pair", "interface.pair")
    patch(interface, "interface_free_energy", "interface.free_energy")
    for name in ("bootstrap_stderr", "bootstrap_ci"):
        patch(fluctuation, name, "fluctuation.bootstrap",
              lambda args, kwargs: {"fluctuation.bootstrap.resamples": resamples(args, kwargs)})
    patch(harness, "reduce_report", "harness.reduce")
    interface.StatePair.__post_init__ = tracer.wrap(
        interface.StatePair.__post_init__, "interface.pair_check"
    )
    fluctuation.EnsembleSpec.f_from = tracer.wrap(
        fluctuation.EnsembleSpec.f_from, "fluctuation.f"
    )

    traced_task = tracer.wrap(harness.run_task, "harness.task")

    def run_task(cfg, task):
        tracer.task = task
        try:
            return traced_task(cfg, task)
        finally:
            tracer.task = None

    harness.run_task = run_task


def layer_metrics(spans: list[list], run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose ``harness.run`` took
    ``run_s`` seconds; ``trace.self_sum.s`` is the sum of every span's self
    time, which cannot exceed ``run_s``."""
    self_time = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    out: dict[str, float] = {f"{p}.calls": 0 for p in CALL_COUNTS}
    out.update({f"{p}.s": 0.0 for p in LAYERS})
    out.update(dict.fromkeys(WORK_COUNTS, 0))
    owner = {span: prefix for prefix, names in LAYERS.items() for span in names}
    outer = 0.0
    for (name, start, end, _, _, work), own in zip(spans, self_time):
        out[f"{owner[name]}.s"] += own
        if name in CALL_COUNTS:
            out[f"{name}.calls"] += 1
        for key, count in (work or {}).items():
            out[key] += count
        if name in ("harness.task", "harness.reduce"):
            outer += end - start
    out["harness.overhead.s"] = run_s - outer
    out["trace.self_sum.s"] = sum(self_time)
    return out


def unit(key: str) -> str:
    return "s" if key.endswith(".s") else "B" if key.endswith("bytes") else "count"
