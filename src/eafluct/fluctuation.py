"""Ensemble-level fluctuation analysis of the interface free energy.

Everything here is Monte Carlo over the disorder with quantified error:
conditional expectations are nested-MC estimates with explicit outer/inner
sample counts and common random numbers along conditioning paths, every
point estimate carries a bootstrap standard error, and deterministic
inequalities are asserted with a fixed numerical slack.  All streams derive
from (master seed, realization index, purpose tag), so reports reproduce
bit-identically on any worker layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .disorder import (
    CouplingConfig,
    CouplingDistribution,
    SeedSpec,
    edge_positions,
    sample_couplings,
    translate_couplings,
)
from .errors import (
    BoundViolationError,
    ConfigError,
    PartitionError,
    UnsupportedOperationError,
)
from .exactsolve import (
    ENUM_CAP,
    BoundaryCondition,
    GibbsSpec,
    Solver,
    edge_correlation,
    edge_correlations,
    free_bc,
    log_partition,
    log_partition_pairs,
    periodic_bc,
    reweight,
    reweight_expectation,
    stack_rows,
)
from .interface import (
    FreeEnergyResult,
    StatePair,
    free_energy_terms,
    interface_free_energy,
    make_state_pair,
    master_edge_set,
    sample_master,
)
from .lattice import (
    BlockPartition,
    Edge,
    EdgeSet,
    Region,
    boundary_edges,
    centered_window,
    interior_edges,
    translate_edge,
)

BOOTSTRAP_DEFAULT = 1000
PROBE_EPSILONS = (0.005, 0.01, 0.02, 0.05)
PROBE_NOISE_TOL = 1e-10
OBSERVABLE_SCALE = 0.5  # field scale of the bound check's window observables
SLACK_TOL = 1e-9  # how far below 0 rounding may put a bound check's slack
COVARIANCE_BLOCK = (2, 2)  # extents of the covariance check's modified block


# ---------------------------------------------------------------------------
# bootstrap helpers


def _resampled(
    n: int,
    statistic: Callable[[np.ndarray], np.ndarray],
    n_resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``statistic(draws)`` for the (n_resamples, n) matrix ``draws`` of
    bootstrap index arrays, one per row, drawn at once: the same draws, in
    the same order, as one ``rng.integers(0, n, size=n)`` call per
    resample.  ``statistic`` returns one value per row."""
    draws = rng.integers(0, n, size=(n_resamples, n))
    return np.asarray(statistic(draws), dtype=np.float64)


def _var_rows(v: np.ndarray) -> np.ndarray:
    """Sample variance of each resample of an (R, n) stack."""
    return v.var(axis=1, ddof=1)


def _mean_rows(v: np.ndarray) -> np.ndarray:
    """Mean of each resample of an (R, n) stack."""
    return v.mean(axis=1)


def bootstrap_stderr(
    values: np.ndarray,
    statistic: Callable[[np.ndarray], np.ndarray],
    n_resamples: int,
    rng: np.random.Generator,
) -> float:
    """Bootstrap standard error of ``statistic``, which maps the
    (n_resamples, n, ...) stack of resamples of ``values`` to one value per
    resample (along axis 1)."""
    values = np.asarray(values)
    stats = _resampled(len(values), lambda draws: statistic(values[draws]), n_resamples, rng)
    return float(stats.std(ddof=1))


def bootstrap_ci(
    values: np.ndarray,
    statistic: Callable[[np.ndarray], np.ndarray],
    n_resamples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """95% percentile bootstrap interval of ``statistic``, batched as in
    :func:`bootstrap_stderr`."""
    values = np.asarray(values)
    stats = _resampled(len(values), lambda draws: statistic(values[draws]), n_resamples, rng)
    lo = (1.0 - 0.95) / 2.0
    return _quantiles(stats, (lo, 1.0 - lo))


def _quantiles(values: Sequence[float], qs: Sequence[float]) -> tuple[float, ...]:
    """``np.quantile(values, q)`` for each q in ``qs``, bit for bit, from one
    sorted copy: numpy's default 'linear' rule, the virtual index (n-1)q
    between two order statistics and numpy's two-sided ``_lerp``.  It skips
    ``np.quantile``'s ``np.unique``, whose first call imports ``numpy.ma``.
    (Only the sign of a zero result can differ, where -0.0 and 0.0 tie and
    the sort orders them unlike numpy's partition.)"""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = len(v)
    if math.isnan(v[-1]):  # NaN sorts last, and numpy then returns it
        return (math.nan,) * len(qs)
    out = []
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} is not in [0, 1]")
        x = (n - 1) * q
        if x >= n - 1:  # numpy takes the last value from index -1
            i = j = n - 1
            t = x + 1.0
        else:
            i = math.floor(x)
            j, t = i + 1, x - i
        a, b = float(v[i]), float(v[j])
        d = b - a
        out.append(b - d * (1.0 - t) if t >= 0.5 else a + d * t)
    return tuple(out)


# ---------------------------------------------------------------------------
# ensemble specification


@dataclass(frozen=True)
class EnsembleSpec:
    """A disorder ensemble with a coupling-independent state-pair rule.

    ``mode="pair"`` draws a master realization per index and evaluates the
    windowed free-energy difference between the two boundary conditions.
    ``mode="domain-wall"`` evaluates the periodic/antiperiodic pair on the
    box itself (window = box); it exists because that is the one geometry
    with exact finite-volume translation symmetry.  ``solver`` picks the
    engine of every evaluation (see :class:`~eafluct.exactsolve.Solver`).
    """

    dist: CouplingDistribution
    box_extents: tuple[int, ...]
    window_extents: tuple[int, ...]
    beta: float
    bc: BoundaryCondition
    bc_prime: BoundaryCondition
    n_realizations: int
    master_seed: int
    mode: str = "pair"
    solver: Solver = Solver()

    def __post_init__(self):
        object.__setattr__(self, "box_extents", tuple(int(e) for e in self.box_extents))
        object.__setattr__(self, "window_extents", tuple(int(e) for e in self.window_extents))
        if self.mode not in ("pair", "domain-wall"):
            raise ValueError(f"unknown ensemble mode {self.mode!r}")
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        if self.mode == "domain-wall":
            if self.window_extents != self.box_extents:
                raise ValueError("domain-wall mode requires window == box")
            if (self.bc.kind, self.bc_prime.kind) != ("periodic", "antiperiodic"):
                raise ValueError("domain-wall mode is the periodic/antiperiodic pair")
            if len(self.bc_prime.seam_axes) != 1:
                raise ValueError("domain-wall mode needs exactly one seam axis")

    @property
    def seam_axis(self) -> int:
        """The domain wall's seam axis: the one seam axis of ``bc_prime``."""
        if self.mode != "domain-wall":
            raise UnsupportedOperationError("a seam axis exists only in domain-wall mode")
        return self.bc_prime.seam_axes[0]

    @property
    def window_region(self) -> Region:
        if self.mode == "domain-wall":
            return self.bc.region(self.box_extents)
        return centered_window(Region(self.box_extents), self.window_extents)

    @property
    def window_edge_set(self) -> EdgeSet:
        return interior_edges(self.window_region)

    @property
    def boundary_edge_count(self) -> int:
        if self.mode == "domain-wall":
            return 0
        box = Region(self.box_extents)
        return len(boundary_edges(self.window_region, box))

    def master(self, i: int) -> CouplingConfig:
        return sample_master(self.dist, self.box_extents, SeedSpec(self.master_seed, i, "couplings"))

    def inner_master(self, i: int, t: int, purpose: str) -> CouplingConfig:
        seed = SeedSpec(self.master_seed, i, f"{purpose}:{t}")
        return sample_master(self.dist, self.box_extents, seed)

    def pair_from(self, config: CouplingConfig) -> StatePair:
        if self.mode != "pair":
            raise UnsupportedOperationError("state pairs exist only in pair mode")
        return make_state_pair(
            self.box_extents, self.window_extents, self.beta, self.bc, self.bc_prime, config
        )

    def f_result(self, config: CouplingConfig) -> FreeEnergyResult:
        return interface_free_energy(self.pair_from(config), self.solver)

    def f_from(self, config: CouplingConfig) -> float:
        """F of ``config``: the one-row :meth:`f_stack`."""
        return float(self.f_stack(config, config.values[None])[0])

    def f_value(self, i: int) -> float:
        return self.f_from(self.master(i))

    def f_stack(
        self, template: CouplingConfig, values: np.ndarray, pair: StatePair | None = None
    ) -> np.ndarray:
        """F of ``template`` with its couplings replaced by each row of the
        (B, n_edges) stack ``values`` on its edge set, each bit-identical to
        a one-row stack of that row.  Each state's columns are gathered once,
        and every log Z comes from one :func:`free_energy_terms` (pair mode)
        or :func:`log_partition_pairs` (domain-wall mode) call.

        In pair mode only the structure of the state pair is read, so a
        caller with many templates on one edge set passes one ``pair`` built
        from any of them; by default it is built from ``template``."""
        pair = self.pair_from(template) if pair is None and self.mode == "pair" else pair
        states = self._states(template, pair)
        stacks = [values[:, edge_positions(template.edge_set, s.couplings.edge_set)] for s in states]
        if self.mode == "domain-wall":
            t = log_partition_pairs(*states, *stacks, self.solver)
            return t[:, 0] - t[:, 1]
        t = free_energy_terms(pair, *stacks, self.solver)
        return (t[:, 1] - t[:, 0]) - (t[:, 3] - t[:, 2])

    def _states(
        self, template: CouplingConfig, pair: StatePair | None
    ) -> tuple[GibbsSpec, GibbsSpec]:
        """The two states whose log Z :meth:`f_stack` takes: the pair's, or
        in domain-wall mode the box under each bc."""
        if self.mode == "domain-wall":
            return tuple(GibbsSpec(self.window_region, template, self.beta, bc)
                         for bc in (self.bc, self.bc_prime))
        return pair.gamma, pair.gamma_prime


# ---------------------------------------------------------------------------
# variance reports


@dataclass(frozen=True)
class VarianceReport:
    """A variance estimate with bootstrap error bars and a breakdown."""

    variance: float
    stderr: float
    mean: float
    mean_stderr: float
    n: int
    bootstrap_resamples: int
    bootstrap_seed: int
    components: tuple[tuple[str, float], ...] = ()
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance estimates cannot be negative")
        if any(v < 0 for _, v in self.components):
            raise ValueError("variance breakdown components cannot be negative")


def variance_report_from_values(
    values: Sequence[float],
    master_seed: int,
    n_boot: int,
    components: tuple[tuple[str, float], ...] = (),
) -> VarianceReport:
    arr = np.asarray(values, dtype=np.float64)
    if len(arr) < 2:
        raise ValueError("variance needs at least two realizations")
    rng = SeedSpec(master_seed, 0, "bootstrap").rng()
    var = float(arr.var(ddof=1))
    stderr = bootstrap_stderr(arr, _var_rows, n_boot, rng)
    mean = float(arr.mean())
    mean_stderr = bootstrap_stderr(arr, _mean_rows, n_boot, rng)
    return VarianceReport(
        variance=var,
        stderr=stderr,
        mean=mean,
        mean_stderr=mean_stderr,
        n=len(arr),
        bootstrap_resamples=n_boot,
        bootstrap_seed=master_seed,
        components=components,
        flags=("degenerate",) if var == 0.0 else (),
    )


# ---------------------------------------------------------------------------
# martingale decompositions


def _sem(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(len(values)))


@dataclass(frozen=True)
class BlockConditioning:
    partition: BlockPartition
    n_outer: int

    def __post_init__(self):
        if self.n_outer < 2:
            raise ValueError("need n_outer >= 2")


def _conditional_path(
    spec: EnsembleSpec,
    i: int,
    held_master: CouplingConfig,
    prefixes: Sequence[tuple[Edge, ...]],
    n_outer: int,
    purpose: str,
) -> np.ndarray:
    """F values on the conditioning path: shape (n_outer, len(prefixes)).

    The same inner resample stream is reused for every prefix (common
    random numbers), which is what makes successive differences quiet.
    Inner draw t gives P = len(prefixes) coupling rows, one per prefix,
    holding ``held_master``'s values on the prefix's edges.  The draws go
    in groups of G, as one draw-major (G * P, n_edges) stack through one
    :meth:`EnsembleSpec.f_stack` call, so each draw's prefixes share its
    window-zeroed terms; G is the most draws whose rows and zeroed rows fit
    one :func:`~eafluct.exactsolve.stack_rows` chunk, and at least one.
    Every row is bit-identical to its one-draw stack.  Every draw lies on
    the master edge set, so in pair mode one state pair serves the whole
    path.
    """
    n_pre = len(prefixes)
    edges = master_edge_set(spec.box_extents)
    positions = [edge_positions(edges, e) for e in prefixes]
    held = [held_master.values[edge_positions(held_master.edge_set, e)] for e in prefixes]
    pair = spec.pair_from(held_master) if spec.mode == "pair" else None
    states = spec._states(held_master, pair)
    group = max(1, stack_rows(*states, spec.solver) // (n_pre + 1))
    out = np.empty((n_outer, n_pre))
    for start in range(0, n_outer, group):
        stop = min(start + group, n_outer)
        # each draw goes straight into its P rows; f_stack reads only its
        # template's edge set, so the last draw serves as the template
        rows = np.empty((stop - start, n_pre, len(edges)))
        for k in range(stop - start):
            draw = spec.inner_master(i, start + k, purpose)
            rows[k] = draw.values
        rows = rows.reshape(-1, len(edges))
        for k, (pos, value) in enumerate(zip(positions, held)):
            rows[k::n_pre, pos] = value
        out[start:stop] = spec.f_stack(draw, rows, pair).reshape(-1, n_pre)
    return out


def block_martingale_realization(
    spec: EnsembleSpec, conditioning: BlockConditioning, i: int
) -> dict:
    """Per-realization payload of the block decomposition (parallelizable unit)."""
    part = conditioning.partition
    if part.parent.extents != spec.window_region.extents or part.parent.origin != spec.window_region.origin:
        raise PartitionError("block partition must tile the ensemble's window")
    master_i = spec.master(i)
    block_edges = [tuple(interior_edges(b)) for b in part]
    n = len(block_edges)
    # each later block alone rides on the path's draws; the first is prefix 1
    prefixes = [*accumulate(block_edges, initial=()), *block_edges[1:]]
    path = _conditional_path(spec, i, master_i, prefixes, conditioning.n_outer, "mart")
    return {
        "index": i,
        "f": spec.f_from(master_i),
        "ys": path[:, : n + 1].mean(axis=0).tolist(),
        "delta_sem": [_sem(path[:, k + 1] - path[:, k]) for k in range(n)],
        "block_means": [float(path[:, k].mean()) for k in (1, *range(n + 1, 2 * n))],
    }


def block_martingale_report(
    spec: EnsembleSpec,
    conditioning: BlockConditioning,
    rows: Sequence[dict],
    n_boot: int,
) -> tuple[dict, VarianceReport, dict]:
    """Aggregate per-realization payloads into the decomposition report.

    The trace record holds the conditional-mean paths Y_0..Y_K of every
    realization (``ys``, one row each) and the stderr of each step.  The
    steps are the differences of the stored Y values, so the telescoping
    identity sum(deltas) = Y_K - Y_0 holds by construction, up to binary64
    summation roundoff, which ``details["telescoping_residual"]`` reports.
    """
    rows = sorted(rows, key=lambda r: r["index"])
    n_blocks = len(conditioning.partition)
    f_vals = np.array([r["f"] for r in rows])
    ys = np.array([r["ys"] for r in rows])
    block_means = np.array([r["block_means"] for r in rows])
    deltas = np.diff(ys, axis=1)

    var_f = float(f_vals.var(ddof=1))
    var_deltas = deltas.var(axis=0, ddof=1)
    sum_var_deltas = float(var_deltas.sum())
    block_vars = block_means.var(axis=0, ddof=1)

    rng = SeedSpec(spec.master_seed, 0, "bootstrap").rng()
    gap_stats = _resampled(
        len(rows),
        lambda draws: _var_rows(f_vals[draws]) - deltas[draws].var(axis=1, ddof=1).sum(axis=1),
        n_boot,
        rng,
    )
    gap = var_f - sum_var_deltas
    gap_stderr = float(gap_stats.std(ddof=1))
    block_var_stderr = [
        bootstrap_stderr(block_means[:, k], _var_rows, n_boot, rng)
        for k in range(n_blocks)
    ]

    labels = [f"block{k}@{conditioning.partition.blocks[k].origin}" for k in range(n_blocks)]
    trace = {
        "kind": "block",
        "labels": labels,
        "ys": ys.tolist(),
        "delta_stderr": [r["delta_sem"] for r in rows],
        "meta": {"n_outer": conditioning.n_outer},
    }
    report = variance_report_from_values(
        f_vals,
        spec.master_seed,
        n_boot,
        components=tuple(
            (labels[k], float(max(block_vars[k], 0.0))) for k in range(n_blocks)
        ),
    )
    telescoping = np.abs(deltas.sum(axis=1) - (ys[:, -1] - ys[:, 0]))
    details = {
        "var_f": var_f,
        "var_deltas": var_deltas.tolist(),
        "sum_var_deltas": sum_var_deltas,
        "gap": gap,
        "gap_stderr": gap_stderr,
        "inequality_ok": bool(gap >= -3.0 * gap_stderr),
        "block_variances": block_vars.tolist(),
        "block_variance_stderr": block_var_stderr,
        "telescoping_residual": float(telescoping.max()),
    }
    return trace, report, details


def edge_martingale_realization(
    spec: EnsembleSpec, i: int, n_outer: int
) -> dict:
    """Lexicographic edge-martingale path for one realization."""
    master_i = spec.master(i)
    edges = tuple(spec.window_edge_set)
    prefixes = list(accumulate(((e,) for e in edges), initial=()))
    path = _conditional_path(spec, i, master_i, prefixes, n_outer, "edgemart")
    ys = path.mean(axis=0)
    delta_sem = [_sem(path[:, k + 1] - path[:, k]) for k in range(len(edges))]
    couplings = master_i.values[edge_positions(master_i.edge_set, spec.window_edge_set)]
    bounds = 2.0 * spec.beta * (np.abs(couplings) + spec.dist.abs_first_moment)
    return {
        "index": i,
        "ys": ys.tolist(),
        "delta_sem": delta_sem,
        "bounds": bounds.tolist(),
        "couplings": couplings.tolist(),
    }


# ---------------------------------------------------------------------------
# deterministic bounds


@dataclass(frozen=True)
class BoundSlackReport:
    f_value: float
    bound: float
    slack: float
    boundary_abs_sum: float
    ratio_slacks: tuple[float, ...]
    min_ratio_slack: float


def bound_check(
    pair: StatePair,
    n_observables: int = 2,
    seed: int = 0,
    solver: Solver = Solver(),
) -> BoundSlackReport:
    """Assert |F| <= 4 beta sum_{boundary} |J_e| and the two-sided
    exp(+-2 beta sum |J_e|) sandwich for Gibbs averages of positive window
    observables against the free-boundary window measure.

    The observables are exp(sum_x h_x sigma_x) for an all-zero field set
    and ``n_observables`` Gaussian ones of scale ``OBSERVABLE_SCALE``.  Each
    of the three measures (Gamma, Gamma' and the free-bc window measure,
    built once from the pair's shared window couplings) has its log Z taken
    once per field set, and every Gibbs average is the ratio against the
    first set: all zeros, whose log Z is bit for bit the measure's own.
    Gamma's and Gamma''s own log Z are the terms of the pair's F.  So an
    instance costs F's stacked sweeps plus ``n_observables`` sweeps per
    transfer-resolved state and 1 + ``n_observables`` for the window
    measure.  ``ratio_slacks`` lists Gamma's field sets, then Gamma''s.

    Violations raise :class:`BoundViolationError` with the full instance dump.
    """
    result = interface_free_energy(pair, solver)
    s_abs = pair.boundary_abs_sum()
    bound = 4.0 * pair.beta * s_abs
    slack = bound - abs(result.value)

    window_sites = pair.window.sites
    rng = SeedSpec(seed, 0, "bound-observables").rng()
    field_sets = [dict.fromkeys(window_sites, 0.0)]
    for _ in range(n_observables):
        g = rng.normal(0.0, OBSERVABLE_SCALE, size=len(window_sites))
        field_sets.append({s: float(v) for s, v in zip(window_sites, g)})
    window_spec = GibbsSpec(pair.window, pair.gamma.couplings, pair.beta, free_bc())

    def log_zs(measure, sets):
        return [log_partition(measure, solver, extra_fields=fields) for fields in sets]

    log_z = np.array([
        [result.log_z_gamma, *log_zs(pair.gamma, field_sets[1:])],
        [result.log_z_gamma_prime, *log_zs(pair.gamma_prime, field_sets[1:])],
        log_zs(window_spec, field_sets),
    ])
    log_avg = log_z - log_z[:, :1]  # log <observable> under each measure
    ratio_slacks = (2.0 * pair.beta * s_abs - np.abs(log_avg[:2] - log_avg[2])).ravel().tolist()

    report = BoundSlackReport(
        f_value=result.value,
        bound=bound,
        slack=slack,
        boundary_abs_sum=s_abs,
        ratio_slacks=tuple(ratio_slacks),
        min_ratio_slack=min(ratio_slacks),
    )
    worst = min(slack, report.min_ratio_slack)
    if worst < -SLACK_TOL:
        dump = {
            "report": asdict(report),
            "result": asdict(result),
            "beta": pair.beta,
            "bc_pair": [pair.gamma.bc.label, pair.gamma_prime.bc.label],
            "couplings": {str(e): pair.gamma.couplings.value(e) for e in pair.boundary},
        }
        raise BoundViolationError(json.dumps(dump, sort_keys=True))
    return report


# ---------------------------------------------------------------------------
# moment-generating-function check


def mgf_conditional_mean(spec: EnsembleSpec, i: int, n_outer: int) -> float:
    """M(F | J_window) for realization i: window couplings held, the rest
    resampled ``n_outer`` times."""
    if spec.mode != "pair":
        raise UnsupportedOperationError("the MGF check needs a windowed pair ensemble")
    master_i = spec.master(i)
    path = _conditional_path(spec, i, master_i, [tuple(spec.window_edge_set)], n_outer, "mgf")
    return float(path[:, 0].mean())


def mgf_report_from_values(
    spec: EnsembleSpec,
    g_values: Sequence[float],
    t_values: Sequence[float],
    n_outer: int,
    n_boot: int,
) -> dict:
    """Empirical E[exp(t M(F|J_window)/|boundary|)] of the conditional means
    ``g_values`` against the deterministic exp(4 beta t nu(|J|)) envelope,
    which bounds it for t >= 0.

    The envelope carries the nu(|J|) factor of the conditional-mean bound;
    the normalized exp(4 beta t) variant is reported alongside, never
    silently substituted.
    """
    g_vals = np.asarray(g_values, dtype=np.float64)
    n_boundary = spec.boundary_edge_count
    nu_abs = spec.dist.abs_first_moment
    rng = SeedSpec(spec.master_seed, 0, "mgf-bootstrap").rng()
    rows = []
    for t in t_values:
        x = np.exp(t * g_vals / n_boundary)
        emp = float(x.mean())
        se = bootstrap_stderr(x, _mean_rows, n_boot, rng)
        bound = math.exp(4.0 * spec.beta * t * nu_abs)
        bound_normalized = math.exp(4.0 * spec.beta * t)
        rows.append(
            {
                "t": float(t),
                "empirical": emp,
                "stderr": se,
                "bound": bound,
                "bound_normalized_nu": bound_normalized,
                "passed": bool(emp <= bound * (1.0 + 3.0 * se / emp)),
            }
        )
    return {
        "rows": rows,
        "n": len(g_vals),
        "n_outer": n_outer,
        "boundary_edges": n_boundary,
        "nu_abs_j": nu_abs,
        "note": "envelope carries the nu(|J|) factor; normalized variant reported alongside",
    }


# ---------------------------------------------------------------------------
# incongruence probe


def probe_realization(spec: EnsembleSpec, i: int) -> list[float]:
    """Correlation differences over the window edges for realization i."""
    pair = spec.pair_from(spec.master(i))
    edges = spec.window_edge_set
    cg = edge_correlations(pair.gamma, edges, spec.solver)
    cgp = edge_correlations(pair.gamma_prime, edges, spec.solver)
    return (cg - cgp).tolist()


def probe_report_from_rows(
    spec: EnsembleSpec,
    rows: Sequence[Sequence[float]],
    epsilons: Sequence[float],
    noise_tol: float,
    n_boot: int,
) -> dict:
    """Empirical density of window edges whose correlation differs between
    the two states by more than each epsilon, per-edge mean differences, and
    the fraction of realizations with a difference beyond ``noise_tol``."""
    edges = tuple(spec.window_edge_set)
    dmat = np.asarray(rows, dtype=np.float64)
    n = dmat.shape[0]
    rng = SeedSpec(spec.master_seed, 0, "probe-bootstrap").rng()
    density_rows = []
    for eps in epsilons:
        dens = (np.abs(dmat) > eps).mean(axis=1)
        mean = float(dens.mean())
        lo, hi = bootstrap_ci(dens, _mean_rows, n_boot, rng)
        density_rows.append(
            {"epsilon": float(eps), "density": mean, "ci95": [lo, hi]}
        )
    per_edge_mean = dmat.mean(axis=0)
    per_edge_sem = dmat.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(len(edges))
    nonzero_fraction = (np.abs(dmat) > noise_tol).mean(axis=0)
    return {
        "n": n,
        "edges": [f"{e.x}-{e.y}" for e in edges],
        "densities": density_rows,
        "per_edge_mean": per_edge_mean.tolist(),
        "per_edge_stderr": per_edge_sem.tolist(),
        "per_edge_nonzero_fraction": nonzero_fraction.tolist(),
        "any_nonzero_fraction": float((np.abs(dmat) > noise_tol).any(axis=1).mean()),
        "noise_tol": noise_tol,
        "note": "deterministic finite-volume proxy states; densities are finite-size stand-ins",
    }


# ---------------------------------------------------------------------------
# variance scaling (report-only)


def scaling_margin(
    box_extents: Sequence[int], window_extents: Sequence[int], window_sizes: Sequence[int]
) -> int:
    """The margin ``box - window`` that every window size of a scaling study
    keeps, half of it on each side.  Raises :class:`ConfigError` for a window
    size below 1, or a margin that is not the same even number on every axis.
    """
    if any(s < 1 for s in window_sizes):
        raise ConfigError(f"scaling window sizes must be >= 1, got {list(window_sizes)}")
    margins = {b - w for b, w in zip(box_extents, window_extents)}
    if len(margins) != 1 or min(margins) % 2:
        raise ConfigError(
            "scaling needs box - window to be the same even number on every axis, "
            f"got box {list(box_extents)} and window {list(window_extents)}"
        )
    return margins.pop()


def check_scaling(
    box_extents: Sequence[int], window_extents: Sequence[int], window_sizes: Sequence[int]
) -> None:
    """Reject a scaling study that cannot be fitted as asked: fewer than three
    distinct window sizes, or what :func:`scaling_margin` rejects."""
    if len(set(window_sizes)) < 3:
        raise ConfigError("scaling needs at least three distinct window sizes")
    scaling_margin(box_extents, window_extents, window_sizes)


def scaling_sub_spec(spec_template: EnsembleSpec, window_size: int) -> EnsembleSpec:
    """The template rescaled to one window size, keeping the margin and the
    bcs: a fixed bc is one sign, which clamps each box's own ghost ring."""
    box, window = spec_template.box_extents, spec_template.window_extents
    margin = scaling_margin(box, window, (window_size,))
    return replace(
        spec_template,
        window_extents=(window_size,) * len(box),
        box_extents=(window_size + margin,) * len(box),
    )


def scaling_report_from_values(
    spec_template: EnsembleSpec,
    window_sizes: Sequence[int],
    value_sets: Sequence[np.ndarray],
    n_boot: int,
) -> dict:
    """Least-squares exponent fits of log Var(F) against log window sites
    and log boundary-edge count, with bootstrap confidence intervals.

    A resample in which some size's variance is not positive has no log
    and is dropped; ``bootstrap_fits`` counts the fits that remain, and
    ``ci95`` is None when fewer than two remain.

    Report-only by design: there is no pass/fail target for the exponent,
    because the incongruence hypothesis behind the variance growth bound is
    not certifiable at desk scale; the emitted report says so.
    """
    per_size = []
    value_sets = [np.asarray(v, dtype=np.float64) for v in value_sets]
    for size, values in zip(window_sizes, value_sets):
        sub = scaling_sub_spec(spec_template, size)
        report = variance_report_from_values(values, sub.master_seed, n_boot)
        per_size.append(
            {
                "window_size": size,
                "window_sites": sub.window_region.n_sites,
                "boundary_edges": sub.boundary_edge_count,
                "variance": report.variance,
                "variance_stderr": report.stderr,
                "n": report.n,
            }
        )
    variances = np.array([row["variance"] for row in per_size])
    degenerate = bool(np.any(variances <= 0.0))
    out = {
        "mode": "report-only",
        "note": (
            "no target exponent: the incongruence hypothesis behind the "
            "variance growth bound is not certifiable at desk scale"
        ),
        "rows": per_size,
        "degenerate": degenerate,
        "fits": {},
    }
    if degenerate:
        out["flags"] = ["degenerate"]
        return out
    log_var = np.log(variances)
    rng = SeedSpec(spec_template.master_seed, 0, "scaling-bootstrap").rng()
    for name, xs in (
        ("log_window_sites", np.log([row["window_sites"] for row in per_size])),
        ("log_boundary_edges", np.log([row["boundary_edges"] for row in per_size])),
    ):
        slope, intercept = np.polyfit(xs, log_var, 1)
        slopes = []
        for _ in range(n_boot):
            resampled = []
            ok = True
            for values in value_sets:
                idx = rng.integers(0, len(values), size=len(values))
                v = values[idx].var(ddof=1)
                if v <= 0:
                    ok = False
                    break
                resampled.append(v)
            if ok:
                slopes.append(np.polyfit(xs, np.log(resampled), 1)[0])
        ci = list(_quantiles(slopes, (0.025, 0.975))) if len(slopes) >= 2 else None
        out["fits"][name] = {
            "exponent": float(slope),
            "intercept": float(intercept),
            "ci95": ci,
            "bootstrap_fits": len(slopes),
        }
    return out


# ---------------------------------------------------------------------------
# covariance property tests (torus proxies)


def covariance_sample(
    box_extents: tuple[int, ...],
    beta: float,
    dist: CouplingDistribution,
    master_seed: int,
    i: int,
    enum_cap: int = ENUM_CAP,
) -> dict:
    """One torus covariance check: a random translation/edge pair and a random
    local modification, both sides by enumeration."""
    region = periodic_bc().region(box_extents)
    edges = interior_edges(region)
    rng = SeedSpec(master_seed, i, "covariance").rng()
    couplings = sample_couplings(dist, edges, SeedSpec(master_seed, i, "cov-couplings"))
    spec = GibbsSpec(region, couplings, beta, periodic_bc())

    vector = tuple(int(rng.integers(0, e)) for e in box_extents)
    edge = edges.edges[int(rng.integers(0, len(edges)))]
    translated = translate_couplings(couplings, vector)
    spec_t = GibbsSpec(region, translated, beta, periodic_bc())
    te = translate_edge(edge, vector, region)
    lhs = edge_correlation(spec_t, te, method="enum", enum_cap=enum_cap)
    rhs = edge_correlation(spec, edge, method="enum", enum_cap=enum_cap)

    origin = tuple(
        int(rng.integers(0, e - b + 1)) for e, b in zip(box_extents, COVARIANCE_BLOCK)
    )
    block = Region(COVARIANCE_BLOCK, None, origin)
    block_edge_set = interior_edges(block)
    j_b = {e: float(v) for e, v in zip(block_edge_set, rng.normal(size=len(block_edge_set)))}
    modified = reweight(spec, block, j_b)
    probe_edge = edges.edges[int(rng.integers(0, len(edges)))]
    direct = edge_correlation(modified, probe_edge, method="enum", enum_cap=enum_cap)
    ix, iy = region.sites.index(probe_edge.x), region.sites.index(probe_edge.y)

    def probe(spins: np.ndarray, sites: tuple) -> np.ndarray:
        return spins[:, ix] * spins[:, iy]

    formula = reweight_expectation(spec, block, j_b, probe, cap=enum_cap)
    return {
        "translation_deviation": abs(lhs - rhs),
        "coupling_deviation": abs(direct - formula),
    }


def covariance_report_from_rows(rows: Sequence[dict]) -> dict:
    """The number of :func:`covariance_sample` rows and the largest
    deviation of each check among them."""
    return {
        "n_samples": len(rows),
        "max_translation_deviation": max(r["translation_deviation"] for r in rows),
        "max_coupling_deviation": max(r["coupling_deviation"] for r in rows),
    }
