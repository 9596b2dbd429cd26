import math
import tracemalloc
import warnings
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from conftest import (
    bond_product,
    conditional_mean_direct,
    conditional_mean_reweight,
    gaussian_sum_identity,
    run_in_process,
    total_variance_identity,
)

from eafluct import exactsolve, fluctuation, interface
from eafluct.disorder import Gaussian, SeedSpec, overlay, set_block
from eafluct.errors import BoundViolationError, ConfigError, EafluctError
from eafluct.exactsolve import (
    Solver,
    antiperiodic_bc,
    free_bc,
    periodic_bc,
    uniform_fixed_bc,
)
from eafluct.fluctuation import (
    BlockConditioning,
    EnsembleSpec,
    VarianceReport,
    _conditional_path,
    _sem,
    block_martingale_realization,
    bootstrap_ci,
    bootstrap_stderr,
    bound_check,
    check_scaling,
    covariance_sample,
    domain_wall_states,
    domain_wall_value,
    scaling_sub_spec,
    variance_report_from_values,
)
from eafluct.interface import interface_free_energy, make_state_pair, sample_master
from eafluct.lattice import Region, block_partition, interior_edges

GOLDEN_SEED = 20240801
GOLDEN_VARIANCE = 0.16652631763314996
GOLDEN_PROBE_DENSITY = 0.8570833333333333


def spec_3x3_in_5x5(beta=1.0, seed=GOLDEN_SEED, bc=None, bc_prime=None):
    return EnsembleSpec(
        dist=Gaussian(),
        box_extents=(5, 5),
        window_extents=(3, 3),
        beta=beta,
        bc=bc or free_bc(),
        bc_prime=bc_prime or periodic_bc(),
        master_seed=seed,
    )


def config(kind, seed=GOLDEN_SEED, **sections):
    """A ``kind`` config of ``sections``; the config's defaults are a 3x3
    window in a 5x5 box at beta 1, free against periodic."""
    return {"schema_version": 1, "kind": kind, "seed": seed, **sections}


def spec_4x4_in_6x6(beta=1.0, seed=7):
    return EnsembleSpec(
        dist=Gaussian(),
        box_extents=(6, 6),
        window_extents=(4, 4),
        beta=beta,
        bc=free_bc(),
        bc_prime=periodic_bc(),
        master_seed=seed,
    )


# --- ensemble variance -------------------------------------------------------


def ensemble_report(**sections):
    return run_in_process(config("ensemble", **sections))[1]["variance_report"]


def test_beta_zero_variance_is_exactly_zero():
    rep = ensemble_report(physics={"beta": 0.0}, sampling={"n": 8, "bootstrap": 50})
    assert rep["variance"] == 0.0
    assert "degenerate" in rep["flags"]


def test_identical_rule_variance_is_exactly_zero():
    rep = ensemble_report(physics={"bc": "periodic"}, sampling={"n": 8, "bootstrap": 50})
    assert rep["variance"] == 0.0


def test_golden_fixed_seed_variance_of_the_ensemble_kind():
    # DERIVED: fixed-seed reference run recorded at build time
    rep = ensemble_report(sampling={"n": 200})
    assert rep["variance"] > 0.0
    assert rep["variance"] == pytest.approx(GOLDEN_VARIANCE, rel=1e-12)
    assert rep["stderr"] > 0.0
    assert rep["n"] == 200


def test_ensemble_report_reproduces_bit_for_bit():
    a = ensemble_report(sampling={"n": 24, "bootstrap": 100})
    b = ensemble_report(sampling={"n": 24, "bootstrap": 100})
    assert a == b


def test_variance_report_invariants():
    with pytest.raises(ValueError):
        VarianceReport(
            variance=-1.0, stderr=0.0, mean=0.0, mean_stderr=0.0, n=2,
            bootstrap_resamples=10, bootstrap_seed=0,
        )
    with pytest.raises(ValueError):
        VarianceReport(
            variance=1.0, stderr=0.0, mean=0.0, mean_stderr=0.0, n=2,
            bootstrap_resamples=10, bootstrap_seed=0, components=(("b", -0.5),),
        )


def test_variance_needs_two_realizations():
    with pytest.raises(ValueError):
        variance_report_from_values([0.5], GOLDEN_SEED, 50)
    with pytest.raises(ConfigError, match="ensemble needs n >= 2"):
        ensemble_report(sampling={"n": 1})


# --- conditional means ---------------------------------------------------------


def test_conditional_mean_beta_zero():
    spec = spec_3x3_in_5x5(beta=0.0)
    block = Region((2, 2), None, (1, 1))
    values = {e: 0.5 for e in interior_edges(block)}
    vals = conditional_mean_direct(spec, block, values, n_outer=4)
    assert vals.mean() == 0.0
    assert _sem(vals) == 0.0


def test_conditional_mean_two_routes_agree():
    # DERIVED: both routes Monte Carlo with common random numbers; the
    # reweighting route evaluates the exponential tilt by enumeration
    spec = EnsembleSpec(
        Gaussian(), (4, 4), (2, 2), 1.0, free_bc(), periodic_bc(), 99
    )
    block = Region((2, 2), None, (1, 1))
    rng = SeedSpec(55, 0, "jb").rng()
    values = {e: float(v) for e, v in zip(interior_edges(block), rng.normal(size=4))}
    direct = conditional_mean_direct(spec, block, values, n_outer=6)
    rew = conditional_mean_reweight(spec, block, values, n_outer=6)
    combined = math.hypot(_sem(direct), _sem(rew))
    assert abs(direct.mean() - rew.mean()) <= max(3.0 * combined, 1e-9)
    # with shared streams the two routes differ only by solver roundoff
    assert direct.mean() == pytest.approx(rew.mean(), abs=1e-9)


def test_conditional_mean_block_equals_window():
    # B = window: all interior couplings held, only the surroundings move
    spec = spec_3x3_in_5x5()
    window = spec.window_region
    rng = SeedSpec(56, 0, "jl").rng()
    values = {e: float(v) for e, v in zip(interior_edges(window), rng.normal(size=12))}
    vals = conditional_mean_direct(spec, window, values, n_outer=5)
    assert len(vals) == 5
    assert math.isfinite(vals.mean())
    assert _sem(vals) > 0.0


# A block that crosses the window edge: four of its seven edges lie in the
# 3x3 window of the 5x5 box, three outside.  A prefix that holds it zeroes
# other couplings than one that does not, so the two must not share zero terms.
CROSSING = Region((3, 2), None, (0, 1))


def per_prefix_reference(spec, i, held, prefixes, n_outer, purpose):
    """The nested-MC loop with one interface_free_energy call per prefix."""
    rows = []
    for t in range(n_outer):
        inner = spec.inner_master(i, t, purpose)
        cfgs = [overlay(inner, held, edges) if edges else inner for edges in prefixes]
        rows.append([interface_free_energy(spec.pair_from(c)).value for c in cfgs])
    return np.array(rows)


def test_conditional_path_equals_per_prefix_reference_across_the_window_edge():
    spec = spec_3x3_in_5x5()
    inside = tuple(interior_edges(Region((2, 2), None, (1, 1))))
    crossing = tuple(interior_edges(CROSSING))
    prefixes = [(), inside, crossing, inside + crossing, inside]
    held = spec.master(1)
    path = _conditional_path(spec, 1, held, prefixes, 3, "test")
    assert np.array_equal(path, per_prefix_reference(spec, 1, held, prefixes, 3, "test"))


def chunk_rows(spec):
    """The rows one sweep of ``spec``'s state pair may carry."""
    pair = spec.pair_from(spec.master(0))
    return exactsolve.stack_rows(pair.gamma, pair.gamma_prime, spec.solver)


def set_budget(monkeypatch, spec, rows):
    """Set the largest stack budget whose chunks hold ``rows`` rows of
    ``spec``'s state pair, one double short of holding one more.  One stack
    row then fits whole, so a wrapped state sweeps all its carried rows in
    one chunk, as the reference does (see ``exactsolve._chunk_rows``)."""
    lo, hi = 0, 1 << 24
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(exactsolve, "_STACK_DOUBLES", mid)
        lo, hi = (lo, mid) if chunk_rows(spec) > rows else (mid + 1, hi)
    monkeypatch.setattr(exactsolve, "_STACK_DOUBLES", lo - 1)


# (bc_prime, rows per chunk, n_outer): each draw here is 5 prefix rows and
# one zeroed row per state.  Chunks of 1 row sweep every row alone, and
# chunks of 4 rows split each draw (a group of one) across two sweeps; on
# the torus the wrapped state carries half its rows, and the clamped state
# adds its ghost fields to the column weights.  Chunks of 13 rows take
# groups of two draws, and 5 draws end on a group of one.
CHUNK_CASES = [
    (periodic_bc(), 1, 3),
    (periodic_bc(), 4, 3),
    (uniform_fixed_bc(+1), 1, 3),
    (uniform_fixed_bc(+1), 4, 3),
    (periodic_bc(), 13, 5),
]


@pytest.mark.parametrize("bc_prime, rows, n_outer", CHUNK_CASES)
def test_conditional_path_is_bit_identical_across_chunk_boundaries(
    monkeypatch, bc_prime, rows, n_outer
):
    spec = spec_3x3_in_5x5(bc_prime=bc_prime)
    inside = tuple(interior_edges(Region((2, 2), None, (1, 1))))
    crossing = tuple(interior_edges(CROSSING))
    prefixes = [(), inside, crossing, inside + crossing, inside]
    held = spec.master(1)
    ref = per_prefix_reference(spec, 1, held, prefixes, n_outer, "chunks")
    set_budget(monkeypatch, spec, rows)
    assert chunk_rows(spec) == rows
    assert np.array_equal(_conditional_path(spec, 1, held, prefixes, n_outer, "chunks"), ref)


@pytest.mark.parametrize("rows", [4, 13])
def test_edge_martingale_path_is_bit_identical_across_chunk_boundaries(monkeypatch, rows):
    # a 2x2 window: 4 edges, so 5 prefixes and a zeroed row per draw; 7 draws
    # are 7 groups of one split across two chunks, or 3 groups of two and one
    spec = EnsembleSpec(Gaussian(), (4, 4), (2, 2), 1.0, free_bc(), periodic_bc(), 7)
    prefixes = list(accumulate(((e,) for e in spec.window_edge_set), initial=()))
    held = spec.master(0)
    ref = per_prefix_reference(spec, 0, held, prefixes, 7, "edgemart")
    set_budget(monkeypatch, spec, rows)
    assert chunk_rows(spec) == rows
    assert np.array_equal(_conditional_path(spec, 0, held, prefixes, 7, "edgemart"), ref)


def martingale_peak_bytes():
    """The ``tracemalloc`` peak of one realization of the martingale-6x6
    benchmark's shape: 8 prefixes, 50 inner draws."""
    spec = spec_4x4_in_6x6()
    cond = BlockConditioning(block_partition(spec.window_region, 2), n_outer=50)
    block_martingale_realization(spec, replace(cond, n_outer=2), 0)  # fill the plan caches
    tracemalloc.start()
    try:
        block_martingale_realization(spec, cond, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_martingale_realization_holds_about_its_stack_budget():
    assert martingale_peak_bytes() <= 8 * exactsolve._STACK_DOUBLES


@pytest.mark.parametrize("budget", [1 << 17, 1 << 18], ids=["2^17", "2^18"])
def test_a_martingale_realization_holds_a_smaller_or_larger_stack_budget(monkeypatch, budget):
    monkeypatch.setattr(exactsolve, "_STACK_DOUBLES", budget)
    assert martingale_peak_bytes() <= 8 * budget


def test_the_module_budget_sweeps_four_martingale_draws_at_once():
    # 4 draws of 8 prefix rows and one zeroed row each
    assert chunk_rows(spec_4x4_in_6x6()) >= 36


# (bc, bc_prime, solver) of a 2x2 window in a 4x4 box, under stacks swept
# apart, clamped, closed both ways or enumerated
STACK_CASES = [
    (free_bc(), periodic_bc(), "auto"),
    (periodic_bc(), antiperiodic_bc(0), "auto"),
    (periodic_bc(), antiperiodic_bc(1), "auto"),
    (free_bc(), uniform_fixed_bc(+1), "auto"),
    (free_bc(), periodic_bc(), "enum"),
]


@pytest.mark.parametrize("bc, bc_prime, solver", STACK_CASES)
def test_conditional_path_equals_overlay_and_f_from_row_by_row(bc, bc_prime, solver):
    spec = EnsembleSpec(Gaussian(), (4, 4), (2, 2), 1.0, bc, bc_prime, 31,
                        solver=Solver(solver))
    edges = tuple(spec.window_edge_set)
    crossing = tuple(interior_edges(Region((2, 3), None, (1, 0))))
    prefixes = [(), edges[:2], crossing, edges, edges[:2] + crossing, edges[1:3]]
    held = spec.master(1)
    path = _conditional_path(spec, 1, held, prefixes, 3, "stack")
    for t, row in enumerate(path.tolist()):
        inner = spec.inner_master(1, t, "stack")
        ref = [spec.f_from(overlay(inner, held, e) if e else inner) for e in prefixes]
        assert [v.hex() for v in row] == [v.hex() for v in ref], (t, row, ref)


@pytest.mark.parametrize("bc, bc_prime, text", [
    (free_bc(), periodic_bc(), "the periodic/antiperiodic pair"),
    (periodic_bc(), antiperiodic_bc(0, 1), "exactly one seam axis"),
])
def test_a_domain_wall_is_the_periodic_antiperiodic_pair_with_one_seam(bc, bc_prime, text):
    spec = EnsembleSpec(Gaussian(), (4, 4), (2, 2), 1.0, bc, bc_prime, 31)
    with pytest.raises(ValueError, match=text):
        domain_wall_value(spec, 0)
    with pytest.raises(ValueError, match=text):
        domain_wall_states(spec, spec.master(0))


def test_direct_route_equals_per_draw_reference_across_the_window_edge():
    spec = spec_3x3_in_5x5()
    rng = SeedSpec(57, 0, "jb").rng()
    edges = interior_edges(CROSSING)
    values = {e: float(v) for e, v in zip(edges, rng.normal(size=len(edges)))}
    vals = conditional_mean_direct(spec, CROSSING, values, n_outer=4)
    draws = [set_block(spec.inner_master(0, t, "cond"), CROSSING, values) for t in range(4)]
    ref = [interface_free_energy(spec.pair_from(cfg)).value for cfg in draws]
    assert vals.tolist() == ref
    assert vals.mean() == np.array(ref).mean()


def test_lotv_equals_per_prefix_reference_across_the_window_edge():
    spec = spec_3x3_in_5x5(seed=112)
    rep = total_variance_identity(spec, CROSSING, n=4, n_outer=3, n_boot=20)
    edges = tuple(interior_edges(CROSSING))
    f = np.array([interface_free_energy(spec.pair_from(spec.master(i))).value for i in range(4)])
    paths = [
        per_prefix_reference(spec, i, spec.master(i), [edges], 3, "lotv")[:, 0] for i in range(4)
    ]
    inner_mean = np.array([p.mean() for p in paths])
    inner_var = np.array([p.var(ddof=1) for p in paths])
    e_var = float(inner_var.mean())
    assert rep["var_direct"] == float(f.var(ddof=1))
    assert rep["e_var_given_block"] == e_var
    assert rep["var_e_given_block"] == float(inner_mean.var(ddof=1) - e_var / 3)


def test_block_martingale_costs_2p_plus_2_sweeps_per_inner_draw(monkeypatch):
    # 4 blocks: 5 path prefixes and 3 singles, 8 rows plus one shared zeroed
    # row per inner draw and state, after the 4 swept rows of F itself; the
    # path's draws share stacks, and no sweep carries more rows than the
    # chunk rule allows
    stacks = []
    original = exactsolve._transfer_sweep

    def counting(*args, **kwargs):
        stacks.append(len(kwargs["couplings"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(exactsolve, "_transfer_sweep", counting)
    spec = spec_4x4_in_6x6()
    cond = BlockConditioning(block_partition(spec.window_region, 2), n_outer=2)
    block_martingale_realization(spec, cond, 0)
    assert sum(stacks) == 4 + 2 * (2 * 8 + 2)
    assert max(stacks) <= chunk_rows(spec)
    # the budget holds both draws of a path: one sweep per state
    assert sorted(stacks) == [2, 2] + [2 * (8 + 1)] * 2


def test_bound_check_sweeps_each_measure_once_per_field_set(monkeypatch):
    # F's two stacked sweeps of two rows each, whose full-J rows are Gamma's
    # and Gamma''s zero-field log Z; then the two Gaussian field sets of each
    # state and the three of the window measure, one one-row sweep each
    rows = []
    original = exactsolve._transfer_sweep

    def counting(*args, **kwargs):
        logz, envs = original(*args, **kwargs)
        rows.append(len(logz))
        return logz, envs

    monkeypatch.setattr(exactsolve, "_transfer_sweep", counting)
    master = sample_master(Gaussian(), (4, 4), SeedSpec(11, 0, "couplings"))
    pair = make_state_pair((4, 4), (2, 2), 1.3, free_bc(), periodic_bc(), master)
    rep = bound_check(pair, n_observables=2)
    assert len(rows) == 2 + 2 * 2 + 3
    assert sum(rows) == 2 * 2 + 2 * 2 + 3
    zero_field = 2.0 * pair.beta * pair.boundary_abs_sum()
    assert rep.ratio_slacks[0] == rep.ratio_slacks[3] == zero_field


def test_block_martingale_evaluates_one_zero_pair_per_inner_draw(monkeypatch):
    # per inner draw: 8 prefix rows and one window-zeroed row per state, the
    # draws of a group in one log_partition_pairs call that fits one chunk;
    # F itself adds one row of each
    rows = []
    original = interface.log_partition_pairs

    def counting(spec, other, values, other_values, *args):
        rows.append((len(values), len(other_values)))
        return original(spec, other, values, other_values, *args)

    monkeypatch.setattr(interface, "log_partition_pairs", counting)
    spec = spec_4x4_in_6x6()
    cond = BlockConditioning(block_partition(spec.window_region, 2), n_outer=2)
    block_martingale_realization(spec, cond, 0)
    *path, f = rows
    assert f == (1 + 1, 1 + 1)
    assert sum(r for r, _ in path) == 2 * (8 + 1)
    assert all(r == o and r % (8 + 1) == 0 and r <= chunk_rows(spec) for r, o in path)
    assert path == [(2 * (8 + 1), 2 * (8 + 1))]  # the budget holds both draws


@pytest.mark.parametrize("n_outer", [2, 5])
def test_a_conditional_path_builds_one_state_pair(monkeypatch, n_outer):
    # only the pair's structure is read, and every inner draw lies on the
    # master edge set
    calls = []
    original = fluctuation.make_state_pair

    def counting(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(fluctuation, "make_state_pair", counting)
    spec = spec_4x4_in_6x6()
    edges = tuple(spec.window_edge_set)
    held = spec.master(0)
    _conditional_path(spec, 0, held, [(), edges[:3], edges], n_outer, "pairs")
    assert len(calls) == 1 and calls[0] is held
    calls.clear()
    cond = BlockConditioning(block_partition(spec.window_region, 2), n_outer=n_outer)
    block_martingale_realization(spec, cond, 0)
    assert len(calls) == 2  # F itself, and the path


# --- block martingale ----------------------------------------------------------


def martingale_summary(seed, box=(6, 6), window=(4, 4), beta=1.0, **sampling):
    geometry = {"box": list(box), "window": list(window)}
    data = config("martingale", seed, geometry=geometry, physics={"beta": beta},
                  sampling=sampling)
    return run_in_process(data)[1]


def test_block_martingale_beta_zero_all_terms_zero():
    rep = martingale_summary(7, beta=0.0, n=4, n_outer=3, bootstrap=50)
    details = rep["details"]
    assert np.all(np.array(rep["trace"]["ys"]) == 0.0)
    assert details["var_f"] == 0.0
    assert details["sum_var_deltas"] == 0.0
    assert all(v == 0.0 for v in details["block_variances"])


def test_block_martingale_single_block_is_total_variance_split():
    # DERIVED: law-of-total-variance on the same nested samples
    # one block == the window
    rep = martingale_summary(GOLDEN_SEED, (5, 5), (3, 3), n=24, n_outer=12, block_side=3,
                             bootstrap=200)
    details = rep["details"]
    assert len(rep["trace"]["labels"]) == 1
    assert details["inequality_ok"]
    assert details["sum_var_deltas"] <= details["var_f"] + 3.0 * details["gap_stderr"]
    assert details["telescoping_residual"] <= 1e-12


def test_block_martingale_4x4_window_2x2_blocks():
    # DERIVED: nested MC with fixed seeds; the centered window in a square
    # box with a symmetric bc pair makes the four corner blocks exchangeable,
    # so their conditional-mean variances must agree within error bars
    rep = martingale_summary(7, n=30, n_outer=12, block_side=2, bootstrap=200)
    details = rep["details"]
    assert len(rep["trace"]["labels"]) == 4
    assert details["inequality_ok"]
    assert details["telescoping_residual"] <= 1e-12
    vs = details["block_variances"]
    ses = details["block_variance_stderr"]
    for a in range(4):
        for b in range(a + 1, 4):
            assert abs(vs[a] - vs[b]) <= 3.0 * math.hypot(ses[a], ses[b])
    # deltas are derived from stored Y values (telescoping by construction)
    ys = np.array(rep["trace"]["ys"])
    assert details["var_deltas"] == np.diff(ys, axis=1).var(axis=0, ddof=1).tolist()


# --- edge martingale -----------------------------------------------------------


def edge_martingale_payloads(seed=GOLDEN_SEED, beta=1.0, **sampling):
    data = config("edge-martingale", seed, physics={"beta": beta}, sampling=sampling)
    return run_in_process(data)[0]


def test_edge_martingale_beta_zero():
    (row,) = edge_martingale_payloads(beta=0.0, n=1, n_outer=4)
    assert np.all(np.array(row["ys"]) == 0.0)


def test_edge_martingale_increment_bound():
    # DERIVED: per-edge assertion with MC slack on fixed-seed instances
    for row in edge_martingale_payloads(404, n=6, n_outer=16):
        deltas = np.abs(np.diff(row["ys"]))
        bounds = np.asarray(row["bounds"])
        sems = np.asarray(row["delta_sem"])
        assert np.all(deltas <= bounds + 3.0 * sems)


def test_edge_martingale_telescopes_to_independent_ends():
    # DERIVED: independent direct estimates of both path ends
    spec = spec_3x3_in_5x5(seed=405)
    row = edge_martingale_payloads(405, n=2, n_outer=24)[1]
    base, end = (
        _conditional_path(spec, 1, spec.master(1), [edges], 24, purpose)[:, 0]
        for edges, purpose in [((), "tele-base"), (tuple(spec.window_edge_set), "tele-end")]
    )
    ys = np.array(row["ys"])
    span_trace = ys[-1] - ys[0]
    span_indep = end.mean() - base.mean()
    combined = math.hypot(_sem(base), _sem(end)) + math.hypot(float(np.sum(row["delta_sem"])), 0.0)
    assert abs(span_trace - span_indep) <= 3.0 * combined
    assert abs(np.diff(ys).sum() - span_trace) <= 1e-12


def test_edge_martingale_order_is_lexicographic():
    spec = spec_3x3_in_5x5()
    (row,) = edge_martingale_payloads(n=1, n_outer=2)
    edges = tuple(spec.window_edge_set)
    master = spec.master(0)
    # the path conditions on one window edge per step, in the edge set's order
    assert row["couplings"] == [master.value(e) for e in edges]
    assert len(row["ys"]) == len(edges) + 1
    keys = [e.sort_key for e in edges]
    assert keys == sorted(keys)


# --- deterministic bounds --------------------------------------------------------


def test_bound_check_beta_zero_zero_on_both_sides():
    master = sample_master(Gaussian(), (5, 5), SeedSpec(3, 0, "couplings"))
    pair = make_state_pair((5, 5), (3, 3), 0.0, free_bc(), periodic_bc(), master)
    rep = bound_check(pair)
    assert rep.f_value == 0.0
    assert rep.bound == 0.0
    assert rep.slack == 0.0
    assert min(rep.ratio_slacks) >= -1e-12


def test_bound_check_zero_boundary_couplings():
    master = sample_master(Gaussian(), (5, 5), SeedSpec(4, 0, "couplings"))
    pair0 = make_state_pair((5, 5), (3, 3), 1.0, free_bc(), periodic_bc(), master)
    boundary = pair0.boundary
    values = master.values.copy()
    for e in boundary:
        values[master.edge_set.index(e)] = 0.0
    master0 = master.with_values(values)
    pair = make_state_pair((5, 5), (3, 3), 1.0, free_bc(), periodic_bc(), master0)
    result = interface_free_energy(pair)
    assert abs(result.value) <= 1e-9
    rep = bound_check(pair)
    assert rep.bound == 0.0


def test_bound_check_violation_raises_with_dump(monkeypatch):
    master = sample_master(Gaussian(), (5, 5), SeedSpec(5, 0, "couplings"))
    pair = make_state_pair((5, 5), (3, 3), 1.0, free_bc(), periodic_bc(), master)
    good = interface_free_energy(pair)
    import dataclasses

    fake = dataclasses.replace(good, value=1e6)
    monkeypatch.setattr(fluctuation, "interface_free_energy", lambda *args, **kwargs: fake)
    with pytest.raises(BoundViolationError) as err:
        bound_check(pair)
    assert "couplings" in str(err.value)


def test_bound_check_many_instances():
    for i in range(25):
        master = sample_master(Gaussian(), (5, 5), SeedSpec(888, i, "couplings"))
        pair = make_state_pair((5, 5), (3, 3), 1.0, free_bc(), periodic_bc(), master)
        rep = bound_check(pair)
        assert rep.slack >= -1e-9
        assert min(rep.ratio_slacks) >= -1e-9


# --- MGF --------------------------------------------------------------------------


def mgf_summary(seed=GOLDEN_SEED, beta=1.0, **sampling):
    return run_in_process(config("mgf", seed, physics={"beta": beta}, sampling=sampling))[1]


def test_mgf_t_zero_is_exactly_one():
    rep = mgf_summary(n=12, t_values=[0.0], n_outer=4, bootstrap=50)
    row = rep["rows"][0]
    assert row["empirical"] == 1.0
    assert row["bound"] == 1.0
    assert row["passed"]


def test_mgf_beta_zero():
    rep = mgf_summary(beta=0.0, n=8, t_values=[1.0], n_outer=4, bootstrap=50)
    row = rep["rows"][0]
    assert row["empirical"] == 1.0
    assert row["bound"] == 1.0
    assert row["passed"]


def test_mgf_gaussian_passes_at_spec_t_values():
    # DERIVED: MC with fixed seeds against the deterministic envelope
    rep = mgf_summary(909, n=60, t_values=[0.5, 1.0, 2.0], n_outer=12, bootstrap=200)
    assert all(row["passed"] for row in rep["rows"])
    assert rep["nu_abs_j"] == pytest.approx(math.sqrt(2 / math.pi))
    for row in rep["rows"]:
        assert row["bound"] < row["bound_normalized_nu"]  # nu < 1 for gaussian(0,1)


# --- incongruence probe -------------------------------------------------------------


def probe_summary(physics=None, **sampling):
    data = config("probe", physics=physics or {}, sampling={"epsilons": [0.01], **sampling})
    return run_in_process(data)[1]


def test_probe_identical_rule_density_exactly_zero():
    rep = probe_summary({"bc": "periodic"}, n=6, bootstrap=50)
    assert rep["densities"][0]["density"] == 0.0
    assert rep["any_nonzero_fraction"] == 0.0
    assert all(v == 0.0 for v in rep["per_edge_mean"])


def test_probe_beta_zero_density_exactly_zero():
    rep = probe_summary({"beta": 0.0}, n=6, bootstrap=50)
    assert rep["densities"][0]["density"] == 0.0


def test_probe_golden_fixed_seed_density():
    # DERIVED: fixed-seed run; value recorded as golden
    rep = probe_summary(n=200)
    row = rep["densities"][0]
    assert row["density"] == pytest.approx(GOLDEN_PROBE_DENSITY, rel=1e-12)
    assert row["ci95"][0] > 0.0


# --- variance identities --------------------------------------------------------------


def test_gaussian_closed_form_identity():
    rep = gaussian_sum_identity(n=1000, n_inner=32, seed=17)
    assert set(rep) == {"var", "e_var_given", "var_e_given", "sym_var"}
    for name, (value, stderr, exact) in rep.items():
        assert value == pytest.approx(exact, abs=3 * stderr), name


def test_constant_variable_identity_terms_vanish():
    # a zero-width distribution stand-in: beta = 0 makes F constant (zero)
    spec = spec_3x3_in_5x5(beta=0.0)
    block = Region((2, 2), None, (1, 1))
    rep = total_variance_identity(spec, block, n=4, n_outer=4, n_boot=50)
    assert rep["var_direct"] == 0.0
    assert rep["e_var_given_block"] == 0.0
    assert rep["sym_var"] == 0.0


def test_nested_mc_variance_identity_on_f():
    # DERIVED: nested MC, identity within 3 combined stderr
    spec = spec_3x3_in_5x5(seed=111)
    block = Region((2, 2), None, (1, 1))
    rep = total_variance_identity(spec, block, n=48, n_outer=16, n_boot=300)
    assert rep["pass"]
    assert rep["sym_pass"]


# --- scaling -----------------------------------------------------------------------


def scaling_summary(physics=None, **sampling):
    data = config("scaling", geometry={"window_sizes": [2, 3, 4]}, physics=physics or {},
                  sampling=sampling)
    return run_in_process(data)[1]


def test_scaling_degenerate_at_beta_zero():
    rep = scaling_summary({"beta": 0.0}, n=6, bootstrap=50)
    assert rep["degenerate"]
    assert rep["fits"] == {}
    assert "degenerate" in rep.get("flags", [])


def test_scaling_degenerate_for_identical_rules():
    rep = scaling_summary({"bc_prime": "free"}, n=6, bootstrap=50)
    assert rep["degenerate"]


def test_scaling_golden_run_emits_fits_with_ci():
    # DERIVED: golden fixed-seed reference stored at build time
    rep = scaling_summary(n=200)
    assert rep["mode"] == "report-only"
    assert not rep["degenerate"]
    fit = rep["fits"]["log_window_sites"]
    assert fit["exponent"] == pytest.approx(-0.18176190764901376, rel=1e-9)
    lo, hi = fit["ci95"]
    assert lo <= fit["exponent"] <= hi
    assert len(rep["rows"]) == 3
    assert "not certifiable" in rep["note"]


def test_fixed_bc_templates_rescale_by_their_one_sign():
    # a fixed bc is one sign, so every window size clamps its own box's ghost ring
    template = spec_3x3_in_5x5(bc_prime=uniform_fixed_bc(-1))
    for size in (2, 3, 4):
        sub = scaling_sub_spec(template, size)
        assert sub.bc_prime == uniform_fixed_bc(-1)
        assert sub.bc == template.bc


def test_scaling_sub_specs_keep_the_templates_own_bcs():
    template = spec_3x3_in_5x5(bc=uniform_fixed_bc(1), bc_prime=uniform_fixed_bc(-1))
    for size in (2, 4):
        sub = scaling_sub_spec(template, size)
        assert sub.bc is template.bc and sub.bc_prime is template.bc_prime


def test_scaling_needs_three_sizes():
    with pytest.raises(ValueError, match="three distinct"):
        run_in_process(config("scaling", geometry={"window_sizes": [2, 3]}, sampling={"n": 4}))


@pytest.mark.parametrize("sizes, match", [
    ([2, 2, 2], "three distinct"),
    ([2, 3, 3], "three distinct"),
    ([0, 2, 3], "must be >= 1"),
    ([-1, 2, 3], "must be >= 1"),
])
def test_library_scaling_rejects_what_the_config_rejects(sizes, match):
    # [2, 2, 2] used to return an exponent fitted through one point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EafluctError, match=match):
            check_scaling((5, 5), (3, 3), sizes)


@pytest.mark.parametrize("box, window", [((5, 6), (3, 3)), ((6, 6), (3, 3)), ((7, 5), (3, 3))])
def test_scaling_sub_spec_keeps_an_even_margin_on_every_axis(box, window):
    # box (5, 6) with window (3, 3) used to become box (5, 5)
    template = replace(spec_3x3_in_5x5(), box_extents=box, window_extents=window)
    with pytest.raises(EafluctError, match="same even number"):
        scaling_sub_spec(template, 3)
    with pytest.raises(EafluctError, match="same even number"):
        check_scaling(box, window, [2, 3, 4])
    with pytest.raises(EafluctError, match="must be >= 1"):
        scaling_sub_spec(spec_3x3_in_5x5(), 0)
    sub = scaling_sub_spec(spec_3x3_in_5x5(), 4)
    assert (sub.box_extents, sub.window_extents) == ((6, 6), (4, 4))


# --- covariance property tests --------------------------------------------------------


def test_covariance_identity_cases_exact():
    from eafluct.disorder import sample_couplings, translate_couplings
    from eafluct.exactsolve import GibbsSpec, edge_correlation, reweight_expectation

    region = Region((3, 3), (True, True))
    edges = interior_edges(region)
    couplings = sample_couplings(Gaussian(), edges, SeedSpec(12, 0, "cov"))
    spec = GibbsSpec(region, couplings, 1.0, periodic_bc())
    e = edges.edges[3]
    # T = identity
    assert edge_correlation(
        GibbsSpec(region, translate_couplings(couplings, (0, 0)), 1.0, periodic_bc()),
        e,
        method="enum",
    ) == edge_correlation(spec, e, method="enum")
    # J_B = 0
    block = Region((2, 2), None, (0, 0))
    zero = {be: 0.0 for be in interior_edges(block)}
    lhs = reweight_expectation(spec, block, zero, bond_product(e))
    assert lhs == pytest.approx(edge_correlation(spec, e, method="enum"), abs=1e-13)


def test_covariance_random_samples_within_tolerance():
    # DERIVED: enumeration on both sides
    data = config("covariance", 2718, geometry={"box": [4, 4]}, sampling={"n": 8})
    rep = run_in_process(data)[1]
    assert rep["n_samples"] == 8
    assert rep["max_translation_deviation"] <= 1e-10
    assert rep["max_coupling_deviation"] <= 1e-10


def test_covariance_sample_is_deterministic():
    a = covariance_sample((3, 3), 1.0, Gaussian(), 5, 2)
    b = covariance_sample((3, 3), 1.0, Gaussian(), 5, 2)
    assert a == b


def test_uniform_distribution_supported_end_to_end():
    rep = run_in_process(config(
        "ensemble", 77, geometry={"box": [4, 4], "window": [2, 2]},
        physics={"distribution": "uniform(-1.0,1.0)"}, sampling={"n": 6, "bootstrap": 50},
    ))[1]["variance_report"]
    assert rep["variance"] >= 0.0
    assert math.isfinite(rep["mean"])


def test_fixed_bc_pair_supported():
    rep = run_in_process(config(
        "fe", 78, geometry={"box": [4, 4], "window": [2, 2]},
        physics={"bc": "fixed:+1", "bc_prime": "fixed:-1"}, sampling={"n": 6},
    ))[1]
    assert np.all(np.isfinite(rep["values"]))


def test_quantiles_equal_numpy_linear_quantiles_bit_for_bit():
    rng = np.random.default_rng(23)
    for n in [*range(1, 61), *range(199, 1002)]:
        values = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        if n % 7 == 0:
            # ties; equal values with different bits (-0.0 and 0.0) may
            # sort in another order than numpy's partition leaves them
            values = np.round(values, 1) + 0.0
        qs = (0.0, 0.025, 0.5, 0.975, 1.0, float(rng.random()))
        got = fluctuation._quantiles(values, qs)
        assert [x.hex() for x in got] == [float(np.quantile(values, q)).hex() for q in qs], n
    assert all(math.isnan(x) for x in fluctuation._quantiles([1.0, math.nan], (0.0, 0.5)))
    with pytest.raises(ValueError):
        fluctuation._quantiles([1.0, 2.0], (1.5,))


@pytest.mark.parametrize("n", [2, 3, 7, 64, 257, 1000])
@pytest.mark.parametrize("n_resamples", [2, 50])
def test_bootstrap_draws_equal_one_draw_per_resample(n, n_resamples):
    values = np.linspace(-1.0, 2.0, n) ** 3
    batched = SeedSpec(5, 0, "bootstrap").rng()
    sequential = SeedSpec(5, 0, "bootstrap").rng()
    stats = [values[sequential.integers(0, n, size=n)].var(ddof=1) for _ in range(n_resamples)]
    # a statistic maps the (R, n) stack of resamples to one value per row
    assert bootstrap_stderr(values, lambda v: v.var(axis=1, ddof=1), n_resamples, batched) == float(
        np.std(stats, ddof=1)
    )
    # the stream is left where the sequential draws leave it
    assert batched.integers(0, 2**62) == sequential.integers(0, 2**62)
    means = [values[sequential.integers(0, n, size=n)].mean() for _ in range(n_resamples)]
    tail = (1.0 - 0.95) / 2.0
    assert bootstrap_ci(values, lambda v: v.mean(axis=1), n_resamples, batched) == (
        float(np.quantile(means, tail)), float(np.quantile(means, 1.0 - tail))
    )
