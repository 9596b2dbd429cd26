import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    bond_product,
    brute_correlation,
    brute_log_z,
    brute_weight_exponent,
    constant_one,
    domain_wall,
    effective_bonds,
    gibbs_expectation,
    ring_through_couplings,
    spin_assignments,
)

from eafluct.disorder import Gaussian, SeedSpec, sample_couplings
from eafluct.errors import (
    ConfigError,
    ContainmentError,
    SizeCapError,
    UnsupportedOperationError,
)
from eafluct import exactsolve
from eafluct.exactsolve import (
    BoundaryCondition,
    GibbsSpec,
    Solver,
    antiperiodic_bc,
    edge_correlation,
    edge_correlations,
    free_bc,
    log_partition,
    log_partition_enum,
    log_partition_transfer,
    periodic_bc,
    required_edges,
    reweight,
    reweight_expectation,
    uniform_fixed_bc,
)
from eafluct.interface import sample_master
from eafluct.lattice import Edge, Region, edge_from_origin, interior_edges


def make_spec(extents, wrap, bc, beta, seed=1, realization=0):
    region = Region(extents, wrap)
    couplings = sample_couplings(
        Gaussian(), required_edges(region, bc), SeedSpec(seed, realization, "test")
    )
    return GibbsSpec(region, couplings, beta, bc)


ALL_BC_SPECS = [
    ((3, 3), (False, False), free_bc()),
    ((3, 3), (True, True), periodic_bc()),
    ((3, 3), (True, True), antiperiodic_bc(0)),
    ((3, 3), (True, True), antiperiodic_bc(0, 1)),
    ((2, 2), (True, True), periodic_bc()),
    ((4, 2), (False, False), free_bc()),
    ((2, 4), (True, True), antiperiodic_bc(1)),
]


# --- enumeration ----------------------------------------------------------


def test_single_free_spin_log2():
    spec = make_spec((1, 1), (False, False), free_bc(), 1.7)
    assert log_partition_enum(spec) == math.log(2.0)


def test_two_spin_closed_form():
    region = Region((2, 1))
    edges = interior_edges(region)
    j = 0.8321
    couplings = sample_couplings(Gaussian(), edges, SeedSpec(1)).with_values(np.array([j]))
    beta = 1.3
    spec = GibbsSpec(region, couplings, beta, free_bc())
    expected = math.log(2 * math.exp(beta * j) + 2 * math.exp(-beta * j))
    assert log_partition_enum(spec) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("extents,wrap,bc", ALL_BC_SPECS)
def test_beta_zero_is_sites_log2_exactly(extents, wrap, bc):
    spec = make_spec(extents, wrap, bc, 0.0)
    n = spec.region.n_sites
    assert log_partition_enum(spec) == n * math.log(2.0)


@pytest.mark.parametrize("extents,wrap,bc", ALL_BC_SPECS)
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_enum_matches_brute_force(extents, wrap, bc, beta):
    spec = make_spec(extents, wrap, bc, beta)
    assert log_partition_enum(spec) == pytest.approx(brute_log_z(spec), abs=1e-11)


def test_enum_fixed_bc_matches_brute_force():
    spec = make_spec((3, 2), (False, False), None or uniform_fixed_bc(1), 1.1)
    assert log_partition_enum(spec) == pytest.approx(brute_log_z(spec), abs=1e-11)
    spec_minus = make_spec((3, 2), (False, False), uniform_fixed_bc(-1), 1.1)
    assert log_partition_enum(spec_minus) == pytest.approx(brute_log_z(spec_minus), abs=1e-11)


def test_enum_cap_enforced():
    spec = make_spec((3, 3), (False, False), free_bc(), 1.0)
    with pytest.raises(SizeCapError):
        log_partition_enum(spec, cap=8)


def test_chunked_enumeration_agrees_with_single_chunk():
    # force multiple chunks by shrinking the chunk size: a 3x3 box splits
    # into 32 low and 16 high states, so a 2^5-state chunk holds one high state
    import eafluct.exactsolve as ex

    spec = make_spec((3, 3), (True, True), periodic_bc(), 1.2)
    edges = interior_edges(spec.region)
    probe = bond_product(edges.edges[5])
    full = log_partition_enum(spec)
    full_corr = edge_correlations(spec, edges, Solver("enum"))
    full_probe = gibbs_expectation(spec, probe)
    old = ex._CHUNK_BITS
    try:
        ex._CHUNK_BITS = 5
        chunked = log_partition_enum(spec)
        chunked_corr = edge_correlations(spec, edges, Solver("enum"))
        chunked_probe = gibbs_expectation(spec, probe)
    finally:
        ex._CHUNK_BITS = old
    assert chunked == pytest.approx(full, abs=1e-12)
    assert np.abs(chunked_corr - full_corr).max() <= 1e-12
    assert chunked_probe == pytest.approx(full_probe, abs=1e-12)
    assert chunked_probe == pytest.approx(brute_correlation(spec, edges.edges[5]), abs=1e-12)


# boxes whose low and high halves meet every kind of term: chains of 1-3
# sites, a lone clamped site, ghost fields on both halves, a doubled
# antiperiodic cube and a torus
SPLIT_BOXES = [
    *[((n,), None, bc) for n in (1, 2, 3) for bc in (free_bc(), uniform_fixed_bc(-1))],
    *[((n,), (True,), periodic_bc()) for n in (1, 2, 3)],
    ((1, 1), None, uniform_fixed_bc(1)),
    ((2, 3), None, uniform_fixed_bc(1)),
    ((2, 2, 2), (True, True, True), antiperiodic_bc(0, 2)),
    ((3, 3), (True, True), periodic_bc()),
]


@pytest.mark.parametrize("beta", [0.0, 0.7, 1000.0])
@pytest.mark.parametrize("extents,wrap,bc", SPLIT_BOXES)
def test_split_enumeration_matches_brute_force(extents, wrap, bc, beta):
    spec = make_spec(extents, wrap, bc, beta, seed=4)
    want = brute_log_z(spec)
    assert log_partition_enum(spec) == pytest.approx(want, rel=1e-12)
    if beta == 0.0:
        assert log_partition_enum(spec) == pytest.approx(
            spec.region.n_sites * math.log(2.0), rel=1e-12
        )
    edges = interior_edges(spec.region)
    got = edge_correlations(spec, edges, Solver("enum"))
    for e, value in zip(edges, got):
        assert abs(value - brute_correlation(spec, e)) <= 1e-12, e


@pytest.mark.parametrize("beta", [0.0, 0.7, 1000.0])
def test_split_enumeration_extra_fields_on_both_halves(beta):
    # sites 0-2 of a 2x3 box are the low half, sites 3-5 the high half
    spec = make_spec((2, 3), None, uniform_fixed_bc(1), beta, seed=5)
    sites = spec.region.sites
    fields = {sites[0]: 0.4, sites[2]: -1.3, sites[3]: 0.9, sites[5]: -0.2}
    bonds, ghost = effective_bonds(spec)
    for site, value in fields.items():
        ghost[site] = ghost.get(site, 0.0) + value
    expos = [brute_weight_exponent(spec, sigma, bonds, ghost) for sigma in spin_assignments(sites)]
    top = max(expos)
    want = top + math.log(math.fsum(math.exp(v - top) for v in expos))
    assert log_partition_enum(spec, extra_fields=fields) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "extents,wrap,bc",
    [*ALL_BC_SPECS, ((3, 2), None, uniform_fixed_bc(-1)), ((2, 2, 3), None, free_bc())],
)
def test_moment_correlations_equal_per_edge_expectations(extents, wrap, bc):
    spec = make_spec(extents, wrap, bc, 1.3, seed=6)
    edges = interior_edges(spec.region)
    got = edge_correlations(spec, edges, Solver("enum"))
    want = [gibbs_expectation(spec, bond_product(e)) for e in edges]
    assert np.abs(got - want).max() <= 1e-13


BAD_OBSERVABLES = {
    "scalar": lambda spins, sites: 1.0,
    "column": lambda spins, sites: np.ones((len(spins), 1)),
    "short": lambda spins, sites: np.ones(len(spins) - 1),
}


@pytest.mark.parametrize("name", sorted(BAD_OBSERVABLES))
def test_an_observable_must_return_one_value_per_state(name):
    spec = make_spec((2, 2), None, free_bc(), 1.0)
    block = Region((2, 1))
    values = {e: 0.5 for e in interior_edges(block)}
    with pytest.raises(ConfigError):
        gibbs_expectation(spec, BAD_OBSERVABLES[name])
    with pytest.raises(ConfigError):
        reweight_expectation(spec, block, values, BAD_OBSERVABLES[name])


def test_enumeration_peaks_within_one_and_a_half_chunks():
    # a 22-spin box is four chunks of 2^20 states; one chunk of doubles is
    # 8 MiB, and log Z plus every correlation hold one at a time (about
    # 8.5 MiB in all); a second live chunk would cross 12 MiB
    spec = make_spec((2, 11), None, free_bc(), 1.0)
    edges = interior_edges(spec.region)
    log_partition_enum(spec)  # warm the term and half-table caches
    tracemalloc.start()
    try:
        log_partition_enum(spec)
        edge_correlations(spec, edges, Solver("enum"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


# --- transfer matrix ------------------------------------------------------


@pytest.mark.parametrize("extents,wrap,bc", ALL_BC_SPECS)
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_transfer_matches_enumeration(extents, wrap, bc, beta):
    spec = make_spec(extents, wrap, bc, beta)
    assert log_partition_transfer(spec) == pytest.approx(
        log_partition_enum(spec), abs=1e-9
    )


def test_transfer_fixed_bc_matches_enumeration():
    spec = make_spec((3, 3), (False, False), uniform_fixed_bc(1), 1.0)
    assert log_partition_transfer(spec) == pytest.approx(
        log_partition_enum(spec), abs=1e-9
    )


def test_transfer_beta_zero_sites_log2():
    spec = make_spec((5, 4), (False, False), free_bc(), 0.0)
    assert log_partition_transfer(spec) == pytest.approx(20 * math.log(2.0), abs=1e-12)


def test_transfer_width_one_chain_matches_enumeration():
    # DERIVED: enumeration oracle on short free chains
    for n in (2, 5, 10):
        spec = make_spec((n, 1), (False, False), free_bc(), 0.9, seed=n)
        assert log_partition_transfer(spec) == pytest.approx(
            log_partition_enum(spec), abs=1e-10
        )


def test_transfer_width_cap():
    spec = make_spec((3, 3), (False, False), free_bc(), 1.0)
    with pytest.raises(SizeCapError):
        log_partition_transfer(spec, width_cap=2)


def test_transfer_large_beta_stable():
    spec = make_spec((6, 4), (False, False), free_bc(), 5.0)
    value = log_partition_transfer(spec)
    assert math.isfinite(value)
    # at large beta, log Z approaches beta * max_sigma(-H); lower bound sanity
    assert value >= 5.0 * 0.0


def test_transfer_unsupported_dimension():
    region = Region((2, 2, 2))
    bc = free_bc()
    couplings = sample_couplings(Gaussian(), required_edges(region, bc), SeedSpec(1))
    spec = GibbsSpec(region, couplings, 1.0, bc)
    with pytest.raises(UnsupportedOperationError):
        log_partition_transfer(spec)


def test_enum_supports_3d():
    region = Region((2, 2, 2), (True, True, True))
    bc = periodic_bc()
    couplings = sample_couplings(Gaussian(), required_edges(region, bc), SeedSpec(4))
    spec = GibbsSpec(region, couplings, 0.7, bc)
    assert log_partition_enum(spec) == pytest.approx(brute_log_z(spec), abs=1e-11)


# --- correlations ----------------------------------------------------------


def test_isolated_edge_correlation_is_tanh():
    region = Region((2, 1))
    edges = interior_edges(region)
    j, beta = -0.77, 1.9
    couplings = sample_couplings(Gaussian(), edges, SeedSpec(1)).with_values(np.array([j]))
    spec = GibbsSpec(region, couplings, beta, free_bc())
    (edge,) = tuple(edges)
    assert edge_correlation(spec, edge, method="enum") == pytest.approx(
        math.tanh(beta * j), abs=1e-12
    )


def test_beta_zero_correlations_vanish():
    spec = make_spec((3, 3), (True, True), periodic_bc(), 0.0)
    for e in list(interior_edges(spec.region))[:4]:
        assert edge_correlation(spec, e, method="enum") == 0.0
        assert edge_correlation(spec, e, method="transfer") == 0.0


@pytest.mark.parametrize("extents,wrap,bc", ALL_BC_SPECS)
def test_correlations_enum_vs_transfer_vs_brute(extents, wrap, bc):
    spec = make_spec(extents, wrap, bc, 1.0)
    for e in interior_edges(spec.region):
        ce = edge_correlation(spec, e, method="enum")
        ct = edge_correlation(spec, e, method="transfer")
        cb = brute_correlation(spec, e)
        assert -1.0 <= ce <= 1.0
        assert ce == pytest.approx(cb, abs=1e-12)
        assert ct == pytest.approx(ce, abs=1e-10)


def test_transfer_correlation_3x3_fixed_instance():
    spec = make_spec((3, 3), (False, False), free_bc(), 1.0, seed=42)
    for e in interior_edges(spec.region):
        assert edge_correlation(spec, e, method="transfer") == pytest.approx(
            edge_correlation(spec, e, method="enum"), abs=1e-10
        )


BATCH_EXTENTS = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)]
BATCH_BCS = ["free", "fixed", "periodic", "seam0", "seam1", "seam01"]


def batch_spec(extents, bc_name, beta):
    wrapped = bc_name not in ("free", "fixed")
    bc = {
        "free": free_bc(),
        "fixed": uniform_fixed_bc(+1),
        "periodic": periodic_bc(),
        "seam0": antiperiodic_bc(0),
        "seam1": antiperiodic_bc(1),
        "seam01": antiperiodic_bc(0, 1),
    }[bc_name]
    spec = make_spec(extents, (wrapped, wrapped), bc, beta, seed=5)
    # a mixed clamped ring, not one uniform field
    return ring_through_couplings(spec) if bc_name == "fixed" else spec


@pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("bc_name", BATCH_BCS)
@pytest.mark.parametrize("extents", BATCH_EXTENTS)
def test_batched_correlations_match_per_edge_enumeration(extents, bc_name, beta):
    # thin tori (an extent of 2) put a wrap bond and a plain bond on the
    # same pair of rows or columns
    spec = batch_spec(extents, bc_name, beta)
    edges = interior_edges(spec.region)
    per_edge = np.array([edge_correlation(spec, e, method="enum") for e in edges])
    batch_enum = edge_correlations(spec, edges, Solver("enum"))
    batch_transfer = edge_correlations(spec, edges, Solver("transfer"))
    assert batch_enum.shape == batch_transfer.shape == (len(edges),)
    assert np.array_equal(batch_enum, per_edge)
    assert np.max(np.abs(batch_transfer - per_edge)) <= 1e-10
    if beta == 0.0:
        assert np.all(batch_enum == 0.0) and np.all(batch_transfer == 0.0)
    for method, batch in (("enum", batch_enum), ("transfer", batch_transfer)):
        for e, value in zip(edges, batch):
            assert edge_correlation(spec, e, method=method) == value


def test_batched_correlations_follow_the_requested_order():
    spec = make_spec((3, 4), (False, False), free_bc(), 1.3, seed=8)
    edges = tuple(interior_edges(spec.region))
    forward = edge_correlations(spec, edges, Solver("transfer"))
    backward = edge_correlations(spec, edges[::-1], Solver("transfer"))
    assert np.array_equal(backward, forward[::-1])
    assert edge_correlations(spec, (), Solver("enum")).shape == (0,)


PLAN_BCS = {
    "free": lambda extents: free_bc(),
    "periodic": lambda extents: periodic_bc(),
    "antiperiodic[0]": lambda extents: antiperiodic_bc(0),
    "antiperiodic[1]": lambda extents: antiperiodic_bc(1),
    "antiperiodic[0,1]": lambda extents: antiperiodic_bc(0, 1),
    "fixed": lambda extents: uniform_fixed_bc(-1),
}


@pytest.mark.parametrize("bc_name", PLAN_BCS)
def test_transfer_plan_places_every_required_edge_once(bc_name):
    for extents in itertools.product((1, 2, 3, 4), repeat=2):
        bc = PLAN_BCS[bc_name](extents)
        region = bc.region(extents)
        plan = exactsolve._transfer_plan(region, bc, exactsolve.TRANSFER_WIDTH_CAP)
        edges = required_edges(region, bc).edges
        ghost_pos = exactsolve._terms(region, bc).ghost_pos
        placed = [*plan.v_pos.ravel(), *plan.h_pos.ravel(), *ghost_pos]
        assert sorted(placed) == list(range(len(edges))), extents

        def site(c, r):
            coords = [0, 0]
            coords[plan.l_axis], coords[plan.t_axis] = c, r
            return tuple(coords)

        # bond b of column c leaves row b; link j leaves column j at each row r
        for (b, c), k in np.ndenumerate(plan.v_pos):
            assert (edges[k].axis, edges[k].origin) == (plan.t_axis, site(c, b)), extents
        for (r, j), k in np.ndenumerate(plan.h_pos):
            assert (edges[k].axis, edges[k].origin) == (plan.l_axis, site(j, r)), extents
        for k in ghost_pos:
            assert not all(region.contains_site(s) for s in (edges[k].x, edges[k].y))
        # -1 exactly on the wrap bonds along a seam axis
        for pos, sign in ((plan.v_pos, plan.v_sign), (plan.h_pos, plan.h_sign)):
            seam = [edges[k].wrap and edges[k].axis in bc.seam_axes for k in pos.ravel()]
            assert sign.shape == pos.shape
            assert sign.ravel().tolist() == [-1.0 if s else 1.0 for s in seam], extents
        if bc.kind == "antiperiodic":
            flips = (plan.v_sign < 0).sum() + (plan.h_sign < 0).sum()
            axes = [a for a in bc.seam_axes if extents[a] >= 2]
            assert flips == sum(len(region.sites) // extents[a] for a in axes), extents


def test_open_strip_builds_each_link_at_most_twice(monkeypatch):
    spec = make_spec((3, 7), (False, False), free_bc(), 1.0, seed=3)
    builds = {}
    original = exactsolve._link

    def counting(s, couplings, beta):
        key = couplings.tobytes()
        builds[key] = builds.get(key, 0) + 1
        return original(s, couplings, beta)

    monkeypatch.setattr(exactsolve, "_link", counting)
    edge_correlations(spec, interior_edges(spec.region), Solver("transfer"))
    assert len(builds) == 6  # the links between the 7 columns of width 3
    assert max(builds.values()) <= 2


def test_transfer_out_of_float_range_is_loud():
    # enumeration stays exact here; the unscaled transfer weights overflow
    spec = make_spec((3, 3), (False, False), free_bc(), 400.0)
    assert math.isfinite(log_partition_enum(spec))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError):
            log_partition_transfer(spec)
        with pytest.raises(ArithmeticError):
            edge_correlations(spec, interior_edges(spec.region), Solver("transfer"))


@pytest.mark.parametrize("seed", range(5))
def test_transfer_overflow_signals_only_an_arithmetic_error(seed):
    spec = make_spec((3, 3), (False, False), free_bc(), 200.0, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError):
            log_partition_transfer(spec)
        with pytest.raises(ArithmeticError):
            edge_correlations(spec, interior_edges(spec.region), Solver("transfer"))


def test_correlation_requires_contained_edge():
    spec = make_spec((3, 3), (False, False), free_bc(), 1.0)
    with pytest.raises(ContainmentError):
        edge_correlation(spec, Edge((8, 8), (8, 9), axis=1))
    with pytest.raises(ContainmentError):
        edge_correlations(spec, [*interior_edges(spec.region), Edge((8, 8), (8, 9), axis=1)])


# --- Gibbs expectations ----------------------------------------------------


def test_normalization_is_exact():
    spec = make_spec((3, 3), (True, True), periodic_bc(), 1.4)
    assert gibbs_expectation(spec, constant_one) == 1.0


def test_expectation_reproduces_edge_correlation():
    spec = make_spec((3, 2), (False, False), free_bc(), 1.1)
    e = tuple(interior_edges(spec.region))[2]
    val = gibbs_expectation(spec, bond_product(e))
    assert val == pytest.approx(edge_correlation(spec, e, method="enum"), abs=1e-13)


def test_expectation_of_exp_beta_h_window_is_z_ratio():
    # DERIVED: ratio-of-partition-functions identity via two enumeration runs
    from eafluct.disorder import ZERO, set_block

    spec = make_spec((3, 3), (False, False), free_bc(), 1.0, seed=9)
    window = Region((2, 2), None, (0, 0))
    window_edges = interior_edges(window)

    def observable(spins, sites):
        h = np.zeros(len(spins))
        for e in window_edges:
            h -= spec.couplings.value(e) * bond_product(e)(spins, sites)
        return np.exp(spec.beta * h)

    lhs = gibbs_expectation(spec, observable)
    zeroed = GibbsSpec(
        spec.region, set_block(spec.couplings, window, ZERO), spec.beta, spec.bc
    )
    rhs = math.exp(log_partition_enum(zeroed) - log_partition_enum(spec))
    assert lhs == pytest.approx(rhs, rel=1e-11)


# --- invariants ------------------------------------------------------------


def test_gauge_flip_leaves_log_z_invariant():
    # flip the sign of all couplings incident to one interior site (free bc)
    spec = make_spec((3, 3), (False, False), free_bc(), 1.3, seed=31)
    site = (1, 1)
    flipped = spec.couplings.values.copy()
    for k, e in enumerate(spec.couplings.edge_set):
        if site in (e.x, e.y):
            flipped[k] = -flipped[k]
    spec2 = spec.with_couplings(spec.couplings.with_values(flipped))
    assert log_partition_enum(spec2) == pytest.approx(log_partition_enum(spec), abs=1e-10)
    assert log_partition_transfer(spec2) == pytest.approx(
        log_partition_transfer(spec), abs=1e-10
    )


def test_dlogz_dj_is_beta_times_correlation():
    # DERIVED: central finite differences, step 1e-4, tolerance 1e-5
    spec = make_spec((3, 2), (False, False), free_bc(), 1.2, seed=8)
    h = 1e-4
    for k, e in enumerate(spec.couplings.edge_set):
        corr = edge_correlation(spec, e, method="enum")
        vals = {}
        for s in (1, -1):
            v = spec.couplings.values.copy()
            v[k] += s * h
            vals[s] = log_partition_enum(
                spec.with_couplings(spec.couplings.with_values(v))
            )
        fd = (vals[1] - vals[-1]) / (2 * h)
        assert fd == pytest.approx(spec.beta * corr, abs=1e-5)


# --- reweighting -----------------------------------------------------------


def test_reweight_zero_is_identity():
    spec = make_spec((3, 3), (False, False), free_bc(), 1.0)
    block = Region((2, 2), None, (0, 0))
    zero = {e: 0.0 for e in interior_edges(block)}
    out = reweight(spec, block, zero)
    assert out.couplings.edge_set.edges == spec.couplings.edge_set.edges
    assert np.array_equal(out.couplings.values, spec.couplings.values)
    e = tuple(interior_edges(spec.region))[0]
    assert edge_correlation(out, e, method="enum") == edge_correlation(
        spec, e, method="enum"
    )


def test_reweight_two_spin_closed_form():
    region = Region((2, 1))
    edges = interior_edges(region)
    j, delta, beta = 0.4, 0.35, 1.2
    couplings = sample_couplings(Gaussian(), edges, SeedSpec(1)).with_values(np.array([j]))
    spec = GibbsSpec(region, couplings, beta, free_bc())
    (edge,) = tuple(edges)
    out = reweight(spec, region, {edge: delta})
    assert edge_correlation(out, edge, method="enum") == pytest.approx(
        math.tanh(beta * (j + delta)), abs=1e-12
    )


def test_reweight_formula_matches_direct_recomputation():
    # DERIVED: both sides computed by enumeration
    spec = make_spec((3, 3), (False, False), free_bc(), 1.0, seed=12)
    block = Region((2, 2), None, (1, 1))
    rng = SeedSpec(3, 0, "jb").rng()
    j_b = {e: float(v) for e, v in zip(interior_edges(block), rng.normal(size=4))}
    modified = reweight(spec, block, j_b)
    for e in list(interior_edges(spec.region))[:6]:
        direct = edge_correlation(modified, e, method="enum")
        formula = reweight_expectation(spec, block, j_b, bond_product(e))
        assert direct == pytest.approx(formula, abs=1e-10)


def test_reweight_formula_matches_brute_force():
    spec = make_spec((2, 2), (False, False), free_bc(), 0.9, seed=13)
    block = Region((2, 1), None, (0, 0))
    (edge,) = tuple(interior_edges(block))
    j_b = {edge: 0.7}
    probe = tuple(interior_edges(spec.region))[3]
    formula = reweight_expectation(spec, block, j_b, bond_product(probe))
    modified = reweight(spec, block, j_b)
    assert formula == pytest.approx(brute_correlation(modified, probe), abs=1e-12)


# --- boundary condition validation ------------------------------------------


def test_bc_validation():
    with pytest.raises(UnsupportedOperationError):
        GibbsSpec(
            Region((3, 3)),
            sample_couplings(Gaussian(), interior_edges(Region((3, 3))), SeedSpec(1)),
            1.0,
            periodic_bc(),
        )
    region = Region((3, 3), (True, True))
    with pytest.raises(UnsupportedOperationError):
        GibbsSpec(
            region,
            sample_couplings(Gaussian(), interior_edges(region), SeedSpec(1)),
            1.0,
            free_bc(),
        )
    with pytest.raises(ValueError):
        antiperiodic_bc().__class__("antiperiodic")  # no seam axis


WRAP_RULE = {  # each bc kind, and whether it wraps the axes of its box
    "free": (free_bc(), False),
    "periodic": (periodic_bc(), True),
    "antiperiodic": (antiperiodic_bc(0), True),
    "fixed": (uniform_fixed_bc(1), False),
}


@pytest.mark.parametrize("extent", [1, 2, 3])
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("name", WRAP_RULE)
def test_a_bc_lives_on_the_region_it_places_itself_on_and_on_no_other(name, dimension, extent):
    # the wrap rule: a periodic or antiperiodic bc wraps every axis, a free
    # or fixed one none; a state on any other wrap pattern is refused
    bc, wrapped = WRAP_RULE[name]
    extents = (extent,) * dimension
    placed = bc.region(extents)
    assert placed == Region(extents, (wrapped,) * dimension)
    master = sample_master(Gaussian(), extents, SeedSpec(5))
    for wrap in itertools.product((False, True), repeat=dimension):
        region = Region(extents, wrap)
        if region == placed:
            assert GibbsSpec(region, master, 1.0, bc).region is region
        else:
            with pytest.raises(UnsupportedOperationError):
                GibbsSpec(region, master, 1.0, bc)


@pytest.mark.parametrize("bc", [
    free_bc(), periodic_bc(), uniform_fixed_bc(1), uniform_fixed_bc(-1),
])
def test_the_bc_parser_inverts_the_label(bc):
    assert BoundaryCondition.from_name(bc.label, ()) == bc
    assert BoundaryCondition.from_name(bc.label, (0, 1)) == bc  # seam axes are antiperiodic's


def test_the_bc_parser_names_the_seam_axes_of_an_antiperiodic_bc():
    assert BoundaryCondition.from_name("antiperiodic", (1,)) == antiperiodic_bc(1)
    assert BoundaryCondition.from_name("antiperiodic", (0, 1)) == antiperiodic_bc(0, 1)
    assert BoundaryCondition.from_name("fixed", ()) == uniform_fixed_bc(1)
    with pytest.raises(ConfigError, match="unknown boundary condition name 'torus'"):
        BoundaryCondition.from_name("torus", ())
    for axes in ((), (0, 0), (-1,)):
        with pytest.raises(ConfigError, match="seam_axes must be"):
            BoundaryCondition.from_name("antiperiodic", axes)
    with pytest.raises(UnsupportedOperationError, match="seam axis 2"):
        antiperiodic_bc(2).region((3, 3))


@pytest.mark.parametrize("kind, sign", [
    ("fixed", 0), ("fixed", 2), ("fixed", -2), ("fixed", 1.0), ("free", 1), ("periodic", -1),
])
def test_a_boundary_condition_has_a_sign_exactly_when_it_is_fixed(kind, sign):
    # a fixed bc is one sign, the int +-1 its label prints, and no other kind carries one
    with pytest.raises(ValueError, match="sign"):
        exactsolve.BoundaryCondition(kind, sign=sign)
    assert [uniform_fixed_bc(s).sign for s in (1, -1)] == [1, -1]
    assert free_bc().sign == periodic_bc().sign == antiperiodic_bc(0).sign == 0


def test_equal_boundary_conditions_hash_equal_and_share_the_caches():
    region = Region((6, 6))
    bc, same = uniform_fixed_bc(1), uniform_fixed_bc(1)
    assert bc == same and bc is not same and hash(bc) == hash(same)
    assert bc != uniform_fixed_bc(-1)
    couplings = sample_couplings(Gaussian(), required_edges(region, bc), SeedSpec(3))
    GibbsSpec(region, couplings, 1.0, bc)
    before = required_edges.cache_info()
    GibbsSpec(region, couplings, 1.0, same)
    after = required_edges.cache_info()
    assert (after.hits - before.hits, after.misses) == (1, before.misses)


def test_a_pickled_boundary_condition_hashes_like_a_fresh_one_in_another_process():
    # str hashes are salted per process, so a cached hash must not travel
    bc = antiperiodic_bc(0, 1)
    script = (
        "import pickle, sys\n"
        "from eafluct.exactsolve import antiperiodic_bc\n"
        "bc = pickle.loads(sys.stdin.buffer.read())\n"
        "assert bc == antiperiodic_bc(0, 1) and hash(bc) == hash(antiperiodic_bc(0, 1))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345",
           "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    subprocess.run([sys.executable, "-c", script], input=pickle.dumps(bc), env=env,
                   check=True, timeout=60)


def test_beta_must_be_finite_nonnegative():
    region = Region((2, 2))
    couplings = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(1))
    with pytest.raises(ValueError):
        GibbsSpec(region, couplings, -0.1, free_bc())
    with pytest.raises(ValueError):
        GibbsSpec(region, couplings, math.inf, free_bc())


def test_auto_resolves_to_transfer_where_it_applies():
    strip = Region((3, 7))
    plane = GibbsSpec(strip, sample_couplings(Gaussian(), interior_edges(strip), SeedSpec(2)),
                      1.0, free_bc())
    assert Solver().engine(strip) == "transfer"
    assert Solver(width_cap=2).engine(strip) == "enum"
    assert Solver("enum").engine(strip) == "enum"
    cube = Region((2, 2, 2))
    solid = GibbsSpec(cube, sample_couplings(Gaussian(), interior_edges(cube), SeedSpec(2)),
                      1.0, free_bc())
    assert Solver().engine(cube) == "enum"
    assert log_partition(solid) == log_partition_enum(solid)
    assert log_partition(plane) == log_partition_transfer(plane)


def test_unknown_method_raises_value_error_at_every_entry_point():
    region = Region((2, 3))
    spec = GibbsSpec(region, sample_couplings(Gaussian(), interior_edges(region), SeedSpec(2)),
                     1.0, free_bc())
    edge = interior_edges(region).edges[0]
    for call in (
        lambda: Solver("exact"),
        lambda: log_partition(spec, Solver("exact")),
        lambda: edge_correlations(spec, [edge], Solver("exact")),
        lambda: edge_correlation(spec, edge, method="exact"),
    ):
        with pytest.raises(ValueError, match="unknown solver method"):
            call()


# --- periodic and antiperiodic log Z from one sweep ------------------------

# Tori and boundary conditions of the pinned values.  For a square torus the
# transfer runs along axis 0, for a non-square one along the longer axis.
PINNED_TORI = [(2, 2), (3, 4), (4, 6), (6, 5), (10, 10)]
PINNED_BCS = {"periodic": (), "antiperiodic(0)": (0,), "antiperiodic(1)": (1,),
              "antiperiodic(0,1)": (0, 1)}
PINNED_BETAS = [0.0, 1.0, 3.0]


def _torus(extents, k):
    region = Region(extents, (True, True))
    couplings = sample_couplings(Gaussian(0.0, 1.0), interior_edges(region),
                                 SeedSpec(2014, k, "pinned"))
    return region, couplings


def _torus_bc(axes):
    return antiperiodic_bc(*axes) if axes else periodic_bc()


@pytest.mark.parametrize("k", range(len(PINNED_TORI)))
def test_torus_values_match_pins_from_before_the_shared_closing(k):
    """``tests/data/torus_transfer_hex.json`` holds ``float.hex`` of each log Z
    and domain-wall value below.  They were computed at commit cd925c6 (four
    sweeps per domain wall, first wrapped step a diagonal matmul) and kept
    bit for bit by the shared closing and the row-scaled first step.  They
    were re-pinned once when zero-field wrapped sweeps began to carry half
    the rows: 8 of the 90 values moved, by at most 2.5e-16 relative on a
    log Z and 2.9e-14 absolute on a domain wall.  They were re-pinned once
    more when every link began to be applied as its two Kronecker factors,
    which sum each exponent in two halves and multiply in a new order: 12
    of the 60 log Z moved, by at most 2.6e-16 relative, and 8 of the 30
    domain walls, by at most 5.7e-14 absolute.  They were re-pinned once
    more when the sweep stopped dividing its environment and took each
    rescale on the next link's small factor, and closed the trace by
    contraction with the factors: 4 of the 60 log Z moved, by at most
    1.7e-16 relative, and 2 of the 30 domain walls, by at most 5.7e-14
    absolute.  They were re-pinned once more when a sweep whose environment
    does not fit the stack budget began to take its carried rows in chunks,
    combined by a log-sum-exp, which only the 10x10 torus does: its 4 log Z
    at beta 0 moved, by 2.1e-16 relative (to 1.7e-15 from 100 log 2, from
    1.3e-14), and no domain wall moved."""
    pins = json.loads((Path(__file__).parent / "data" / "torus_transfer_hex.json").read_text())
    extents = PINNED_TORI[k]
    region, couplings = _torus(extents, k)
    name = f"{extents[0]}x{extents[1]}"
    for beta in PINNED_BETAS:
        for label, axes in PINNED_BCS.items():
            spec = GibbsSpec(region, couplings, beta, _torus_bc(axes))
            assert log_partition(spec).hex() == pins["log_z"][f"{name} {label} beta={beta:g}"]
        for seam in (0, 1):
            value = domain_wall(couplings, region, beta, seam_axis=seam)
            assert value.hex() == pins["domain_wall"][f"{name} seam={seam} beta={beta:g}"]
            assert beta > 0.0 or value == 0.0


def _own_pair(spec, other, method="auto"):
    """(log Z of ``spec``, log Z of ``other``): ``log_partition_pairs`` of
    the two specs' own couplings, as one-row stacks."""
    stacks = (spec.couplings.values[None], other.couplings.values[None])
    return tuple(exactsolve.log_partition_pairs(spec, other, *stacks, Solver(method))[0].tolist())


@pytest.mark.parametrize("extents", [(2, 2), (3, 4), (4, 3), (6, 5)])
@pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
def test_shared_route_equals_two_log_partition_calls(extents, beta):
    region, couplings = _torus(extents, 1)
    specs = [GibbsSpec(region, couplings, beta, _torus_bc(axes)) for axes in PINNED_BCS.values()]
    for spec in specs:
        for other in specs:
            assert _own_pair(spec, other) == (log_partition(spec), log_partition(other))


@pytest.mark.parametrize("extents", [(2, 2), (3, 4), (4, 4), (3, 5), (5, 3)])
@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_shared_route_matches_enumeration(extents, beta):
    region, couplings = _torus(extents, 2)
    for seam in (0, 1):
        p = GibbsSpec(region, couplings, beta, periodic_bc())
        ap = GibbsSpec(region, couplings, beta, antiperiodic_bc(seam))
        got = _own_pair(p, ap, method="transfer")
        want = _own_pair(p, ap, method="enum")
        assert got == pytest.approx(want, abs=1e-9, rel=0)
        assert want == (log_partition_enum(p), log_partition_enum(ap))
        value = domain_wall(couplings, region, beta, seam_axis=seam)
        enum = domain_wall(couplings, region, beta, seam_axis=seam, method="enum")
        assert abs(value - enum) <= 1e-9


@pytest.mark.parametrize("extents, length_axis", [((4, 4), 0), ((3, 4), 1), ((5, 3), 0)])
def test_one_sweep_per_domain_wall_with_the_seam_on_the_length_axis(
    monkeypatch, extents, length_axis
):
    sweeps = []
    original = exactsolve._transfer_sweep

    def counting(*args, **kwargs):
        sweeps.append(args[0].bc.label)
        return original(*args, **kwargs)

    monkeypatch.setattr(exactsolve, "_transfer_sweep", counting)
    region, couplings = _torus(extents, 4)
    domain_wall(couplings, region, 1.0, seam_axis=length_axis)
    assert sweeps == ["periodic"]
    sweeps.clear()
    domain_wall(couplings, region, 1.0, seam_axis=1 - length_axis)
    assert sweeps == ["periodic", f"antiperiodic[seam={1 - length_axis}]"]


def _stacked_sweeps(monkeypatch):
    """The coupling-stack length of each transfer sweep from now on."""
    stacks = []
    original = exactsolve._transfer_sweep

    def counting(*args, **kwargs):
        stacks.append(len(kwargs["couplings"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(exactsolve, "_transfer_sweep", counting)
    return stacks


def test_shared_route_needs_matching_specs(monkeypatch):
    region, couplings = _torus((4, 4), 5)
    p = GibbsSpec(region, couplings, 1.0, periodic_bc())
    ap = GibbsSpec(region, couplings, 1.0, antiperiodic_bc(0))
    other_beta = GibbsSpec(region, couplings, 2.0, antiperiodic_bc(0))
    other_couplings = ap.with_couplings(couplings.with_values(-couplings.values))

    def plan(spec):
        return exactsolve._transfer_plan(spec.region, spec.bc, exactsolve.TRANSFER_WIDTH_CAP)

    assert exactsolve._negated_close(plan(p), plan(ap))
    assert exactsolve._negated_close(plan(ap), plan(p))
    assert not exactsolve._negated_close(plan(p), plan(p))
    assert not exactsolve._negated_close(plan(p), plan(GibbsSpec(region, couplings, 1.0,
                                                                antiperiodic_bc(1))))
    others = (ap, p, other_beta, other_couplings, GibbsSpec(region, couplings, 1.0,
                                                           antiperiodic_bc(1)))
    want = [(log_partition(p), log_partition(other)) for other in others]
    stacks = _stacked_sweeps(monkeypatch)
    for other, values, sweeps in zip(others, want, [[1]] + [[1, 1]] * 4):
        # one sweep closed both ways only for matching plans, beta and stacks
        stacks.clear()
        assert _own_pair(p, other) == values
        assert stacks == sweeps
    with pytest.raises(ValueError, match="unknown solver method"):
        _own_pair(p, ap, method="exact")


# --- flip-halved wrapped sweeps ----------------------------------------------

# tori of at most 16 spins, thin ones and both orientations of a long axis
SMALL_TORI = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (3, 5)]


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("extents", SMALL_TORI)
def test_halved_torus_sweeps_match_enumeration(extents, beta):
    region, couplings = _torus(extents, 6)
    edges = interior_edges(region)
    for axes in PINNED_BCS.values():
        spec = GibbsSpec(region, couplings, beta, _torus_bc(axes))
        assert abs(log_partition_transfer(spec) - log_partition_enum(spec)) <= 1e-9
        transfer = edge_correlations(spec, edges, Solver("transfer"))
        enum = edge_correlations(spec, edges, Solver("enum"))
        assert np.max(np.abs(transfer - enum)) <= 1e-10
    for seam in (0, 1):
        value = domain_wall(couplings, region, beta, seam_axis=seam)
        enum = domain_wall(couplings, region, beta, seam_axis=seam, method="enum")
        assert abs(value - enum) <= 1e-9
        assert beta > 0.0 or value == 0.0


def _full_row_log_z(spec, negated_close=False):
    """log Z of a torus from the rescaled product of all 2^W rows, closed by
    an explicit trace: the transfer product without the flip halving."""
    plan = exactsolve._transfer_plan(spec.region, spec.bc, exactsolve.TRANSFER_WIDTH_CAP)
    d = exactsolve._column_weights(spec, plan)
    s = plan.s_matrix
    jh = spec.couplings.values[plan.h_pos] * plan.h_sign
    if negated_close:
        jh[:, -1] = -jh[:, -1]
    env, acc = np.diag(d[:, 0]), 0.0
    for c in range(plan.length):
        link = np.exp(spec.beta * ((s * jh[:, c]) @ s.T))
        if c == plan.length - 1:
            return acc + math.log(np.trace(env @ link))
        env = (env @ link) * d[:, c + 1]
        acc += math.log(env.max())
        env /= env.max()


@pytest.mark.parametrize("extents", [(6, 6), (8, 10), (10, 10)])
def test_halved_sweep_matches_the_full_row_product(extents):
    region, couplings = _torus(extents, 8)
    for beta in (1.0, 3.0):
        for axes in PINNED_BCS.values():
            spec = GibbsSpec(region, couplings, beta, _torus_bc(axes))
            want = _full_row_log_z(spec)
            assert log_partition(spec) == pytest.approx(want, rel=1e-13, abs=0)
        # the shared closing of the seam on the length axis
        spec = GibbsSpec(region, couplings, beta, periodic_bc())
        plan = exactsolve._transfer_plan(region, spec.bc, exactsolve.TRANSFER_WIDTH_CAP)
        other = GibbsSpec(region, couplings, beta, antiperiodic_bc(plan.l_axis))
        want = (_full_row_log_z(spec), _full_row_log_z(spec, negated_close=True))
        got = _own_pair(spec, other)
        assert got == pytest.approx(want, rel=1e-13, abs=0)
        assert got == (log_partition(spec), log_partition(other))


@pytest.mark.parametrize("extents, t_axis", [((3, 5), 0), ((5, 3), 1), ((4, 4), 1)])
def test_extra_fields_land_on_their_sites_in_both_strip_orientations(extents, t_axis):
    region = Region(extents)
    assert exactsolve._transfer_plan(region, free_bc(), 12).t_axis == t_axis
    sites = region.sites
    fields = {sites[0]: 0.9, sites[1]: -0.4, sites[len(sites) // 2]: 1.3, sites[-1]: -0.6}
    mixed = ring_through_couplings(make_spec(extents, (False, False), uniform_fixed_bc(), 0.8,
                                             seed=17))
    for spec in [make_spec(extents, (False, False), bc, 0.8, seed=17)
                 for bc in (free_bc(), uniform_fixed_bc(-1))] + [mixed]:
        want = log_partition_enum(spec, extra_fields=fields)
        assert abs(log_partition_transfer(spec, extra_fields=fields) - want) <= 1e-9
        # the fields move log Z, so a misplaced one would show
        assert abs(log_partition_enum(spec) - want) > 1e-3


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("extents", [(1, 1), (2, 5), (5, 2), (4, 4), (6, 3)])
def test_the_fixed_rule_equals_its_explicit_ring(extents, sign):
    # the ring of all ``sign`` written through the +1 rule's ghost couplings
    rule = make_spec(extents, (False, False), uniform_fixed_bc(sign), 1.1, seed=19)
    plus = GibbsSpec(rule.region, rule.couplings, 1.1, uniform_fixed_bc(+1))
    ring = ring_through_couplings(plus, spin=lambda k: sign)
    for engine in (log_partition_enum, log_partition_transfer):
        assert engine(rule).hex() == engine(ring).hex()
    edges = interior_edges(rule.region)
    for method in ("enum", "transfer"):
        got = edge_correlations(rule, edges, Solver(method))
        assert [x.hex() for x in got.tolist()] == [
            x.hex() for x in edge_correlations(ring, edges, Solver(method)).tolist()
        ]


def test_zero_field_wrapped_sweeps_carry_half_the_rows():
    torus = make_spec((3, 4), (True, True), antiperiodic_bc(0, 1), 1.0)
    side = 1 << exactsolve._transfer_plan(torus.region, torus.bc, 12).width
    site = torus.region.sites[5]
    for fields, rows in ((None, side // 2), ({site: 0.0}, side // 2), ({site: 0.4}, side)):
        _, envs = exactsolve._transfer_sweep(torus, extra_fields=fields, keep=True)
        # one stack row, carrying ``rows`` column-0 states
        assert [env.shape[:2] for env in envs] == [(1, rows)] * len(envs)
        want = log_partition_enum(torus, extra_fields=fields)
        assert abs(log_partition_transfer(torus, extra_fields=fields) - want) <= 1e-9
    # an open length axis carries one row, with or without clamped ghosts
    for bc in (free_bc(), uniform_fixed_bc(1)):
        _, envs = exactsolve._transfer_sweep(make_spec((3, 4), None, bc, 1.0), keep=True)
        assert [env.shape[:2] for env in envs] == [(1, 1)] * len(envs)


def test_torus_pair_sweep_holds_at_most_three_dense_links():
    # a dense W=10 link is 8 MiB; holding one a step too long crosses 24 MiB
    region, couplings = _torus((10, 10), 7)
    spec = GibbsSpec(region, couplings, 1.0, periodic_bc())
    other = GibbsSpec(region, couplings, 1.0, antiperiodic_bc(0))
    _own_pair(spec, other)  # warm the plan and edge caches
    tracemalloc.start()
    try:
        _own_pair(spec, other)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


def test_torus_pair_sweep_builds_no_dense_link():
    # a zero-field W=10 sweep carries 512 x 1024 environments (4 MiB); one
    # dense link alone would be 8 MiB
    region, couplings = _torus((10, 10), 7)
    spec = GibbsSpec(region, couplings, 1.0, periodic_bc())
    other = GibbsSpec(region, couplings, 1.0, antiperiodic_bc(0))
    _own_pair(spec, other)  # warm the plan and edge caches
    tracemalloc.start()
    try:
        _own_pair(spec, other)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def _torus_correlation_peak(extents=(10, 10)):
    """``tracemalloc`` peak of every bond correlation of a torus."""
    region, couplings = _torus(extents, 7)
    spec = GibbsSpec(region, couplings, 1.0, periodic_bc())
    edges = interior_edges(region)
    edge_correlations(spec, edges)  # warm the plan and edge caches
    tracemalloc.start()
    try:
        edge_correlations(spec, edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_torus_correlations_fit_in_the_dense_backward_pass_peak():
    # 80 MiB is what the backward pass with dense links peaked at: the ten
    # kept 4 MiB environments plus dense links and products
    assert _torus_correlation_peak() <= 80 * 2**20


def test_torus_correlations_make_no_environment_sized_temporary():
    # the ten kept 4 MiB environments, the backward pass's three buffers of
    # their shape and one 256 KiB block of the stacked products that G_hi
    # sums come to about 52.4 MiB; one more 4 MiB temporary, such as an
    # elementwise product for a column marginal or all of G_hi's products
    # at once, crosses 54 MiB
    assert _torus_correlation_peak() < 54 * 2**20


def test_odd_width_torus_correlations_sum_the_hi_gradient_in_blocks():
    # a 9x9 torus keeps nine 1 MiB environments and three buffers of their
    # shape, about 12.4 MiB with one 256 KiB block of G_hi's products; all
    # of them at once, two environments at odd W, peaked at 14.07 MiB, and
    # one more environment-sized temporary crosses 13 MiB
    assert _torus_correlation_peak((9, 9)) < 13 * 2**20


@pytest.mark.parametrize("shape", [(1, 2, 2), (7, 4, 2), (16, 8, 8), (256, 32, 16)])
def test_the_blocked_hi_gradient_equals_one_stacked_sum_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape) * shape[0])
    left, r_lo = rng.random(shape), rng.random(shape)
    want = (left @ r_lo.transpose(0, 2, 1)).sum(axis=0)
    for n in {1, 3, shape[0], shape[0] + 5}:
        got = exactsolve._hi_gradient(left, r_lo, np.empty((n, shape[1], shape[1])))
        assert got.tobytes() == want.tobytes(), n


def test_torus_pair_sweep_holds_one_environment_and_one_block():
    # the sweep takes its 512 carried rows in chunks of 64 whose 512 KiB
    # environment buffer, overwritten in place, and 256 KiB block fit the
    # stack budget of 1.375 MiB with the rest of the sweep; one environment
    # of all carried rows is 4 MiB, and the close builds none of the closing
    # link's carried rows
    region, couplings = _torus((10, 10), 7)
    spec = GibbsSpec(region, couplings, 1.0, periodic_bc())
    other = GibbsSpec(region, couplings, 1.0, antiperiodic_bc(0))
    _own_pair(spec, other)  # warm the plan and edge caches
    tracemalloc.start()
    try:
        _own_pair(spec, other)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * exactsolve._STACK_DOUBLES


def test_a_12x12_torus_log_z_holds_one_chunk():
    # one environment of all 2048 carried rows is 64 MiB; the smallest
    # chunk, one hi row of 64 carried rows, is 2 MiB
    region, couplings = _torus((12, 12), 7)
    spec = GibbsSpec(region, couplings, 1.0, periodic_bc())
    log_partition(spec)  # warm the plan and edge caches
    tracemalloc.start()
    try:
        log_partition(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("side", [9, 10, 11, 12])
def test_chunked_torus_sweeps_match_the_one_chunk_sweep(monkeypatch, side):
    # the seam on the length axis closes one sweep both ways
    region, couplings = _torus((side, side), 9)
    p = GibbsSpec(region, couplings, 1.0, periodic_bc())
    ap = GibbsSpec(region, couplings, 1.0, antiperiodic_bc(0))
    plan = exactsolve._transfer_plan(region, p.bc, 12)
    carried, n_edges = 1 << (side - 1), len(couplings.values)
    assert exactsolve._chunk_rows(plan, carried, n_edges) < carried
    chunked = _own_pair(p, ap)
    monkeypatch.setattr(exactsolve, "_STACK_DOUBLES", 1 << 40)
    assert exactsolve._chunk_rows(plan, carried, n_edges) == carried
    assert chunked == pytest.approx(_own_pair(p, ap), rel=1e-13, abs=0)


@pytest.mark.parametrize("extents", SMALL_TORI)
def test_chunked_torus_sweeps_match_enumeration(monkeypatch, extents):
    # with no budget every wrapped sweep takes chunks of one hi row, 2^k of
    # its carried rows: two or more on every torus here, but those of width
    # 2 with half their rows carried.  A field carries all 2^W rows
    monkeypatch.setattr(exactsolve, "_STACK_DOUBLES", 0)
    region, couplings = _torus(extents, 6)
    plan = exactsolve._transfer_plan(region, periodic_bc(), 12)
    hi_row = 1 << (plan.width // 2)
    assert exactsolve._chunk_rows(plan, 1 << plan.width, len(couplings.values)) == hi_row
    fields = {region.sites[len(region.sites) // 2]: 0.4}
    for beta in (0.5, 1.0, 3.0):
        for axes in PINNED_BCS.values():
            spec = GibbsSpec(region, couplings, beta, _torus_bc(axes))
            assert abs(log_partition_transfer(spec) - log_partition_enum(spec)) <= 1e-9
            got = log_partition_transfer(spec, extra_fields=fields)
            assert abs(got - log_partition_enum(spec, extra_fields=fields)) <= 1e-9
        for seam in (0, 1):
            value = domain_wall(couplings, region, beta, seam_axis=seam)
            enum = domain_wall(couplings, region, beta, seam_axis=seam, method="enum")
            assert abs(value - enum) <= 1e-9


# --- in-place, blocked link applications ---------------------------------------

# (extents, wrap, bc, extra field on one site): open, clamped, wrapped with
# half and with all rows carried
BLOCK_GEOMETRIES = [
    ((5, 3), None, free_bc(), None),
    ((4, 5), None, uniform_fixed_bc(-1), None),
    ((4, 4), (True, True), periodic_bc(), None),
    ((5, 4), (True, True), antiperiodic_bc(0), None),
    ((4, 4), (True, True), antiperiodic_bc(1), 0.4),
]


def _blocked_results():
    """Hex of every stacked log Z (both closes on a wrapped length axis) and
    of every bond correlation over ``BLOCK_GEOMETRIES``."""
    out = []
    for extents, wrap, bc, field in BLOCK_GEOMETRIES:
        specs = [make_spec(extents, wrap, bc, 0.9, seed=21, realization=k) for k in range(9)]
        spec = specs[0]
        fields = None if field is None else {spec.region.sites[3]: field}
        wrapped = exactsolve._transfer_plan(spec.region, bc, 12).wrap_l
        for n in (1, 3, 9):
            stack = np.stack([s.couplings.values for s in specs[:n]])
            for negated in (False, True) if wrapped else (False,):
                logz, _ = exactsolve._transfer_sweep(
                    spec, extra_fields=fields, negated_close=negated, couplings=stack
                )
                out.append([[v.hex() for v in row] for row in logz])
        corr = edge_correlations(spec, interior_edges(spec.region), Solver("transfer"))
        out.append([x.hex() for x in corr.tolist()])
    return out


@pytest.mark.parametrize("block", [1, 16, 40])
def test_blocked_link_applications_equal_one_block_bit_for_bit(monkeypatch, block):
    # every environment here fits one default block; a block of 1 or 16
    # doubles holds one carried row of a width-4 strip, a block of 40
    # whole stack rows of a width-3 one
    whole = _blocked_results()
    monkeypatch.setattr(exactsolve, "_BLOCK_DOUBLES", block)
    assert _blocked_results() == whole


@pytest.mark.parametrize("wrap, bc", [(None, free_bc()), ((True, True), periodic_bc())])
def test_kept_environments_are_not_changed_by_later_steps(wrap, bc):
    spec = make_spec((6, 4), wrap, bc, 0.8, seed=22)
    plan = exactsolve._transfer_plan(spec.region, spec.bc, 12)
    _, envs = exactsolve._transfer_sweep(spec, keep=True)
    assert len(envs) == plan.length
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(envs, 2))
    # each kept environment is still the sweep's own step from the one
    # before it: the link, with the maximum of that environment dividing its
    # small factor from the second step on, then the column weights
    values = spec.couplings.values[None]
    d = exactsolve._column_weights(spec, plan, values=values)
    jh = values.take(plan.h_pos, axis=-1) * plan.h_sign
    for c in range(1, plan.length):
        hi, lo = exactsolve._link(plan.s_matrix, jh[..., c - 1], spec.beta)
        if c > 1:
            lo /= envs[c - 1].max(axis=(1, 2), keepdims=True)
        out = np.empty_like(envs[c])
        if plan.wrap_l and c == 1:
            step = exactsolve._link_rows((hi, lo), envs[c].shape[1], out)
            step *= d[:, : envs[c].shape[1], None, 0]
        else:
            step = exactsolve._apply(envs[c - 1], (hi, lo), out, np.empty(envs[c].size))
        step *= d[:, None, :, c]
        assert step.tobytes() == envs[c].tobytes(), c


@pytest.mark.parametrize("extents", [(4, 6), (6, 5), (7, 7)])
@pytest.mark.parametrize("field", [None, 0.4])
def test_the_factored_close_equals_the_dot_product_with_the_closing_rows(extents, field):
    # even and odd widths, half the rows carried and, with a field, all of
    # them; both closings of a negated close
    spec = make_spec(extents, (True, True), periodic_bc(), 0.9, seed=23)
    plan = exactsolve._transfer_plan(spec.region, spec.bc, 12)
    fields = None if field is None else {spec.region.sites[3]: field}
    ((*ends,),), envs = exactsolve._transfer_sweep(
        spec, extra_fields=fields, keep=True, negated_close=True
    )
    env, side = envs[-1], 1 << plan.width
    rows = env.shape[1]
    assert rows == (side if field else side // 2)
    acc = 0.0
    for kept in envs[1:]:
        acc += math.log(kept.max())
    jh = spec.couplings.values[plan.h_pos] * plan.h_sign
    for j, logz in zip((jh[:, -1], -jh[:, -1]), ends):
        hi, lo = exactsolve._link(plan.s_matrix, j[None], spec.beta)
        lo /= env.max()
        got = exactsolve._trace_close(env, (hi, lo), np.empty(env.size))
        # the sweep's own close
        assert logz == acc + math.log(got[0])
        rows_of_link = exactsolve._link_rows((hi[0], lo[0]), rows, np.empty((rows, side)))
        want = (side // rows) * np.vdot(env[0], rows_of_link)
        assert got[0] == pytest.approx(want, rel=1e-14, abs=0)


def test_a_chunk_closes_within_one_block():
    # a wrapped close's first contraction, 2^-k of a chunk's environments,
    # shares the sweep's scratch region, which stack_rows counts as one
    # block.  A chunk whose environments fit the budget makes a contraction
    # smaller than a block, and the smallest chunk, one hi row, makes one of
    # 2^W doubles
    checked = 0
    for w in range(1, 13):
        for length in sorted({w + 1, 2 * w, 24}):
            region = Region((length, w), (True, True))
            couplings = sample_couplings(Gaussian(), interior_edges(region),
                                         SeedSpec(30, 0, "t"))
            torus = GibbsSpec(region, couplings, 1.0, periodic_bc())
            box = GibbsSpec(Region((length, w)), couplings, 1.0, free_bc())
            plan = exactsolve._transfer_plan(region, torus.bc, 12)
            side = 1 << w
            chunk = exactsolve._chunk_rows(plan, side // 2, len(torus.couplings.values))
            for other in (torus, box):
                env = exactsolve.stack_rows(torus, other, Solver()) * chunk * side
                checked += 1
                assert env >> (w // 2) <= max(exactsolve._BLOCK_DOUBLES, side), (w, length)
    assert checked == 68  # every pair up to W = 12


# boxes whose masters the beta ceiling was measured on (ROADMAP item 4), by
# route; the first beta of ``CEILING_BETAS`` at which each route fails
CEILING_BOXES = [((6, 6), (False, False), free_bc()), ((3, 3), (True, True), periodic_bc()),
                 ((8, 8), (True, True), periodic_bc())]
CEILING_BETAS = range(10, 301, 10)
FIRST_FAILING_BETA = {"log_z": [70, 100, 40], "correlations": [70, 100, 40]}


@pytest.mark.parametrize("route", sorted(FIRST_FAILING_BETA))
def test_the_transfer_beta_ceiling_is_pinned(route):
    firsts = []
    for extents, wrap, bc in CEILING_BOXES:
        region = Region(extents, wrap)
        couplings = sample_couplings(Gaussian(), interior_edges(region),
                                     SeedSpec(0, 0, "couplings"))
        for beta in CEILING_BETAS:
            spec = GibbsSpec(region, couplings, float(beta), bc)
            try:
                if route == "log_z":
                    log_partition_transfer(spec)
                else:
                    edge_correlations(spec, interior_edges(region), Solver("transfer"))
            except ArithmeticError:
                firsts.append(beta)
                break
    assert firsts == FIRST_FAILING_BETA[route]


def test_chunked_torus_sweeps_keep_the_beta_ceiling(monkeypatch):
    # with no budget the 3x3 torus takes two chunks and the 8x8 one eight;
    # each still passes every beta below its pinned first failing one
    monkeypatch.setattr(exactsolve, "_STACK_DOUBLES", 0)
    for (extents, wrap, bc), first in zip(CEILING_BOXES[1:], FIRST_FAILING_BETA["log_z"][1:]):
        region = Region(extents, wrap)
        couplings = sample_couplings(Gaussian(), interior_edges(region),
                                     SeedSpec(0, 0, "couplings"))
        for beta in CEILING_BETAS:
            if beta < first:
                log_partition_transfer(GibbsSpec(region, couplings, float(beta), bc))


# --- Kronecker link factors ----------------------------------------------------


def _dense_link_blocks(s, couplings, beta, block):
    """(first row, rows) of the dense link exp(beta sum_r J_r s_r s'_r), built
    unfactored, ``block`` rows at a time."""
    for start in range(0, s.shape[0], block):
        yield start, np.exp(beta * ((s[start:start + block] * couplings) @ s.T))


def _times_dense_link(env, s, couplings, beta, block=256):
    """``env @ link`` for a dense link built in row blocks."""
    out = np.zeros((env.shape[0], s.shape[0]))
    for start, rows in _dense_link_blocks(s, couplings, beta, block):
        out += env[:, start:start + block] @ rows
    return out


@pytest.mark.parametrize("width", range(1, 13))
def test_link_factors_multiply_to_the_dense_link(width):
    s = exactsolve._spin_matrix(width)
    rng = np.random.default_rng(width)
    for beta in (0.0, 0.7, 3.0):
        j = rng.normal(size=width)
        hi, lo = exactsolve._link(s, j, beta)
        assert hi.shape == (2 ** (width - width // 2),) * 2
        assert lo.shape == (2 ** (width // 2),) * 2
        # exp turns the rounding of its argument into relative error, so the
        # bound grows with the exponent's size
        tol = 1e-15 * (1.0 + beta * np.abs(j).sum())
        for start, rows in _dense_link_blocks(s, j, beta, lo.shape[0]):
            kron = np.kron(hi[start // lo.shape[0]][None], lo)
            assert np.max(np.abs(kron - rows) / rows) <= tol
        # the dense reference product costs rows * 4^W multiply-adds
        for n_rows in (1, 2 ** (width - 1), 2 ** width):
            if n_rows * 4**width > 2**30:
                continue
            env = rng.random((n_rows, 2 ** width))
            want = _times_dense_link(env, s, j, beta)
            got = exactsolve._apply(env[None], (hi[None], lo[None]), np.empty_like(env[None]),
                                    np.empty(env.size))[0]
            assert np.max(np.abs(got - want) / want) <= 1e-13


def _dense_open_strip(spec):
    """(log Z, bond correlations indexed like the couplings) of an open strip
    from unfactored links: the rescaled forward and backward vectors of the
    transfer product, and for each link the joint weight of the columns it
    joins, summed against s_r s'_r."""
    plan = exactsolve._transfer_plan(spec.region, spec.bc, exactsolve.TRANSFER_WIDTH_CAP)
    assert not plan.wrap_l
    d = exactsolve._column_weights(spec, plan)
    s, sp = plan.s_matrix, plan.sp_matrix
    jh = spec.couplings.values[plan.h_pos] * plan.h_sign

    def times_link(v, c):
        return _times_dense_link(v[None], s, jh[:, c], spec.beta)[0]

    n = plan.length
    left, log_z = [d[:, 0] / d[:, 0].max()], math.log(d[:, 0].max())
    for c in range(1, n):
        v = times_link(left[-1], c - 1) * d[:, c]
        log_z += math.log(v.max())
        left.append(v / v.max())
    log_z += math.log(left[-1].sum())
    right = [np.ones(len(d))] * n  # everything after column c
    for c in reversed(range(n - 1)):
        v = times_link(right[c + 1] * d[:, c + 1], c)
        right[c] = v / v.max()
    out = np.full(spec.couplings.values.shape, np.nan)
    for c in range(n):
        marginal = left[c] * right[c]
        out[plan.v_pos[:, c]] = (marginal @ sp) / marginal.sum()
    for c in range(n - 1):
        after = right[c + 1] * d[:, c + 1]
        total = times_link(left[c], c) @ after
        for r in range(plan.width):
            out[plan.h_pos[r, c]] = times_link(left[c] * s[:, r], c) @ (after * s[:, r]) / total
    return log_z, out


def test_factored_sweep_matches_a_dense_link_sweep_on_an_open_w11_strip():
    spec = make_spec((12, 11), (False, False), free_bc(), 1.0, seed=11)
    assert exactsolve._transfer_plan(spec.region, spec.bc, 12).width == 11
    want, _ = _dense_open_strip(spec)
    assert log_partition_transfer(spec) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("extents, sign", [((16, 8), None), ((9, 11), -1)])
def test_factored_correlations_match_a_dense_link_backward_pass(extents, sign):
    region = Region(extents)
    bc = free_bc() if sign is None else uniform_fixed_bc(sign)
    spec = make_spec(extents, (False, False), bc, 1.0, seed=12)
    log_z, want = _dense_open_strip(spec)
    assert log_partition_transfer(spec) == pytest.approx(log_z, rel=1e-12, abs=0)
    edges = interior_edges(region)
    got = edge_correlations(spec, edges, Solver("transfer"))
    want = want[exactsolve.edge_positions(spec.couplings.edge_set, edges)]
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("extents, wrap", [((20, 16), None), ((5, 3), (True, True)),
                                           ((7, 5), (True, True))])
def test_bond_correlations_are_central_differences_of_log_z(extents, wrap):
    # DERIVED: d log Z / dJ_e = beta <s_x s_y>, from the forward sweep alone.
    # With step h the central difference errs by h^2 beta^2 |k3| / 6, where
    # the third cumulant k3 of a +-1 product is at most 2 in size, plus the
    # rounding of two log Z values (a few units of 5.7e-14 at |log Z| < 512)
    # over 2 beta h: with h = 1e-4 and beta = 1, about 3.3e-9 + 3e-9, so the
    # tolerance is 1e-8.
    # An open W=16 strip, and W=3 and W=5 tori, whose halves are unequal and
    # whose zero-field sweeps carry half the rows.
    spec = make_spec(extents, wrap, free_bc() if wrap is None else periodic_bc(), 1.0, seed=23)
    plan = exactsolve._transfer_plan(spec.region, spec.bc, 16)
    assert plan.width == min(extents)
    # a vertical bond, a low-half and a high-half horizontal bond, and on a
    # torus a bond of the closing link
    positions = [plan.v_pos[0, 2], plan.h_pos[0, 1], plan.h_pos[-1, 1]]
    if plan.wrap_l:
        positions.append(plan.h_pos[plan.width // 2, -1])
    edges = [spec.couplings.edge_set.edges[p] for p in positions]
    got = edge_correlations(spec, edges, Solver("transfer", width_cap=16))
    h = 1e-4
    for p, corr in zip(positions, got):
        log_z = []
        for step in (h, -h):
            values = spec.couplings.values.copy()
            values[p] += step
            shifted = spec.with_couplings(spec.couplings.with_values(values))
            log_z.append(log_partition(shifted, Solver("transfer", width_cap=16)))
        assert abs((log_z[0] - log_z[1]) / (2 * spec.beta * h) - corr) <= 1e-8, p


@pytest.mark.parametrize("side", [8, 10])
def test_torus_correlations_match_the_transposed_sweep(side):
    # a square box runs its sweep along axis 0, so the transposed couplings
    # are swept along the other axis of the same system: an independent
    # transfer product, beyond enumeration's reach
    region, couplings = _torus((side, side), 9)
    edges = couplings.edge_set.edges
    flipped = tuple(edge_from_origin(e.origin[::-1], 1 - e.axis, region) for e in edges)
    values = np.empty_like(couplings.values)
    values[exactsolve.edge_positions(couplings.edge_set, flipped)] = couplings.values
    spec = GibbsSpec(region, couplings, 1.0, periodic_bc())
    transposed = spec.with_couplings(couplings.with_values(values))
    got = edge_correlations(spec, edges, Solver("transfer"))
    want = edge_correlations(transposed, flipped, Solver("transfer"))
    assert np.max(np.abs(got - want)) <= 1e-12


# thin, width-1 and single-site boxes, open and wrapped
THIN_BOXES = [(1, 1), (1, 6), (6, 1), (2, 5), (5, 2), (3, 4)]


def _every_bc(extents, beta, seed=13, realization=0):
    """A spec under every bc, with a mixed clamped ring among them."""
    specs = [make_spec(extents, wrap, bc, beta, seed, realization) for wrap, bc in [
        ((False, False), free_bc()),
        ((False, False), uniform_fixed_bc(1)),
        ((True, True), periodic_bc()),
        ((True, True), antiperiodic_bc(0)),
        ((True, True), antiperiodic_bc(1)),
        ((True, True), antiperiodic_bc(0, 1)),
    ]]
    return [*specs[:2], ring_through_couplings(specs[1]), *specs[2:]]


@pytest.mark.parametrize("beta", [0.0, 0.7, 3.0])
@pytest.mark.parametrize("extents", THIN_BOXES)
def test_factored_links_match_enumeration_on_every_bc(extents, beta):
    for spec in _every_bc(extents, beta):
        assert abs(log_partition_transfer(spec) - log_partition_enum(spec)) <= 1e-9
        edges = interior_edges(spec.region)
        transfer = edge_correlations(spec, edges, Solver("transfer"))
        enum = edge_correlations(spec, edges, Solver("enum"))
        assert np.all(np.abs(transfer - enum) <= 1e-10), (extents, spec.bc.label)
        if beta == 0.0:
            assert np.all(transfer == 0.0)


# --- stacked sweeps ------------------------------------------------------------

STACK_BOXES = [(a, b) for a in range(1, 7) for b in range(1, 7)] + [(10, 10)]


def _row_sweeps(specs, negated_close=False):
    """Hex log Z of each spec from one stacked sweep over the first spec's
    plan, and from one sweep per spec."""
    stack = np.stack([spec.couplings.values for spec in specs])
    stacked, _ = exactsolve._transfer_sweep(
        specs[0], negated_close=negated_close, couplings=stack
    )
    single = [exactsolve._transfer_sweep(spec, negated_close=negated_close)[0][0]
              for spec in specs]
    return [[v.hex() for v in row] for row in stacked], [[v.hex() for v in row] for row in single]


@pytest.mark.parametrize("extents", STACK_BOXES)
def test_stacked_sweep_rows_match_one_row_sweeps(extents):
    for beta in (0.0, 0.7, 3.0):
        realizations = [_every_bc(extents, beta, seed=14, realization=k) for k in range(3)]
        for specs in zip(*realizations):
            bc = specs[0].bc
            stacked, single = _row_sweeps(specs)
            assert stacked == single, (bc.label, beta)
            if exactsolve._transfer_plan(specs[0].region, bc, 12).wrap_l:
                # both closings of a negated-close stack
                stacked, single = _row_sweeps(specs, negated_close=True)
                assert stacked == single, (bc.label, beta)
                assert all(len(row) == 2 for row in stacked)


def test_log_partition_pairs_equals_one_call_per_row_for_each_kind_of_pair(monkeypatch):
    box = Region((4, 4))
    torus = Region((4, 4), (True, True))
    a = sample_couplings(Gaussian(), interior_edges(torus), SeedSpec(15, 0, "test"))
    b = sample_couplings(Gaussian(), interior_edges(torus), SeedSpec(15, 1, "test"))
    length_axis = exactsolve._transfer_plan(torus, periodic_bc(), 12).l_axis
    strip = Region((3, 5))
    fixed = uniform_fixed_bc(-1)
    cube = [make_spec((2, 2, 2), None, free_bc(), beta, realization=k)
            for k in range(2) for beta in (1.0, 0.5)]
    strips = [(make_spec((3, 5), None, free_bc(), 1.0, realization=k),
               make_spec((3, 5), None, fixed, 1.0, realization=k)) for k in range(2)]
    batches = [
        ([(GibbsSpec(box, c, 1.0, free_bc()), GibbsSpec(torus, c, 1.0, periodic_bc()))
          for c in (a, b)], [2, 2]),
        # one sweep, closed both ways
        ([(GibbsSpec(torus, c, 1.0, periodic_bc()),
           GibbsSpec(torus, c, 1.0, antiperiodic_bc(length_axis))) for c in (a, b)], [2]),
        # no transfer in three dimensions
        ([(cube[0], cube[1]), (cube[2], cube[3])], []),
        (strips, [2, 2]),
    ]
    assert Solver().engine(cube[0].region) == "enum"
    wants = [[(log_partition(g), log_partition(gp)) for g, gp in pairs] for pairs, _ in batches]
    stacks = _stacked_sweeps(monkeypatch)
    for (pairs, sweeps), want in zip(batches, wants):
        assert [_own_pair(*pair) for pair in pairs] == want
        stacks.clear()
        got = exactsolve.log_partition_pairs(
            *pairs[0], *(np.stack([pair[k].couplings.values for pair in pairs]) for k in (0, 1))
        )
        assert got.shape == (2, 2)
        assert got.tolist() == [list(w) for w in want]
        assert stacks == sweeps
    spec, other = pairs[0]
    empty = (np.empty((0, len(spec.couplings.values))), np.empty((0, len(other.couplings.values))))
    assert exactsolve.log_partition_pairs(spec, other, *empty).shape == (0, 2)


@pytest.mark.parametrize("method", ["enum", "transfer"])
def test_a_non_finite_coupling_row_is_a_config_error(method):
    spec = make_spec((3, 3), (False, False), free_bc(), 1.0)
    good = np.stack([spec.couplings.values] * 2)
    bad = good.copy()
    bad[1, 2] = np.nan
    for stacks in ((bad, good), (good, bad)):
        with pytest.raises(ConfigError):
            exactsolve.log_partition_pairs(spec, spec, *stacks, Solver(method))


@pytest.mark.parametrize("at", [0, 2])
@pytest.mark.parametrize("wrap, bc, negated", [
    (None, free_bc(), False),
    ((True, True), periodic_bc(), True),
])
def test_one_row_past_the_beta_ceiling_fails_its_whole_stack(wrap, bc, negated, at):
    # the range of every row is checked at once, before any log is taken:
    # one row of couplings scaled past the ceiling fails the stack wherever
    # it stands, and the other rows alone keep their one-row values
    spec = make_spec((5, 4), wrap, bc, 1.0)
    rows = [spec.couplings.values, -spec.couplings.values]
    alone = [exactsolve._transfer_sweep(spec, negated_close=negated, couplings=r[None])[0][0]
             for r in rows]
    both, _ = exactsolve._transfer_sweep(spec, negated_close=negated, couplings=np.stack(rows))
    assert both == alone
    rows.insert(at, 1000.0 * spec.couplings.values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="left the floating-point range"):
            exactsolve._transfer_sweep(spec, negated_close=negated, couplings=np.stack(rows))


def test_a_stack_with_one_overflowing_row_is_loud_and_silent():
    # single sweeps of this box already fail at beta 400; rows of zero
    # couplings alone stay in range
    spec = make_spec((6, 6), (False, False), free_bc(), 400.0)
    zeros = np.zeros_like(spec.couplings.values)
    rows, _ = exactsolve._transfer_sweep(spec, couplings=np.stack([zeros, zeros]))
    assert rows == [(pytest.approx(36 * math.log(2.0), rel=1e-15, abs=0),)] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError):
            log_partition_transfer(spec)
        with pytest.raises(ArithmeticError):
            exactsolve._transfer_sweep(
                spec, couplings=np.stack([zeros, spec.couplings.values, zeros])
            )


def test_a_torus_batch_sweeps_one_row_at_a_time_within_the_pair_bound(monkeypatch):
    # a 10x10 torus environment fills a chunk: four pairs cost four one-row
    # sweeps and peak no higher than one pair does
    region = Region((10, 10), (True, True))
    pairs = []
    for k in range(4):
        couplings = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(16, k, "t"))
        pairs.append((GibbsSpec(region, couplings, 1.0, periodic_bc()),
                      GibbsSpec(region, couplings, 1.0, antiperiodic_bc(0))))
    want = [list(_own_pair(*pair)) for pair in pairs]  # warms the caches
    stack = np.stack([spec.couplings.values for spec, _ in pairs])
    tracemalloc.start()
    try:
        got = exactsolve.log_partition_pairs(*pairs[0], stack, stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tolist() == want
    assert peak <= 16 * 2**20
    stacks = _stacked_sweeps(monkeypatch)
    exactsolve.log_partition_pairs(*pairs[0], stack, stack)
    assert stacks == [1] * 4
