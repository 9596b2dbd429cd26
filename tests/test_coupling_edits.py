"""Coupling edits as index-array gathers and scatters, checked bit for bit
against per-edge dictionary references written out here.

The geometries are the two where an edge lookup can go wrong: a torus with
an extent-2 axis, whose two bonds between the same pair of sites differ only
in ``wrap``, and an open box with its clamped ghost ring, whose bonds have
one endpoint outside the region.
"""

import re

import numpy as np
import pytest
from conftest import constant_one

from eafluct.disorder import (
    ZERO,
    CouplingConfig,
    Gaussian,
    SeedSpec,
    edge_positions,
    overlay,
    restrict,
    sample_couplings,
    set_block,
    translate_couplings,
)
from eafluct.errors import (
    ConfigError,
    ContainmentError,
    IncompleteAssignmentError,
    PairError,
    UndeclaredEdgeError,
)
from eafluct.exactsolve import (
    GibbsSpec,
    Solver,
    edge_correlations,
    periodic_bc,
    required_edges,
    reweight,
    reweight_expectation,
    uniform_fixed_bc,
)
from eafluct.interface import StatePair, make_state_pair, sample_master
from eafluct.lattice import Region, interior_edges, translate_edge

TORUS = Region((2, 3), (True, True))
BOX = Region((3, 3))
FIXED = uniform_fixed_bc(-1)
TORUS_BLOCK = Region((2, 2), None, (0, 1))
BOX_BLOCK = Region((2, 2), None, (1, 1))


def torus_config():
    return sample_couplings(Gaussian(), interior_edges(TORUS), SeedSpec(5, 0, "edits"))


def ring_config():
    return sample_couplings(Gaussian(), required_edges(BOX, FIXED), SeedSpec(5, 1, "edits"))


def master_config():
    # the 2x3 torus bonds and the ghost ring of the open 2x3 box together
    return sample_master(Gaussian(), (2, 3), SeedSpec(5, 2, "edits"))


CASES = {
    "torus": (torus_config, TORUS_BLOCK),
    "ring": (ring_config, BOX_BLOCK),
    "master": (master_config, TORUS_BLOCK),
}


def as_dict(config):
    return {e: float(v) for e, v in zip(config.edge_set, config.values)}


def aligned(edge_set, values):
    return np.array([values[e] for e in edge_set], dtype=np.float64)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def block_values(block):
    # distinct values, one of them a negative zero, which only bits tell apart
    values = {e: 0.25 * k - 1.0 for k, e in enumerate(interior_edges(block))}
    values[next(iter(values))] = -0.0
    return values


def test_geometries_hold_what_the_edits_must_tell_apart():
    twins = [e for e in interior_edges(TORUS) if e.axis == 0]
    assert {(e.x, e.y) for e in twins if e.wrap} == {(e.x, e.y) for e in twins if not e.wrap}
    ring = ring_config().edge_set
    assert sum(not (BOX.contains_site(e.x) and BOX.contains_site(e.y)) for e in ring) == 12
    master = master_config().edge_set
    assert any(e.wrap for e in master) and any(not TORUS.contains_site(e.x) for e in master)


@pytest.mark.parametrize("case", CASES)
def test_set_block_matches_per_edge_reference(case):
    make, block = CASES[case]
    cfg = make()
    for values in (ZERO, block_values(block)):
        ref = as_dict(cfg)
        for e in interior_edges(block):
            ref[e] = 0.0 if values is ZERO else values[e]
        assert_same_bits(set_block(cfg, block, values).values, aligned(cfg.edge_set, ref))


@pytest.mark.parametrize("case", CASES)
def test_overlay_matches_per_edge_reference(case):
    make, _ = CASES[case]
    cfg = make()
    source = cfg.with_values(-2.0 * cfg.values[::-1])
    every_third = tuple(cfg.edge_set.edges[::3])
    for edges in (every_third, every_third[::-1], (), list(every_third)):
        ref = as_dict(cfg)
        src = as_dict(source)
        for e in edges:
            ref[e] = src[e]
        assert_same_bits(overlay(cfg, source, edges).values, aligned(cfg.edge_set, ref))


@pytest.mark.parametrize(
    "case, target",
    [
        ("torus", interior_edges(Region((2, 3)))),
        ("ring", interior_edges(BOX)),
        ("master", interior_edges(TORUS)),
        ("master", required_edges(Region((2, 3)), uniform_fixed_bc())),
    ],
)
def test_restrict_matches_per_edge_reference(case, target):
    cfg = CASES[case][0]()
    out = restrict(cfg, target)
    assert out.edge_set == target
    assert_same_bits(out.values, aligned(target, as_dict(cfg)))


@pytest.mark.parametrize(
    "region, config, bc, block",
    [
        (TORUS, torus_config, periodic_bc(), TORUS_BLOCK),
        (BOX, ring_config, FIXED, BOX_BLOCK),
    ],
)
def test_reweight_matches_per_edge_reference(region, config, bc, block):
    spec = GibbsSpec(region, config(), 0.7, bc)
    values = block_values(block)
    ref = as_dict(spec.couplings)
    for e in interior_edges(block):
        ref[e] += values[e]
    out = reweight(spec, block, values)
    assert_same_bits(out.couplings.values, aligned(spec.couplings.edge_set, ref))


@pytest.mark.parametrize("vector", [(0, 0), (1, 0), (0, 1), (1, 2)])
def test_translate_couplings_matches_per_edge_reference(vector):
    cfg = torus_config()
    src = as_dict(cfg)
    ref = {translate_edge(e, vector, TORUS): v for e, v in src.items()}
    assert len(ref) == len(src)
    assert_same_bits(translate_couplings(cfg, vector).values, aligned(cfg.edge_set, ref))


# --- edge_positions ---------------------------------------------------------


def test_edge_positions_follow_the_given_order_and_are_cached_read_only():
    edge_set = master_config().edge_set
    edges = tuple(edge_set.edges[::-2])
    idx = edge_positions(edge_set, edges)
    assert idx.dtype == np.intp
    assert idx.tolist() == [edge_set.position[e] for e in edges]
    assert edge_positions(edge_set, edges) is idx
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0] = 0
    block_idx = edge_positions(edge_set, interior_edges(TORUS_BLOCK))
    assert not block_idx.flags.writeable


def test_edge_positions_raise_the_callers_error_class():
    edge_set = interior_edges(Region((2, 3)))
    wrapped = next(e for e in interior_edges(TORUS) if e.wrap)
    with pytest.raises(ContainmentError, match="wrap=True"):
        edge_positions(edge_set, (edge_set.edges[0], wrapped))
    with pytest.raises(UndeclaredEdgeError):
        edge_positions(edge_set, (wrapped,), UndeclaredEdgeError)
    assert edge_positions(edge_set, ()).size == 0


# --- error classes of every edit --------------------------------------------


def test_edit_errors():
    torus, ring = torus_config(), ring_config()
    outside = Region((2, 2), None, (4, 4))
    ghost = next(e for e in ring.edge_set if not BOX.contains_site(e.x))
    with pytest.raises(ContainmentError):
        set_block(torus, outside, ZERO)
    with pytest.raises(IncompleteAssignmentError):
        set_block(torus, TORUS_BLOCK, {})
    with pytest.raises(ContainmentError):
        overlay(torus, ring, (ghost,))
    with pytest.raises(ContainmentError):
        overlay(ring, torus, (ghost,))
    with pytest.raises(UndeclaredEdgeError):
        restrict(torus, ring.edge_set)
    with pytest.raises(ContainmentError):  # its ghost-ring bonds have no translate
        translate_couplings(master_config(), (1, 0))
    spec = GibbsSpec(BOX, ring, 1.0, FIXED)
    for edit in (
        lambda b, v: reweight(spec, b, v),
        lambda b, v: reweight_expectation(spec, b, v, constant_one),
    ):
        with pytest.raises(ContainmentError):
            edit(outside, {})
        with pytest.raises(IncompleteAssignmentError):
            edit(BOX_BLOCK, {})


@pytest.mark.parametrize("method", ["enum", "transfer"])
def test_correlations_of_a_ghost_bond_are_refused(method):
    spec = GibbsSpec(BOX, ring_config(), 1.0, FIXED)
    ghost = next(e for e in spec.couplings.edge_set if not BOX.contains_site(e.x))
    assert ghost in spec.couplings.edge_set
    with pytest.raises(ContainmentError):
        edge_correlations(spec, (interior_edges(BOX).edges[0], ghost), Solver(method))


def test_correlation_difference_refuses_an_edge_one_state_lacks():
    master = sample_master(Gaussian(), (4, 4), SeedSpec(3, 0, "couplings"))
    pair = make_state_pair((4, 4), (2, 2), 1.0, uniform_fixed_bc(),
                           periodic_bc(), master)
    seam = next(e for e in pair.gamma_prime.couplings.edge_set if e.wrap)
    edge_correlations(pair.gamma_prime, (seam,))
    with pytest.raises(ContainmentError):
        edge_correlations(pair.gamma, (seam,))


def test_pair_error_names_a_differing_shared_edge():
    master = sample_master(Gaussian(), (4, 4), SeedSpec(3, 0, "couplings"))
    pair = make_state_pair((4, 4), (2, 2), 1.0, uniform_fixed_bc(),
                           periodic_bc(), master)
    gp = pair.gamma_prime
    edge = interior_edges(Region((4, 4))).edges[7]
    tweaked = gp.couplings.values.copy()
    tweaked[gp.couplings.edge_set.index(edge)] += 0.5
    bad = gp.with_couplings(gp.couplings.with_values(tweaked))
    with pytest.raises(PairError, match=re.escape(str(edge))):
        StatePair(pair.window, pair.gamma, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_couplings_are_a_config_error(bad):
    config = ring_config()
    values = config.values.copy()
    values[4] = bad
    with pytest.raises(ConfigError, match=re.escape(str(config.edge_set.edges[4]))):
        CouplingConfig(config.edge_set, values)
    block_values = {e: bad for e in interior_edges(BOX_BLOCK)}
    # without the check this surfaced later as a PairError on a shared edge
    with pytest.raises(ConfigError):
        set_block(sample_master(Gaussian(), (3, 3), SeedSpec(5, 2, "edits")), BOX_BLOCK,
                  block_values)
    with pytest.raises(ConfigError):
        reweight(GibbsSpec(BOX, config, 1.0, FIXED), BOX_BLOCK, block_values)
