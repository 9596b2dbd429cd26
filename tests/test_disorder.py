import math

import numpy as np
import pytest

from eafluct.disorder import (
    ZERO,
    Gaussian,
    SeedSpec,
    Uniform,
    restrict,
    sample_couplings,
    set_block,
    translate_couplings,
)
from eafluct.errors import (
    IncompleteAssignmentError,
    ContainmentError,
    UndeclaredEdgeError,
    UnsupportedOperationError,
)
from eafluct.lattice import Region, centered_window, interior_edges, translate_edge


def quad_abs_moment(dist, n=1_000_001):
    """Quadrature oracle for E|J|, with grids split at the |x| kink and
    aligned to the support (used to pin the closed forms)."""
    if isinstance(dist, Gaussian):
        lo, hi = dist.mean - 12 * dist.stddev, dist.mean + 12 * dist.stddev

        def pdf(xs):
            return np.exp(-((xs - dist.mean) ** 2) / (2 * dist.stddev**2)) / (
                dist.stddev * math.sqrt(2 * math.pi)
            )

    else:
        lo, hi = dist.lo, dist.hi

        def pdf(xs):
            return np.full_like(xs, 1.0 / (dist.hi - dist.lo))

    total = 0.0
    pieces = [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]
    for a, b in pieces:
        xs = np.linspace(a, b, n)
        total += float(np.trapezoid(np.abs(xs) * pdf(xs), xs))
    return total


@pytest.mark.parametrize(
    "dist",
    [Gaussian(), Gaussian(0.7, 2.0), Uniform(-1.0, 1.0), Uniform(0.5, 2.0), Uniform(-3.0, 1.0)],
)
def test_closed_form_moments_match_quadrature(dist):
    assert dist.abs_first_moment == pytest.approx(quad_abs_moment(dist), abs=1e-6)


def test_gaussian_standard_moments():
    g = Gaussian()
    assert g.abs_first_moment == pytest.approx(math.sqrt(2 / math.pi), abs=1e-15)


def test_distribution_validation():
    with pytest.raises(ValueError):
        Gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)


def test_sampling_empty_edge_set():
    region = Region((1, 1))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(1))
    assert len(cfg.values) == 0


def test_sampling_is_deterministic():
    edges = interior_edges(Region((4, 4), (True, True)))
    a = sample_couplings(Gaussian(), edges, SeedSpec(99, 3, "couplings"))
    b = sample_couplings(Gaussian(), edges, SeedSpec(99, 3, "couplings"))
    assert a.edge_set.edges == b.edge_set.edges and np.array_equal(a.values, b.values)


def test_distinct_streams_differ():
    edges = interior_edges(Region((4, 4), (True, True)))
    a = sample_couplings(Gaussian(), edges, SeedSpec(99, 3, "couplings"))
    for other in (SeedSpec(99, 4, "couplings"), SeedSpec(99, 3, "other"), SeedSpec(98, 3, "couplings")):
        b = sample_couplings(Gaussian(), edges, other)
        assert a.edge_set.edges == b.edge_set.edges
        assert not np.array_equal(a.values, b.values)


def test_sampled_moments_match_closed_forms():
    # DERIVED: moment check against closed forms, 3-standard-error tolerance
    region = Region((100, 51), (True, False))
    edges = interior_edges(region)
    n = len(edges)
    assert n >= 10_000
    cfg = sample_couplings(Gaussian(), edges, SeedSpec(2024, 0, "moments"))
    vals = cfg.values
    assert abs(vals.mean()) <= 3.0 / math.sqrt(n)
    m4 = (vals**4).mean()
    se4 = math.sqrt((vals**8).mean() - m4**2) / math.sqrt(n)
    assert abs(m4 - 3.0) <= 3.0 * se4
    assert abs(m4 - 3.0) / 3.0 <= 0.10
    m_abs = np.abs(vals).mean()
    se_abs = np.abs(vals).std() / math.sqrt(n)
    assert abs(m_abs - math.sqrt(2 / math.pi)) <= 3.0 * se_abs


def test_set_block_zero_on_empty_block_changes_nothing():
    region = Region((4, 4))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(7))
    block = Region((1, 1), None, (1, 1))  # a single site has no interior edges
    out = set_block(cfg, block, ZERO)
    assert out.edge_set.edges == cfg.edge_set.edges and np.array_equal(out.values, cfg.values)


def test_set_block_zero_whole_region():
    region = Region((3, 3))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(7))
    out = set_block(cfg, region, ZERO)
    assert np.all(out.values == 0.0)
    assert not np.all(cfg.values == 0.0)  # input unchanged


def test_set_block_single_edge_overwrite():
    region = Region((3, 3))
    edges = interior_edges(region)
    cfg = sample_couplings(Gaussian(), edges, SeedSpec(7))
    window = Region((2, 1), None, (0, 0))
    (edge,) = tuple(interior_edges(window))
    out = set_block(cfg, window, {edge: 0.5})
    assert out.value(edge) == 0.5
    for e in edges:
        if e != edge:
            assert out.value(e) == cfg.value(e)


def test_set_block_missing_value_errors():
    region = Region((3, 3))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(7))
    block = centered_window(region, (2, 2))
    with pytest.raises(IncompleteAssignmentError):
        set_block(cfg, block, {})


def test_set_block_requires_containment():
    region = Region((3, 3))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(7))
    with pytest.raises(ContainmentError):
        set_block(cfg, Region((2, 2), None, (5, 5)), ZERO)


def test_set_block_is_idempotent():
    region = Region((4, 4))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(7))
    block = centered_window(region, (2, 2))
    once = set_block(cfg, block, ZERO)
    twice = set_block(once, block, ZERO)
    assert once.edge_set.edges == twice.edge_set.edges
    assert np.array_equal(once.values, twice.values)


def test_undeclared_edge_lookup_fails_loudly():
    region = Region((2, 2))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(7))
    from eafluct.lattice import Edge

    with pytest.raises(UndeclaredEdgeError):
        cfg.value(Edge((5, 5), (5, 6), axis=1))


def test_translate_couplings_zero_vector_identity():
    region = Region((3, 3), (True, True))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(3))
    out = translate_couplings(cfg, (0, 0))
    assert out.edge_set.edges == cfg.edge_set.edges and np.array_equal(out.values, cfg.values)


def test_translate_couplings_round_trip():
    region = Region((4, 3), (True, True))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(3))
    out = translate_couplings(translate_couplings(cfg, (1, 2)), (-1, -2))
    assert out.edge_set.edges == cfg.edge_set.edges and np.array_equal(out.values, cfg.values)


def test_translate_couplings_2x2_torus_permutation():
    # DERIVED: apply the permutation edge-by-edge via translate_edge()
    region = Region((2, 2), (True, True))
    edges = interior_edges(region)
    cfg = sample_couplings(Gaussian(), edges, SeedSpec(5))
    vector = (1, 0)
    out = translate_couplings(cfg, vector)
    for e in edges:
        te = translate_edge(e, vector, region)
        assert out.value(te) == cfg.value(e)


def test_translate_couplings_preserves_multiset():
    region = Region((3, 3), (True, True))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(5))
    out = translate_couplings(cfg, (2, 1))
    assert sorted(out.values) == sorted(cfg.values)


def test_translate_couplings_requires_torus():
    region = Region((3, 3))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(5))
    with pytest.raises(UnsupportedOperationError):
        translate_couplings(cfg, (1, 0))


def test_restrict_to_subset():
    region = Region((3, 3), (True, True))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(5))
    open_region = Region((3, 3))
    sub = restrict(cfg, interior_edges(open_region))
    for e in interior_edges(open_region):
        assert sub.value(e) == cfg.value(e)
    with pytest.raises(UndeclaredEdgeError):
        restrict(sub, interior_edges(region))


def test_seedspec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(2**64)


def test_values_are_immutable():
    region = Region((2, 2))
    cfg = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(1))
    with pytest.raises(ValueError):
        cfg.values[0] = 1.0
