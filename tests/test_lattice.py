import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eafluct.errors import ContainmentError, OutOfBoundsError, PartitionError
from eafluct.lattice import (
    Edge,
    Region,
    block_partition,
    boundary_edges,
    centered_window,
    grow,
    interior_edges,
    translate_edge,
    translate_site,
)


def brute_neighbor_pairs(region):
    """Independent edge enumeration: all unordered nearest-neighbor bonds,
    counting the doubled bonds of extent-2 wrapped axes."""
    bonds = []
    for site in region.sites:
        for axis in range(region.dimension):
            rel = site[axis] - region.origin[axis]
            e = region.extents[axis]
            if rel + 1 < e:
                other = site[:axis] + (site[axis] + 1,) + site[axis + 1 :]
                bonds.append(frozenset((site, other)))
            elif region.wrap[axis] and e >= 2:
                other = site[:axis] + (region.origin[axis],) + site[axis + 1 :]
                bonds.append(frozenset((site, other)))
    return bonds


def test_single_site_has_no_edges():
    assert len(interior_edges(Region((1, 1)))) == 0


def test_open_2x2_has_four_edges():
    assert len(interior_edges(Region((2, 2)))) == 4


def test_wrapped_2x2_has_eight_edges():
    # DERIVED from the brute-force neighbor enumeration below
    region = Region((2, 2), (True, True))
    edges = interior_edges(region)
    assert len(edges) == len(brute_neighbor_pairs(region)) == 8
    # the doubled bonds differ only in the wrap marker
    endpoint_sets = [frozenset((e.x, e.y)) for e in edges]
    assert len(set(endpoint_sets)) == 4


@pytest.mark.parametrize(
    "extents,wrap",
    [((3, 3), (False, False)), ((3, 3), (True, True)), ((4, 2), (True, False)),
     ((2, 3), (False, True)), ((2, 2, 2), (True, True, True)), ((5,), (True,))],
)
def test_interior_edges_match_brute_force(extents, wrap):
    from collections import Counter

    region = Region(extents, wrap)
    edges = interior_edges(region)
    brute = brute_neighbor_pairs(region)
    assert Counter(frozenset((e.x, e.y)) for e in edges) == Counter(brute)


def test_boundary_of_itself_is_empty():
    region = Region((3, 3))
    assert len(boundary_edges(region, region)) == 0


def test_unit_window_centered_in_3x3_has_four_boundary_edges():
    ambient = Region((3, 3))
    inner = centered_window(ambient, (1, 1))
    assert inner.origin == (1, 1)
    assert len(boundary_edges(inner, ambient)) == 4


def test_2x2_window_in_4x4_boundary_edges():
    # DERIVED: brute-force endpoint test
    ambient = Region((4, 4))
    inner = centered_window(ambient, (2, 2))
    edges = boundary_edges(inner, ambient)
    brute = [
        e
        for e in interior_edges(ambient)
        if (inner.contains_site(e.x)) != (inner.contains_site(e.y))
    ]
    assert len(edges) == len(brute) == 8


def test_boundary_requires_containment():
    with pytest.raises(ContainmentError):
        boundary_edges(Region((3, 3), None, (5, 5)), Region((4, 4)))


def test_edge_partition_counts_each_ambient_edge_once():
    ambient = Region((4, 4))
    inner = centered_window(ambient, (2, 2))
    interior_inner = interior_edges(inner)
    boundary = boundary_edges(inner, ambient)
    rest = [
        e
        for e in interior_edges(ambient)
        if not inner.contains_site(e.x) and not inner.contains_site(e.y)
    ]
    assert len(interior_inner) + len(boundary) + len(rest) == len(interior_edges(ambient))
    seen = set(interior_inner) | set(boundary) | set(rest)
    assert len(seen) == len(interior_edges(ambient))


def test_translate_identity():
    region = Region((3, 3), (True, True))
    site = (1, 2)
    assert translate_site(site, (0, 0), region) == site
    e = interior_edges(region).edges[0]
    assert translate_edge(e, (0, 0), region) == e


def test_translate_edge_on_torus():
    region = Region((3, 3), (True, True))
    e = Edge((0, 0), (0, 1), axis=1)
    te = translate_edge(e, (1, 0), region)
    assert (te.x, te.y) == ((1, 0), (1, 1))


def test_translate_site_wraps():
    region = Region((3, 3), (True, True))
    assert translate_site((2, 2), (1, 0), region) == (0, 2)


def test_translate_off_open_region_raises():
    region = Region((3, 3))
    with pytest.raises(OutOfBoundsError):
        translate_site((2, 2), (1, 0), region)


@settings(max_examples=60, deadline=None)
@given(
    vec=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    site=st.tuples(st.integers(0, 3), st.integers(0, 4)),
)
def test_translate_is_a_torus_bijection(vec, site):
    region = Region((4, 5), (True, True))
    back = tuple(-v for v in vec)
    assert translate_site(translate_site(site, vec, region), back, region) == site


@settings(max_examples=40, deadline=None)
@given(vec=st.tuples(st.integers(-4, 4), st.integers(-4, 4)), idx=st.integers(0, 31))
def test_translate_edge_bijection(vec, idx):
    region = Region((4, 4), (True, True))
    edges = interior_edges(region).edges
    e = edges[idx % len(edges)]
    back = tuple(-v for v in vec)
    assert translate_edge(translate_edge(e, vec, region), back, region) == e


def test_lexicographic_order_is_total_and_stable():
    region = Region((3, 4), (True, True))
    edges = list(interior_edges(region))
    keys = [e.sort_key for e in edges]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for a, b in itertools.combinations(edges, 2):
        assert (a.sort_key < b.sort_key) != (b.sort_key < a.sort_key)


def test_vertical_edge_precedes_horizontal_at_same_origin():
    region = Region((3, 3))
    edges = list(interior_edges(region))
    up = Edge((0, 0), (0, 1), axis=1)
    right = Edge((0, 0), (1, 0), axis=0)
    assert edges.index(up) < edges.index(right)


def test_block_partition_4x4_side2():
    part = block_partition(Region((4, 4)), 2)
    assert len(part) == 4
    assert [b.origin for b in part] == [(0, 0), (0, 2), (2, 0), (2, 2)]


def test_block_partition_6x6_side2():
    assert len(block_partition(Region((6, 6)), 2)) == 9


def test_block_partition_rejects_remainder():
    with pytest.raises(PartitionError):
        block_partition(Region((4, 4)), 3)


def test_block_partition_is_disjoint_and_exhaustive():
    region = Region((6, 4), None, (1, 2))
    part = block_partition(region, 2)
    sites = [s for b in part for s in b.sites]
    assert len(sites) == len(set(sites)) == region.n_sites
    assert sorted(sites) == sorted(region.sites)
    assert len(part) * part.blocks[0].n_sites == region.n_sites


def test_the_boundary_in_the_grown_region_reaches_the_ghost_ring():
    region = Region((2, 2))
    ring = boundary_edges(region, grow(region))
    ghosts = {s for e in ring for s in (e.x, e.y) if not region.contains_site(s)}
    assert len(ring) == len(ghosts) == 8
    assert all(grow(region).contains_site(g) for g in ghosts)


def test_region_validation():
    with pytest.raises(ValueError):
        Region((0, 3))
    with pytest.raises(ValueError):
        Region((3, 3), (True,))


def test_edge_canonical_form_enforced():
    with pytest.raises(ValueError):
        Edge((1, 0), (0, 0), axis=0)
