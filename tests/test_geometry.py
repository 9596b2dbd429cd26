"""Every edge set, Hamiltonian term table and transfer-plan bond grid that
the package builds in one pass equals its reference route in
``conftest.py``, which scans every bond, filters and sorts: the same edges,
in the same order, at the same positions."""

import itertools

import numpy as np
import pytest
from conftest import (
    reference_boundary_edges,
    reference_interior_edges,
    reference_key,
    reference_master_edges,
    reference_plan_bonds,
    reference_required_edges,
    reference_terms,
)

from eafluct.errors import ContainmentError
from eafluct.exactsolve import (
    _terms,
    _transfer_plan,
    antiperiodic_bc,
    free_bc,
    periodic_bc,
    required_edges,
    uniform_fixed_bc,
)
from eafluct.interface import master_edge_set
from eafluct.lattice import Edge, EdgeSet, Region, boundary_edges, grow, interior_edges

ORIGINS = {1: (3,), 2: (-1, 2), 3: (2, -3, 1)}


def regions(dimension, extents=(1, 2, 3), zero_origin=True):
    """Every box of the given extents per axis, each axis open or wrapped,
    at a nonzero origin and (by default) at the zero one."""
    for ext in itertools.product(extents, repeat=dimension):
        for wrap in itertools.product((False, True), repeat=dimension):
            for origin in ((0,) * dimension, ORIGINS[dimension])[not zero_origin:]:
                yield Region(ext, wrap, origin)


def sub_boxes(region):
    """Every box of sites inside ``region``: each extent at each offset."""
    spans = [
        [(o + k, e) for e in range(1, n + 1) for k in range(n - e + 1)]
        for o, n in zip(region.origin, region.extents)
    ]
    for axes in itertools.product(*spans):
        yield Region(tuple(e for _, e in axes), None, tuple(o for o, _ in axes))


def assert_same_set(edge_set, reference):
    assert edge_set.edges == reference
    assert [e.wrap for e in edge_set] == [e.wrap for e in reference]
    assert edge_set.position == {e: k for k, e in enumerate(reference)}
    assert [e.sort_key for e in edge_set] == [reference_key(e) for e in reference]


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_interior_edges_match_the_sorted_scan(dimension):
    for region in regions(dimension):
        assert_same_set(interior_edges(region), reference_interior_edges(region))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_boundary_edges_match_the_scan_and_filter(dimension):
    # every window at every offset, inside every box of extents 1-3 (3-d
    # boxes of extents 2 and 3, at a nonzero origin only), and every box
    # inside its grown box
    boxes = regions(3, (2, 3), zero_origin=False) if dimension == 3 else regions(dimension)
    for ambient in boxes:
        for inner in sub_boxes(ambient):
            assert_same_set(boundary_edges(inner, ambient), reference_boundary_edges(inner, ambient))
    for region in regions(dimension):
        open_box = Region(region.extents, None, region.origin)
        ring = reference_boundary_edges(open_box, grow(open_box))
        assert_same_set(boundary_edges(open_box, grow(open_box)), ring)
        assert_same_set(boundary_edges(region, region), ())


@pytest.mark.parametrize("inner,ambient", [
    (Region((2, 2), None, (1, 0)), Region((2, 3))),
    (Region((2, 2), None, (0, -1)), Region((2, 3), (True, True))),
    (Region((1, 1, 1), None, (0, 0, 9)), Region((3, 3, 3))),
    (Region((2,)), Region((2, 3))),
], ids=["past-the-end", "before-the-origin", "3d", "another-dimension"])
def test_a_window_outside_its_box_is_refused_by_both_routes(inner, ambient):
    for route in (boundary_edges, reference_boundary_edges):
        with pytest.raises(ContainmentError):
            route(inner, ambient)


def test_a_unit_window_across_an_extent_2_seam_keeps_both_bonds():
    ambient = Region((2, 3), (True, False))
    for row in (0, 1):
        inner = Region((1, 1), None, (row, 1))
        along = [e for e in boundary_edges(inner, ambient) if e.axis == 0]
        assert [(e.x, e.y, e.wrap) for e in along] == [((0, 1), (1, 1), False), ((0, 1), (1, 1), True)]


@pytest.mark.parametrize("extents", [(1,), (2,), (5,), (1, 1), (2, 3), (3, 2), (4, 4), (16, 8),
                                     (2, 2, 2), (3, 1, 2)])
def test_the_master_edge_set_matches_its_reference_parts(extents):
    assert_same_set(master_edge_set(extents), reference_master_edges(extents))


def plan_cases():
    boxes = [Region(e, w, o) for e in itertools.product((1, 2, 3), repeat=2)
             for w in ((False, False), (True, True)) for o in ((0, 0), ORIGINS[2])]
    boxes += [Region(e, w) for e in ((16, 8), (6, 6), (10, 10), (4, 5)) for w in ((False,) * 2, (True,) * 2)]
    for box in boxes:
        if box.fully_open:
            yield from ((box, bc) for bc in (free_bc(), uniform_fixed_bc(1), uniform_fixed_bc(-1)))
        else:
            yield from ((box, bc) for bc in (periodic_bc(), antiperiodic_bc(0), antiperiodic_bc(1),
                                             antiperiodic_bc(0, 1)))


def test_required_edges_terms_and_plans_match_their_references():
    cases = list(plan_cases())
    assert len(cases) == 18 * 3 + 18 * 4 + 4 * 3 + 4 * 4
    for region, bc in cases:
        edges = required_edges(region, bc)
        assert_same_set(edges, reference_required_edges(region, bc))
        assert edges.position_by_origin == {(e.origin, e.axis): k for k, e in enumerate(edges)}
        terms, want = _terms(region, bc), reference_terms(region, bc)
        for name, value in want.items():
            assert np.array_equal(getattr(terms, name), value), (region, bc, name)
        plan = _transfer_plan(region, bc, 12)
        for name, value in zip(("v_pos", "v_sign", "h_pos", "h_sign"),
                               reference_plan_bonds(region, bc, plan.t_axis)):
            got = getattr(plan, name)
            assert got.dtype == value.dtype and np.array_equal(got, value), (region, bc, name)


def test_a_master_set_has_no_origin_map():
    # a face site of the box has its seam bond and its ghost bond along one axis
    with pytest.raises(ValueError, match="leave one site"):
        master_edge_set((3, 2)).position_by_origin


def test_an_edge_set_sorts_only_what_is_not_canonical():
    region = Region((3, 3), (True, False))
    canonical = reference_interior_edges(region)
    assert EdgeSet(region, canonical).edges is canonical
    assert EdgeSet(region, canonical[::-1]).edges == canonical
    assert EdgeSet(region, list(canonical[1:]) + [canonical[0]]).edges == canonical
    with pytest.raises(ValueError, match="duplicate"):
        EdgeSet(region, canonical + canonical[:1])
    with pytest.raises(ValueError, match="duplicate"):
        EdgeSet(region, canonical[:1] * 2)


def test_an_edge_keeps_the_hash_and_key_of_its_fields():
    e = Edge((0, 2), (1, 2), 0, wrap=True)
    assert hash(e) == hash(((0, 2), (1, 2), 0, True))
    assert e.sort_key == ((1, 2), 0, True) == reference_key(e)
    assert e == Edge((0, 2), (1, 2), 0, True) and e != Edge((0, 2), (1, 2), 0)
    assert repr(e) == "Edge(x=(0, 2), y=(1, 2), axis=0, wrap=True)"
