"""Finite hypercubic lattice geometry.

Sites are integer coordinate tuples.  A :class:`Region` is an axis-aligned
box of sites, each axis either open (hard boundary) or wrapped (torus).
Edges are nearest-neighbor bonds under the region's wrap rules, kept in a
canonical sorted order so that everything downstream (coupling draws,
martingale enumerations) is reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import attrgetter, lt
from typing import Iterator

from .errors import ContainmentError, OutOfBoundsError, PartitionError

Site = tuple[int, ...]


@dataclass(frozen=True)
class Region:
    """An axis-aligned box of sites.

    Sites are ``origin + k`` with ``0 <= k[a] < extents[a]`` on each axis
    ``a``.  ``wrap[a]`` marks axis ``a`` as a torus direction.
    """

    extents: tuple[int, ...]
    wrap: tuple[bool, ...] = None  # type: ignore[assignment]
    origin: tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        extents = tuple(int(e) for e in self.extents)
        if not extents or any(e < 1 for e in extents):
            raise ValueError(f"every axis extent must be >= 1, got {extents}")
        wrap = (False,) * len(extents) if self.wrap is None else tuple(bool(w) for w in self.wrap)
        origin = (0,) * len(extents) if self.origin is None else tuple(int(c) for c in self.origin)
        if len(wrap) != len(extents) or len(origin) != len(extents):
            raise ValueError("extents, wrap and origin must have equal length")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "wrap", wrap)
        object.__setattr__(self, "origin", origin)

    @property
    def dimension(self) -> int:
        return len(self.extents)

    @property
    def n_sites(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n

    @property
    def fully_wrapped(self) -> bool:
        return all(self.wrap)

    @property
    def fully_open(self) -> bool:
        return not any(self.wrap)

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        """All sites in lexicographic order."""
        ranges = [range(o, o + e) for o, e in zip(self.origin, self.extents)]
        return tuple(itertools.product(*ranges))

    def contains_site(self, site: Site) -> bool:
        return len(site) == self.dimension and all(
            o <= c < o + e for c, o, e in zip(site, self.origin, self.extents)
        )

    def contains_region(self, other: "Region") -> bool:
        return self.dimension == other.dimension and all(
            self.origin[a] <= other.origin[a]
            and other.origin[a] + other.extents[a] <= self.origin[a] + self.extents[a]
            for a in range(self.dimension)
        )


def grow(region: Region) -> Region:
    """Region enlarged by one site on every open axis (wrapped axes have no boundary)."""
    extents = tuple(e + (0 if w else 2) for e, w in zip(region.extents, region.wrap))
    origin = tuple(o - (0 if w else 1) for o, w in zip(region.origin, region.wrap))
    return Region(extents, region.wrap, origin)


def centered_window(parent: Region, extents: tuple[int, ...]) -> Region:
    """Open sub-box of the given extents, centered in ``parent``."""
    extents = tuple(int(e) for e in extents)
    if len(extents) != parent.dimension:
        raise ValueError("window dimension mismatch")
    if any(e > p for e, p in zip(extents, parent.extents)):
        raise ContainmentError(f"window {extents} does not fit in parent {parent.extents}")
    origin = tuple(
        po + (pe - e) // 2 for po, pe, e in zip(parent.origin, parent.extents, extents)
    )
    return Region(extents, None, origin)


@dataclass(frozen=True)
class Edge:
    """A nearest-neighbor bond.

    Endpoints are stored in canonical form ``x < y`` (lexicographic site
    order).  ``axis`` is the direction of the bond; ``wrap`` marks bonds
    crossing a torus seam.  The wrap marker keeps the two distinct bonds of
    an extent-2 wrapped axis distinguishable.
    """

    x: Site
    y: Site
    axis: int
    wrap: bool = False
    # Lexicographic edge order: by origin vertex, then higher axis first (in
    # 2d the vertical bond precedes the horizontal one), regular bonds before
    # seam bonds.
    sort_key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.x >= self.y:
            raise ValueError(f"edge endpoints must satisfy x < y, got {self.x}, {self.y}")
        # computed once: edges key every position map and edge-set check
        object.__setattr__(self, "sort_key", (self.origin, -self.axis, self.wrap))
        object.__setattr__(self, "_hash", hash((self.x, self.y, self.axis, self.wrap)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def origin(self) -> Site:
        """The site this bond emanates from in the +axis direction."""
        return self.y if self.wrap else self.x


def edge_from_origin(origin: Site, axis: int, region: Region) -> Edge:
    """Bond from ``origin`` in the +axis direction under the region's wrap rules."""
    o, e = region.origin[axis], region.extents[axis]
    if not region.contains_site(origin):
        raise ContainmentError(f"site {origin} not in region")
    rel = origin[axis] - o
    if rel + 1 < e:
        other = origin[:axis] + (origin[axis] + 1,) + origin[axis + 1:]
        return Edge(origin, other, axis, wrap=False)
    if region.wrap[axis] and e >= 2:
        other = origin[:axis] + (o,) + origin[axis + 1:]
        return Edge(other, origin, axis, wrap=True)
    raise OutOfBoundsError(f"no +axis{axis} neighbor of {origin} in {region}")


@dataclass(frozen=True)
class EdgeSet:
    """An ordered, duplicate-free collection of canonical edges.

    Iteration order is the lexicographic edge order (origin vertex first,
    vertical-before-horizontal at equal origin), so it can be used directly
    as the martingale enumeration order and as the canonical coupling draw
    order.  ``region`` records which region the set was built for.  Edges
    handed in already in that order, with strictly rising keys and so no
    duplicate, are kept as they are; any other input is sorted.
    """

    region: Region
    edges: tuple[Edge, ...]

    def __post_init__(self):
        ordered = tuple(self.edges)
        keys = [e.sort_key for e in ordered]
        if not all(map(lt, keys, keys[1:])):  # strictly rising keys: canonical, no duplicate
            ordered = tuple(sorted(ordered, key=attrgetter("sort_key")))
            if len(set(ordered)) != len(ordered):
                raise ValueError("duplicate edges in edge set")
        object.__setattr__(self, "edges", ordered)
        object.__setattr__(self, "_hash", hash((self.region, ordered)))

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self.position

    def __hash__(self) -> int:
        # computed once: edge sets key the caches of every coupling edit
        return self._hash

    @cached_property
    def position(self) -> dict[Edge, int]:
        """Edge -> index in canonical order."""
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def position_by_origin(self) -> dict[tuple[Site, int], int]:
        """(origin, axis) -> index of the bond that leaves ``origin`` in the
        +axis direction.  A set in which two bonds leave one site along one
        axis has no such map (ValueError): a box's master set, whose face
        sites have a seam bond and a ghost bond each."""
        by_origin = {(e.origin, e.axis): k for k, e in enumerate(self.edges)}
        if len(by_origin) != len(self.edges):
            raise ValueError("two bonds of the edge set leave one site along one axis")
        return by_origin

    def index(self, edge: Edge) -> int:
        try:
            return self.position[edge]
        except KeyError:
            raise ContainmentError(f"edge {edge} not in edge set") from None


def union(first: EdgeSet, *others: EdgeSet) -> EdgeSet:
    """Union of edge sets, re-sorted canonically; region taken from the first."""
    seen = dict.fromkeys(itertools.chain(first, *others))
    return EdgeSet(first.region, tuple(seen))


@lru_cache(maxsize=None)
def interior_edges(region: Region) -> EdgeSet:
    """E(Lambda): all bonds with both endpoints in the region, honoring wrap
    flags.  An open region's bonds are emitted site by site, each site's
    +axis bonds with the axes in descending order: that is the canonical
    order.  A region with seam bonds is the interior of its open box (the
    same ``Edge`` objects) plus its seam bonds, which ``EdgeSet`` merges
    into canonical order."""
    # (axis, first coordinate, last coordinate, whether a seam bond closes it)
    axes = [
        (a, o, o + e - 1, w and e >= 2)
        for a, o, e, w in zip(range(region.dimension), region.origin, region.extents, region.wrap)
    ][::-1]
    if any(seam for *_, seam in axes):
        seams = tuple(
            Edge(site[:axis] + (first,) + site[axis + 1:], site, axis, True)
            for site in region.sites
            for axis, first, last, seam in axes
            if seam and site[axis] == last
        )
        return EdgeSet(region, interior_edges(Region(region.extents, None, region.origin)).edges + seams)
    edges = tuple(
        Edge(site, site[:axis] + (c + 1,) + site[axis + 1:], axis)
        for site in region.sites
        for axis, _, last, _ in axes
        if (c := site[axis]) < last
    )
    return EdgeSet(region, edges)


@lru_cache(maxsize=None)
def boundary_edges(inner: Region, ambient: Region) -> EdgeSet:
    """Boundary set of ``inner``: ambient bonds with exactly one endpoint in ``inner``.

    Such a bond joins a face site of ``inner`` to its -axis or +axis
    neighbour under the wrap rules of ``ambient``, so only the faces are
    walked.  On a wrapped ambient axis of extent 2 both bonds between the
    two sites count: the -axis one is the seam bond."""
    if not ambient.contains_region(inner):
        raise ContainmentError(f"inner region {inner} not contained in ambient {ambient}")
    ranges = [range(o, o + e) for o, e in zip(inner.origin, inner.extents)]
    edges = []
    for a, span in enumerate(ranges):
        lo, hi = span[0], span[-1]
        start, stop = ambient.origin[a], ambient.origin[a] + ambient.extents[a]
        for face, step in ((lo, -1), (hi, 1)):
            n, seam = face + step, False
            if not start <= n < stop:
                if not ambient.wrap[a]:
                    continue
                n, seam = n - step * (stop - start), True
            if lo <= n <= hi:  # wrapped back into inner, as on an axis of one site
                continue
            for site in itertools.product(*ranges[:a], (face,), *ranges[a + 1:]):
                other = site[:a] + (n,) + site[a + 1:]
                origin, target = (site, other) if step > 0 else (other, site)
                edges.append(Edge(target, origin, a, True) if seam else Edge(origin, target, a))
    return EdgeSet(ambient, tuple(edges))


def translate_site(site: Site, vector: tuple[int, ...], ambient: Region) -> Site:
    """Shift a site, reducing modulo the extent on wrapped axes."""
    out = []
    for a, (c, v) in enumerate(zip(site, vector)):
        c = c + v
        if ambient.wrap[a]:
            c = (c - ambient.origin[a]) % ambient.extents[a] + ambient.origin[a]
        elif not ambient.origin[a] <= c < ambient.origin[a] + ambient.extents[a]:
            raise OutOfBoundsError(
                f"translation by {vector} moves {site} off the open region {ambient}"
            )
        out.append(c)
    return tuple(out)


def translate_edge(edge: Edge, vector: tuple[int, ...], ambient: Region) -> Edge:
    new_origin = translate_site(edge.origin, vector, ambient)
    return edge_from_origin(new_origin, edge.axis, ambient)


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint congruent blocks tiling a parent region."""

    parent: Region
    block_side: int
    blocks: tuple[Region, ...]

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Region]:
        return iter(self.blocks)


def block_partition(region: Region, block_side: int) -> BlockPartition:
    """Tile the region with cubes of side ``block_side`` (must divide every extent)."""
    side = int(block_side)
    if side < 1:
        raise PartitionError(f"block side must be >= 1, got {side}")
    for e in region.extents:
        if e % side != 0:
            raise PartitionError(
                f"block side {side} does not divide extent {e}; no silent remainder strips"
            )
    counts = [e // side for e in region.extents]
    blocks = []
    for idx in itertools.product(*(range(c) for c in counts)):
        origin = tuple(o + side * i for o, i in zip(region.origin, idx))
        blocks.append(Region((side,) * region.dimension, None, origin))
    return BlockPartition(region, side, tuple(blocks))
