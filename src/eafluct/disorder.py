"""Quenched coupling realizations: sampling, local modification, translation.

Streams are counter-based (Philox keyed by master seed, realization index
and a purpose tag), so ensembles can be evaluated in any order, on any
number of workers, and still reproduce bit-identically.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Union

import numpy as np

from .errors import (
    ConfigError,
    IncompleteAssignmentError,
    ContainmentError,
    UndeclaredEdgeError,
    UnsupportedOperationError,
)
from .lattice import Edge, EdgeSet, Region, interior_edges, translate_edge


class _Zero:
    """Sentinel: assign zero to every edge of a block."""

    def __repr__(self) -> str:  # pragma: no cover
        return "ZERO"


ZERO = _Zero()


@dataclass(frozen=True)
class Gaussian:
    """Normal coupling distribution (continuous, all moments finite)."""

    mean: float = 0.0
    stddev: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0 < self.stddev < math.inf):
            raise ValueError(f"need a finite mean and stddev > 0, got ({self.mean}, {self.stddev})")

    @property
    def abs_first_moment(self) -> float:
        m, s = self.mean, self.stddev
        return s * math.sqrt(2.0 / math.pi) * math.exp(-m * m / (2 * s * s)) + m * math.erf(
            m / (s * math.sqrt(2.0))
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mean, self.stddev, size=n)


@dataclass(frozen=True)
class Uniform:
    """Uniform coupling distribution on (lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(f"need finite lo < hi, got ({self.lo}, {self.hi})")

    @property
    def abs_first_moment(self) -> float:
        lo, hi = self.lo, self.hi
        if lo >= 0:
            return (lo + hi) / 2.0
        if hi <= 0:
            return -(lo + hi) / 2.0
        return (hi * hi + lo * lo) / (2.0 * (hi - lo))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)


CouplingDistribution = Union[Gaussian, Uniform]


def distribution_from_label(label: str) -> CouplingDistribution:
    kind, _, args = label.partition("(")
    a, b = (float(x) for x in args.rstrip(")").split(","))
    if kind == "gaussian":
        return Gaussian(a, b)
    if kind == "uniform":
        return Uniform(a, b)
    raise ValueError(f"unknown distribution label {label!r}")


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible random stream.

    Distinct (master, realization, purpose) triples give statistically
    independent streams; an identical triple reproduces the identical
    stream on any rerun, regardless of what else was drawn in between.
    """

    master: int
    realization: int = 0
    purpose: str = ""

    def __post_init__(self):
        if not 0 <= self.master < 2**64:
            raise ValueError("master seed must be a 64-bit non-negative integer")
        if not 0 <= self.realization < 2**64:
            raise ValueError("realization index must be a 64-bit non-negative integer")

    def rng(self) -> np.random.Generator:
        digest = hashlib.sha256(self.purpose.encode("utf-8")).digest()
        p0 = int.from_bytes(digest[:4], "little")
        p1 = int.from_bytes(digest[4:8], "little")
        key = (
            self.realization & 0xFFFFFFFF,
            self.realization >> 32,
            p0,
            p1,
        )
        seq = np.random.SeedSequence(entropy=self.master, spawn_key=key)
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True, eq=False)
class CouplingConfig:
    """One realization J: a finite real coupling per edge of a declared edge
    set (a NaN or infinite value is a ConfigError).

    ``values`` is aligned to the edge set's canonical order and is
    immutable; modifications return new configs, which keep ``seed``: the
    stream the values were drawn from, None for values built by hand.
    """

    edge_set: EdgeSet
    values: np.ndarray
    seed: SeedSpec | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (len(self.edge_set),):
            raise ValueError(
                f"expected {len(self.edge_set)} coupling values, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            e = self.edge_set.edges[np.flatnonzero(~np.isfinite(values))[0]]
            raise ConfigError(f"edge {e} carries a non-finite coupling")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def value(self, edge: Edge) -> float:
        try:
            return float(self.values[self.edge_set.position[edge]])
        except KeyError:
            raise UndeclaredEdgeError(f"edge {edge} carries no coupling") from None

    def with_values(self, values: np.ndarray) -> "CouplingConfig":
        return CouplingConfig(self.edge_set, values, self.seed)


def sample_couplings(
    dist: CouplingDistribution, edges: EdgeSet, seed: SeedSpec
) -> CouplingConfig:
    """One i.i.d. draw per edge, in canonical edge order, deterministic in the seed."""
    values = dist.sample(seed.rng(), len(edges))
    return CouplingConfig(edges, values, seed)


@lru_cache(maxsize=None)
def edge_positions(
    edge_set: EdgeSet,
    edges: EdgeSet | tuple[Edge, ...],
    error: type[Exception] = ContainmentError,
) -> np.ndarray:
    """Positions of ``edges``, in their order, in ``edge_set``'s canonical order.

    The read-only ``intp`` array is cached per (edge set, edges), so every
    edit of the same edges is one gather or scatter.  The first edge not in
    ``edge_set`` raises ``error``.
    """
    position = edge_set.position
    try:
        idx = np.fromiter((position[e] for e in edges), dtype=np.intp, count=len(edges))
    except KeyError as err:
        raise error(f"edge {err.args[0]} is not declared in the edge set") from None
    idx.flags.writeable = False
    return idx


def block_assignment(
    config: CouplingConfig, block: Region, values: Union[Mapping[Edge, float], _Zero]
) -> tuple[np.ndarray, Union[np.ndarray, float]]:
    """Positions of E(block) in ``config`` and the value ``values`` gives each
    block edge (0.0 for ``ZERO``).  A block edge the config does not declare
    is a ContainmentError, one without a value an IncompleteAssignmentError."""
    block_edges = interior_edges(block)
    idx = edge_positions(config.edge_set, block_edges)
    if isinstance(values, _Zero):
        return idx, 0.0
    try:
        return idx, np.fromiter((values[e] for e in block_edges), np.float64, len(block_edges))
    except KeyError as err:
        raise IncompleteAssignmentError(f"no value supplied for block edge {err.args[0]}") from None


def set_block(
    config: CouplingConfig,
    block: Region,
    values: Union[Mapping[Edge, float], _Zero],
) -> CouplingConfig:
    """New config equal to ``config`` outside E(block), overwritten on E(block)."""
    idx, assigned = block_assignment(config, block, values)
    out = config.values.copy()
    out[idx] = assigned
    return config.with_values(out)


def overlay(
    config: CouplingConfig, source: CouplingConfig, edges: tuple[Edge, ...]
) -> CouplingConfig:
    """New config equal to ``config`` except on ``edges``, copied from ``source``."""
    edges = tuple(edges)  # the position cache needs a hashable key
    out = config.values.copy()
    out[edge_positions(config.edge_set, edges)] = source.values[
        edge_positions(source.edge_set, edges)
    ]
    return config.with_values(out)


def translate_couplings(
    config: CouplingConfig, vector: tuple[int, ...]
) -> CouplingConfig:
    """(TJ)_{Te} = J_e on a fully wrapped region (only there is it a bijection)."""
    region = config.edge_set.region
    if not region.fully_wrapped:
        raise UnsupportedOperationError(
            "coupling translation is only defined on fully wrapped (torus) regions"
        )
    # on the torus's own bonds translation is injective; a ghost-ring bond
    # would land on one of them
    edge_positions(interior_edges(region), config.edge_set)
    moved = tuple(translate_edge(e, vector, region) for e in config.edge_set)
    out = np.empty_like(config.values)
    out[edge_positions(config.edge_set, moved)] = config.values
    return config.with_values(out)


def restrict(config: CouplingConfig, edges: EdgeSet) -> CouplingConfig:
    """Restriction of a config to a sub edge set (every target edge must be declared)."""
    idx = edge_positions(config.edge_set, edges, UndeclaredEdgeError)
    return CouplingConfig(edges, config.values[idx], config.seed)

