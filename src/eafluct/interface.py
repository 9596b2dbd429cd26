"""The interface free energy between two finite-volume Gibbs-state proxies.

For a window inside a larger box, the free-energy difference between two
boundary conditions is computed through the exact ratio-of-partition-function
identity

    Gamma(exp(beta H_window)) = Z(J with the window couplings zeroed) / Z(J),

so one value requires four log-partition evaluations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .disorder import CouplingConfig, SeedSpec, edge_positions, sample_couplings
from .errors import PairError
from .exactsolve import (
    BoundaryCondition,
    GibbsSpec,
    Solver,
    log_partition_pairs,
    periodic_bc,
)
from .lattice import (
    EdgeSet,
    Region,
    boundary_edges,
    centered_window,
    grow,
    interior_edges,
    union,
)


@lru_cache(maxsize=None)
def master_edge_set(extents: tuple[int, ...]) -> EdgeSet:
    """Every edge any boundary condition on this box can need: the wrapped
    interior (torus bonds included) plus the clamped ghost ring."""
    open_region = Region(extents)
    wrapped = periodic_bc().region(extents)
    return union(interior_edges(wrapped), boundary_edges(open_region, grow(open_region)))


def sample_master(dist, extents: tuple[int, ...], seed: SeedSpec) -> CouplingConfig:
    """One master realization covering all boundary conditions on this box."""
    return sample_couplings(dist, master_edge_set(extents), seed)


@lru_cache(maxsize=None)
def _shared_edges(first: EdgeSet, second: EdgeSet) -> EdgeSet:
    return EdgeSet(first.region, tuple(e for e in first if e in second))


@dataclass(frozen=True)
class StatePair:
    """Two Gibbs-state proxies on the same box, differing only in boundary
    condition, together with the observation window."""

    window: Region
    gamma: GibbsSpec
    gamma_prime: GibbsSpec

    def __post_init__(self):
        g, gp = self.gamma, self.gamma_prime
        if g.region.extents != gp.region.extents or g.region.origin != gp.region.origin:
            raise PairError("state pair must share the same box")
        if g.beta != gp.beta:
            raise PairError("state pair must share the same inverse temperature")
        if not self.window.fully_open:
            raise PairError("the observation window must be an open box")
        box = Region(g.region.extents, None, g.region.origin)
        if not box.contains_region(self.window):
            raise PairError("window not contained in the box")
        if self.margin < 1:
            raise PairError(f"window margin must be >= 1, got {self.margin}")
        shared = _shared_edges(g.couplings.edge_set, gp.couplings.edge_set)
        a = g.couplings.values[edge_positions(g.couplings.edge_set, shared)]
        b = gp.couplings.values[edge_positions(gp.couplings.edge_set, shared)]
        if not np.array_equal(a, b):
            e = shared.edges[np.flatnonzero(a != b)[0]]
            raise PairError(f"couplings disagree on shared edge {e}")

    @property
    def beta(self) -> float:
        return self.gamma.beta

    @property
    def margin(self) -> int:
        box = self.gamma.region
        gaps = []
        for a in range(box.dimension):
            gaps.append(self.window.origin[a] - box.origin[a])
            gaps.append(
                (box.origin[a] + box.extents[a])
                - (self.window.origin[a] + self.window.extents[a])
            )
        return min(gaps)

    @property
    def window_edges(self) -> EdgeSet:
        return interior_edges(self.window)

    @property
    def boundary(self) -> EdgeSet:
        """Edges with exactly one end in the window (taken inside the box)."""
        box = Region(self.gamma.region.extents, None, self.gamma.region.origin)
        return boundary_edges(self.window, box)

    def boundary_abs_sum(self) -> float:
        return float(sum(abs(self.gamma.couplings.value(e)) for e in self.boundary))


def make_state_pair(
    box_extents: tuple[int, ...],
    window_extents: tuple[int, ...],
    beta: float,
    bc: BoundaryCondition,
    bc_prime: BoundaryCondition,
    master: CouplingConfig,
) -> StatePair:
    """Build the pair from one master realization (restricted per state)."""
    window = centered_window(Region(box_extents), window_extents)
    gamma = GibbsSpec(bc.region(box_extents), master, beta, bc)
    gamma_prime = GibbsSpec(bc_prime.region(box_extents), master, beta, bc_prime)
    return StatePair(window, gamma, gamma_prime)


@dataclass(frozen=True)
class FreeEnergyResult:
    """An interface free-energy value with its four log-partition terms.

    ``value`` is always recomputable from the stored terms:
    (log_z_gamma_zero - log_z_gamma) - (log_z_gamma_prime_zero - log_z_gamma_prime),
    where the *_zero terms use the couplings with the window set to zero.
    """

    value: float
    log_z_gamma: float
    log_z_gamma_zero: float
    log_z_gamma_prime: float
    log_z_gamma_prime_zero: float
    solver: str
    beta: float
    bc_pair: tuple[str, str]
    margin: int
    seed: dict | None = None


def free_energy_terms(
    pair: StatePair, values: np.ndarray, other_values: np.ndarray, solver: Solver = Solver()
) -> np.ndarray:
    """(B, 4) array of (log Z_Gamma, log Z_Gamma0, log Z_Gamma', log Z_Gamma'0)
    for the pair with its states' couplings replaced by each row of the
    (B, n_edges) stacks ``values`` and ``other_values``; the *0 terms zero
    the window couplings.  Each value is bit-identical to a
    :func:`~eafluct.exactsolve.log_partition` call on that row.

    Rows whose zeroed couplings agree (the prefixes of one conditioning
    path, which differ only inside the window) share one zeroed row, found
    by its bytes.  The rows and the distinct zeroed rows go through one
    :func:`log_partition_pairs` call, so each transfer-resolved state sweeps
    one stack of B + (distinct zeroed) rows."""
    states = (pair.gamma, pair.gamma_prime)
    stacks, zero_of = _with_zeroed_rows(pair, (values, other_values))
    terms = log_partition_pairs(*states, *stacks, solver)
    n = len(values)
    zero = terms[n:][zero_of]
    return np.column_stack([terms[:n, 0], zero[:, 0], terms[:n, 1], zero[:, 1]])


def _with_zeroed_rows(
    pair: StatePair, stacks: tuple[np.ndarray, np.ndarray]
) -> tuple[list[np.ndarray], list[int]]:
    """Each of the states' two stacks followed by its distinct zeroed rows,
    and for each row the index of its zeroed row among them.  The zeroed
    copies and their byte keys are freed on return, before any sweep."""
    states = (pair.gamma, pair.gamma_prime)
    zeroed = [stack.copy() for stack in stacks]
    for state, z in zip(states, zeroed):
        z[:, edge_positions(state.couplings.edge_set, pair.window_edges)] = 0.0
    index: dict[bytes, int] = {}
    zero_of = [index.setdefault(a.tobytes() + b.tobytes(), len(index)) for a, b in zip(*zeroed)]
    firsts = np.unique(zero_of, return_index=True)[1]
    return [np.concatenate([stack, z[firsts]]) for stack, z in zip(stacks, zeroed)], zero_of


def interface_free_energy(pair: StatePair, solver: Solver = Solver()) -> FreeEnergyResult:
    """F = log Gamma(exp beta H_window) - log Gamma'(exp beta H_window),
    via the exact partition-function-ratio identity.

    :func:`free_energy_terms` of the pair's own couplings: two stacked
    sweeps of two rows, or for a periodic/antiperiodic pair with the seam on
    the transfer's length axis one sweep of two rows, each closed both ways."""
    g, gp = pair.gamma, pair.gamma_prime
    stacks = (g.couplings.values[None], gp.couplings.values[None])
    ((t_g, t_g0, t_gp, t_gp0),) = free_energy_terms(pair, *stacks, solver).tolist()
    seed = g.couplings.seed
    return FreeEnergyResult(
        value=(t_g0 - t_g) - (t_gp0 - t_gp),
        log_z_gamma=t_g,
        log_z_gamma_zero=t_g0,
        log_z_gamma_prime=t_gp,
        log_z_gamma_prime_zero=t_gp0,
        solver=solver.engine(g.region),
        beta=pair.beta,
        bc_pair=(g.bc.label, gp.bc.label),
        margin=pair.margin,
        seed=asdict(seed) if seed is not None else None,
    )
