"""Exact finite-volume Gibbs machinery.

Two independent partition-function engines over the same spec:

* exhaustive enumeration (any dimension, capped spin count): the oracle.
  It splits the sites into a low and a high half, tabulates each half's own
  energies once, and gets every state's energy from the two tables and one
  matrix product over the bonds between the halves; its bond correlations
  come from one second-moment matrix.  Its observables are arrays over
  states: ``f(spins, sites)`` maps a (states, n_sites) chunk of +-1 spins,
  columns in ``sites`` order, to one value per state;
* a 2d column-to-column transfer matrix (capped strip width): the workhorse.
  Each link between two columns is applied through its two Kronecker
  factors, over the low and the high half of the strip's rows.

Enumeration shifts its weights by a running max, so it is exact at any beta.
The transfer matrix rescales column by column, but its column weights and
links are unscaled ``exp(beta * energy)``: it raises ``ArithmeticError`` from
a beta of about 120-230 (3x3 Gaussian box), where ``Solver("enum")`` serves.
Boundary conditions: free, periodic, antiperiodic
(seam bonds sign-flipped, per wrapped axis), and fixed (clamped ghost sites
just outside the region, attached by their own sampled couplings).  A fixed
bc is one sign, which clamps the ghost ring of whatever region it is resolved
against (:func:`uniform_fixed_bc`).  A ring of mixed signs tau needs no form
of its own: its ghost term ``J_g tau_g sigma_x`` is the +1 rule's term with
coupling ``tau_g J_g``, so it is the +1 rule on couplings whose ghost bonds
are multiplied by their outer site's sign, and that product is exact.  What
a bc means on a region is decided once, in a cached term table per (region,
bc): each edge's seam sign, the in-region bonds, and the ghost bonds as site
fields.  Both engines read that table.
Which engine solves a state, and whether it fits that engine's cap, is one
rule: :meth:`Solver.engine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np

from .disorder import CouplingConfig, block_assignment, edge_positions, restrict
from .errors import (
    ConfigError,
    ContainmentError,
    SizeCapError,
    UnsupportedOperationError,
)
from .lattice import (
    Edge,
    EdgeSet,
    Region,
    Site,
    boundary_edges,
    grow,
    interior_edges,
    union,
)

ENUM_CAP = 24
TRANSFER_WIDTH_CAP = 12
SOLVER_METHODS = ("auto", "transfer", "enum")
_CHUNK_BITS = 20
_BLOCK_DOUBLES = 1 << 15  # the largest block one link application takes at a time
_STACK_DOUBLES = 11 << 14  # what one stacked evaluation of a state pair may hold


# ---------------------------------------------------------------------------
# boundary conditions


@dataclass(frozen=True)
class BoundaryCondition:
    """Coupling-independent boundary condition for a finite box.

    kinds: ``free`` (open box), ``periodic`` (torus), ``antiperiodic``
    (torus with the wrap bonds of each seam axis sign-flipped; several seam
    axes give the doubled antiperiodic variants), ``fixed`` (open box with
    every adjacent ghost site clamped to ``sign``, +-1, on whatever region it
    is resolved against).  Every other kind has ``sign`` 0.

    The bc is the one home of its geometry: :meth:`from_name` parses a
    config name, :meth:`region` places the bc on a box by its wrap rule, and
    :meth:`validate_for` refuses any other region.
    """

    kind: str
    seam_axes: tuple[int, ...] = ()
    sign: int = 0

    def __post_init__(self):
        if self.kind not in ("free", "periodic", "antiperiodic", "fixed"):
            raise ValueError(f"unknown boundary condition kind {self.kind!r}")
        if self.kind == "antiperiodic" and not self.seam_axes:
            raise ValueError("antiperiodic boundary condition needs at least one seam axis")
        if self.kind != "antiperiodic" and self.seam_axes:
            raise ValueError("seam axes only apply to antiperiodic boundary conditions")
        if self.kind == "fixed" and not (isinstance(self.sign, int) and self.sign in (-1, 1)):
            raise ValueError(f"a fixed boundary condition needs sign +-1, got {self.sign!r}")
        if self.kind != "fixed" and self.sign != 0:
            raise ValueError(f"only a fixed boundary condition has a sign, got {self.sign!r}")

    def _wrap(self, dimension: int) -> tuple[bool, ...]:
        """The wrap rule: a periodic or antiperiodic bc wraps every axis of
        its box, a free or fixed one none."""
        return (self.kind in ("periodic", "antiperiodic"),) * dimension

    def region(self, extents: tuple[int, ...]) -> Region:
        """The box of ``extents`` this bc lives on, wrapped by its rule; a
        seam axis the box lacks is an ``UnsupportedOperationError``."""
        region = Region(extents, self._wrap(len(extents)))
        self.validate_for(region)
        return region

    def validate_for(self, region: Region) -> None:
        """Refuse, with ``UnsupportedOperationError``, a region that is not
        wrapped by this bc's rule or that lacks one of its seam axes."""
        if region.wrap != self._wrap(region.dimension):
            raise UnsupportedOperationError(f"a {self.kind} bc cannot live on wrap {region.wrap}")
        for a in self.seam_axes:
            if not 0 <= a < region.dimension:
                raise UnsupportedOperationError(f"seam axis {a} is not a wrapped axis")

    @property
    def label(self) -> str:
        """The bc's name: a fixed bc names its sign as ``fixed:+1`` or ``fixed:-1``."""
        if self.kind == "antiperiodic":
            axes = ",".join(str(a) for a in self.seam_axes)
            return f"antiperiodic[seam={axes}]"
        if self.sign:
            return f"fixed:{self.sign:+d}"
        return self.kind

    @staticmethod
    def from_name(name: str, seam_axes: tuple[int, ...]) -> "BoundaryCondition":
        """The bc a config names: ``antiperiodic`` on ``seam_axes``, or any
        other bc by its :attr:`label`, and ``fixed`` for ``fixed:+1``.  An
        unknown name, or antiperiodic seam axes that are empty, repeated or
        negative, is a ``ConfigError``."""
        if name == "antiperiodic":
            if not seam_axes or len(set(seam_axes)) != len(seam_axes) or min(seam_axes) < 0:
                raise ConfigError("seam_axes must be a non-empty list of distinct axes >= 0, "
                                  f"got {list(seam_axes)}")
            return antiperiodic_bc(*seam_axes)
        if name not in _LABELED:
            raise ConfigError(f"unknown boundary condition name {name!r}")
        return _LABELED[name]


def free_bc() -> BoundaryCondition:
    return BoundaryCondition("free")


def periodic_bc() -> BoundaryCondition:
    return BoundaryCondition("periodic")


def antiperiodic_bc(*seam_axes: int) -> BoundaryCondition:
    return BoundaryCondition("antiperiodic", seam_axes=tuple(seam_axes) or (0,))


def uniform_fixed_bc(sign: int = 1) -> BoundaryCondition:
    """The rule that clamps every ghost site of a region to ``sign``."""
    return BoundaryCondition("fixed", sign=sign)


# each bc that :meth:`BoundaryCondition.from_name` gives by its label
_LABELED = {bc.label: bc for bc in (free_bc(), periodic_bc(), uniform_fixed_bc(-1))}
_LABELED["fixed"] = _LABELED["fixed:+1"] = uniform_fixed_bc(1)


@lru_cache(maxsize=None)
def required_edges(region: Region, bc: BoundaryCondition) -> EdgeSet:
    """All edges that carry a coupling for this (region, bc): interior plus,
    for fixed boundary conditions, the bonds to the clamped ghost ring."""
    inner = interior_edges(region)
    if bc.kind == "fixed":
        return union(inner, boundary_edges(region, grow(region)))
    return inner


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class GibbsSpec:
    """A finite-volume Gibbs state proxy: (region, couplings, beta, bc).

    Couplings may be handed in on a superset of the required edges (for
    example a shared master realization); they are restricted to exactly
    ``required_edges(region, bc)`` at construction.
    """

    region: Region
    couplings: CouplingConfig
    beta: float
    bc: BoundaryCondition

    def __post_init__(self):
        beta = float(self.beta)
        if not (beta >= 0.0 and math.isfinite(beta)):
            raise ValueError(f"beta must be finite and >= 0, got {beta}")
        object.__setattr__(self, "beta", beta)
        self.bc.validate_for(self.region)
        needed = required_edges(self.region, self.bc)
        held = self.couplings.edge_set
        if held is not needed and held.edges != needed.edges:
            object.__setattr__(self, "couplings", restrict(self.couplings, needed))

    def with_couplings(self, couplings: CouplingConfig) -> "GibbsSpec":
        return GibbsSpec(self.region, couplings, self.beta, self.bc)


# ---------------------------------------------------------------------------
# engine choice


@dataclass(frozen=True)
class Solver:
    """Which exact engine solves a state, and the cap each engine keeps.

    ``method`` is ``"transfer"``, ``"enum"`` or ``"auto"``; ``enum_cap`` is
    the most spins enumeration takes, and ``width_cap`` the widest strip the
    transfer matrix takes.  An unknown method, or a cap that is not a
    positive integer, is a :class:`ConfigError` here, at construction.
    """

    method: str = "auto"
    enum_cap: int = ENUM_CAP
    width_cap: int = TRANSFER_WIDTH_CAP

    def __post_init__(self):
        if self.method not in SOLVER_METHODS:
            raise ConfigError(
                f"unknown solver method {self.method!r}; expected one of {SOLVER_METHODS}"
            )
        for name in ("enum_cap", "width_cap"):
            cap = getattr(self, name)
            if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
                raise ConfigError(f"solver caps must be positive integers, got {name}={cap!r}")

    def engine(self, region: Region) -> str:
        """The engine, ``"transfer"`` or ``"enum"``, that solves a state on
        ``region``: the named one, or for ``auto`` the transfer matrix
        wherever it fits, a 2d region with an axis of at most ``width_cap``
        sites.  A region beyond the engine's cap is a :class:`SizeCapError`
        naming the region, the engine and the cap."""
        fits = region.dimension == 2 and min(region.extents) <= self.width_cap
        engine = ("transfer" if fits else "enum") if self.method == "auto" else self.method
        if engine == "transfer" and not fits:
            raise SizeCapError(
                f"box {list(region.extents)} does not fit the transfer engine's cap: it needs "
                f"a 2-d box with an axis of at most width_cap {self.width_cap}"
            )
        if engine == "enum" and region.n_sites > self.enum_cap:
            raise SizeCapError(
                f"box {list(region.extents)} has more sites than enum_cap: its "
                f"{region.n_sites} spins exceed the enum engine's cap {self.enum_cap}"
            )
        return engine


# ---------------------------------------------------------------------------
# shared solver plumbing


@lru_cache(maxsize=None)
def _site_order(region: Region) -> tuple[tuple[Site, ...], "dict[Site, int]"]:
    sites = region.sites
    return sites, {s: k for k, s in enumerate(sites)}


@lru_cache(maxsize=None)
def _spin_matrix(w: int) -> np.ndarray:
    idx = np.arange(1 << w, dtype=np.uint64)
    s = np.empty((1 << w, w))
    one = np.uint64(1)
    for k in range(w):
        s[:, k] = 1.0 - 2.0 * ((idx >> np.uint64(k)) & one).astype(np.float64)
    return s


@dataclass(frozen=True)
class _Terms:
    """The Hamiltonian of one (region, bc), by position in its edge set
    ``required_edges(region, bc)`` and by site in ``region.sites`` order:
    each edge's seam ``sign``, the in-region bonds ``bond_pos`` between
    sites ``bond_ix`` and ``bond_iy``, and the clamped ghost bonds
    ``ghost_pos``, each a field of the bc's sign times its coupling on its
    inner site ``ghost_site``."""

    n: int
    sign: np.ndarray
    bond_ix: np.ndarray
    bond_iy: np.ndarray
    bond_pos: np.ndarray
    ghost_site: np.ndarray
    ghost_pos: np.ndarray


@lru_cache(maxsize=None)
def _terms(region: Region, bc: BoundaryCondition) -> _Terms:
    edges = required_edges(region, bc)
    _, index = _site_order(region)
    bond_ix, bond_iy, bond_pos = [], [], []
    ghost_site, ghost_pos = [], []
    for k, e in enumerate(edges):
        in_x, in_y = e.x in index, e.y in index
        if in_x and in_y:
            bond_ix.append(index[e.x])
            bond_iy.append(index[e.y])
            bond_pos.append(k)
        else:
            ghost_site.append(index[e.x if in_x else e.y])
            ghost_pos.append(k)
    # only an antiperiodic bc has seam axes, whose wrap bonds are sign-flipped
    sign = [-1.0 if e.wrap and e.axis in bc.seam_axes else 1.0 for e in edges]
    return _Terms(
        n=region.n_sites,
        sign=np.asarray(sign, dtype=np.float64),
        bond_ix=np.asarray(bond_ix, dtype=np.intp),
        bond_iy=np.asarray(bond_iy, dtype=np.intp),
        bond_pos=np.asarray(bond_pos, dtype=np.intp),
        ghost_site=np.asarray(ghost_site, dtype=np.intp),
        ghost_pos=np.asarray(ghost_pos, dtype=np.intp),
    )


def _site_fields(
    spec: GibbsSpec, values: np.ndarray, extra_fields: Mapping[Site, float] | None
) -> np.ndarray:
    """(..., n_sites) field on each site, in ``region.sites`` order, for
    coupling ``values`` of shape (..., n_edges) on the spec's edge set: the
    clamped ghost bonds, then ``extra_fields``."""
    terms = _terms(spec.region, spec.bc)
    h = np.zeros(values.shape[:-1] + (terms.n,))
    if terms.ghost_pos.size:
        ghost = values.take(terms.ghost_pos, axis=-1) * float(spec.bc.sign)
        np.add.at(h, (..., terms.ghost_site), ghost)
    if extra_fields:
        _, index = _site_order(spec.region)
        for site, value in extra_fields.items():
            if site not in index:
                raise ContainmentError(f"field site {site} not in region")
            h[..., index[site]] += float(value)
    return h


VectorObservable = Callable[[np.ndarray, tuple[Site, ...]], np.ndarray]


@dataclass(frozen=True, eq=False)
class _Halves:
    """One (region, bc) split for enumeration: its n sites, in
    ``region.sites`` order, as a low half of ``n_lo = ceil(n / 2)`` sites and
    a high half of the rest, so state x is ``x_hi * 2^n_lo + x_lo`` (bit k is
    site k, spin 1 - 2 * bit).  ``s_lo`` and ``s_hi`` are the halves' spin
    matrices; the in-region bonds (positions into the :class:`_Terms` bond
    arrays) are the ``lo`` and ``hi`` bonds, with their pair products
    ``p_lo`` and ``p_hi`` over each half's states, and the ``cross`` bonds,
    between high site ``cross_hi`` and low site ``cross_lo`` (indices within
    their halves)."""

    n_lo: int
    s_lo: np.ndarray  # (2^n_lo, n_lo)
    s_hi: np.ndarray  # (2^(n - n_lo), n - n_lo)
    lo: np.ndarray
    p_lo: np.ndarray  # (2^n_lo, len(lo))
    hi: np.ndarray
    p_hi: np.ndarray
    cross: np.ndarray
    cross_hi: np.ndarray
    cross_lo: np.ndarray


@lru_cache(maxsize=None)
def _halves(region: Region, bc: BoundaryCondition) -> _Halves:
    terms = _terms(region, bc)
    n_lo = (terms.n + 1) // 2
    s_lo, s_hi = _spin_matrix(n_lo), _spin_matrix(terms.n - n_lo)
    ix, iy = terms.bond_ix, terms.bond_iy
    lo = np.flatnonzero((ix < n_lo) & (iy < n_lo))
    hi = np.flatnonzero((ix >= n_lo) & (iy >= n_lo))
    cross = np.flatnonzero((ix < n_lo) != (iy < n_lo))
    return _Halves(
        n_lo=n_lo,
        s_lo=s_lo,
        s_hi=s_hi,
        lo=lo,
        p_lo=s_lo[:, ix[lo]] * s_lo[:, iy[lo]],
        hi=hi,
        p_hi=s_hi[:, ix[hi] - n_lo] * s_hi[:, iy[hi] - n_lo],
        cross=cross,
        cross_hi=np.maximum(ix[cross], iy[cross]) - n_lo,
        cross_lo=np.minimum(ix[cross], iy[cross]),
    )


def _per_state(f: VectorObservable, spins: np.ndarray, sites: tuple[Site, ...]) -> np.ndarray:
    """``f(spins, sites)`` as float64, which must be one value per state."""
    values = np.asarray(f(spins, sites), dtype=np.float64)
    if values.shape != (len(spins),):
        raise ConfigError(
            f"an observable returned shape {values.shape}, not one value for each "
            f"of {len(spins)} states"
        )
    return values


def _enum_reduce(
    spec: GibbsSpec,
    observables: list[VectorObservable],
    cap: int = ENUM_CAP,
    extra_fields: Mapping[Site, float] | None = None,
    values: np.ndarray | None = None,
    moments: bool = False,
) -> tuple[float, list]:
    """Single enumeration pass: returns (log Z, [E[f] for each observable])
    for one coupling row ``values`` on the spec's edge set (by default the
    spec's own); with ``moments`` the list ends with the (n, n) matrix of
    E[sigma_i sigma_j] over the region's sites in order.

    The energy of state ``(x_hi, x_lo)`` (see :class:`_Halves`) is
    ``e_hi[x_hi] + e_lo[x_lo] + s_hi[x_hi] @ C @ s_lo[x_lo]``: each half's own
    bonds and fields, tabulated once per coupling row, plus the cross bonds
    as the (n_hi, n_lo) coupling matrix C.  The states are visited in chunks
    of high states, each chunk one matrix product, one ``exp`` per state and
    at most ``2^_CHUNK_BITS`` states (but at least one high state).  The
    second moments of a chunk come from its weights ``w`` (high states by
    low states): their column sums give the low-low block, their row sums
    the high-high block, and ``s_hi.T @ w @ s_lo`` the cross block.  A
    generic observable gets the chunk's (states, n) int8 spins, broadcast
    from the two halves, and must return one value per state; its weighted
    sum ``(f * w).sum()`` is the same reduction as the total ``w.sum()``, so
    a constant observable normalizes exactly.

    Weights are handled with a streaming running-max shift, so the result is
    exact up to binary64 rounding at any beta.
    """
    Solver("enum", enum_cap=cap).engine(spec.region)
    terms = _terms(spec.region, spec.bc)
    n = terms.n
    sites, _ = _site_order(spec.region)
    halves = _halves(spec.region, spec.bc)
    n_lo, s_lo = halves.n_lo, halves.s_lo
    values = spec.couplings.values if values is None else values
    jv = values[terms.bond_pos] * terms.sign[terms.bond_pos]
    h = _site_fields(spec, values, extra_fields)
    e_lo = halves.p_lo @ jv[halves.lo] + s_lo @ h[:n_lo]
    e_hi = halves.p_hi @ jv[halves.hi] + halves.s_hi @ h[n_lo:]
    c = np.zeros((n - n_lo, n_lo))
    np.add.at(c, (halves.cross_hi, halves.cross_lo), jv[halves.cross])
    hi_field = (s_lo @ c.T).T  # [k, x_lo]: the cross-bond field of state x_lo on high site k
    beta = spec.beta

    running_max = -np.inf
    sums = [0.0] * (1 + len(observables) + int(moments))
    step = max(1, (1 << _CHUNK_BITS) >> n_lo)
    # the step and the high-state count are powers of two, so every chunk has
    # the same shape and one buffer serves them all
    buf = np.empty((min(step, len(halves.s_hi)), len(s_lo)))
    for start in range(0, len(halves.s_hi), step):
        s_hi = halves.s_hi[start : start + step]
        expo = np.matmul(s_hi, hi_field, out=buf)
        expo += e_hi[start : start + step, None]
        expo += e_lo
        expo *= beta
        mc = float(expo.max())
        expo -= mc
        w = np.exp(expo, out=expo)
        chunk = [float(w.sum())]
        if observables:
            spins = np.empty(w.shape + (n,), dtype=np.int8)
            spins[..., :n_lo] = s_lo
            spins[..., n_lo:] = s_hi[:, None]
            spins = spins.reshape(-1, n)
            for f in observables:
                fv = _per_state(f, spins, sites).reshape(w.shape)
                chunk.append(float((fv * w).sum()))
        if moments:
            m = np.empty((n, n))
            m[:n_lo, :n_lo] = (s_lo.T * w.sum(axis=0)) @ s_lo
            m[n_lo:, n_lo:] = (s_hi.T * w.sum(axis=1)) @ s_hi
            m[n_lo:, :n_lo] = s_hi.T @ (w @ s_lo)
            m[:n_lo, n_lo:] = m[n_lo:, :n_lo].T
            chunk.append(m)
        # rescale both sums to the larger max: the side holding it is
        # multiplied by exp(0) = 1 exactly
        top = max(running_max, mc)
        old, new = math.exp(running_max - top), math.exp(mc - top)
        sums = [a * old + b * new for a, b in zip(sums, chunk)]
        running_max = top
    total, *weighted = sums
    return running_max + math.log(total), [a / total for a in weighted]


def log_partition_enum(
    spec: GibbsSpec,
    cap: int = ENUM_CAP,
    extra_fields: Mapping[Site, float] | None = None,
    values: np.ndarray | None = None,
) -> float:
    """log Z by exhaustive enumeration over all spin configurations, for
    one coupling row ``values`` on the spec's edge set (by default the
    spec's own)."""
    logz, _ = _enum_reduce(spec, [], cap=cap, extra_fields=extra_fields, values=values)
    return logz


def exp_bond_observable(
    edges: EdgeSet | tuple[Edge, ...], values: Mapping[Edge, float], beta: float
) -> VectorObservable:
    """The observable exp(beta * sum_e v_e sigma_x sigma_y)."""
    pairs = [(e, float(values[e])) for e in edges]

    def run(chunk: np.ndarray, sites: tuple[Site, ...]) -> np.ndarray:
        index = {s: k for k, s in enumerate(sites)}
        acc = np.zeros(chunk.shape[0])
        for e, v in pairs:
            acc += v * (chunk[:, index[e.x]] * chunk[:, index[e.y]])
        return np.exp(beta * acc)

    return run


# ---------------------------------------------------------------------------
# 2d transfer matrix


@dataclass(frozen=True, eq=False)
class _TransferPlan:
    t_axis: int
    l_axis: int
    width: int
    length: int
    wrap_l: bool
    v_pos: np.ndarray  # (n_vbonds, length)
    v_sign: np.ndarray
    h_pos: np.ndarray  # (width, n_links)
    h_sign: np.ndarray
    s_matrix: np.ndarray  # (2^W, W)
    sp_matrix: np.ndarray  # (2^W, n_vbonds)


def _transfer_axes(region: Region, width_cap: int) -> tuple[int, int]:
    if region.dimension != 2:
        raise UnsupportedOperationError("transfer matrices are implemented for d = 2 only")
    Solver("transfer", width_cap=width_cap).engine(region)
    # the columns run across the shorter axis, axis 1 of a square
    t_axis = min((1, 0), key=lambda a: (region.extents[a], -a))
    return t_axis, 1 - t_axis


@lru_cache(maxsize=None)
def _transfer_plan(region: Region, bc: BoundaryCondition, width_cap: int) -> _TransferPlan:
    t_axis, l_axis = _transfer_axes(region, width_cap)
    w = region.extents[t_axis]
    length = region.extents[l_axis]
    by_origin = required_edges(region, bc).position_by_origin

    def site(c: int, r: int) -> Site:
        coords = [0, 0]
        coords[l_axis] = region.origin[l_axis] + c
        coords[t_axis] = region.origin[t_axis] + r
        return tuple(coords)

    def bonds(axis: int, rows: int, columns: int) -> np.ndarray:
        """Position of the +axis bond from site(c, r), at [r, c]."""
        grid = [by_origin[site(c, r), axis] for r in range(rows) for c in range(columns)]
        pos = np.array(grid, dtype=np.intp).reshape(rows, columns)
        pos.flags.writeable = False
        return pos

    # vertical bond b of a column leaves row b, and horizontal link j leaves
    # column j; a wrapped axis adds its seam bond last
    n_v = w if region.wrap[t_axis] and w >= 2 else w - 1
    wrap_l = region.wrap[l_axis] and length >= 2
    v_pos = bonds(t_axis, n_v, length)
    h_pos = bonds(l_axis, w, length if wrap_l else length - 1)
    sign = _terms(region, bc).sign
    s = _spin_matrix(w)
    sp = np.empty((1 << w, n_v))
    for b in range(n_v):
        sp[:, b] = s[:, b] * s[:, (b + 1) % w]
    return _TransferPlan(
        t_axis=t_axis,
        l_axis=l_axis,
        width=w,
        length=length,
        wrap_l=wrap_l,
        v_pos=v_pos,
        v_sign=sign[v_pos],
        h_pos=h_pos,
        h_sign=sign[h_pos],
        s_matrix=s,
        sp_matrix=sp,
    )


def _column_weights(
    spec: GibbsSpec,
    plan: _TransferPlan,
    extra_fields: Mapping[Site, float] | None = None,
    values: np.ndarray | None = None,
) -> np.ndarray:
    """(..., 2^W, length) Boltzmann weights of each column's own bonds and
    fields, for coupling ``values`` of shape (..., n_edges) on the spec's
    edge set (by default the spec's own)."""
    values = spec.couplings.values if values is None else values
    jv = values.take(plan.v_pos, axis=-1) * plan.v_sign
    col_expo = plan.sp_matrix @ jv
    # region.sites order is row-major over the extents, (W, L) or (L, W)
    h = _site_fields(spec, values, extra_fields).reshape(values.shape[:-1] + spec.region.extents)
    if plan.t_axis == 1:
        h = h.swapaxes(-1, -2)
    if h.any():
        col_expo += plan.s_matrix @ h
    col_expo *= spec.beta
    return np.exp(col_expo, out=col_expo)


def _link(s: np.ndarray, couplings: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker factors ``(hi, lo)`` of the weight exp(beta sum_r J_r s_r s'_r)
    of one column-to-column link, which is ``np.kron(hi, lo)``; ``couplings``
    of shape (..., W) give factors of shape (..., 2^(W-k), 2^(W-k)) and
    (..., 2^k, 2^k), one pair per leading index.

    ``lo`` covers rows 0..k-1 and ``hi`` rows k..W-1, with k = W // 2: a state
    x of the column is ``x_hi * 2^k + x_lo``, and the first 2^m rows of
    ``s[:, :m]`` are the states of m rows.  Both factors are symmetric.
    """
    k = couplings.shape[-1] // 2
    if 2 * k == couplings.shape[-1]:  # equal halves: one exp over a (..., 2, 2^k, 2^k) stack
        t = s[: 1 << k, :k]
        x = (t * (beta * couplings).reshape(*couplings.shape[:-1], 2, 1, k)) @ t.T
        x = np.exp(x, out=x)
        return x[..., 1, :, :], x[..., 0, :, :]

    def factor(j: np.ndarray) -> np.ndarray:
        t = s[: 1 << j.shape[-1], : j.shape[-1]]
        x = (t * (beta * j)[..., None, :]) @ t.T
        return np.exp(x, out=x)

    return factor(couplings[..., k:]), factor(couplings[..., :k])


def _apply(
    env: np.ndarray, link: tuple[np.ndarray, np.ndarray], out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """``env @ np.kron(hi, lo)`` for each row of the stack ``env``, of shape
    (B, rows, 2^W), with one factor pair per stack row, (B, n, n) each (see
    :func:`_link`), written into ``out``, a C-contiguous array of ``env``'s
    shape that may be ``env`` itself (it is written through reshaped views);
    returns ``out``.

    The product is one small matrix product per factor and carried row
    (``view @ lo``, then ``hi @ x``), taken one block of at most
    ``_BLOCK_DOUBLES`` doubles at a time: whole stack rows when one stack row
    fits, otherwise carried rows of one stack row.  A block is read in full
    into its lo-stage product before its part of ``out`` is written, and
    blocking does not change a bit.  That product is written into
    ``scratch``, a contiguous array of at least ``min(env.size,
    max(_BLOCK_DOUBLES, 2^W))`` doubles, what the largest block holds, so
    the step allocates no array of its own.
    """
    hi, lo = link[0][:, None], link[1][:, None]
    split = (hi.shape[-1], lo.shape[-1])
    rows = env.shape[-2]
    per = max(1, _BLOCK_DOUBLES // env.shape[-1])  # carried rows in a block
    if rows <= per:
        step = per // rows
        blocks = [(slice(b, b + step),) for b in range(0, len(env), step)]
    else:
        blocks = [(slice(b, b + 1), slice(r, r + per))
                  for b in range(len(env)) for r in range(0, rows, per)]
    for block in blocks:
        view = env[block]
        shape = (*view.shape[:-1], *split)
        x = np.matmul(view.reshape(shape), lo[block[:1]], out=scratch[: view.size].reshape(shape))
        np.matmul(hi[block[:1]], x, out=out[block].reshape(shape))
    return out


def _link_rows(
    link: tuple[np.ndarray, np.ndarray], rows: int, out: np.ndarray, first: int = 0
) -> np.ndarray:
    """Rows ``first`` to ``first + rows - 1`` of ``np.kron(hi, lo)``, whole
    ``hi`` rows (both multiples of lo's size), from one broadcast product
    written into ``out``, a C-contiguous (..., rows, 2^W) array with the
    factors' leading axes in front; returns ``out``."""
    hi, lo = link
    n = lo.shape[-1]
    h, a = rows // n, first // n
    np.multiply(hi[..., a : a + h, None, :, None], lo[..., None, :, None, :],
                out=out.reshape(*out.shape[:-2], h, n, hi.shape[-1], n))
    return out


def _trace_close(
    env: np.ndarray,
    link: tuple[np.ndarray, np.ndarray],
    scratch: np.ndarray,
    first: int = 0,
    carried: int | None = None,
) -> np.ndarray:
    """(B,) trace of each stack row's environment against its symmetric
    closing link ``np.kron(hi, lo)`` (see :func:`_link`), over the rows
    ``env`` carries: for ``env`` of shape (B, rows, 2^W), the column-0
    states ``first`` to ``first + rows - 1``, whole ``hi`` rows, of the
    ``carried`` states its sweep carries (by default ``rows``), all 2^W or
    the 2^(W-1) whose mirrored rows add the same sum again.

    The carried rows of the link are never built: with a row x = (p, l) and a
    column y = (a, j) split into their (hi, lo) halves, the environment is
    contracted with ``lo[l, j]`` over j, into ``scratch``, a contiguous
    array of at least ``env.size / 2^k`` doubles, then with ``hi[p, a]``
    over a, and summed over (p, l).  Both contractions are matrix products,
    as the steps' are: an ``einsum`` would load code that adds 0.1 MB to a
    process's resident size.
    """
    hi, lo = link
    b, rows, side = env.shape
    n = lo.shape[-1]
    h, a = rows // n, first // n
    shape = (b, h, n, side // n)
    view = env.reshape(*shape, n)
    by_lo = scratch[: env.size // n].reshape(*shape, 1)
    np.matmul(view, lo[:, None, :, :, None], out=by_lo)
    by_both = np.matmul(hi[:, a : a + h, None, None, :], by_lo)
    return (side // (rows if carried is None else carried)) * by_both.reshape(b, -1).sum(axis=1)


_RANGE_ERROR = "transfer weights left the floating-point range at this beta"


def _in_range(values: np.ndarray) -> None:
    """Pass if every one of ``values`` is positive and finite (a NaN is
    neither); otherwise the sweep left the range."""
    if values.size and not (0.0 < values.min() and values.max() < math.inf):
        raise ArithmeticError(_RANGE_ERROR)


def _sweep_doubles(plan: _TransferPlan, rows: int) -> int:
    """Doubles a sweep on ``plan`` holds per stack row while a chunk carries
    ``rows`` column-0 states, apart from its scratch region (see
    :func:`stack_rows`)."""
    w, k, side, length = plan.width, plan.width // 2, 1 << plan.width, plan.length
    links = 2 * ((1 << 2 * (w - k)) + (1 << 2 * k)) + ((w - k) << (w - k)) + (k << k) + w
    close = rows if plan.wrap_l else 0
    return rows * side + 2 * side * length + plan.h_pos.size + links + 5 * length + close


def _chunk_rows(plan: _TransferPlan, carried: int, n_edges: int) -> int:
    """How many of the ``carried`` column-0 states one chunk of a sweep on
    ``plan`` carries: all of them, or, when one stack row of a pair of
    states of ``n_edges`` couplings each (see :func:`stack_rows`) would not
    fit the budget with all of them, the most whole ``hi`` rows, halving
    from all, with which it fits; at least one ``hi`` row, 2^k states.
    ``carried`` and 2^k are powers of two, so the chunks of a sweep are
    equal and tile its carried states."""
    # the sweep's scratch and broadcast buffers, then three copies of the
    # pair's coupling rows and its two log Z
    room = _STACK_DOUBLES - max(_BLOCK_DOUBLES, 1 << plan.width) - 2 * np.getbufsize()
    room -= 3 * 2 * n_edges + 2
    rows = carried
    while rows > 1 << (plan.width // 2) and _sweep_doubles(plan, rows) > room:
        rows //= 2
    return rows


def _log_z(maxima: np.ndarray, totals: np.ndarray) -> list[tuple[float, ...]]:
    """One tuple of log Z per stack row, from a sweep's rescale maxima, of
    shape (chunks, L-1, B, 1, 1), and its closes, (chunks, B, closings).

    Each chunk's row sums the logs of its maxima in column order, as a
    one-row sweep does, and adds the log of each close.  A sweep of one
    chunk returns those sums; with several, each closing's chunk values
    are combined as a log-sum-exp shifted by their max.  Any maximum or
    close outside the floating-point range raises ``ArithmeticError``, from
    one check of every chunk and row.
    """
    _in_range(maxima)
    _in_range(totals)
    chunks = []
    for scales_by_row, ends_by_row in zip(
        maxima.reshape(maxima.shape[:3]).transpose(0, 2, 1).tolist(), totals.tolist()
    ):
        logz = []
        for scales, ends in zip(scales_by_row, ends_by_row):
            acc = 0.0
            for m in scales:
                acc += math.log(m)
            logz.append(tuple(acc + math.log(t) for t in ends))
        chunks.append(logz)
    if len(chunks) == 1:
        return chunks[0]
    combined = []
    for row in zip(*chunks):
        ends = []
        for parts in zip(*row):
            top = max(parts)
            ends.append(top + math.log(math.fsum(math.exp(p - top) for p in parts)))
        combined.append(tuple(ends))
    return combined


def _transfer_sweep(
    spec: GibbsSpec,
    width_cap: int = TRANSFER_WIDTH_CAP,
    extra_fields: Mapping[Site, float] | None = None,
    keep: bool = False,
    negated_close: bool = False,
    couplings: np.ndarray | None = None,
) -> tuple[list[tuple[float, ...]], list[np.ndarray]]:
    """Forward transfer product with per-column rescaling, for a stack of
    coupling vectors over one plan.

    ``couplings`` is a (B, n_edges) coupling stack on the edge set of
    ``spec``, the template that fixes the region, bc, beta and fields; by
    default it is the spec's own values, B = 1.  Every array of the sweep
    carries the stack as its leading axis, and each row's values are
    bit-identical to a sweep of that row alone: the products are the same
    per-row matrix products, each row keeps its own rescale maxima and
    ``math.log`` accumulator, and the chunks below do not depend on B.
    Returns (one tuple per row, environments); the tuple is (log Z,), or
    with ``negated_close`` (log Z, log Z of the second closing) as below.
    Any row leaving the floating-point range raises ``ArithmeticError`` for
    the whole stack (see :func:`_log_z`).

    Environment c is the product of columns 0..c and the links between
    them, divided by the maxima of environments 1..c-1, per row a 2-D array
    whose columns are the states of column c and whose rows are the states
    of column 0 that the close still needs: one row on an open length axis,
    and on a wrapped one 2^W rows, or 2^(W-1) when no field term breaks the
    global spin flip in any row of the stack.  The flip maps state x to
    ~x = 2^W-1-x and leaves every link (``M[~x, ~y] = M[x, y]``) and every
    field-free column weight unchanged, so the rows of the column-0 states
    with the top bit set are the others mirrored,
    ``env[~x, ~y] = env[x, y]``, and are not carried.

    The carried rows never mix: each one is its own product.  So a wrapped
    sweep whose environment does not fit the budget takes its carried rows
    in chunks of whole ``hi`` rows (:func:`_chunk_rows`, the rule
    :func:`stack_rows` counts), one after the other.  Each chunk starts
    from its own rows of the first link, runs the same steps with its own
    rescale maxima, and closes over its own rows; each closing's chunks
    combine as a log-sum-exp (:func:`_log_z`).  A sweep that fits takes one
    chunk, and a ``keep`` sweep always does, since the correlation pass
    reads every kept environment whole.

    The sweep allocates one work buffer: one chunk's environment, which
    every step overwrites in place, and a scratch region for the block of a
    link step and for the close's first contraction.  A step applies a link
    through its Kronecker factors (:func:`_apply`), except the first
    wrapped one, which writes the chunk's rows of the link
    (:func:`_link_rows`) and row-scales them by the column-0 weights.  The
    environment itself is never divided: step c >= 2 divides its link's
    small ``lo`` factor by the maximum of environment c-1, the rescale of
    that column, so every product has the magnitude it would have after
    dividing the environment.  The close takes the last maximum the same
    way: it is the sum of the last environment over that maximum on an
    open axis, and on a wrapped one its trace against the closing link with
    that maximum in its ``lo`` (:func:`_trace_close`).  With
    ``negated_close`` (a wrapped length axis only) the close is taken a
    second time, against the closing link with its couplings negated.
    With ``keep``, the sweep allocates instead one (L, B, rows, 2^W) array
    and the scratch region: each step writes straight into its own slot,
    and the list holds the L slots; otherwise the list is empty.
    """
    plan = _transfer_plan(spec.region, spec.bc, width_cap)
    beta = spec.beta
    s = plan.s_matrix
    values = spec.couplings.values[None] if couplings is None else couplings
    jh = values.take(plan.h_pos, axis=-1) * plan.h_sign
    side = 1 << plan.width
    closings = ()
    if plan.wrap_l:
        closings = (jh[..., -1], -jh[..., -1]) if negated_close else (jh[..., -1],)

    # overflow surfaces as an ArithmeticError from the range checks, never
    # as a numpy warning
    with np.errstate(all="ignore"):
        d = _column_weights(spec, plan, extra_fields, values)
        # the flip reverses the row order of the column weights, so a field
        # term shows as weights that are not even under it
        carried = 1
        if plan.wrap_l:
            carried = side // 2 if np.array_equal(d, d[:, ::-1]) else side
        rows = carried if keep else _chunk_rows(plan, carried, values.shape[-1])
        weights = d.transpose(2, 0, 1)[:, :, None]  # [c] is (B, 1, 2^W)
        # the sweep's one work buffer: a chunk's environment, overwritten
        # step by step, and the scratch region, which holds the largest
        # block of a link step and a wrapped close's first contraction
        shape = (len(values), rows, side)
        size = math.prod(shape)
        close = size >> (plan.width // 2) if plan.wrap_l else 0
        scratch_size = max(min(size, max(_BLOCK_DOUBLES, side)), close)
        if keep:  # one slot per environment, which its step writes
            slots, scratch = np.empty((plan.length, *shape)), np.empty(scratch_size)
        else:
            work = np.empty(size + scratch_size)
            slots, scratch = work[:size].reshape(1, *shape), work[size:]
        maxima = np.empty((carried // rows, plan.length - 1, len(values), 1, 1))
        totals = np.empty((carried // rows, len(values), max(1, len(closings))))
        for chunk, first in enumerate(range(0, carried, rows)):
            scales = maxima[chunk]  # rescale of column c at c-1
            # an open axis starts from the row d_0, and a wrapped one from
            # diag(d_0), applied to the first link as row scaling
            env = d[:, None, :, 0]
            if keep and plan.wrap_l:
                np.multiply(np.eye(rows, side), env, out=slots[0])
            elif keep:
                slots[0] = env
            for c in range(1, plan.length):
                hi, lo = _link(s, jh[..., c - 1], beta)
                if c > 1:  # the rescale of environment c-1
                    lo /= scales[c - 2]
                out = slots[c if keep else 0]
                if plan.wrap_l and c == 1:
                    env = _link_rows((hi, lo), rows, out, first)
                    env *= d[:, first : first + rows, None, 0]
                else:  # one link per stack row, shared by its carried rows
                    env = _apply(env, (hi, lo), out, scratch)
                # a contiguous copy of the weights: a strided row of d halves
                # the speed of this pass at W = 10
                env *= np.ascontiguousarray(weights[c])
                env.max(axis=(1, 2), keepdims=True, out=scales[c - 1])
            for n, j in enumerate(closings):
                hi, lo = _link(s, j, beta)
                lo /= scales[-1]
                totals[chunk, :, n] = _trace_close(env, (hi, lo), scratch, first, carried)
            if not plan.wrap_l:
                totals[chunk, :, 0] = env.reshape(len(env), -1).sum(axis=1)
                if len(scales):
                    totals[chunk] /= scales[-1, :, 0]
    return _log_z(maxima, totals), list(slots) if keep else []


def log_partition_transfer(
    spec: GibbsSpec,
    width_cap: int = TRANSFER_WIDTH_CAP,
    extra_fields: Mapping[Site, float] | None = None,
) -> float:
    """log Z via Kronecker-factored 2^W transfer links with per-column rescaling."""
    ((logz,),), _ = _transfer_sweep(spec, width_cap=width_cap, extra_fields=extra_fields)
    return logz


def transfer_supported(spec: GibbsSpec, width_cap: int = TRANSFER_WIDTH_CAP) -> bool:
    """Whether the transfer engine fits ``spec`` under ``width_cap``."""
    try:
        Solver("transfer", width_cap=width_cap).engine(spec.region)
    except SizeCapError:
        return False
    return True


def log_partition(
    spec: GibbsSpec,
    solver: Solver = Solver(),
    extra_fields: Mapping[Site, float] | None = None,
) -> float:
    """log Z by the engine that ``solver`` picks (see :meth:`Solver.engine`)."""
    if solver.engine(spec.region) == "transfer":
        return log_partition_transfer(spec, width_cap=solver.width_cap, extra_fields=extra_fields)
    return log_partition_enum(spec, cap=solver.enum_cap, extra_fields=extra_fields)


def _negated_close(p: _TransferPlan, q: _TransferPlan) -> bool:
    """Whether plan ``q``'s sweep is plan ``p``'s with only the closing
    link's couplings negated: plans that differ only in the sign of the last
    column of ``h_sign`` (an antiperiodic seam on the wrapped length axis)."""
    return (
        p.wrap_l
        and np.array_equal(p.v_pos, q.v_pos)
        and np.array_equal(p.v_sign, q.v_sign)
        and np.array_equal(p.h_pos, q.h_pos)
        and np.array_equal(p.h_sign[:, :-1], q.h_sign[:, :-1])
        and np.array_equal(p.h_sign[:, -1], -q.h_sign[:, -1])
    )


def stack_rows(spec: GibbsSpec, other: GibbsSpec, solver: Solver) -> int:
    """How many rows of a coupling stack one evaluation of the pair
    (``spec``, ``other``) takes at a time, so that it holds at most
    ``_STACK_DOUBLES`` doubles; at least one row.

    Each stack row holds three copies of its two coupling rows throughout:
    the rows a caller stacks, the gathers of
    :meth:`~eafluct.fluctuation.EnsembleSpec.f_stack` and the joined stacks
    of :func:`~eafluct.interface.free_energy_terms`, and its two log Z.
    Before the sweeps the zeroed rows and their byte keys add a fourth copy;
    during them a transfer-resolved state's sweep (see
    :func:`_transfer_sweep`) adds one chunk's environment, at the rows of
    the chunk :func:`_chunk_rows` gives it, its column weights with the
    temporary a field term adds (or, during the steps, the contiguous copy
    of one column's weights), its link couplings, two links (the last and
    the next) with the products that build one, and its rescale maxima,
    each also a Python float; a wrapped sweep's close adds one double per
    row of the chunk (see :func:`_trace_close`).  The two states are swept
    one after the other, so the larger sweep counts.  Once per sweep come
    the scratch region, one :func:`_apply` block, and the buffers numpy's
    broadcast products iterate through, one of ``np.getbufsize()`` doubles
    per input.  The scratch region also takes the close's first
    contraction, 2^-k of a chunk's environment, which is never larger than
    a block (``test_a_chunk_closes_within_one_block``).  The chunk is
    chosen so that one stack row fits; only a sweep in which one ``hi``
    row does not fit, such as a 12x12 torus's, holds one stack row past
    the budget.
    """
    copies = len(spec.couplings.values) + len(other.couplings.values)
    sweep, scratch = copies, 0  # the fourth copy, before the sweeps
    for state in (spec, other):
        if solver.engine(state.region) == "transfer":
            plan = _transfer_plan(state.region, state.bc, solver.width_cap)
            # a stacked sweep carries no extra field and a wrapped region no
            # clamped ghost, so a wrapped sweep carries half the rows
            carried = 1 << (plan.width - 1) if plan.wrap_l else 1
            rows = _chunk_rows(plan, carried, len(state.couplings.values))
            sweep = max(sweep, _sweep_doubles(plan, rows))
            scratch = max(scratch, _BLOCK_DOUBLES, 1 << plan.width)
    fixed = scratch + 2 * np.getbufsize()
    return max(1, (_STACK_DOUBLES - fixed) // (3 * copies + 2 + sweep))


def log_partition_pairs(
    spec: GibbsSpec,
    other: GibbsSpec,
    values: np.ndarray,
    other_values: np.ndarray,
    solver: Solver = Solver(),
) -> np.ndarray:
    """(B, 2) array of (log Z of ``spec``, log Z of ``other``) with their
    couplings replaced by each row of the (B, n_edges) stacks ``values`` and
    ``other_values``, each value bit-identical to a :func:`log_partition`
    call on that row.

    Each transfer-resolved state sweeps its stack as one coupling stack (see
    :func:`_transfer_sweep`).  When the two sweeps differ only in the sign
    of the closing link's couplings (periodic vs antiperiodic with the seam
    on the wrapped length axis) and the stacks are equal, one sweep closes
    the trace both ways.  To bound memory a stack is swept in chunks of
    :func:`stack_rows` rows.  Enumeration runs row by row.  A non-finite
    value in either stack is a ``ConfigError``.
    """
    if not (np.isfinite(values).all() and np.isfinite(other_values).all()):
        raise ConfigError("a coupling stack carries a non-finite value")
    engines = [solver.engine(state.region) for state in (spec, other)]
    out = np.empty((len(values), 2))
    sweeps = [(spec, values, 0, False), (other, other_values, 1, False)]
    if "enum" not in engines and spec.beta == other.beta and np.array_equal(values, other_values):
        plans = (_transfer_plan(s.region, s.bc, solver.width_cap) for s in (spec, other))
        if _negated_close(*plans):
            sweeps = [(spec, values, 0, True)]
    step = stack_rows(spec, other, solver)
    for state, stack, slot, negated in sweeps:
        if engines[slot] == "enum":
            for r, row in enumerate(stack):
                out[r, slot] = log_partition_enum(state, cap=solver.enum_cap, values=row)
            continue
        for start in range(0, len(stack), step):
            chunk = stack[start : start + step]
            logz, _ = _transfer_sweep(
                state, solver.width_cap, negated_close=negated, couplings=chunk
            )
            # a stack closed both ways fills both columns
            out[start : start + len(chunk), slot : slot + len(logz[0])] = logz
    return out


def _hi_gradient(left: np.ndarray, r_lo: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``(left @ r_lo.transpose(0, 2, 1)).sum(axis=0)``, bit for bit, for
    ``left`` and ``r_lo`` of shape (rows, 2^(W-k), 2^k), with the stacked
    products taken ``len(block)`` rows at a time into ``block``, of shape
    (n, 2^(W-k), 2^(W-k)).  numpy sums a leading axis in order, so adding
    the running total into each block's first product keeps every sum's
    order."""
    total = None
    for start in range(0, len(left), len(block)):
        rows = slice(start, start + len(block))
        x = np.matmul(left[rows], r_lo[rows].transpose(0, 2, 1),
                      out=block[: len(left[rows])])
        if total is not None:
            x[0] += total
        total = x.sum(axis=0)
    return total


def _transfer_bond_correlations(spec: GibbsSpec, width_cap: int) -> np.ndarray:
    """<sigma_x sigma_y> of every in-region bond, indexed like the spec's
    couplings (clamped ghost bonds are NaN), from one forward sweep and one
    backward pass: beta <sigma_x sigma_y> is the derivative of log Z in the
    bond's coupling, read off the gradients of each link's two factors.

    Walking from the last column back, ``right`` is the rescaled product of
    everything after link c, laid out like the environments: ``right[x0, y]``
    for the carried column-0 states x0 (see :func:`_transfer_sweep`) and the
    states y of column c+1, starting from the identity on a wrapped length
    axis and from a row of ones on an open one.  Write each carried row of
    ``left_c`` and of ``right`` as a 2^(W-k) x 2^k matrix over the (hi, lo)
    halves of a column (see :func:`_link`), L and R.  The weight summed over
    x0 is then sum_x0 <L, hi R lo>, the sum of an elementwise product, and
    its gradients in the two factors, G_hi = sum_x0 L (R lo)^T and
    G_lo = sum_x0 L^T (hi R), give the joint weight of each half's states on
    the two sides of the link as ``G_hi * hi`` and ``G_lo * lo``: bond r of
    a half is s_r^T (G * f) s_r over the sum of ``G * f``.  ``R lo`` is also
    the first half of the carry ``hi (R lo)``, so a link costs three half
    applications (``R lo``, ``hi R`` and the carry) and two contractions
    with ``left_c``, each one matrix product over the stacked x0 axis, none
    dense.  The column marginal, whose vertical bonds it gives, is the
    product of ``left_c`` and the carry written into a free buffer and
    summed over x0.  Beyond the L kept environments the pass holds three
    buffers of their shape and one block of the stacked (rows, 2^(W-k),
    2^(W-k)) products that G_hi sums (:func:`_hi_gradient`), of at most
    ``max(_BLOCK_DOUBLES, 4^(W-k))`` doubles.
    Where the sweep carries half the rows of a wrapped environment, the
    dropped x0 add the same weights mirrored, ``~x = 2^W-1-x``; every
    observable here is even under that flip, so the carried half gives the
    same ratios.  Every ratio is taken within one column or link, so the
    rescaling factors cancel; each link is rebuilt once here and dropped.
    The sweep keeps each environment before its rescale, so the pass divides
    it by its maximum in place, which keeps every product here in the range
    the sweep's own products have.
    """
    plan = _transfer_plan(spec.region, spec.bc, width_cap)
    _, envs = _transfer_sweep(spec, width_cap=width_cap, keep=True)
    d = _column_weights(spec, plan)
    s, sp = plan.s_matrix, plan.sp_matrix
    jh = spec.couplings.values[plan.h_pos] * plan.h_sign
    out = np.full(spec.couplings.values.shape, np.nan)
    shape, k = envs[0].shape[1:], plan.width // 2
    split = (shape[0], 1 << (plan.width - k), 1 << k)
    right = np.eye(*shape) if plan.wrap_l else np.ones(shape)
    r_lo, after = np.empty(split), np.empty(split)
    block = np.empty((max(1, min(shape[0], _BLOCK_DOUBLES // split[1] ** 2)), split[1], split[1]))
    with np.errstate(all="ignore"):  # see _transfer_sweep
        for c in reversed(range(plan.length)):
            left = envs[c][0]
            left /= left.max()
            if c < jh.shape[1]:
                hi, lo = _link(s, jh[:, c], spec.beta)
                lv, rv = left.reshape(split), right.reshape(split)
                np.matmul(rv, lo, out=r_lo)
                w_hi = hi * _hi_gradient(lv, r_lo, block)
                np.matmul(hi, rv, out=after)
                w_lo = lo * (lv.reshape(-1, split[2]).T @ after.reshape(-1, split[2]))
                for half, w in ((slice(k, None), w_hi), (slice(k), w_lo)):
                    t = s[: len(w), : len(w).bit_length() - 1]  # the spins of the half's rows
                    out[plan.h_pos[half, c]] = ((w @ t) * t).sum(axis=0) / w.sum()
                np.matmul(hi, r_lo, out=after)
                right, after = after.reshape(shape), rv
            marginal = np.multiply(left, right, out=r_lo.reshape(shape)).sum(axis=0)
            out[plan.v_pos[:, c]] = (marginal @ sp) / marginal.sum()
            right *= d[:, c]
            right /= right.max()
    if not (np.isfinite(out[plan.v_pos]).all() and np.isfinite(out[plan.h_pos]).all()):
        raise ArithmeticError(_RANGE_ERROR)
    return out


def edge_correlations(
    spec: GibbsSpec, edges: Iterable[Edge], solver: Solver = Solver()
) -> np.ndarray:
    """<sigma_x sigma_y> for each edge, in order, under the spec's Gibbs measure.

    One pass of one engine serves every edge: a forward and a backward
    transfer pass, or one enumeration pass that accumulates the second-moment
    matrix of the region's spins.
    """
    engine = solver.engine(spec.region)
    edges = tuple(edges)
    # a clamped ghost bond is in the spec's edge set but has no correlation
    edge_positions(interior_edges(spec.region), edges)
    if engine == "transfer":
        by_position = _transfer_bond_correlations(spec, solver.width_cap)
        return by_position[edge_positions(spec.couplings.edge_set, edges)]
    _, (second,) = _enum_reduce(spec, [], cap=solver.enum_cap, moments=True)
    _, index = _site_order(spec.region)
    return np.array([second[index[e.x], index[e.y]] for e in edges], dtype=np.float64)


def edge_correlation(
    spec: GibbsSpec,
    edge: Edge,
    method: str = "auto",
    enum_cap: int = ENUM_CAP,
    width_cap: int = TRANSFER_WIDTH_CAP,
) -> float:
    """<sigma_x sigma_y> under the spec's Gibbs measure, by the engine that
    ``Solver(method, enum_cap, width_cap)`` picks."""
    (value,) = edge_correlations(spec, (edge,), Solver(method, enum_cap, width_cap))
    return float(value)


# ---------------------------------------------------------------------------
# local coupling modification (additive reweighting)


def reweight(spec: GibbsSpec, block: Region, values: Mapping[Edge, float]) -> GibbsSpec:
    """The spec with couplings J + J_B on E(block) (additive local modification).

    Expectations of the returned spec equal the exponential-tilt formula
    applied to the original spec; ``reweight_expectation`` evaluates that
    formula directly, as the independent route.
    """
    idx, added = block_assignment(spec.couplings, block, values)
    out = spec.couplings.values.copy()
    out[idx] += added
    return spec.with_couplings(spec.couplings.with_values(out))


def reweight_expectation(
    spec: GibbsSpec,
    block: Region,
    values: Mapping[Edge, float],
    observable: VectorObservable,
    cap: int = ENUM_CAP,
) -> float:
    """< f >_{J+J_B} evaluated on the *original* spec via the tilt formula

        Gamma(f exp(beta sum_B J_B sigma sigma)) / Gamma(exp(beta sum_B ...)),

    by enumeration, for an enumeration observable ``f(spins, sites)``.
    This is the independent numerical route against which :func:`reweight`
    is checked.
    """
    block_assignment(spec.couplings, block, values)
    tilt = exp_bond_observable(interior_edges(block), values, spec.beta)

    def weighted(chunk: np.ndarray, sites: tuple[Site, ...]) -> np.ndarray:
        return _per_state(observable, chunk, sites) * tilt(chunk, sites)

    _, (num, den) = _enum_reduce(spec, [weighted, tilt], cap=cap)
    return num / den
