"""Shared fixtures, independent brute-force oracles and cross-check routes.

The oracles here re-derive Gibbs sums in plain Python over explicit spin
dictionaries, so they share no code path with the package's vectorized
enumeration or transfer engines.  The cross-check routes (a direct free
energy, the gradient identity, conditional means and the variance
identities) are built from package parts, each by a route that no
experiment kind takes.  The geometry routes build edge sets, Hamiltonian
terms and transfer-plan bond grids by scanning and sorting, where the
package builds them in one pass.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from eafluct.disorder import ZERO, CouplingConfig, SeedSpec, set_block
from eafluct.errors import ContainmentError
from eafluct.exactsolve import (
    ENUM_CAP,
    GibbsSpec,
    Solver,
    _enum_reduce,
    antiperiodic_bc,
    edge_correlations,
    exp_bond_observable,
    log_partition_pairs,
    periodic_bc,
    required_edges,
    reweight_expectation,
    uniform_fixed_bc,
)
from eafluct.fluctuation import (
    BOOTSTRAP_DEFAULT,
    _conditional_path,
    _mean_rows,
    _var_rows,
    bootstrap_stderr,
)
from eafluct.harness import parse_config_dict, reduce_report, run_task, task_coordinates
from eafluct.lattice import Edge, Region, edge_from_origin, grow, interior_edges


def reference_key(edge):
    """The canonical order of edges, computed here: origin site, then the
    higher axis first, then the regular bond before the seam bond."""
    return (edge.y if edge.wrap else edge.x, -edge.axis, edge.wrap)


@functools.lru_cache(maxsize=None)
def reference_interior_edges(region):
    """E(region) in canonical order: each site's +axis bond under the wrap
    rules, axes ascending, sorted by :func:`reference_key` afterwards."""
    edges = []
    for site in region.sites:
        for axis in range(region.dimension):
            rel = site[axis] - region.origin[axis]
            if rel + 1 < region.extents[axis]:
                other = site[:axis] + (site[axis] + 1,) + site[axis + 1:]
                edges.append(Edge(site, other, axis, wrap=False))
            elif region.wrap[axis] and region.extents[axis] >= 2:
                other = site[:axis] + (region.origin[axis],) + site[axis + 1:]
                edges.append(Edge(other, site, axis, wrap=True))
    return tuple(sorted(edges, key=reference_key))


def reference_boundary_edges(inner, ambient):
    """Every bond of ``ambient`` scanned, and those with exactly one endpoint
    in ``inner`` kept, in canonical order."""
    if not all(ambient.contains_site(s) for s in inner.sites):
        raise ContainmentError(f"inner region {inner} not contained in ambient {ambient}")
    return tuple(
        e for e in reference_interior_edges(ambient)
        if inner.contains_site(e.x) != inner.contains_site(e.y)
    )


def reference_union(*parts):
    return tuple(sorted(set().union(*parts), key=reference_key))


def reference_master_edges(extents):
    """The wrapped interior of the box and the ghost ring of the open box."""
    box = Region(extents)
    wrapped = reference_interior_edges(Region(extents, (True,) * len(extents)))
    return reference_union(wrapped, reference_boundary_edges(box, grow(box)))


def reference_required_edges(region, bc):
    inner = reference_interior_edges(region)
    if bc.kind == "fixed":
        return reference_union(inner, reference_boundary_edges(region, grow(region)))
    return inner


def reference_terms(region, bc):
    """The fields of ``exactsolve._terms(region, bc)``, from the reference
    edges and the sites' positions in ``region.sites``."""
    sites = list(region.sites)
    terms = {"n": len(sites), "sign": [], "bond_ix": [], "bond_iy": [], "bond_pos": [],
             "ghost_site": [], "ghost_pos": []}
    for k, e in enumerate(reference_required_edges(region, bc)):
        terms["sign"].append(-1.0 if e.wrap and e.axis in bc.seam_axes else 1.0)
        if region.contains_site(e.x) and region.contains_site(e.y):
            terms["bond_ix"].append(sites.index(e.x))
            terms["bond_iy"].append(sites.index(e.y))
            terms["bond_pos"].append(k)
        else:
            terms["ghost_site"].append(sites.index(e.x if region.contains_site(e.x) else e.y))
            terms["ghost_pos"].append(k)
    return terms


def reference_plan_bonds(region, bc, t_axis):
    """``(v_pos, v_sign, h_pos, h_sign)`` of a transfer plan across ``t_axis``:
    the +axis bond of the site in column c and row r, at [r, c], built from
    its origin site (``edge_from_origin``) and looked up in the reference
    required edges.  A wrapped axis of two or more sites adds its seam bond
    last."""
    l_axis = 1 - t_axis
    w, length = region.extents[t_axis], region.extents[l_axis]
    edges = reference_required_edges(region, bc)
    position = {e: k for k, e in enumerate(edges)}
    sign = np.asarray(reference_terms(region, bc)["sign"])

    def site(c, r):
        coords = [0, 0]
        coords[l_axis] = region.origin[l_axis] + c
        coords[t_axis] = region.origin[t_axis] + r
        return tuple(coords)

    def bonds(axis, rows, columns):
        grid = [position[edge_from_origin(site(c, r), axis, region)]
                for r in range(rows) for c in range(columns)]
        return np.asarray(grid, dtype=np.intp).reshape(rows, columns)

    n_v = w if region.wrap[t_axis] and w >= 2 else w - 1
    links = length if region.wrap[l_axis] and length >= 2 else length - 1
    v_pos, h_pos = bonds(t_axis, n_v, length), bonds(l_axis, w, links)
    return v_pos, sign[v_pos], h_pos, sign[h_pos]


def spin_assignments(sites):
    for assign in itertools.product((-1, 1), repeat=len(sites)):
        yield dict(zip(sites, assign))


def effective_bonds(spec):
    """(x, y, J) triples with seam flips applied, plus ghost fields."""
    bonds = []
    fields = {}
    for e in required_edges(spec.region, spec.bc):
        j = spec.couplings.value(e)
        if e.wrap and spec.bc.kind == "antiperiodic" and e.axis in spec.bc.seam_axes:
            j = -j
        in_x = spec.region.contains_site(e.x)
        in_y = spec.region.contains_site(e.y)
        if in_x and in_y:
            bonds.append((e.x, e.y, j))
        else:
            inner = e.x if in_x else e.y
            fields[inner] = fields.get(inner, 0.0) + j * spec.bc.sign
    return bonds, fields


def ring_through_couplings(spec, spin=lambda k: (-1) ** k):
    """``spec``, a ``uniform_fixed_bc(+1)`` spec, with its ghost ring clamped
    to ``spin(k)`` at the k-th outer site in sorted order: by default a mixed
    ring.  A ghost bond enters only as ``J_g tau_g sigma_x``, so the ring is
    written through the couplings, each ghost coupling times its outer
    site's spin, a product by +-1 that is exact."""
    assert spec.bc == uniform_fixed_bc(+1)
    region, edges = spec.region, spec.couplings.edge_set
    # each bond's ghost endpoint, None for a bond inside the region
    outer = [next((s for s in (e.x, e.y) if not region.contains_site(s)), None) for e in edges]
    tau = {s: spin(k) for k, s in enumerate(sorted(set(outer) - {None}))}
    values = [v if s is None else v * tau[s] for v, s in zip(spec.couplings.values, outer)]
    return spec.with_couplings(CouplingConfig(edges, values))


def brute_weight_exponent(spec, sigma, bonds, fields):
    acc = 0.0
    for x, y, j in bonds:
        acc += j * sigma[x] * sigma[y]
    for site, h in fields.items():
        acc += h * sigma[site]
    return spec.beta * acc


def brute_log_z(spec):
    bonds, fields = effective_bonds(spec)
    sites = list(spec.region.sites)
    expos = [
        brute_weight_exponent(spec, sigma, bonds, fields)
        for sigma in spin_assignments(sites)
    ]
    m = max(expos)
    return m + math.log(math.fsum(math.exp(v - m) for v in expos))


def brute_expectation(spec, observable):
    """<f> with f a function of the spin dict."""
    bonds, fields = effective_bonds(spec)
    sites = list(spec.region.sites)
    num = []
    den = []
    expos = []
    sigmas = list(spin_assignments(sites))
    for sigma in sigmas:
        expos.append(brute_weight_exponent(spec, sigma, bonds, fields))
    m = max(expos)
    for sigma, expo in zip(sigmas, expos):
        w = math.exp(expo - m)
        num.append(observable(sigma) * w)
        den.append(w)
    return math.fsum(num) / math.fsum(den)


def brute_correlation(spec, edge):
    return brute_expectation(spec, lambda s: s[edge.x] * s[edge.y])


def bond_product(edge):
    """sigma_x sigma_y of one edge as an enumeration observable: one value
    per row of a (states, n_sites) spin chunk whose columns follow ``sites``."""

    def product(spins, sites):
        return spins[:, sites.index(edge.x)] * spins[:, sites.index(edge.y)]

    return product


def constant_one(spins, sites):
    """The observable 1, as an enumeration observable."""
    return np.ones(len(spins))


def gibbs_expectation(spec, observable, cap=ENUM_CAP):
    """<f> under the spec's Gibbs measure, by enumeration."""
    _, (value,) = _enum_reduce(spec, [observable], cap=cap)
    return value


def direct_free_energy(pair, cap=ENUM_CAP):
    """F through the direct Gibbs expectation of exp(beta H_window) in both
    states, by enumeration: the route independent of the four log Z."""
    values = {e: -pair.gamma.couplings.value(e) for e in pair.window_edges}
    obs = exp_bond_observable(pair.window_edges, values, pair.beta)
    return math.log(gibbs_expectation(pair.gamma, obs, cap)) - math.log(
        gibbs_expectation(pair.gamma_prime, obs, cap))


def gradient(pair, solver=Solver()):
    """``{edge: (dF/dJ_e, <ss>_Gamma, <ss>_Gamma')}`` over the window, by the
    identity dF/dJ_e = beta (<ss>_Gamma' - <ss>_Gamma)."""
    edges = tuple(pair.window_edges)
    corr = [edge_correlations(s, edges, solver).tolist() for s in (pair.gamma, pair.gamma_prime)]
    return {e: (pair.beta * (cp - c), c, cp) for e, c, cp in zip(edges, *corr)}


def conditional_mean_direct(spec, block, values, n_outer):
    """F of realization 0's inner draws with E(block) held at ``values``."""
    held = set_block(spec.master(0), block, values)  # only E(block) is read
    return _conditional_path(spec, 0, held, [tuple(interior_edges(block))], n_outer, "cond")[:, 0]


def conditional_mean_reweight(spec, block, values, n_outer):
    """The draws of :func:`conditional_mean_direct` with E(block) zeroed in
    the states and added back by the tilt formula, by enumeration."""
    out = []
    for t in range(n_outer):
        inner = spec.inner_master(0, t, "cond")
        pair, full = spec.pair_from(set_block(inner, block, ZERO)), set_block(inner, block, values)
        obs = exp_bond_observable(
            pair.window_edges, {e: -full.value(e) for e in pair.window_edges}, spec.beta)
        num = reweight_expectation(pair.gamma, block, values, obs)
        den = reweight_expectation(pair.gamma_prime, block, values, obs)
        out.append(math.log(num) - math.log(den))
    return np.array(out)


def gaussian_sum_identity(n, n_inner, seed, n_boot=BOOTSTRAP_DEFAULT):
    """``{name: (value, bootstrap stderr, exact value)}`` for X = J1 + J2 of
    independent standard gaussians, conditioned on J1: Var X = 2,
    E[Var(X|J1)] = 1, Var(E[X|J1]) = 1 and Var X = E[(X - X')^2] / 2."""
    rng = SeedSpec(seed, 0, "var-identity").rng()
    direct = rng.normal(size=n) + rng.normal(size=n)
    inner = rng.normal(size=n)[:, None] + rng.normal(size=(n, n_inner))
    means, variances = inner.mean(axis=1), inner.var(axis=1, ddof=1)
    x = rng.normal(size=n) + rng.normal(size=n)
    half_sq = (x - (rng.normal(size=n) + rng.normal(size=n))) ** 2 / 2.0
    boot = SeedSpec(seed, 0, "var-identity-boot").rng()
    rep = {"var": (direct.var(ddof=1), bootstrap_stderr(direct, _var_rows, n_boot, boot), 2.0)}
    e_var = variances.mean()
    rep["e_var_given"] = (e_var, bootstrap_stderr(variances, _mean_rows, n_boot, boot), 1.0)
    rep["var_e_given"] = (means.var(ddof=1) - e_var / n_inner, bootstrap_stderr(
        np.stack([means, variances], axis=1),
        lambda m: _var_rows(m[:, :, 0]) - _mean_rows(m[:, :, 1]) / n_inner, n_boot, boot), 1.0)
    rep["sym_var"] = (half_sq.mean(), bootstrap_stderr(half_sq, _mean_rows, n_boot, boot), 2.0)
    return rep


def total_variance_identity(spec, block, n, n_outer, n_boot=BOOTSTRAP_DEFAULT):
    """Var F = E[Var(F|J_B)] + Var(E[F|J_B]) on the nested MC of realizations
    0..n-1, and Var F = E[(F - F')^2] / 2 over their disjoint halves, each
    ``pass`` within 3 bootstrap stderr."""
    edges = tuple(interior_edges(block))
    f, means, variances = np.empty(n), np.empty(n), np.empty(n)
    for i in range(n):
        master = spec.master(i)
        f[i] = spec.f_from(master)
        path = _conditional_path(spec, i, master, [edges], n_outer, "lotv")[:, 0]
        means[i], variances[i] = path.mean(), path.var(ddof=1)
    var, e_var = f.var(ddof=1), variances.mean()
    var_e = means.var(ddof=1) - e_var / n_outer
    rng = SeedSpec(spec.master_seed, 0, "lotv-bootstrap").rng()
    stacked = np.stack([f, means, variances], axis=1)

    def rhs(m):
        return _mean_rows(m[:, :, 2]) + _var_rows(m[:, :, 1]) - _mean_rows(m[:, :, 2]) / n_outer

    var_se = bootstrap_stderr(f, _var_rows, n_boot, rng)
    bootstrap_stderr(stacked, rhs, n_boot, rng)  # the rhs alone: keeps the draws below
    gap_se = bootstrap_stderr(stacked, lambda m: _var_rows(m[:, :, 0]) - rhs(m), n_boot, rng)
    half_sq = (f[: n // 2] - f[n // 2 : n // 2 * 2]) ** 2 / 2.0
    sym_se = bootstrap_stderr(half_sq, _mean_rows, n_boot, rng)
    return {
        "var_direct": var, "e_var_given_block": e_var, "var_e_given_block": var_e,
        "sym_var": half_sq.mean(),
        "pass": abs(var - (e_var + var_e)) <= 3.0 * gap_se,
        "sym_pass": abs(half_sq.mean() - var) <= 3.0 * math.hypot(sym_se, var_se),
    }


def domain_wall(couplings, region, beta, seam_axis=0, method="auto"):
    """log Z_periodic - log Z_antiperiodic of ``couplings`` on the torus
    ``region``, as ``fluctuation.domain_wall_value`` takes it:
    ``log_partition_pairs`` of the two states' own couplings, as one-row
    stacks."""
    p = GibbsSpec(region, couplings, beta, periodic_bc())
    ap = GibbsSpec(region, couplings, beta, antiperiodic_bc(seam_axis))
    stacks = (p.couplings.values[None], ap.couplings.values[None])
    t = log_partition_pairs(p, ap, *stacks, Solver(method))
    return float(t[0, 0] - t[0, 1])


def run_in_process(data: dict) -> tuple[list[dict], dict]:
    """``(payloads, summary)`` of the config dict ``data``: ``run_task`` for
    each task index in task order, then ``reduce_report``, the work
    ``harness.run`` does without its records and report files."""
    cfg = parse_config_dict(data)
    payloads = [run_task(cfg, task) for task in range(len(task_coordinates(cfg)))]
    return payloads, reduce_report(cfg, payloads)


@pytest.fixture
def gaussian():
    from eafluct.disorder import Gaussian

    return Gaussian()
