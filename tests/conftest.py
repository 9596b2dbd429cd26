"""Shared fixtures and independent brute-force oracles.

The oracles here re-derive Gibbs sums in plain Python over explicit spin
dictionaries, so they share no code path with the package's vectorized
enumeration or transfer engines.
"""

import itertools
import math

import numpy as np
import pytest

from eafluct.disorder import CouplingConfig
from eafluct.exactsolve import (
    GibbsSpec,
    Solver,
    antiperiodic_bc,
    log_partition_pairs,
    periodic_bc,
    required_edges,
    uniform_fixed_bc,
)
from eafluct.harness import parse_config_dict, reduce_report, run_task, task_count


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
    outer = [next((s for s in e.endpoints() if not region.contains_site(s)), None) for e in edges]
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


def domain_wall(couplings, region, beta, seam_axis=0, method="auto"):
    """log Z_periodic - log Z_antiperiodic of ``couplings`` on the torus
    ``region``, as ``EnsembleSpec.f_stack`` takes it in domain-wall mode:
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
    payloads = [run_task(cfg, task) for task in range(task_count(cfg))]
    return payloads, reduce_report(cfg, payloads)


@pytest.fixture
def gaussian():
    from eafluct.disorder import Gaussian

    return Gaussian()
