import math
from dataclasses import asdict

import numpy as np
import pytest
from conftest import brute_correlation, direct_free_energy, domain_wall, gradient

from eafluct import exactsolve, interface
from eafluct.disorder import ZERO, Gaussian, SeedSpec, sample_couplings, set_block
from eafluct.errors import ContainmentError, PairError, UnsupportedOperationError
from eafluct.exactsolve import (
    BoundaryCondition,
    GibbsSpec,
    Solver,
    antiperiodic_bc,
    edge_correlation,
    free_bc,
    log_partition,
    log_partition_enum,
    periodic_bc,
    uniform_fixed_bc,
)
from eafluct.interface import (
    FreeEnergyResult,
    interface_free_energy,
    make_state_pair,
    master_edge_set,
    sample_master,
)
from eafluct.lattice import Edge, Region, interior_edges


def pair_4x4(beta=1.0, bc=None, bc_prime=None, seed=11, realization=0):
    master = sample_master(Gaussian(), (4, 4), SeedSpec(seed, realization, "couplings"))
    return make_state_pair(
        (4, 4), (2, 2), beta, bc or free_bc(), bc_prime or periodic_bc(), master
    )


def pair_5x5(beta=1.0, bc=None, bc_prime=None, seed=11, realization=0):
    master = sample_master(Gaussian(), (5, 5), SeedSpec(seed, realization, "couplings"))
    return make_state_pair(
        (5, 5), (3, 3), beta, bc or free_bc(), bc_prime or periodic_bc(), master
    )


# --- pair invariants --------------------------------------------------------


def test_pair_requires_margin():
    master = sample_master(Gaussian(), (4, 4), SeedSpec(1, 0, "couplings"))
    with pytest.raises(PairError):
        make_state_pair((4, 4), (4, 4), 1.0, free_bc(), periodic_bc(), master)


def test_pair_requires_equal_beta_and_box():
    p = pair_4x4()
    with pytest.raises(PairError):
        type(p)(p.window, p.gamma, GibbsSpec(p.gamma_prime.region, p.gamma_prime.couplings, 2.0, periodic_bc()))


def test_pair_couplings_must_agree_on_shared_edges():
    p = pair_4x4()
    tweaked = p.gamma_prime.couplings.values.copy()
    tweaked[0] += 1.0
    bad = p.gamma_prime.with_couplings(p.gamma_prime.couplings.with_values(tweaked))
    with pytest.raises(PairError):
        type(p)(p.window, p.gamma, bad)


@pytest.mark.parametrize("window", [
    Region((2,), None, (1,)), Region((2, 2, 1), None, (1, 1, 0)),
], ids=["1d", "3d"])
def test_a_window_of_another_dimension_is_a_pair_error(window):
    p = pair_4x4()
    assert not Region((4, 4)).contains_region(window)
    with pytest.raises(PairError, match="window not contained"):
        type(p)(window, p.gamma, p.gamma_prime)


def test_margin_recorded():
    assert pair_4x4().margin == 1
    assert pair_5x5().margin == 1


# --- interface free energy ---------------------------------------------------


def test_beta_zero_gives_exact_zero():
    result = interface_free_energy(pair_4x4(beta=0.0))
    assert result.value == 0.0


def test_zero_window_couplings_give_exact_zero():
    p = pair_4x4()
    master = sample_master(Gaussian(), (4, 4), SeedSpec(11, 0, "couplings"))
    zeroed = set_block(master, p.window, ZERO)
    p0 = make_state_pair((4, 4), (2, 2), 1.0, free_bc(), periodic_bc(), zeroed)
    assert interface_free_energy(p0).value == 0.0


def test_identical_boundary_conditions_give_exact_zero():
    p = pair_4x4(bc=free_bc(), bc_prime=free_bc())
    result = interface_free_energy(p)
    assert result.value == 0.0
    assert result.log_z_gamma == result.log_z_gamma_prime


def test_antisymmetry_is_exact():
    master = sample_master(Gaussian(), (4, 4), SeedSpec(23, 0, "couplings"))
    p = make_state_pair((4, 4), (2, 2), 1.0, free_bc(), periodic_bc(), master)
    q = make_state_pair((4, 4), (2, 2), 1.0, periodic_bc(), free_bc(), master)
    assert interface_free_energy(p).value == -interface_free_energy(q).value


def test_value_recomputable_from_terms():
    r = interface_free_energy(pair_4x4())
    assert r.value == (r.log_z_gamma_zero - r.log_z_gamma) - (
        r.log_z_gamma_prime_zero - r.log_z_gamma_prime
    )


def test_result_record_round_trip():
    result = interface_free_energy(pair_4x4())
    assert FreeEnergyResult(**asdict(result)) == result


def test_bc_pair_names_the_sign_of_a_fixed_rule():
    pairs = [interface_free_energy(pair_4x4(bc_prime=uniform_fixed_bc(s))).bc_pair
             for s in (1, -1)]
    assert pairs == [("free", "fixed:+1"), ("free", "fixed:-1")]
    for s in (1, -1):  # the label is the config name of the same rule
        assert BoundaryCondition.from_name(uniform_fixed_bc(s).label, ()) == uniform_fixed_bc(s)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "bc_prime_name", ["periodic", "antiperiodic", "fixed+", "fixed-"]
)
def test_route_equivalence_enumerable(beta, bc_prime_name):
    # DERIVED: ratio-of-partition-functions route vs direct Gibbs expectation
    bc_prime = {
        "periodic": periodic_bc(),
        "antiperiodic": antiperiodic_bc(0),
        "fixed+": uniform_fixed_bc(1),
        "fixed-": uniform_fixed_bc(-1),
    }[bc_prime_name]
    p = pair_4x4(beta=beta, bc_prime=bc_prime, seed=37)
    ratio = interface_free_energy(p, Solver("enum")).value
    transfer = interface_free_energy(p, Solver("transfer")).value
    direct = direct_free_energy(p)
    assert ratio == pytest.approx(direct, abs=1e-9)
    assert transfer == pytest.approx(direct, abs=1e-9)


def test_route_equivalence_3x3_window_in_5x5():
    # the largest enumerable window-in-box geometry; enumeration cap raised
    # to the box's 25 free spins for the direct route
    p = pair_5x5(seed=21)
    ratio = interface_free_energy(p).value
    direct = direct_free_energy(p, cap=25)
    assert ratio == pytest.approx(direct, abs=1e-9)


def test_locality_outside_couplings_do_not_matter():
    # the ghost-ring couplings exist in the master but are invisible to a
    # free/periodic pair; F must be bit-identical when only they change
    master = sample_master(Gaussian(), (4, 4), SeedSpec(5, 0, "couplings"))
    values = master.values.copy()
    used = set()
    for bc in (free_bc(), periodic_bc()):
        region = Region((4, 4), (bc.kind == "periodic",) * 2)
        from eafluct.exactsolve import required_edges

        for e in required_edges(region, bc):
            used.add(e)
    for k, e in enumerate(master.edge_set):
        if e not in used:
            values[k] += 7.5
    altered = master.with_values(values)
    f1 = interface_free_energy(make_state_pair((4, 4), (2, 2), 1.0, free_bc(), periodic_bc(), master))
    f2 = interface_free_energy(make_state_pair((4, 4), (2, 2), 1.0, free_bc(), periodic_bc(), altered))
    assert f1.value == f2.value
    assert f1.log_z_gamma == f2.log_z_gamma


def test_boundary_bound_holds_strictly():
    for realization in range(10):
        for beta in (0.5, 1.0, 2.0):
            p = pair_5x5(beta=beta, seed=77, realization=realization)
            f = interface_free_energy(p).value
            assert abs(f) <= 4.0 * beta * p.boundary_abs_sum() + 1e-9


# --- domain wall --------------------------------------------------------------


def test_domain_wall_zero_at_beta_zero():
    region = Region((4, 4), (True, True))
    couplings = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(2))
    assert domain_wall(couplings, region, 0.0) == 0.0


def test_domain_wall_zero_couplings():
    region = Region((4, 4), (True, True))
    edges = interior_edges(region)
    couplings = sample_couplings(Gaussian(), edges, SeedSpec(2)).with_values(np.zeros(len(edges)))
    assert domain_wall(couplings, region, 1.0) == 0.0


def test_domain_wall_ferromagnet_positive_and_matches_enumeration():
    # DERIVED: enumeration oracle fixes the value
    region = Region((4, 4), (True, True))
    edges = interior_edges(region)
    couplings = sample_couplings(Gaussian(), edges, SeedSpec(2)).with_values(np.ones(len(edges)))
    value = domain_wall(couplings, region, 1.0)
    spec_p = GibbsSpec(region, couplings, 1.0, periodic_bc())
    spec_a = GibbsSpec(region, couplings, 1.0, antiperiodic_bc(0))
    expected = log_partition_enum(spec_p) - log_partition_enum(spec_a)
    assert value > 0.0
    assert value == pytest.approx(expected, abs=1e-9)


def test_domain_wall_requires_torus():
    region = Region((4, 4))
    couplings = sample_couplings(Gaussian(), interior_edges(region), SeedSpec(2))
    with pytest.raises(UnsupportedOperationError):
        domain_wall(couplings, region, 1.0)


# --- gradient -----------------------------------------------------------------


def test_gradient_zero_for_identical_states():
    p = pair_4x4(bc=periodic_bc(), bc_prime=periodic_bc())
    for grad, _, _ in gradient(p).values():
        assert grad == 0.0


def test_gradient_zero_at_beta_zero():
    p = pair_4x4(beta=0.0)
    for grad, _, _ in gradient(p).values():
        assert grad == 0.0


def _fd_gradient(master, box, window, beta, bc, bc_prime, edge, h=1e-4):
    vals = {}
    k = master.edge_set.index(edge)
    for s in (1, -1):
        v = master.values.copy()
        v[k] += s * h
        p = make_state_pair(box, window, beta, bc, bc_prime, master.with_values(v))
        vals[s] = interface_free_energy(p).value
    return (vals[1] - vals[-1]) / (2 * h)


def test_gradient_matches_central_finite_differences():
    # DERIVED: finite-difference oracle, step 1e-4, tolerance 1e-5
    master = sample_master(Gaussian(), (5, 5), SeedSpec(13, 1, "couplings"))
    bc, bc_prime = free_bc(), uniform_fixed_bc(1)
    p = make_state_pair((5, 5), (3, 3), 1.0, bc, bc_prime, master)
    entries = gradient(p)
    assert len(entries) == len(interior_edges(p.window))
    for e, (grad, corr, corr_prime) in entries.items():
        fd = _fd_gradient(master, (5, 5), (3, 3), 1.0, bc, bc_prime, e)
        assert grad == pytest.approx(fd, abs=1e-5)
        assert grad == pytest.approx(p.beta * (corr_prime - corr), abs=1e-15)


# --- correlation difference ----------------------------------------------------


def delta(pair, edge, **solver):
    """delta_xy = <ss>_Gamma - <ss>_Gamma' of one edge shared by both states."""
    return edge_correlation(pair.gamma, edge, **solver) - edge_correlation(
        pair.gamma_prime, edge, **solver
    )


def test_correlation_difference_zero_for_identical_states():
    p = pair_4x4(bc=periodic_bc(), bc_prime=periodic_bc())
    e = tuple(p.window_edges)[0]
    assert delta(p, e) == 0.0


def test_correlation_difference_zero_at_beta_zero():
    p = pair_4x4(beta=0.0)
    e = tuple(p.window_edges)[0]
    assert delta(p, e) == 0.0


def test_correlation_difference_bounded():
    p = pair_4x4()
    for e in p.window_edges:
        assert -2.0 <= delta(p, e) <= 2.0


def test_correlation_difference_rejects_foreign_edge():
    p = pair_4x4()
    with pytest.raises(ContainmentError):
        delta(p, Edge((9, 9), (9, 10), axis=1))


def test_clamped_neighbor_toy_closed_form():
    # DERIVED: two-spin chain with one clamped ghost on each side; the
    # four-configuration closed form is written out explicitly here
    region = Region((2, 1))
    beta = 1.1

    def closed_form(j, h_left, h_right):
        num = 0.0
        den = 0.0
        for sx in (-1, 1):
            for sy in (-1, 1):
                w = math.exp(beta * (j * sx * sy + h_left * sx + h_right * sy))
                num += sx * sy * w
                den += w
        return num / den

    for sign in (1, -1):
        bc = uniform_fixed_bc(sign)
        from eafluct.exactsolve import required_edges

        couplings = sample_couplings(
            Gaussian(), required_edges(region, bc), SeedSpec(19, 0, "toy")
        )
        spec = GibbsSpec(region, couplings, beta, bc)
        (inner_edge,) = tuple(interior_edges(region))
        j = couplings.value(inner_edge)
        fields = {}
        for e in required_edges(region, bc):
            if e == inner_edge:
                continue
            inner = e.x if region.contains_site(e.x) else e.y
            fields[inner] = fields.get(inner, 0.0) + couplings.value(e) * sign
        expected = closed_form(j, fields[(0, 0)], fields[(1, 0)])
        got = brute_correlation(spec, inner_edge)
        from eafluct.exactsolve import edge_correlation

        assert edge_correlation(spec, inner_edge, method="enum") == pytest.approx(
            expected, abs=1e-12
        )
        assert got == pytest.approx(expected, abs=1e-12)


# --- master edge set ------------------------------------------------------------


def test_master_edge_set_covers_all_boundary_conditions():
    from eafluct.exactsolve import required_edges

    master = master_edge_set((4, 4))
    for bc in (free_bc(), periodic_bc(), antiperiodic_bc(0), uniform_fixed_bc(1)):
        region = Region((4, 4), (bc.kind in ("periodic", "antiperiodic"),) * 2)
        for e in required_edges(region, bc):
            assert e in master.position


def test_auto_engine_is_resolved_once_on_gamma():
    pair = pair_4x4()
    by_transfer = interface_free_energy(pair)
    by_enum = interface_free_energy(pair, Solver(width_cap=2))
    assert by_transfer.solver == "transfer"
    assert by_enum.solver == "enum"
    assert by_transfer.value == pytest.approx(by_enum.value, abs=1e-9)
    assert by_enum.log_z_gamma == log_partition_enum(pair.gamma)


def test_unknown_method_raises_value_error():
    pair = pair_4x4()
    torus = Region((3, 3), (True, True))
    couplings = sample_couplings(Gaussian(), interior_edges(torus), SeedSpec(3))
    edge = next(iter(pair.window_edges))
    for call in (
        lambda: interface_free_energy(pair, Solver("exact")),
        lambda: gradient(pair, Solver("exact")),
        lambda: delta(pair, edge, method="exact"),
        lambda: domain_wall(couplings, torus, 1.0, method="exact"),
    ):
        with pytest.raises(ValueError, match="unknown solver method"):
            call()


@pytest.mark.parametrize("extents, seam", [((6, 6), 0), ((6, 6), 1), ((5, 7), 1), ((6, 5), 0)])
@pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
def test_periodic_antiperiodic_pair_equals_four_log_partition_calls(extents, seam, beta):
    master = sample_master(Gaussian(), extents, SeedSpec(21, 0, "couplings"))
    pair = make_state_pair(extents, (2, 2), beta, periodic_bc(), antiperiodic_bc(seam), master)
    result = interface_free_energy(pair)
    g, gp = pair.gamma, pair.gamma_prime
    g0 = g.with_couplings(set_block(g.couplings, pair.window, ZERO))
    gp0 = gp.with_couplings(set_block(gp.couplings, pair.window, ZERO))
    terms = [log_partition(spec) for spec in (g, g0, gp, gp0)]
    assert [result.log_z_gamma, result.log_z_gamma_zero, result.log_z_gamma_prime,
            result.log_z_gamma_prime_zero] == terms
    assert result.value == (terms[1] - terms[0]) - (terms[3] - terms[2])


def _stacks(pairs):
    """The pairs' coupling stacks, one row per pair, on the first pair's states."""
    return (np.stack([p.gamma.couplings.values for p in pairs]),
            np.stack([p.gamma_prime.couplings.values for p in pairs]))


def _count_rows(monkeypatch):
    rows = []
    original = interface.log_partition_pairs

    def counting(spec, other, values, other_values, *args):
        rows.append((len(values), len(other_values)))
        return original(spec, other, values, other_values, *args)

    monkeypatch.setattr(interface, "log_partition_pairs", counting)
    return rows


def test_batch_equals_one_call_per_pair_on_mixed_pairs(monkeypatch):
    # rows of one stack that share a window-zeroed row (the first two, whose
    # masters differ only inside the window) and one that must not (other
    # couplings outside the window), under boundary-condition pairs that
    # sweep two stacks, clamp a ghost ring, or share one sweep closed both
    # ways, by transfer and by enumeration
    master = sample_master(Gaussian(), (4, 4), SeedSpec(4, 0, "couplings"))
    window = Region((2, 2), None, (1, 1))
    inside = set_block(master, window, {e: 0.25 for e in interior_edges(window)})
    other = sample_master(Gaussian(), (4, 4), SeedSpec(4, 1, "couplings"))
    fixed = uniform_fixed_bc()
    rows = _count_rows(monkeypatch)
    for bc, bc_prime in ((free_bc(), periodic_bc()), (free_bc(), fixed),
                         (periodic_bc(), antiperiodic_bc(0))):
        pairs = [make_state_pair((4, 4), (2, 2), 1.0, bc, bc_prime, c)
                 for c in (master, inside, other)]
        for method in ("transfer", "enum"):
            want = [interface_free_energy(p, Solver(method)) for p in pairs]
            rows.clear()
            terms = interface.free_energy_terms(pairs[0], *_stacks(pairs), Solver(method))
            assert rows == [(3 + 2, 3 + 2)]
            assert terms.tolist() == [
                [r.log_z_gamma, r.log_z_gamma_zero, r.log_z_gamma_prime, r.log_z_gamma_prime_zero]
                for r in want
            ]
            assert terms[0, 1] == terms[1, 1] and terms[0, 3] == terms[1, 3]
            assert terms[0, 1] != terms[2, 1]
    g, gp = pairs[0].gamma, pairs[0].gamma_prime
    cap = exactsolve.TRANSFER_WIDTH_CAP
    assert exactsolve._negated_close(exactsolve._transfer_plan(g.region, g.bc, cap),
                                     exactsolve._transfer_plan(gp.region, gp.bc, cap))


def test_term_stack_sweeps_one_zeroed_row_for_the_prefixes_of_one_draw(monkeypatch):
    # four prefixes of one draw: the same couplings outside the window, new
    # values inside it; one zeroed row serves them all
    master = sample_master(Gaussian(), (6, 6), SeedSpec(9, 0, "couplings"))
    window = Region((4, 4), None, (1, 1))
    edges = interior_edges(window)
    rng = np.random.default_rng(9)
    configs = [set_block(master, window, dict(zip(edges, rng.normal(size=len(edges)))))
               for _ in range(4)]
    pairs = [make_state_pair((6, 6), (4, 4), 1.0, free_bc(), periodic_bc(), c) for c in configs]
    want = [interface_free_energy(p) for p in pairs]
    rows = _count_rows(monkeypatch)
    t = interface.free_energy_terms(pairs[0], *_stacks(pairs))
    assert rows == [(4 + 1, 4 + 1)]
    got = (t[:, 1] - t[:, 0]) - (t[:, 3] - t[:, 2])
    assert [v.hex() for v in got.tolist()] == [r.value.hex() for r in want]
    assert len(set(t[:, 1].tolist())) == len(set(t[:, 3].tolist())) == 1


def test_an_empty_batch_has_no_free_energies():
    pair = pair_4x4()
    stacks = (np.empty((0, len(pair.gamma.couplings.values))),
              np.empty((0, len(pair.gamma_prime.couplings.values))))
    assert interface.free_energy_terms(pair, *stacks).shape == (0, 4)
