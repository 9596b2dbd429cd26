"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
"""

import contextlib
import json
import math

import numpy as np
from conftest import (
    bond_product,
    gaussian_sum_identity,
    gradient,
    run_in_process,
    total_variance_identity,
)

from eafluct.disorder import ZERO, Gaussian, SeedSpec, sample_couplings, set_block
from eafluct.exactsolve import (
    GibbsSpec,
    antiperiodic_bc,
    edge_correlation,
    free_bc,
    log_partition_enum,
    log_partition_transfer,
    periodic_bc,
    required_edges,
    reweight,
    reweight_expectation,
    uniform_fixed_bc,
)
from eafluct.fluctuation import EnsembleSpec, bound_check, covariance_sample
from eafluct.harness import parse_config_dict, run
from eafluct.interface import interface_free_energy, make_state_pair, sample_master
from eafluct.lattice import Region, interior_edges


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def _config(kind, seed, box, window, **sampling):
    """A ``kind`` config at beta 1 with Gaussian couplings, free against
    periodic."""
    return {
        "schema_version": 1,
        "kind": kind,
        "seed": seed,
        "geometry": {"box": list(box), "window": list(window)},
        "physics": {"beta": 1.0, "bc": "free", "bc_prime": "periodic"},
        "sampling": sampling,
    }


def _bc_for(name, extents):
    return {
        "free": free_bc(),
        "periodic": periodic_bc(),
        "antiperiodic": antiperiodic_bc(0),
        "fixed": uniform_fixed_bc(1),
    }[name]


def test_criterion_01_oracle_equivalence():
    with criterion(1, "oracle equivalence enum vs transfer"):
        max_logz = 0.0
        max_corr = 0.0
        seed = 0
        for extents in ((2, 2), (2, 3), (3, 3)):
            for bc_name in ("free", "periodic", "antiperiodic", "fixed"):
                for beta in (0.5, 1.0, 2.0):
                    bc = _bc_for(bc_name, extents)
                    wrapped = bc.kind in ("periodic", "antiperiodic")
                    region = Region(extents, (wrapped,) * 2)
                    for rep in range(50):
                        seed += 1
                        couplings = sample_couplings(
                            Gaussian(),
                            required_edges(region, bc),
                            SeedSpec(1000, seed, "oracle"),
                        )
                        spec = GibbsSpec(region, couplings, beta, bc)
                        dz = abs(
                            log_partition_enum(spec) - log_partition_transfer(spec)
                        )
                        max_logz = max(max_logz, dz)
                        for e in interior_edges(region):
                            dc = abs(
                                edge_correlation(spec, e, method="enum")
                                - edge_correlation(spec, e, method="transfer")
                            )
                            max_corr = max(max_corr, dc)
        assert max_logz <= 1e-9, f"log Z deviation {max_logz}"
        assert max_corr <= 1e-10, f"correlation deviation {max_corr}"


def test_criterion_02_analytic_identities():
    with criterion(2, "analytic identities"):
        # isolated edge correlation = tanh(beta J) to <= 1e-12
        region = Region((2, 1))
        edges = interior_edges(region)
        for j, beta in ((0.3, 0.5), (-1.2, 1.0), (2.5, 2.0)):
            couplings = sample_couplings(Gaussian(), edges, SeedSpec(1)).with_values(np.array([j]))
            spec = GibbsSpec(region, couplings, beta, free_bc())
            (edge,) = tuple(edges)
            assert abs(
                edge_correlation(spec, edge, method="enum") - math.tanh(beta * j)
            ) <= 1e-12

        # beta = 0 log Z: exact (site count) log 2 on the enumeration path,
        # binary64-level on the transfer path
        for extents, wrapped in (((3, 3), False), ((4, 3), True)):
            region = Region(extents, (wrapped,) * 2)
            bc = periodic_bc() if wrapped else free_bc()
            couplings = sample_couplings(
                Gaussian(), required_edges(region, bc), SeedSpec(2, 0, "b0")
            )
            spec = GibbsSpec(region, couplings, 0.0, bc)
            n = region.n_sites
            assert log_partition_enum(spec) == n * math.log(2.0)
            assert abs(log_partition_transfer(spec) - n * math.log(2.0)) <= 1e-12

        # F = 0 at beta = 0 and at zero window couplings, to <= 1e-12
        master = sample_master(Gaussian(), (5, 5), SeedSpec(3, 0, "couplings"))
        pair0 = make_state_pair((5, 5), (3, 3), 0.0, free_bc(), periodic_bc(), master)
        assert abs(interface_free_energy(pair0).value) <= 1e-12
        window = pair0.window
        zeroed = set_block(master, window, ZERO)
        pairz = make_state_pair((5, 5), (3, 3), 1.0, free_bc(), periodic_bc(), zeroed)
        assert abs(interface_free_energy(pairz).value) <= 1e-12


def test_criterion_03_gradient_identity():
    with criterion(3, "free-energy gradient vs finite differences"):
        h = 1e-4
        for i in range(20):
            master = sample_master(Gaussian(), (5, 5), SeedSpec(2000, i, "couplings"))
            pair = make_state_pair((5, 5), (3, 3), 1.0, free_bc(), periodic_bc(), master)
            for e, (grad, _, _) in gradient(pair).items():
                k = master.edge_set.index(e)
                fs = {}
                for s in (1, -1):
                    v = master.values.copy()
                    v[k] += s * h
                    p = make_state_pair(
                        (5, 5), (3, 3), 1.0, free_bc(), periodic_bc(),
                        master.with_values(v),
                    )
                    fs[s] = interface_free_energy(p).value
                fd = (fs[1] - fs[-1]) / (2 * h)
                assert abs(grad - fd) <= 1e-5, f"edge {e}: {grad} vs {fd}"


def test_criterion_04_reweighting_agreement():
    with criterion(4, "coupling covariance: direct vs reweighting formula"):
        worst = 0.0
        for i in range(20):
            rng = SeedSpec(3000, i, "rw").rng()
            region = Region((3, 3))
            bc = free_bc()
            couplings = sample_couplings(
                Gaussian(), required_edges(region, bc), SeedSpec(3000, i, "couplings")
            )
            spec = GibbsSpec(region, couplings, 1.0, bc)
            origin = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            block = Region((2, 2), None, origin)
            j_b = {
                e: float(v)
                for e, v in zip(interior_edges(block), rng.normal(size=4))
            }
            modified = reweight(spec, block, j_b)
            edges = tuple(interior_edges(region))
            probe = edges[int(rng.integers(0, len(edges)))]
            direct = edge_correlation(modified, probe, method="enum")
            formula = reweight_expectation(spec, block, j_b, bond_product(probe))
            worst = max(worst, abs(direct - formula))
        assert worst <= 1e-10, f"worst deviation {worst}"


def test_criterion_05_translation_covariance():
    with criterion(5, "translation covariance on the torus"):
        worst = 0.0
        for i in range(20):
            row = covariance_sample((4, 4), 1.0, Gaussian(), 4000, i)
            worst = max(worst, row["translation_deviation"])
        assert worst <= 1e-10, f"worst deviation {worst}"


def test_criterion_06_boundary_bound():
    with criterion(6, "boundary bound and sandwich, 1000 instances x 3 betas"):
        min_slack = math.inf
        min_ratio = math.inf
        for i in range(1000):
            master = sample_master(Gaussian(), (5, 5), SeedSpec(5000, i, "couplings"))
            for beta in (0.5, 1.0, 2.0):
                pair = make_state_pair(
                    (5, 5), (3, 3), beta, free_bc(), periodic_bc(), master
                )
                rep = bound_check(pair)  # raises on violation
                min_slack = min(min_slack, rep.slack)
                min_ratio = min(min_ratio, min(rep.ratio_slacks))
        assert min_slack >= -1e-9
        assert min_ratio >= -1e-9


def test_criterion_07_variance_identities():
    with criterion(7, "variance identities: closed form and nested MC"):
        closed = gaussian_sum_identity(n=1000, n_inner=32, seed=6000)
        for name, (value, stderr, exact) in closed.items():
            assert abs(value - exact) <= 3.0 * stderr, (name, value, stderr)
        spec = EnsembleSpec(
            Gaussian(), (5, 5), (3, 3), 1.0, free_bc(), periodic_bc(), 6001
        )
        block = Region((2, 2), None, (1, 1))
        nested = total_variance_identity(spec, block, n=64, n_outer=16)
        assert nested["pass"], nested
        assert nested["sym_pass"], nested


def test_criterion_08_martingale_decomposition():
    with criterion(8, "block martingale variance decomposition"):
        data = _config("martingale", 7000, (6, 6), (4, 4), n=200, n_outer=50, block_side=2,
                       bootstrap=1000)
        summary = run_in_process(data)[1]
        details = summary["details"]
        assert details["sum_var_deltas"] <= details["var_f"] + 3.0 * details["gap_stderr"], details
        assert details["inequality_ok"]
        assert details["telescoping_residual"] <= 1e-12
        ys = np.array(summary["trace"]["ys"])
        assert details["var_deltas"] == np.diff(ys, axis=1).var(axis=0, ddof=1).tolist()


def test_criterion_09_edge_martingale_and_mgf():
    with criterion(9, "edge-martingale increment bound and MGF envelope"):
        payloads = run_in_process(_config("edge-martingale", 8000, (5, 5), (3, 3), n=100,
                                          n_outer=12))[0]
        for row in payloads:
            deltas = np.abs(np.diff(row["ys"]))
            bounds = np.asarray(row["bounds"])
            sems = np.asarray(row["delta_sem"])
            assert np.all(deltas <= bounds + 3.0 * sems), f"instance {row['index']}"
        mgf = run_in_process(_config("mgf", 8000, (5, 5), (3, 3), n=200, n_outer=50,
                                     t_values=[0.5, 1.0, 2.0], bootstrap=1000))[1]
        assert all(row["passed"] for row in mgf["rows"]), mgf["rows"]


def test_criterion_10_probe_density():
    with criterion(10, "incongruence probe density"):
        data = _config("probe", 9000, (5, 5), (3, 3), n=200, epsilons=[0.01], bootstrap=1000)
        rep = run_in_process(data)[1]
        row = rep["densities"][0]
        assert row["density"] > 0.0
        assert row["ci95"][0] > 0.0, row
        data["physics"]["bc"] = "periodic"  # the same state on both sides
        rep0 = run_in_process(data)[1]
        assert rep0["densities"][0]["density"] == 0.0


def test_criterion_11_determinism_across_workers(tmp_path):
    with criterion(11, "byte-identical reports across worker counts"):
        cfg = parse_config_dict(
            {
                "schema_version": 1,
                "kind": "ensemble",
                "seed": 424242,
                "geometry": {"box": [5, 5], "window": [3, 3]},
                "physics": {"beta": 1.0, "bc": "free", "bc_prime": "periodic"},
                "sampling": {"n": 8, "bootstrap": 200},
                "output": {
                    "records": str(tmp_path / "records.jsonl"),
                    "report": str(tmp_path / "report.json"),
                    "csv_dir": str(tmp_path),
                },
            }
        )
        run(cfg, workers=1)
        serial = (tmp_path / "report.json").read_bytes()
        (tmp_path / "records.jsonl").unlink()
        run(cfg, workers=8)
        assert (tmp_path / "report.json").read_bytes() == serial
        # a straight rerun (resume path) reproduces the same bytes as well
        run(cfg, workers=1)
        assert (tmp_path / "report.json").read_bytes() == serial


def test_criterion_12_scaling_study(tmp_path):
    with criterion(12, "variance scaling study emits fits with CIs"):
        data = _config("scaling", 10000, (5, 5), (3, 3), n=100, bootstrap=1000)
        data["geometry"]["window_sizes"] = [2, 3, 4]
        rep = run_in_process(data)[1]
        assert rep["mode"] == "report-only"
        assert "not certifiable" in rep["note"]
        assert not rep["degenerate"]
        assert len(rep["rows"]) == 3
        for fit in rep["fits"].values():
            lo, hi = fit["ci95"]
            assert math.isfinite(fit["exponent"])
            assert lo <= fit["exponent"] <= hi
        # the emitted JSON form carries the non-normative statement too
        blob = json.dumps(rep)
        assert "not certifiable" in blob
