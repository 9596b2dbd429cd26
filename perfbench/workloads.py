"""Benchmark workloads: the config each one generates from a seed, and the
check of the report a run writes.

Each workload is one experiment config of the kind a user runs with
``eafluct <kind> -c config.json``.  Only the master seed varies with
``--seed``; the geometry, physics and sample counts are fixed, so the work a
run does (sweeps, enumerated states, free-energy evaluations) is the same on
every seed and only the coupling values change.
"""

from __future__ import annotations

import math

# Tolerances of the repository's own cross-checks (harness.ORACLE_LOGZ_TOL and
# ORACLE_CORR_TOL, criterion 08's telescoping bound), restated here so that a
# change to the program cannot loosen the benchmark's check.
LOGZ_TOL = 1e-9
CORR_TOL = 1e-10
TELESCOPING_TOL = 1e-12

WORKLOADS: dict[str, dict] = {
    # criterion-08 shape: ~400 small free-energy evaluations per task, about
    # half of each in coupling plumbing (disorder / interface), half in W=6
    # transfer sweeps.
    "martingale-6x6": {
        "kind": "martingale",
        "geometry": {"box": [6, 6], "window": [4, 4]},
        "physics": {"beta": 1.0, "bc": "free", "bc_prime": "periodic"},
        "sampling": {"n": 4, "n_outer": 50, "block_side": 2},
    },
    # edge correlations on an open W=8 strip: 2 sweeps per edge and state
    # over 126 window edges, negligible plumbing.
    "probe-strip-w8": {
        "kind": "probe",
        "geometry": {"box": [16, 8], "window": [12, 6]},
        "physics": {"beta": 1.0, "bc": "free", "bc_prime": "fixed:+1"},
        "sampling": {"n": 2},
    },
    # log Z only, on the wrapped dense matrix-matrix path (O(8^W)); no
    # correlations, no plumbing; the largest dense links of any workload.
    "domain-wall-torus-w10": {
        "kind": "domain-wall",
        "geometry": {"box": [10, 10]},
        "physics": {"beta": 1.0},
        "sampling": {"n": 2},
    },
    # enumeration vs transfer on 15-16 spin geometries under all four bcs;
    # the only workload that runs the enumeration engine.
    "oracle-verify-enum": {
        "kind": "oracle-verify",
        "geometry": {"geometries": [[4, 4], [3, 5]]},
        "physics": {"beta": 1.0},
        "sampling": {"n": 1},
    },
}


def make_config(name: str, seed: int) -> dict:
    """The full config for one run; output paths are relative to the run's
    working directory."""
    spec = WORKLOADS[name]
    cfg = {"schema_version": 1, "kind": spec["kind"], "seed": seed}
    for section in ("geometry", "physics", "sampling"):
        cfg[section] = dict(spec[section])
    cfg["output"] = {"records": "records.jsonl", "report": "report.json", "csv_dir": "."}
    return cfg


def reference_entry(name: str, summary: dict) -> dict:
    """The seed-dependent values of a report summary that the check compares
    against the reference file."""
    if name == "martingale-6x6":
        details = summary["details"]
        return {
            "ys": summary["trace"]["ys"],
            "var_f": details["var_f"],
            "var_deltas": details["var_deltas"],
            "block_variances": details["block_variances"],
        }
    if name == "probe-strip-w8":
        return {"per_edge_mean": summary["per_edge_mean"]}
    if name == "domain-wall-torus-w10":
        return {"values": summary["values"]}
    return {
        "instances": summary["instances"],
        "checked": summary["checked"],
        "unsupported": summary["unsupported"],
    }


def _close(got, want, tol: float, relative: bool) -> bool:
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w, tol, relative) for g, w in zip(got, want))
        )
    scale = max(1.0, abs(want)) if relative else 1.0
    return isinstance(got, (int, float)) and abs(got - want) <= tol * scale


def _compare_reference(name: str, summary: dict, ref: dict) -> list[str]:
    got = reference_entry(name, summary)
    relative = name != "probe-strip-w8"
    tol = CORR_TOL if name == "probe-strip-w8" else LOGZ_TOL
    return [
        f"{key} differs from the reference beyond {tol:g}"
        for key, want in ref.items()
        if not _close(got.get(key), want, tol, relative)
    ]


def check_report(name: str, seed: int, report: dict, reference: dict | None) -> list[str]:
    """Problems found in one run's report; an empty list means it passed.

    The seed-independent part (structure, the program's own pass flags,
    bounds that hold for every coupling draw, and an in-process recomputation
    of a few values through the library) runs on every seed.  The comparison
    with ``reference`` runs when the reference file covers this seed.
    """
    import numpy as np
    from eafluct import harness

    cfg = harness.parse_config_dict(report["config"])
    if report.get("kind") != cfg.kind or harness.parse_config_dict(make_config(name, seed)) != cfg:
        return ["report kind or config differs from the generated config"]
    summary = report["summary"]
    problems: list[str] = []
    spec = harness.ensemble_spec_from_config(cfg)

    if name == "martingale-6x6":
        details = summary["details"]
        ys = np.asarray(summary["trace"]["ys"])
        if ys.shape != (cfg.n, 5):  # Y_0 .. Y_4 over the four 2x2 blocks
            problems.append(f"trace has shape {ys.shape}, expected ({cfg.n}, 5)")
        if details["inequality_ok"] is not True:
            problems.append("martingale inequality_ok is not true")
        if not details["telescoping_residual"] <= TELESCOPING_TOL:
            problems.append(f"telescoping residual {details['telescoping_residual']:g}")
        f_vals = np.array([spec.f_value(i) for i in range(cfg.n)])
        if not _close(float(f_vals.var(ddof=1)), details["var_f"], LOGZ_TOL, True):
            problems.append("var_f differs from the recomputed free energies")
        mean = summary["variance_report"]["mean"]
        if not _close(mean, float(f_vals.mean()), LOGZ_TOL, True):
            problems.append("mean F differs from the recomputed free energies")
    elif name == "probe-strip-w8":
        from eafluct.exactsolve import edge_correlation

        means = summary["per_edge_mean"]
        if summary["n"] != cfg.n or len(means) != len(spec.window_edge_set):
            problems.append("probe report has the wrong number of rows or edges")
        elif not all(abs(m) <= 2.0 for m in means):
            problems.append("a correlation difference lies outside [-2, 2]")
        densities = [row["density"] for row in summary["densities"]]
        if any(not 0.0 <= d <= 1.0 for d in densities) or densities != sorted(
            densities, reverse=True
        ):
            problems.append("densities are not a non-increasing sequence in [0, 1]")
        edge = spec.window_edge_set.edges[0]
        deltas = []
        for i in range(cfg.n):
            pair = spec.pair_from(spec.master(i))
            deltas.append(
                edge_correlation(pair.gamma, edge) - edge_correlation(pair.gamma_prime, edge)
            )
        if means and not _close(means[0], float(np.mean(deltas)), CORR_TOL, False):
            problems.append("first edge's mean delta differs from its recomputation")
    elif name == "domain-wall-torus-w10":
        values = summary["values"]
        if summary["count"] != cfg.n or len(values) != cfg.n:
            problems.append("domain-wall report has the wrong number of values")
        # flipping the seam bonds changes the energy of every configuration
        # by at most 2 sum |J_seam|, so |log Z_p - log Z_ap| is bounded by it
        for i, value in enumerate(values):
            master = spec.master(i)
            seam = sum(
                abs(v)
                for e, v in zip(master.edge_set, master.values)
                if e.wrap and e.axis == spec.seam_axis
            )
            if not abs(value) <= 2.0 * spec.beta * seam + LOGZ_TOL:
                problems.append(f"domain-wall value {i} exceeds its seam bound")
        if len(values) >= 2 and not _close(
            summary["variance"], float(np.var(values, ddof=1)), LOGZ_TOL, True
        ):
            problems.append("variance does not match the reported values")
    else:
        expected = cfg.n * len(cfg.geometries) * len(harness.ORACLE_BC_NAMES)
        if summary["passed"] is not True:
            problems.append("oracle-verify did not pass")
        if not summary["instances"] == summary["checked"] == expected:
            problems.append(f"oracle-verify checked {summary['checked']} of {expected}")
        if not (
            summary["max_logz_deviation"] <= LOGZ_TOL
            and summary["max_corr_deviation"] <= CORR_TOL
        ):
            problems.append("oracle-verify deviations exceed the tolerances")

    for value in _floats(summary):
        if not math.isfinite(value):
            problems.append("report summary holds a non-finite number")
            break
    if reference is not None:
        problems += _compare_reference(name, summary, reference)
    return problems


def _floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _floats(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _floats(v)
