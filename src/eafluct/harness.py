"""Experiment orchestration.

A single JSON config fully determines every output bit: all randomness is
counter-based off the config seed, realizations fan out over a worker pool
as pure tasks, and the reducer consumes payloads in canonical task order,
so the final report is byte-identical for any worker count.  Records are
streamed to a JSON-lines file as tasks finish (these carry timing and may
arrive in any order); an interrupted run resumes from that file and still
produces the identical report.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import time
import warnings
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .disorder import SeedSpec, distribution_from_label, sample_couplings
from .errors import (
    ConfigError,
    EafluctError,
    IncompleteRunError,
    OracleMismatchError,
    SizeCapError,
    TaskError,
    UnsupportedOperationError,
)
from .exactsolve import (
    ENUM_CAP,
    TRANSFER_WIDTH_CAP,
    BoundaryCondition,
    GibbsSpec,
    Solver,
    edge_correlations,
    log_partition,
    periodic_bc,
    required_edges,
)
from .fluctuation import (
    BOOTSTRAP_DEFAULT,
    COVARIANCE_BLOCK,
    PROBE_EPSILONS,
    PROBE_NOISE_TOL,
    BlockConditioning,
    EnsembleSpec,
    block_martingale_report,
    block_martingale_realization,
    bound_check,
    check_scaling,
    covariance_report_from_rows,
    covariance_sample,
    edge_martingale_realization,
    mgf_report_from_values,
    mgf_conditional_mean,
    probe_realization,
    probe_report_from_rows,
    scaling_margin,
    scaling_report_from_values,
    scaling_sub_spec,
    variance_report_from_values,
)
from .lattice import block_partition, interior_edges

SCHEMA_VERSION = 1
WORKERS_ENV = "EAFLUCT_WORKERS"
ORACLE_BC_NAMES = ("free", "periodic", "antiperiodic", "fixed")
ORACLE_LOGZ_TOL = 1e-9
ORACLE_CORR_TOL = 1e-10


def _in(section: str, default, key: str | None = None):
    """A config field read from JSON section ``section`` under ``key`` (by
    default its own name), ``default`` when absent; its annotation names
    its parser (see :func:`_parser`)."""
    return field(default=default, metadata={"section": section, "key": key})


_TOP = {"section": None}  # a top-level JSON key, checked by validate_config


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment as its JSON config reads: each field is declared once,
    with its type, default, section and key (:func:`_in`), and ``kind`` and
    ``seed`` are top-level keys."""

    kind: str = field(metadata=_TOP)
    seed: int | None = field(metadata=_TOP)
    box: tuple[int, ...] = _in("geometry", (5, 5))
    window: tuple[int, ...] = _in("geometry", (3, 3))
    window_sizes: tuple[int, ...] = _in("geometry", (2, 3, 4))
    geometries: tuple[tuple[int, ...], ...] = _in("geometry", ((2, 2), (2, 3), (3, 3)))
    beta: float = _in("physics", 1.0)
    betas: tuple[float, ...] = _in("physics", ())
    distribution: str = _in("physics", "gaussian(0.0,1.0)")
    bc: str = _in("physics", "free")
    bc_prime: str = _in("physics", "periodic")
    seam_axes: tuple[int, ...] = _in("physics", (0,))
    n: int = _in("sampling", 1)
    n_outer: int = _in("sampling", 50)
    bootstrap: int = _in("sampling", BOOTSTRAP_DEFAULT)
    block_side: int = _in("sampling", 2)
    t_values: tuple[float, ...] = _in("sampling", (0.5, 1.0, 2.0))
    epsilons: tuple[float, ...] = _in("sampling", PROBE_EPSILONS)
    n_observables: int = _in("sampling", 2)
    noise_tol: float = _in("sampling", PROBE_NOISE_TOL)
    solver_method: str = _in("solver", "auto", key="method")
    enum_cap: int = _in("solver", ENUM_CAP)
    transfer_width_cap: int = _in("solver", TRANSFER_WIDTH_CAP)
    records: str = _in("output", "records.jsonl")
    report: str = _in("output", "report.json")
    csv_dir: str = _in("output", ".")

    @property
    def solver(self) -> Solver:
        """The engine choice and caps that the ``solver`` section sets."""
        return Solver(self.solver_method, self.enum_cap, self.transfer_width_cap)


def _int(name: str, raw) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{name} must be an integer, got {raw!r}")
    return raw


def _number(name: str, raw) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{name} must be a number, got {raw!r}")
    return float(raw)


def _str(name: str, raw) -> str:
    if not isinstance(raw, str):
        raise ConfigError(f"{name} must be a string, got {raw!r}")
    return raw


def _list(name: str, raw) -> list:
    if not isinstance(raw, list):
        raise ConfigError(f"{name} must be a list, got {raw!r}")
    return raw


def _parser(annotation: str) -> Callable:
    """``parse(name, raw)`` checking a JSON value against a field annotated
    ``annotation``: ``int``, ``float``, ``str``, or ``tuple[X, ...]`` read
    from a list of X."""
    if annotation.startswith("tuple[") and annotation.endswith(", ...]"):
        item = _parser(annotation[len("tuple["):-len(", ...]")])
        return lambda name, raw: tuple(item(name, x) for x in _list(name, raw))
    parse = {"int": _int, "float": _number, "str": _str}.get(annotation)
    if parse is None:
        raise TypeError(f"no config parser for the annotation {annotation!r}")
    return parse


def _layout(config_class) -> dict[str, list[tuple[str, str, Callable]]]:
    """``{section: [(field name, JSON key, parser), ...]}`` in field order.

    Built at import, so a field without a section, or with an annotation
    that has no parser, fails there.
    """
    sections: dict[str, list] = {}
    for f in fields(config_class):
        if "section" not in f.metadata:
            raise TypeError(f"config field {f.name!r} declares no JSON section")
        if f.metadata["section"] is not None:
            entry = (f.name, f.metadata["key"] or f.name, _parser(f.type))
            sections.setdefault(f.metadata["section"], []).append(entry)
    return sections


_SECTIONS = _layout(ExperimentConfig)


def parse_config_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"a config must be a JSON object, got {type(data).__name__}")
    data = dict(data)
    version = data.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported or missing schema_version (expected {SCHEMA_VERSION})")
    kind = data.pop("kind", None)
    seed = data.pop("seed", None)
    values: dict = {}
    for section, layout in _SECTIONS.items():
        body = data.pop(section, {})
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object, got {body!r}")
        body = dict(body)
        for name, key, parse in layout:
            if key in body:
                values[name] = parse(name, body.pop(key))
        if body:
            raise ConfigError(f"unknown keys in config section {section!r}: {sorted(body)}")
    if data:
        raise ConfigError(f"unknown top-level config keys: {sorted(data)}")
    cfg = ExperimentConfig(kind=kind, seed=seed, **values)
    validate_config(cfg)
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "kind": cfg.kind, "seed": cfg.seed}
    for section, layout in _SECTIONS.items():
        body = {}
        for name, key, _ in layout:
            value = getattr(cfg, name)
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            body[key] = value
        out[section] = body
    return out


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except ValueError as err:  # malformed JSON, or bytes that are not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    return parse_config_dict(data)


def config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(
        json.dumps(config_to_dict(cfg), sort_keys=True).encode("utf-8")
    ).hexdigest()


def _placed_bc(
    name: str, seam_axes: tuple[int, ...], extents: tuple[int, ...]
) -> BoundaryCondition:
    """The bc that config name ``name`` gives on ``seam_axes``
    (:meth:`BoundaryCondition.from_name`), placed on a box of ``extents``: a
    seam axis the box lacks is a ``ConfigError`` too."""
    bc = BoundaryCondition.from_name(name, seam_axes)
    try:
        bc.region(extents)
    except UnsupportedOperationError:
        raise ConfigError(
            f"seam_axes must be a non-empty list of distinct axes in [0, {len(extents)}), "
            f"got {list(seam_axes)}"
        ) from None
    return bc


def _state_bcs(cfg: ExperimentConfig) -> tuple[BoundaryCondition, BoundaryCondition]:
    """The bcs of the two states an ensemble kind compares, placed on its box."""
    if KIND_TABLE[cfg.kind].ensemble == "domain-wall":
        names = ("periodic", "antiperiodic")
    else:
        names = (cfg.bc, cfg.bc_prime)
    return tuple(_placed_bc(name, cfg.seam_axes, cfg.box) for name in names)


def ensemble_spec_from_config(cfg: ExperimentConfig, beta: float | None = None) -> EnsembleSpec:
    if cfg.seed is None:
        raise ConfigError("a seed is required (no wall-clock seeding)")
    # a kind with no ensemble of its own still reads its config as a pair
    mode = KIND_TABLE[cfg.kind].ensemble or "pair"
    bc, bc_prime = _state_bcs(cfg)
    return EnsembleSpec(
        dist=distribution_from_label(cfg.distribution),
        box_extents=cfg.box,
        window_extents=cfg.box if mode == "domain-wall" else cfg.window,
        beta=cfg.beta if beta is None else beta,
        bc=bc,
        bc_prime=bc_prime,
        n_realizations=cfg.n,
        master_seed=cfg.seed,
        mode=mode,
        solver=cfg.solver,
    )


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}; expected one of {KINDS}")
    kind = KIND_TABLE[cfg.kind]
    if not cfg.beta >= 0 or not math.isfinite(cfg.beta):
        raise ConfigError("beta must be finite and >= 0")
    if any(not (b >= 0 and math.isfinite(b)) for b in cfg.betas):
        raise ConfigError("betas must be finite and >= 0")
    if any(not (e >= 0 and math.isfinite(e)) for e in cfg.epsilons):
        raise ConfigError("epsilons must be finite and >= 0")
    if any(not (t >= 0 and math.isfinite(t)) for t in cfg.t_values):
        raise ConfigError("t_values must be finite and >= 0")
    if not (cfg.noise_tol >= 0 and math.isfinite(cfg.noise_tol)):
        raise ConfigError(f"noise_tol must be finite and >= 0, got {cfg.noise_tol}")
    if cfg.n < 1:
        raise ConfigError("n must be >= 1")
    if cfg.n < kind.min_n:
        raise ConfigError(f"{cfg.kind} needs n >= {kind.min_n} realizations")
    if cfg.n_outer < 2:
        raise ConfigError("n_outer must be >= 2")
    if cfg.bootstrap < 2:
        raise ConfigError("bootstrap resample count must be >= 2")
    solver = cfg.solver  # an unknown method or a cap below 1 fails here
    if cfg.block_side < 1:
        raise ConfigError("block_side must be >= 1")
    try:
        distribution_from_label(cfg.distribution)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad distribution: {err}") from None
    if cfg.seed is not None and not 0 <= _int("seed", cfg.seed) < 2**64:
        raise ConfigError("seed must be a 64-bit non-negative integer")
    for name in ("records", "report"):  # a run opens each for writing
        path = getattr(cfg, name)
        if not path or "\0" in path or Path(path).is_dir():
            raise ConfigError(f"output {name} must name a file, got {path!r}")
    if Path(cfg.records).resolve() == Path(cfg.report).resolve():
        raise ConfigError(f"output records and report name the same file {cfg.report!r}")
    if "\0" in cfg.csv_dir or os.path.isfile(cfg.csv_dir):
        raise ConfigError(f"output csv_dir must name a directory, got {cfg.csv_dir!r}")
    for name in ("records", "report", "csv_dir"):  # each is created under its nearest ancestor
        path = getattr(cfg, name)
        ancestor = next(a for a in Path(path).absolute().parents if os.path.exists(a))
        if not ancestor.is_dir():
            raise ConfigError(f"output {name} {path!r} lies under {str(ancestor)!r}, a file")
    if not cfg.box or min(cfg.box) < 1:
        raise ConfigError("box needs at least one axis and every extent >= 1")
    if kind.ensemble == "pair":
        if len(cfg.window) != len(cfg.box) or min(cfg.window) < 1:
            raise ConfigError("window needs the box's dimension and every extent >= 1")
        if any(w + 2 > b for w, b in zip(cfg.window, cfg.box)):
            raise ConfigError("window must fit in the box with margin >= 1")
    bcs = _state_bcs(cfg) if kind.ensemble else ()
    kind.check(cfg)
    _check_solvable(cfg, solver, bcs)


def _check_solvable(cfg: ExperimentConfig, solver: Solver, bcs: tuple) -> None:
    """Every state a run builds must fit the cap of the engine that
    :meth:`Solver.engine` picks for its region: each box of a pair kind
    (every size of a ``scaling`` study) under both of its ``bcs``, the
    ``domain-wall`` torus, and the ``covariance`` torus, which is enumerated.
    ``oracle-verify`` reports a geometry beyond a cap as unsupported."""
    if cfg.kind == "oracle-verify":
        return
    boxes = [cfg.box]
    if cfg.kind == "covariance":
        bcs = (periodic_bc(),)
        solver = replace(solver, method="enum")  # both sides of the check enumerate the torus
    if cfg.kind == "scaling":
        margin = scaling_margin(cfg.box, cfg.window, cfg.window_sizes)
        boxes = [(size + margin,) * len(cfg.box) for size in cfg.window_sizes]
    for box, bc in itertools.product(boxes, bcs):
        try:
            solver.engine(bc.region(box))
        except SizeCapError as err:
            raise ConfigError(str(err)) from None


# ---------------------------------------------------------------------------
# experiment kinds: one table entry per kind


def _betas(cfg: ExperimentConfig) -> tuple[float, ...]:
    return cfg.betas or (cfg.beta,)


def _realizations(cfg: ExperimentConfig) -> list[dict]:
    return [{"realization": i} for i in range(cfg.n)]


@dataclass(frozen=True)
class ExperimentKind:
    """Everything the harness knows about one experiment kind.

    ``tasks(cfg)`` lists each task's coordinates in task order; ``run(cfg,
    coords)`` is the pure task body, and the records file keeps the
    coordinates as the task's seed.  ``reduce(cfg, payloads)`` builds the
    summary from the payloads in task order; ``csv_tables(summary)`` lists
    its CSV files as ``(file name, header, rows)``.  ``min_n`` is the least
    realization count; ``ensemble`` is the ensemble mode of its states:
    ``"pair"`` compares ``bc`` with ``bc_prime`` on a window that needs a
    margin in the box, ``"domain-wall"`` the periodic with the antiperiodic
    box, and ``None`` builds no ensemble; ``check(cfg)`` raises
    ``ConfigError`` for what only this kind rejects.
    """

    run: Callable[[ExperimentConfig, dict], dict]
    reduce: Callable[[ExperimentConfig, list[dict]], dict]
    csv_tables: Callable[[dict], list[tuple[str, list[str], list]]]
    tasks: Callable[[ExperimentConfig], list[dict]] = _realizations
    min_n: int = 1
    ensemble: str | None = "pair"
    check: Callable[[ExperimentConfig], None] = lambda cfg: None


def _on_ensemble(body: Callable[[ExperimentConfig, EnsembleSpec, int], dict]):
    """A task running ``body`` on the config's ensemble and the task's realization."""
    return lambda cfg, at: body(cfg, ensemble_spec_from_config(cfg), at["realization"])


def _conditioning(cfg: ExperimentConfig, spec: EnsembleSpec) -> BlockConditioning:
    return BlockConditioning(block_partition(spec.window_region, cfg.block_side), cfg.n_outer)


def _csv(name: str, header: str, field: str | None = None, keys: str | None = None,
         columns: str | None = None, numbered: bool = False, required: bool = False):
    """CSV table ``name`` with the space-separated ``header``, read from
    ``summary[field]`` (from the summary itself when ``field`` is None).

    Its rows are that list of records, or that one record, and read the
    space-separated ``keys`` (by default the header) from each record.  With
    ``columns``, row k holds item k of each named list instead.  A
    ``numbered`` table starts every row with its index, under the header's
    first name; a ``required`` table without rows is an ``IncompleteRunError``.
    """
    names = header.split()
    keys = keys.split() if keys else names[numbered:]

    def table(summary: dict) -> tuple[str, list[str], list]:
        source = summary if field is None else summary[field]
        if columns:
            rows = zip(*(source[c] for c in columns.split()))
        else:
            records = [source] if isinstance(source, dict) else source
            rows = ([r[k] for k in keys] for r in records)
        if numbered:
            rows = ([i, *row] for i, row in enumerate(rows))
        rows = list(rows)
        if required and not rows:
            raise IncompleteRunError(f"no recorded rows for {name}")
        return name, names, rows

    return table


def _csvs(*tables):
    return lambda summary: [table(summary) for table in tables]


def _values_csv(kind: str):
    return _csv(f"{kind}_values.csv", "realization value", columns="values", numbered=True,
                required=True)


def _fe_task(cfg: ExperimentConfig, spec: EnsembleSpec, i: int) -> dict:
    result = spec.f_result(spec.master(i))
    return {"value": result.value, "result": asdict(result)}


def _check_domain_wall(cfg: ExperimentConfig) -> None:
    if len(cfg.seam_axes) != 1:
        raise ConfigError(f"domain-wall needs exactly one seam axis, got {list(cfg.seam_axes)}")


def _reduce_domain_wall(cfg: ExperimentConfig, payloads: list[dict]) -> dict:
    values = np.array([p["value"] for p in payloads])
    out = {"values": values.tolist(), "count": len(values)}
    if len(values) >= 2:
        out["mean"] = float(values.mean())
        out["variance"] = float(values.var(ddof=1))
    return out


def _reduce_ensemble(cfg: ExperimentConfig, payloads: list[dict]) -> dict:
    values = [p["value"] for p in payloads]
    report = variance_report_from_values(values, cfg.seed, cfg.bootstrap)
    return {"values": values, "variance_report": asdict(report)}


def _check_martingale(cfg: ExperimentConfig) -> None:
    if cfg.block_side < 2:
        raise ConfigError("martingale needs block_side >= 2: a 1x1 block has no interior edges")
    for e in cfg.window:
        if e % cfg.block_side != 0:
            raise ConfigError(f"block side {cfg.block_side} does not divide window extent {e}")


def _reduce_martingale(cfg: ExperimentConfig, payloads: list[dict]) -> dict:
    spec = ensemble_spec_from_config(cfg)
    conditioning = _conditioning(cfg, spec)
    trace, report, details = block_martingale_report(spec, conditioning, payloads, cfg.bootstrap)
    return {"variance_report": asdict(report), "details": details, "trace": trace}


def _check_window_edge(cfg: ExperimentConfig) -> None:
    if max(cfg.window) < 2:
        raise ConfigError(f"{cfg.kind} needs a window with an edge, got {list(cfg.window)}")


def _reduce_edge_martingale(cfg: ExperimentConfig, payloads: list[dict]) -> dict:
    # every payload covers the same K window edges: one (n, K) array each
    deltas = np.abs(np.diff([p["ys"] for p in payloads], axis=1))
    bounds = np.array([p["bounds"] for p in payloads])
    excess = deltas - (bounds + 3.0 * np.array([p["delta_sem"] for p in payloads]))
    ok = (excess <= 0.0).all(axis=1)
    rows = [
        {"index": p["index"], "bound_ok": bool(o), "max_abs_delta": float(d), "min_bound": float(b)}
        for p, o, d, b in zip(payloads, ok, deltas.max(axis=1), bounds.min(axis=1))
    ]
    return {
        "instances": rows,
        "all_bounds_ok": bool(ok.all()),
        "worst_excess": float(excess.max()),
        "n_outer": cfg.n_outer,
    }


def _bounds_tasks(cfg: ExperimentConfig) -> list[dict]:
    betas = _betas(cfg)
    return [{"beta": betas[t % len(betas)], "realization": t} for t in range(cfg.n * len(betas))]


def _check_bounds(cfg: ExperimentConfig) -> None:
    if cfg.n_observables < 0:
        raise ConfigError(f"n_observables must be >= 0, got {cfg.n_observables}")


def _bounds_task(cfg: ExperimentConfig, at: dict) -> dict:
    spec = ensemble_spec_from_config(cfg, beta=at["beta"])
    pair = spec.pair_from(spec.master(at["realization"]))
    report = bound_check(
        pair, n_observables=cfg.n_observables, seed=cfg.seed, solver=spec.solver
    )
    rec = asdict(report)
    rec["beta"] = spec.beta
    return rec


def _reduce_bounds(cfg: ExperimentConfig, payloads: list[dict]) -> dict:
    slacks = [p["slack"] for p in payloads]
    hist, edges = np.histogram(slacks, bins=20)
    return {
        "count": len(payloads),
        "min_slack": min(slacks),
        "min_ratio_slack": min(p["min_ratio_slack"] for p in payloads),
        "violations": 0,  # bound_check raises on violation
        "histogram": {"bin_edges": edges.tolist(), "counts": hist.tolist()},
        "rows": payloads,
    }


def _bounds_hist_csv(summary: dict) -> tuple[str, list[str], list]:
    edges, counts = summary["histogram"]["bin_edges"], summary["histogram"]["counts"]
    return "bounds_hist.csv", ["bin_lo", "bin_hi", "count"], list(zip(edges, edges[1:], counts))


def _check_mgf(cfg: ExperimentConfig) -> None:
    nu_abs = distribution_from_label(cfg.distribution).abs_first_moment
    for t in cfg.t_values:  # the two envelopes, as the reduce computes them
        try:
            math.exp(4.0 * cfg.beta * t * nu_abs), math.exp(4.0 * cfg.beta * t)
        except OverflowError:
            raise ConfigError(f"the mgf envelopes overflow at t = {t}") from None


def _reduce_mgf(cfg: ExperimentConfig, payloads: list[dict]) -> dict:
    spec = ensemble_spec_from_config(cfg)
    g_values = [p["g"] for p in payloads]
    return mgf_report_from_values(spec, g_values, cfg.t_values, cfg.n_outer, cfg.bootstrap)


def _reduce_probe(cfg: ExperimentConfig, payloads: list[dict]) -> dict:
    spec = ensemble_spec_from_config(cfg)
    rows = [p["deltas"] for p in payloads]
    return probe_report_from_rows(spec, rows, cfg.epsilons, cfg.noise_tol, cfg.bootstrap)


def _probe_density_csv(summary: dict) -> tuple[str, list[str], list]:
    rows = [[r["epsilon"], r["density"], *r["ci95"][:2]] for r in summary["densities"]]
    return "probe_density.csv", ["epsilon", "density", "ci95_lo", "ci95_hi"], rows


def _check_scaling(cfg: ExperimentConfig) -> None:
    check_scaling(cfg.box, cfg.window, cfg.window_sizes)


def _scaling_task(cfg: ExperimentConfig, at: dict) -> dict:
    sub = scaling_sub_spec(ensemble_spec_from_config(cfg), at["size"])
    return {"size": at["size"], "value": sub.f_value(at["realization"])}


def _reduce_scaling(cfg: ExperimentConfig, payloads: list[dict]) -> dict:
    spec = ensemble_spec_from_config(cfg)
    values = [p["value"] for p in payloads]
    value_sets = [values[s * cfg.n : (s + 1) * cfg.n] for s in range(len(cfg.window_sizes))]
    return scaling_report_from_values(spec, cfg.window_sizes, value_sets, cfg.bootstrap)


def _scaling_points_csv(summary: dict) -> tuple[str, list[str], list]:
    keys = ["window_size", "window_sites", "boundary_edges", "variance", "variance_stderr"]
    rows = [
        [
            *(r[k] for k in keys),
            math.log(r["window_sites"]),
            math.log(r["boundary_edges"]),
            math.log(r["variance"]) if r["variance"] > 0 else "",
        ]
        for r in summary["rows"]
    ]
    header = [*keys, "log_window_sites", "log_boundary_edges", "log_variance"]
    return "scaling_points.csv", header, rows


def _scaling_fit_csv(summary: dict) -> tuple[str, list[str], list]:
    rows = [
        [name, f["exponent"], *(f["ci95"] or ("", "")), f["intercept"], f["bootstrap_fits"]]
        for name, f in summary.get("fits", {}).items()
    ]
    header = ["predictor", "exponent", "ci95_lo", "ci95_hi", "intercept", "bootstrap_fits"]
    return "scaling_fit.csv", header, rows


def _covariance_task(cfg: ExperimentConfig, at: dict) -> dict:
    dist = distribution_from_label(cfg.distribution)
    i = at["realization"]
    return covariance_sample(cfg.box, cfg.beta, dist, cfg.seed, i, enum_cap=cfg.enum_cap)


def _check_covariance(cfg: ExperimentConfig) -> None:
    if len(cfg.box) != 2 or any(e < b for e, b in zip(cfg.box, COVARIANCE_BLOCK)):
        raise ConfigError(f"covariance needs a 2-d box >= {COVARIANCE_BLOCK}, got {list(cfg.box)}")


def _check_oracle(cfg: ExperimentConfig) -> None:
    if any(not g or min(g) < 1 for g in cfg.geometries):
        raise ConfigError("every oracle geometry needs at least one axis and extents >= 1")
    for g in cfg.geometries:  # every geometry is also run antiperiodic
        _placed_bc("antiperiodic", cfg.seam_axes, g)


def _oracle_tasks(cfg: ExperimentConfig) -> list[dict]:
    grid = itertools.product(cfg.geometries, ORACLE_BC_NAMES, _betas(cfg), range(cfg.n))
    return [
        {"geometry": g, "bc": bc, "beta": beta, "replicate": r, "realization": t}
        for t, (g, bc, beta, r) in enumerate(grid)
    ]


def _oracle_task(cfg: ExperimentConfig, at: dict) -> dict:
    extents, beta = at["geometry"], at["beta"]
    bc = BoundaryCondition.from_name(at["bc"], cfg.seam_axes)
    region = bc.region(extents)
    dist = distribution_from_label(cfg.distribution)
    couplings = sample_couplings(
        dist, required_edges(region, bc), SeedSpec(cfg.seed, at["realization"], "oracle")
    )
    spec = GibbsSpec(region, couplings, beta, bc)
    meta = {"extents": list(extents), "bc": at["bc"], "beta": beta}
    enum, transfer = (replace(cfg.solver, method=m) for m in ("enum", "transfer"))
    try:
        for solver in (enum, transfer):
            solver.engine(region)
    except SizeCapError:
        return {"status": "unsupported", **meta}
    logz_enum, logz_transfer = log_partition(spec, enum), log_partition(spec, transfer)
    edges = interior_edges(region)
    corr_enum, corr_transfer = (edge_correlations(spec, edges, s) for s in (enum, transfer))
    return {
        "status": "ok",
        "logz_dev": abs(logz_enum - logz_transfer),
        "corr_dev": float(np.abs(corr_enum - corr_transfer).max(initial=0.0)),
        **meta,
    }


def _reduce_oracle(cfg: ExperimentConfig, payloads: list[dict]) -> dict:
    ok_rows = [p for p in payloads if p["status"] == "ok"]
    unsupported = [p for p in payloads if p["status"] == "unsupported"]
    max_logz = max((p["logz_dev"] for p in ok_rows), default=0.0)
    max_corr = max((p["corr_dev"] for p in ok_rows), default=0.0)
    passed = max_logz <= ORACLE_LOGZ_TOL and max_corr <= ORACLE_CORR_TOL
    if not passed:
        raise OracleMismatchError(
            f"solver cross-validation failed: max |dlogZ| = {max_logz:.3e}, "
            f"max correlation deviation = {max_corr:.3e}"
        )
    return {
        "instances": len(payloads),
        "checked": len(ok_rows),
        "unsupported": len(unsupported),
        "max_logz_deviation": max_logz,
        "max_corr_deviation": max_corr,
        "passed": True,
    }


KIND_TABLE: dict[str, ExperimentKind] = {
    "fe": ExperimentKind(
        run=_on_ensemble(_fe_task),
        reduce=lambda cfg, ps: {"values": [p["value"] for p in ps], "count": len(ps)},
        csv_tables=_csvs(_values_csv("fe")),
    ),
    "domain-wall": ExperimentKind(
        run=_on_ensemble(lambda cfg, spec, i: {"value": spec.f_value(i)}),
        reduce=_reduce_domain_wall,
        csv_tables=_csvs(_values_csv("domain-wall")),
        ensemble="domain-wall", check=_check_domain_wall,
    ),
    "ensemble": ExperimentKind(
        run=_on_ensemble(_fe_task),
        reduce=_reduce_ensemble,
        csv_tables=_csvs(_values_csv("ensemble"), _csv(
            "ensemble_summary.csv", "n f_mean f_mean_stderr f_variance f_variance_stderr",
            "variance_report", keys="n mean mean_stderr variance stderr",
        )),
        min_n=2,
    ),
    "martingale": ExperimentKind(
        run=_on_ensemble(
            lambda cfg, spec, i: block_martingale_realization(spec, _conditioning(cfg, spec), i)
        ),
        reduce=_reduce_martingale,
        csv_tables=_csvs(_csv(
            "martingale_blocks.csv", "block delta_variance conditional_mean_variance stderr",
            "details", columns="var_deltas block_variances block_variance_stderr", numbered=True,
        ), _csv(
            "martingale_summary.csv", "var_f sum_var_deltas gap gap_stderr inequality_ok", "details"
        )),
        min_n=2, check=_check_martingale,
    ),
    "edge-martingale": ExperimentKind(
        run=_on_ensemble(lambda cfg, spec, i: edge_martingale_realization(spec, i, cfg.n_outer)),
        reduce=_reduce_edge_martingale,
        csv_tables=_csvs(_csv(
            "edge_martingale.csv", "instance bound_ok max_abs_delta min_bound",
            "instances", keys="index bound_ok max_abs_delta min_bound",
        )),
        check=_check_window_edge,
    ),
    "bounds": ExperimentKind(
        tasks=_bounds_tasks,
        run=_bounds_task,
        reduce=_reduce_bounds,
        csv_tables=_csvs(_csv(
            "bounds_slack.csv", "instance beta f_value bound slack min_ratio_slack", "rows",
            numbered=True,
        ), _bounds_hist_csv),
        check=_check_bounds,
    ),
    "mgf": ExperimentKind(
        run=_on_ensemble(lambda cfg, spec, i: {"g": mgf_conditional_mean(spec, i, cfg.n_outer)}),
        reduce=_reduce_mgf,
        csv_tables=_csvs(
            _csv("mgf.csv", "t empirical stderr bound bound_normalized_nu passed", "rows")
        ),
        min_n=2, check=_check_mgf,
    ),
    "probe": ExperimentKind(
        run=_on_ensemble(lambda cfg, spec, i: {"deltas": probe_realization(spec, i)}),
        reduce=_reduce_probe,
        csv_tables=_csvs(_probe_density_csv, _csv(
            "probe_edges.csv", "edge mean_delta stderr nonzero_fraction",
            columns="edges per_edge_mean per_edge_stderr per_edge_nonzero_fraction",
        )),
        min_n=2, check=_check_window_edge,
    ),
    "scaling": ExperimentKind(
        tasks=lambda cfg: [
            {"size": s, "realization": i} for s in cfg.window_sizes for i in range(cfg.n)
        ],
        run=_scaling_task,
        reduce=_reduce_scaling,
        csv_tables=_csvs(_scaling_points_csv, _scaling_fit_csv),
        min_n=2, check=_check_scaling,
    ),
    "covariance": ExperimentKind(
        run=_covariance_task,
        reduce=lambda cfg, payloads: covariance_report_from_rows(payloads),
        csv_tables=_csvs(
            _csv("covariance.csv", "n_samples max_translation_deviation max_coupling_deviation")
        ),
        ensemble=None, check=_check_covariance,
    ),
    "oracle-verify": ExperimentKind(
        tasks=_oracle_tasks,
        run=_oracle_task,
        reduce=_reduce_oracle,
        csv_tables=_csvs(_csv(
            "oracle_verify.csv",
            "instances checked unsupported max_logz_deviation max_corr_deviation passed",
        )),
        ensemble=None, check=_check_oracle,
    ),
}
KINDS = tuple(KIND_TABLE)


@lru_cache(maxsize=16)
def task_coordinates(cfg: ExperimentConfig) -> tuple[dict, ...]:
    """The coordinates of each of the config's tasks, in task order.

    Cached, so every caller shares the same dicts: read them, never mutate.
    """
    return tuple(KIND_TABLE[cfg.kind].tasks(cfg))


def run_task(cfg: ExperimentConfig, task: int) -> dict:
    """Execute one pure task; everything derives from (config, task index)."""
    return KIND_TABLE[cfg.kind].run(cfg, task_coordinates(cfg)[task])


def reduce_report(cfg: ExperimentConfig, payloads: list[dict]) -> dict:
    """Aggregate payloads (in canonical task order) into the final summary."""
    return KIND_TABLE[cfg.kind].reduce(cfg, payloads)


# ---------------------------------------------------------------------------
# execution with incremental records and resume


def _worker(cfg: ExperimentConfig, task: int) -> tuple[int, dict, float]:
    t0 = time.perf_counter()
    payload = run_task(cfg, task)
    return task, payload, time.perf_counter() - t0


def _finished(cfg: ExperimentConfig, todo: list[int], workers: int):
    """``(task, result)`` for each task as it finishes, where ``result()``
    returns ``_worker``'s ``(task, payload, elapsed)`` or raises the task's
    error.  One worker runs the tasks here, in order; more run them in a
    process pool, and closing the generator cancels the tasks not started."""
    if workers <= 1:
        for task in todo:
            yield task, partial(_worker, cfg, task)
        return
    # imported here: a one-worker run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_worker, cfg, t): t for t in todo}
        try:
            for fut in as_completed(futures):
                yield futures[fut], fut.result
        finally:
            for fut in futures:
                fut.cancel()


def _load_existing_records(path: Path, digest: str, total: int) -> tuple[dict[int, dict], int]:
    """Payloads of the completed tasks among ``total``, and the byte length
    of the file's newline-terminated lines.

    A last line without its newline was torn by an interrupted write: it is
    left out with a warning, so its task runs again.  A line anywhere else
    that does not parse, or an ok record whose ``task`` is not a task index
    or whose ``payload`` is not an object, is an error.
    """
    if not path.exists():
        return {}, 0
    data = path.read_bytes()
    lines = data.split(b"\n")
    torn = lines.pop()
    if torn:
        warnings.warn(
            f"records file {path}: dropping a torn last line of {len(torn)} bytes; "
            "its task runs again",
            stacklevel=3,
        )
    def corrupt(number: int) -> ConfigError:
        return ConfigError(f"records file {path} line {number} is corrupt; refusing to resume")

    done: dict[int, dict] = {}
    header = None
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            rec = None
        if not isinstance(rec, dict):
            raise corrupt(number)
        if header is None:
            if rec.get("type") != "header" or rec.get("config_digest") != digest:
                raise ConfigError(
                    f"records file {path} belongs to a different configuration; "
                    "refusing to mix runs"
                )
            header = rec
        elif rec.get("type") == "record" and rec.get("status") == "ok":
            task, payload = rec.get("task"), rec.get("payload")
            if type(task) is not int or not 0 <= task < total or not isinstance(payload, dict):
                raise corrupt(number)
            done[task] = payload
    return done, len(data) - len(torn)


def _worker_count(workers: int | None) -> int:
    """``workers``, or when it is None the ``EAFLUCT_WORKERS`` variable
    (default 1); anything but a positive integer is a ``ConfigError``."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV}={raw!r} is not an integer") from None
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"the worker count must be a positive integer, got {workers!r}")
    return workers


def run(cfg: ExperimentConfig, workers: int | None = None) -> dict:
    """Run the configured experiment; returns (and writes) the final report.

    Partial results are flushed per task; rerunning with the same config
    resumes from the records file and produces the identical report.
    """
    if cfg.seed is None:
        raise ConfigError("a seed is required (no wall-clock seeding)")
    workers = _worker_count(workers)
    digest = config_digest(cfg)
    records_path = Path(cfg.records)
    records_path.parent.mkdir(parents=True, exist_ok=True)
    coords = task_coordinates(cfg)
    total = len(coords)
    done, intact = _load_existing_records(records_path, digest, total)
    todo = [t for t in range(total) if t not in done]

    with open(records_path, "a" if done else "w", encoding="utf-8") as fh:

        def write(line: dict) -> None:
            fh.write(json.dumps(line, sort_keys=True, allow_nan=False) + "\n")

        if done:
            fh.truncate(intact)  # appended records must not extend a torn line
        else:
            write({"type": "header", "config_digest": digest, "kind": cfg.kind,
                   "version": __version__})

        def record(task: int, payload: dict, elapsed: float) -> None:
            done[task] = payload
            seed = {"master": cfg.seed, **coords[task]}
            try:
                write({"type": "record", "task": task, "status": "ok", "seed": seed,
                       "payload": payload, "timing": elapsed})
            except ValueError as err:  # a NaN or an infinity, which JSON cannot carry
                raise failed(task, err) from err
            fh.flush()

        def failed(task: int, err: Exception) -> TaskError:
            at = ", ".join(f"{name} {value}" for name, value in coords[task].items())
            return TaskError(f"task {task} failed (master seed {cfg.seed}, {at}): {err}")

        with closing(_finished(cfg, todo, workers)) as results:
            for task, result in results:
                try:
                    _, payload, elapsed = result()
                except OracleMismatchError:
                    raise
                except Exception as err:
                    raise failed(task, err) from err
                record(task, payload, elapsed)

    payloads = [done[t] for t in range(total)]
    report = {
        "kind": cfg.kind,
        "version": __version__,
        "config": config_to_dict(cfg),
        "proxy_note": (
            "states are finite-volume Gibbs proxies selected by deterministic, "
            "coupling-independent boundary conditions; no claim is made that "
            "they represent infinite-volume state sampling"
        ),
        "summary": reduce_report(cfg, payloads),
    }
    report_path = Path(cfg.report)
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:  # a NaN or an infinity, which JSON cannot carry
        raise EafluctError(f"the {cfg.kind} report {report_path} is not finite: {err}") from err
    report_path.parent.mkdir(parents=True, exist_ok=True)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return report


# ---------------------------------------------------------------------------
# CSV summaries


def write_csv_reports(report: dict, out_dir) -> list[str]:
    """Emit the plain-CSV summaries for a completed run's report."""
    summary = report.get("summary")
    if not summary:
        raise IncompleteRunError("report carries no summary; run the experiment first")
    kind = report.get("kind")
    if kind not in KINDS:
        raise IncompleteRunError(f"no CSV emitter for kind {kind!r}")
    try:
        tables = KIND_TABLE[kind].csv_tables(summary)
    except KeyError as err:
        raise IncompleteRunError(f"the {kind} summary has no field {err}") from None
    out = Path(out_dir)
    written: list[str] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, header, rows in tables:
            path = out / name
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            written.append(str(path))
    except OSError as err:  # the directory is a file or lies under one, or a CSV path is taken
        raise ConfigError(f"cannot write the CSV files to {str(out)!r}: {err}") from err
    return written


def report_from_file(path) -> dict:
    report_path = Path(path)
    if not report_path.exists():
        raise IncompleteRunError(f"no report at {report_path}")
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as err:
        raise IncompleteRunError(f"cannot read report {report_path}: {err}") from err
    except ValueError as err:  # malformed JSON, or bytes that are not UTF-8
        raise IncompleteRunError(f"report {report_path} is not valid JSON: {err}") from err
    if not isinstance(report, dict):
        raise IncompleteRunError(f"report {report_path} is not a JSON object")
    return report
