import dataclasses
import json
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from conftest import domain_wall
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eafluct import harness
from eafluct.cli import build_parser, main
from eafluct.errors import (
    ConfigError,
    EafluctError,
    IncompleteRunError,
    OracleMismatchError,
    SizeCapError,
    TaskError,
    UnsupportedOperationError,
)
from eafluct.harness import (
    KINDS,
    config_digest,
    config_to_dict,
    load_config,
    parse_config_dict,
    report_from_file,
    run,
    task_coordinates,
    write_csv_reports,
)
from eafluct.exactsolve import SOLVER_METHODS, uniform_fixed_bc
from eafluct.fluctuation import scaling_sub_spec
from eafluct.lattice import Region

GOLDEN = Path(__file__).parent / "golden"


def _refuse(constant):
    raise AssertionError(f"report.json carries {constant}, which is not standard JSON")


def base_config(tmp_path, kind="ensemble", **overrides):
    data = {
        "schema_version": 1,
        "kind": kind,
        "seed": 42,
        "geometry": {"box": [5, 5], "window": [3, 3]},
        "physics": {"beta": 1.0, "bc": "free", "bc_prime": "periodic"},
        "sampling": {"n": 8, "bootstrap": 100},
        "output": {
            "records": str(tmp_path / "records.jsonl"),
            "report": str(tmp_path / "report.json"),
            "csv_dir": str(tmp_path / "csv"),
        },
    }
    for section, body in overrides.items():
        if isinstance(body, dict):
            data.setdefault(section, {}).update(body)
        else:
            data[section] = body
    return data


# --- config parsing -------------------------------------------------------------


def test_config_round_trip_is_identity(tmp_path):
    cfg = parse_config_dict(base_config(tmp_path))
    assert parse_config_dict(config_to_dict(cfg)) == cfg
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert load_config(path) == cfg


def test_unknown_top_level_key_is_hard_error(tmp_path):
    data = base_config(tmp_path)
    data["typo"] = 1
    with pytest.raises(ConfigError):
        parse_config_dict(data)


def test_unknown_section_key_is_hard_error(tmp_path):
    data = base_config(tmp_path, physics={"betaa": 2.0})
    with pytest.raises(ConfigError):
        parse_config_dict(data)


def test_missing_schema_version_rejected(tmp_path):
    data = base_config(tmp_path)
    del data["schema_version"]
    with pytest.raises(ConfigError):
        parse_config_dict(data)


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_dict(base_config(tmp_path, kind="frobnicate"))


def test_numeric_preconditions_validated_at_load(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_dict(base_config(tmp_path, physics={"beta": -1.0}))
    with pytest.raises(ConfigError):
        parse_config_dict(base_config(tmp_path, sampling={"n": 0}))
    with pytest.raises(ConfigError):
        parse_config_dict(
            base_config(tmp_path, kind="martingale", sampling={"block_side": 2, "n": 4},
                        geometry={"window": [3, 3]})
        )
    with pytest.raises(ConfigError):
        parse_config_dict(base_config(tmp_path, geometry={"window": [5, 5]}))


def test_fractional_value_for_int_field_rejected(tmp_path):
    with pytest.raises(ConfigError, match="n must be an integer"):
        parse_config_dict(base_config(tmp_path, sampling={"n": 6.9}))


def test_bool_rejected_for_numeric_fields(tmp_path):
    with pytest.raises(ConfigError, match="beta must be a number"):
        parse_config_dict(base_config(tmp_path, physics={"beta": True}))
    with pytest.raises(ConfigError, match="n must be an integer"):
        parse_config_dict(base_config(tmp_path, sampling={"n": True}))
    with pytest.raises(ConfigError, match="box must be an integer"):
        parse_config_dict(base_config(tmp_path, geometry={"box": [5, False]}))


def test_string_seed_rejected(tmp_path):
    data = base_config(tmp_path)
    data["seed"] = "42"
    with pytest.raises(ConfigError, match="seed must be an integer"):
        parse_config_dict(data)


def test_zero_block_side_rejected(tmp_path):
    data = base_config(tmp_path, kind="martingale", sampling={"block_side": 0, "n": 4})
    with pytest.raises(ConfigError, match="block_side"):
        parse_config_dict(data)


def test_empty_box_rejected_at_parse(tmp_path):
    with pytest.raises(ConfigError, match="box"):
        parse_config_dict(base_config(tmp_path, kind="fe", geometry={"box": []}))


def test_window_of_other_dimension_rejected_at_parse(tmp_path):
    data = base_config(tmp_path, kind="fe", geometry={"box": [5, 5], "window": [3]})
    with pytest.raises(ConfigError, match="window"):
        parse_config_dict(data)


def test_unknown_solver_method_rejected_at_parse(tmp_path):
    with pytest.raises(ConfigError, match="solver method"):
        parse_config_dict(base_config(tmp_path, solver={"method": "exact"}))


@pytest.mark.parametrize("field", ["bc", "bc_prime"])
@pytest.mark.parametrize("kind", ["fe", "ensemble", "probe"])
def test_unknown_bc_name_rejected_at_parse(tmp_path, kind, field):
    with pytest.raises(ConfigError, match="boundary condition"):
        parse_config_dict(base_config(tmp_path, kind=kind, physics={field: "fixed:0"}))


def test_bc_names_are_not_checked_for_kinds_that_ignore_them(tmp_path):
    data = base_config(tmp_path, kind="domain-wall", physics={"bc": "nonsense"})
    data["geometry"] = {"box": [4, 4]}
    assert parse_config_dict(data).bc == "nonsense"


def test_martingale_block_side_one_rejected(tmp_path):
    # a 1x1 block has no interior edges, so every Delta_k would be exactly 0
    data = base_config(tmp_path, kind="martingale", sampling={"block_side": 1, "n": 4})
    with pytest.raises(ConfigError, match="block_side >= 2"):
        parse_config_dict(data)


def _domain_wall_config(tmp_path, seam_axes, box=(4, 4)):
    data = base_config(tmp_path, kind="domain-wall", physics={"seam_axes": list(seam_axes)})
    data["geometry"] = {"box": list(box)}
    return data


@pytest.mark.parametrize("seam_axes", [[5], [-1], [2], [], [0, 1]])
def test_domain_wall_needs_one_seam_axis_of_the_box(tmp_path, seam_axes):
    with pytest.raises(ConfigError, match="seam"):
        parse_config_dict(_domain_wall_config(tmp_path, seam_axes))


@pytest.mark.parametrize("seam_axes", [[5], [], [0, 0], [1, 2]])
@pytest.mark.parametrize("field", ["bc", "bc_prime"])
def test_antiperiodic_pair_needs_distinct_seam_axes_of_the_box(tmp_path, field, seam_axes):
    physics = {field: "antiperiodic", "seam_axes": seam_axes}
    with pytest.raises(ConfigError, match="seam_axes"):
        parse_config_dict(base_config(tmp_path, kind="fe", physics=physics))


@pytest.mark.parametrize("seam_axes", [[2], [-1], [0, 0], []])
def test_a_bad_seam_axis_is_one_config_error_for_a_pair_a_domain_wall_and_the_oracle(
    tmp_path, seam_axes
):
    pair = base_config(tmp_path, kind="fe",
                       physics={"bc_prime": "antiperiodic", "seam_axes": seam_axes})
    oracle = base_config(tmp_path, kind="oracle-verify", physics={"seam_axes": seam_axes})
    oracle["geometry"] = {"geometries": [[4, 4]]}
    messages = set()
    for data in (pair, _domain_wall_config(tmp_path, seam_axes), oracle):
        with pytest.raises(ConfigError, match="seam_axes must be") as info:
            parse_config_dict(data)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_oracle_verify_needs_seam_axes_of_every_geometry(tmp_path):
    data = base_config(tmp_path, kind="oracle-verify", physics={"seam_axes": [1]})
    data["geometry"] = {"geometries": [[3, 3], [4]]}
    with pytest.raises(ConfigError, match="seam_axes"):
        parse_config_dict(data)


# the golden martingale geometry: base_config's 3x3 window has no 2x2 blocks
_KIND_GEOMETRY = {"martingale": {"box": [6, 6], "window": [4, 4]}}


@pytest.mark.parametrize("kind, section, body, match", [
    ("scaling", "geometry", {"window_sizes": [0, 2, 3]}, "window sizes must be >= 1"),
    ("scaling", "geometry", {"window_sizes": [-2, 2, 3]}, "window sizes must be >= 1"),
    ("scaling", "geometry", {"window_sizes": [2, 2, 2]}, "three distinct"),
    ("scaling", "geometry", {"window_sizes": [2, 3, 3]}, "three distinct"),
    ("scaling", "geometry", {"box": [5, 6]}, "same even number"),
    ("scaling", "geometry", {"box": [6, 6]}, "same even number"),
    ("scaling", "geometry", {"box": [7, 5]}, "same even number"),
    ("bounds", "sampling", {"n_observables": -1}, "n_observables"),
    ("probe", "sampling", {"noise_tol": -1e-12}, "noise_tol"),
    ("bounds", "physics", {"betas": [1.0, float("inf")]}, "betas must be finite"),
    ("bounds", "physics", {"betas": [float("nan")]}, "betas must be finite"),
    ("bounds", "physics", {"betas": [-0.5]}, "betas must be finite and >= 0"),
    ("mgf", "sampling", {"n_outer": 1}, "n_outer must be >= 2"),
    ("ensemble", "sampling", {"bootstrap": 1}, "bootstrap resample count"),
    ("fe", "solver", {"enum_cap": 0}, "solver caps must be positive"),
    ("fe", "solver", {"transfer_width_cap": 0}, "solver caps must be positive"),
    ("fe", "physics", {"distribution": "cauchy(0,1)"}, "bad distribution"),
    ("fe", "physics", {"distribution": "gaussian(nan,1)"}, "bad distribution"),
    ("fe", "physics", {"distribution": "gaussian(0,inf)"}, "bad distribution"),
    ("fe", "physics", {"distribution": "uniform(-inf,0)"}, "bad distribution"),
    ("fe", "seed", 2**64, "seed must be a 64-bit"),
    ("fe", "seed", -1, "seed must be a 64-bit"),
    ("oracle-verify", "geometry", {"geometries": [[3, 3], []]}, "every oracle geometry"),
    ("oracle-verify", "geometry", {"geometries": [[3, 0]]}, "every oracle geometry"),
    ("edge-martingale", "geometry", {"box": [3, 3], "window": [1, 1]}, "window with an edge"),
    ("probe", "geometry", {"box": [3, 3], "window": [1, 1]}, "window with an edge"),
    ("mgf", "sampling", {"t_values": [1e5]}, "mgf envelopes overflow at t = 100000.0"),
    ("mgf", "sampling", {"t_values": [0.5, 400.0]}, "mgf envelopes overflow at t = 400.0"),
    ("covariance", "geometry", {"box": [1, 4]}, "2-d box"),
    ("covariance", "geometry", {"box": [2, 2, 2]}, "2-d box"),
    ("covariance", "geometry", {"box": [5, 5]}, "more sites than enum_cap"),
    ("covariance", "solver", {"enum_cap": 8}, "more sites than enum_cap"),
    ("ensemble", "sampling", {"noise_tol": float("inf")}, "noise_tol must be finite and >= 0"),
    ("mgf", "sampling", {"t_values": [0.5, -1.0]}, "t_values must be finite and >= 0"),
    ("martingale", "solver", {"transfer_width_cap": 1}, "box \\[6, 6\\] has more sites than"),
    ("scaling", "solver", {"method": "enum"}, "box \\[5, 5\\] has more sites than enum_cap"),
    ("domain-wall", "geometry", {"box": [5, 5, 5]}, "box \\[5, 5, 5\\] has more sites than"),
    ("fe", "solver", {"transfer_width_cap": 2}, "its 25 spins exceed the enum engine's cap 24"),
    ("covariance", "geometry", {"box": [5, 5]}, "its 25 spins exceed the enum engine's cap 24"),
    ("fe", "geometry", {"box": [3, 3, 3], "window": [1, 1, 1]}, "enum engine's cap 24"),
    ("ensemble", "solver", {"method": "transfer", "transfer_width_cap": 2},
     "box \\[5, 5\\] does not fit the transfer engine's cap"),
    ("fe", "output", {"report": ""}, "output report must name a file"),
    ("fe", "output", {"records": "."}, "output records must name a file"),
    ("fe", "output", {"report": "a\0b"}, "output report must name a file"),
])
def test_kind_checks_reject_silently_wrong_inputs(tmp_path, kind, section, body, match):
    # the kind checks' cases each used to run: a repeated size fits a line
    # through one point, and an odd or uneven margin was replaced by axis 0's,
    # floored; a non-finite distribution parameter parsed, then failed every
    # task; a window of one site, an overflowing mgf envelope and a covariance
    # box that its 2x2 block or the enumeration cannot serve failed only after
    # the tasks had started, or wrote NaN into the report; an infinite
    # noise_tol reached the report's config echo of every kind but the probe,
    # and a negative t, at which exp(4 beta t nu) bounds nothing, failed the
    # mgf check or wrote non-finite rows; a box beyond the cap of the engine
    # that solves it failed once the tasks had started (the martingale at
    # its first task, the scaling study at its 5x5 size); and an output path
    # that names no file raised a raw IsADirectoryError or ValueError, the
    # report's only after every task had run
    overrides = {"geometry": _KIND_GEOMETRY.get(kind, {})}
    overrides[section] = (
        {**overrides.get(section, {}), **body} if isinstance(body, dict) else body
    )
    with pytest.raises(ConfigError, match=match):
        parse_config_dict(base_config(tmp_path, kind=kind, **overrides))


def test_a_box_beyond_its_engines_cap_is_refused_by_the_cli(tmp_path, capsys):
    data = base_config(tmp_path, kind="scaling", solver={"method": "enum"})
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(data))
    assert main(["scaling", "-c", str(config_path)]) == 2
    assert "box [5, 5] has more sites than enum_cap" in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()


# a box one spin past enum_cap under enumeration, and a 3x13 box under a
# transfer of width 2: (solver section, geometry, the refusal), with the
# geometry each kind builds nearest to it where it cannot build that box
_ENUM_PAST = ({"method": "enum", "enum_cap": 11}, {"box": [3, 4], "window": [1, 2]},
              "box [3, 4] has more sites than enum_cap: its 12 spins exceed the enum engine's "
              "cap 11")
_TRANSFER_PAST = ({"method": "transfer", "transfer_width_cap": 2},
                  {"box": [3, 13], "window": [1, 11]},
                  "box [3, 13] does not fit the transfer engine's cap: it needs a 2-d box "
                  "with an axis of at most width_cap 2")
_PAST_A_CAP = [
    *((kind, *_ENUM_PAST) for kind in
      ("fe", "ensemble", "edge-martingale", "bounds", "mgf", "probe", "domain-wall", "covariance")),
    *((kind, *_TRANSFER_PAST) for kind in
      ("fe", "ensemble", "edge-martingale", "bounds", "mgf", "probe", "domain-wall")),
    ("martingale", {"method": "enum", "enum_cap": 15}, {"box": [4, 4], "window": [2, 2]},
     "box [4, 4] has more sites than enum_cap: its 16 spins exceed the enum engine's cap 15"),
    ("martingale", {"method": "transfer", "transfer_width_cap": 2},
     {"box": [4, 14], "window": [2, 12]}, "box [4, 14] does not fit the transfer engine's cap"),
    ("scaling", {"method": "enum", "enum_cap": 24},
     {"box": [5, 5], "window": [3, 3], "window_sizes": [1, 2, 3]},
     "box [5, 5] has more sites than enum_cap: its 25 spins exceed the enum engine's cap 24"),
    ("scaling", {"method": "transfer", "transfer_width_cap": 2},
     {"box": [5, 5], "window": [3, 3], "window_sizes": [1, 2, 3]},
     "box [3, 3] does not fit the transfer engine's cap"),
]


@pytest.mark.parametrize("kind, solver, geometry, text", _PAST_A_CAP)
def test_a_box_past_its_engines_cap_is_refused_at_parse_in_the_engines_words(
    tmp_path, kind, solver, geometry, text
):
    # the parse check and every library entry apply one rule, Solver.engine
    data = base_config(tmp_path, kind=kind, geometry=geometry, solver=solver)
    with pytest.raises(ConfigError) as info:
        parse_config_dict(data)
    assert str(info.value).startswith(text)


@pytest.mark.parametrize("solver, geometry", [(s, g) for s, g, _ in (_ENUM_PAST, _TRANSFER_PAST)])
def test_oracle_verify_reports_a_box_past_a_cap_as_unsupported(tmp_path, solver, geometry):
    data = base_config(tmp_path, kind="oracle-verify", solver=solver)
    data["geometry"] = {"geometries": [geometry["box"], [2, 2]]}
    data["sampling"] = {"n": 1}
    summary = run(parse_config_dict(data))["summary"]
    assert (summary["instances"], summary["checked"], summary["unsupported"]) == (8, 4, 4)
    assert summary["passed"]


def test_a_window_without_edges_is_refused_by_the_cli(tmp_path, capsys):
    data = base_config(tmp_path, kind="edge-martingale", geometry={"box": [3, 3], "window": [1, 1]})
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(data))
    assert main(["edge-martingale", "-c", str(config_path)]) == 2
    assert "window with an edge" in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()


@pytest.mark.parametrize("kind, geometry", [
    ("covariance", {"box": [2, 2]}),
    ("covariance", {"box": [2, 12]}),
    ("edge-martingale", {"box": [3, 4], "window": [1, 2]}),
    ("probe", {"box": [4, 3], "window": [2, 1]}),
])
def test_the_smallest_inputs_the_kind_checks_keep_still_run(tmp_path, kind, geometry):
    data = base_config(tmp_path, kind=kind, geometry=geometry, sampling={"n": 2, "n_outer": 2})
    run(parse_config_dict(data), workers=1)
    assert (tmp_path / "report.json").exists()


def test_seam_axes_are_not_checked_without_an_antiperiodic_state(tmp_path):
    assert parse_config_dict(base_config(tmp_path, kind="fe", physics={"seam_axes": []}))


def test_kind_rules_come_from_the_table(tmp_path):
    for kind, entry in harness.KIND_TABLE.items():
        if entry.min_n > 1:
            with pytest.raises(ConfigError, match=f"{kind} needs n >= {entry.min_n}"):
                parse_config_dict(base_config(tmp_path, kind=kind, sampling={"n": 1}))
    # only a kind that compares a pair of states on a window needs a margin
    tight = {"box": [4, 4], "window": [4, 4], "window_sizes": [2, 3, 4]}
    for kind, entry in harness.KIND_TABLE.items():
        data = base_config(tmp_path, kind=kind, geometry=tight, sampling={"block_side": 1})
        if entry.ensemble == "pair":
            with pytest.raises(ConfigError, match="margin"):
                parse_config_dict(data)
        else:
            parse_config_dict(data)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(-2.0, 8.0) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=5,
)
_FIELDS = [
    (section, key) for section, layout in harness._SECTIONS.items() for _, key, _ in layout
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KINDS), st.sampled_from(_FIELDS), _JSON_VALUES)
def test_any_field_value_parses_or_is_a_config_error(kind, field, value):
    data = base_config(Path("out"), kind=kind, sampling={"n": 4})
    data.setdefault(field[0], {})[field[1]] = value
    try:
        parse_config_dict(data)
    except ConfigError:
        pass


# the run-level fuzz draws each field's edit from values of the field's own
# type, so that most edits parse and run: small counts, caps, extents and
# axes; finite floats; and the names that the name fields take
_SMALL = st.integers(1, 6)
_FLOAT = st.floats(0.0, 8.0)
_EDITS = {
    "int": _SMALL,
    "float": _FLOAT,
    "tuple[int, ...]": st.lists(st.integers(0, 6), min_size=1, max_size=3),
    "tuple[float, ...]": st.lists(_FLOAT, min_size=1, max_size=3),
    "tuple[tuple[int, ...], ...]": st.lists(st.lists(_SMALL, min_size=2, max_size=2),
                                            min_size=1, max_size=2),
}
_NAMES = {
    "bc": st.sampled_from(["free", "periodic", "antiperiodic", "fixed", "fixed:+1", "fixed:-1"]),
    "method": st.sampled_from(SOLVER_METHODS),
    "distribution": st.sampled_from(
        ["gaussian(0.0,1.0)", "gaussian(0.5,2.0)", "uniform(-1.0,1.0)"]
    ),
}
_NAMES["bc_prime"] = _NAMES["bc"]
_TYPES = {
    (f.metadata["section"], f.metadata["key"] or f.name): f.type
    for f in dataclasses.fields(harness.ExperimentConfig) if f.metadata["section"]
}
# an edited output path could name any place on the file system, so the
# run-level fuzz edits only the fields that shape the experiment (parsing
# refuses an output path that names no file)
_RUN_EDITS = st.one_of(*(
    st.tuples(st.just(field), _NAMES[field[1]] if _TYPES[field] == "str" else _EDITS[_TYPES[field]])
    for field in _FIELDS if field[0] != "output"
))


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(KINDS), _RUN_EDITS)
def test_a_one_field_edit_of_a_golden_config_fails_at_parse_or_writes_standard_json(kind, edit):
    field, value = edit
    data = json.loads((GOLDEN / kind / "config.json").read_text())
    data.setdefault(field[0], {})[field[1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        data["output"] = {key: str(Path(tmp, path)) for key, path in data["output"].items()}
        try:
            cfg = parse_config_dict(data)
        except ConfigError:
            return
        try:
            run(cfg, workers=1)
        except TaskError as err:
            # the one late failure left: the transfer engine's range in beta
            # (ROADMAP item 4), an ArithmeticError inside a task
            if isinstance(err.__cause__, ArithmeticError):
                return
            raise
        json.loads(Path(cfg.report).read_text(), parse_constant=_refuse)


@pytest.mark.parametrize("report", ["records.jsonl", "./records.jsonl", "sub/../records.jsonl"])
def test_records_and_report_naming_one_file_are_refused(tmp_path, monkeypatch, capsys, report):
    # the report used to overwrite the records, and the rerun then refused
    # the records file as corrupt
    data = json.loads((GOLDEN / "fe" / "config.json").read_text())
    data["output"] = {"records": str(tmp_path / "records.jsonl"), "report": report,
                      "csv_dir": "csv"}
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(data))
    for _ in range(2):
        assert main(["fe", "-c", str(config_path)]) == 2
        assert "records and report name the same file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_every_config_field_but_kind_and_seed_has_a_section():
    named = {name for layout in harness._SECTIONS.values() for name, _, _ in layout}
    fields = {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    assert fields - named == {"kind", "seed"}
    assert ("solver", "method") in _FIELDS


def test_a_config_field_without_section_or_parser_fails_at_layout():
    @dataclasses.dataclass(frozen=True)
    class NoSection:
        n: "int" = 1

    @dataclasses.dataclass(frozen=True)
    class NoParser:
        n: "int | None" = harness._in("sampling", None)

    with pytest.raises(TypeError, match="declares no JSON section"):
        harness._layout(NoSection)
    with pytest.raises(TypeError, match="no config parser"):
        harness._layout(NoParser)


@pytest.mark.parametrize("field, text, match", [
    ("epsilons", "[-1.0]", "epsilons must be finite and >= 0"),
    ("epsilons", "[0.5, 1e309]", "epsilons must be finite and >= 0"),
    ("epsilons", "[NaN]", "epsilons must be finite and >= 0"),
    ("t_values", "[1e309]", "t_values must be finite"),
    ("t_values", "[1.0, -1e309]", "t_values must be finite"),
    ("t_values", "[NaN]", "t_values must be finite"),
    ("noise_tol", "1e309", "noise_tol must be finite and >= 0"),
])
def test_out_of_range_probe_and_mgf_parameters_are_config_errors(tmp_path, capsys, field,
                                                                  text, match):
    # JSON reads 1e309 as inf; each of these used to run, to a density of
    # 0 or 1, to all-zero nonzero fractions or to non-finite MGF rows
    kind = "mgf" if field == "t_values" else "probe"
    data = base_config(tmp_path, kind=kind, sampling={"n": 2})
    config_text = json.dumps(data).replace(
        '"sampling": {', f'"sampling": {{"{field}": {text}, ', 1
    )
    with pytest.raises(ConfigError, match=match):
        parse_config_dict(json.loads(config_text))
    config_path = tmp_path / "cfg.json"
    config_path.write_text(config_text)
    assert main([kind, "-c", str(config_path)]) == 2
    assert match in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()


def test_a_task_gets_an_equal_config_and_its_cached_coordinates(tmp_path):
    # a process pool hands each task a pickled copy of the config
    cfg = parse_config_dict(base_config(tmp_path, sampling={"n": 2}))
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and copy is not cfg
    assert harness.task_coordinates(copy) is harness.task_coordinates(cfg)


def test_seed_required_to_run(tmp_path):
    data = base_config(tmp_path)
    data["seed"] = None
    cfg = parse_config_dict(data)
    with pytest.raises(ConfigError):
        run(cfg)


# --- runs -------------------------------------------------------------------------


def test_single_realization_ensemble_is_degenerate(tmp_path):
    cfg = parse_config_dict(base_config(tmp_path, kind="fe", sampling={"n": 1}))
    report = run(cfg)
    assert report["summary"]["count"] == 1


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config_dict(base_config(tmp_path, sampling={"n": 6, "bootstrap": 50}))
    run(cfg)
    first = (tmp_path / "report.json").read_bytes()
    run(cfg)
    assert (tmp_path / "report.json").read_bytes() == first


def test_worker_counts_give_identical_reports(tmp_path):
    data = base_config(tmp_path, sampling={"n": 6, "bootstrap": 50})
    cfg = parse_config_dict(data)
    run(cfg, workers=1)
    serial = (tmp_path / "report.json").read_bytes()
    (tmp_path / "records.jsonl").unlink()
    run(cfg, workers=4)
    assert (tmp_path / "report.json").read_bytes() == serial


def test_interrupted_run_resumes_to_identical_report(tmp_path):
    cfg = parse_config_dict(base_config(tmp_path, sampling={"n": 6, "bootstrap": 50}))
    run(cfg)
    full = (tmp_path / "report.json").read_bytes()
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    (tmp_path / "records.jsonl").write_text("\n".join(lines[:4]) + "\n")
    run(cfg)
    assert (tmp_path / "report.json").read_bytes() == full
    # resumed file contains each task exactly once
    recs = [json.loads(l) for l in (tmp_path / "records.jsonl").read_text().splitlines()]
    tasks = [r["task"] for r in recs if r["type"] == "record"]
    assert sorted(tasks) == list(range(6))


def _fe_config(root):
    return parse_config_dict(base_config(root, kind="fe", sampling={"n": 4}))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.floats(0.0, 1.0, exclude_max=True))
def test_resume_after_torn_last_record_matches_serial_report(fraction):
    # the cut is drawn as a fraction because record lengths vary with timing
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = _fe_config(root)
        run(cfg)
        serial = (root / "report.json").read_bytes()
        records = (root / "records.jsonl").read_bytes()
        last_start = records.rstrip(b"\n").rfind(b"\n") + 1
        cut = last_start + int(fraction * (len(records) - last_start))
        (root / "records.jsonl").write_bytes(records[:cut])
        (root / "report.json").unlink()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(cfg)
        torn = [w for w in caught if "torn last line" in str(w.message)]
        assert len(torn) == (cut > last_start)
        assert (root / "report.json").read_bytes() == serial
        # the rewritten file is intact: every task once, every line complete
        lines = (root / "records.jsonl").read_bytes().split(b"\n")
        assert lines.pop() == b""
        tasks = [json.loads(line).get("task") for line in lines[1:]]
        assert sorted(tasks) == list(range(4))


def test_torn_line_before_the_last_is_an_error(tmp_path):
    cfg = _fe_config(tmp_path)
    run(cfg)
    lines = (tmp_path / "records.jsonl").read_text().splitlines(keepends=True)
    lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
    (tmp_path / "records.jsonl").write_text("".join(lines))
    with pytest.raises(ConfigError, match="line 3 is corrupt"):
        run(cfg)


MALFORMED_RECORDS = {  # each changes the record of task 1, on line 3
    "bare": lambda rec: {"type": "record", "status": "ok"},
    "string task": lambda rec: {**rec, "task": "1"},
    "bool task": lambda rec: {**rec, "task": True},
    "float task": lambda rec: {**rec, "task": 1.0},
    "negative task": lambda rec: {**rec, "task": -1},
    "task past the last": lambda rec: {**rec, "task": 4},
    "list payload": lambda rec: {**rec, "payload": [1.0]},
    "null payload": lambda rec: {**rec, "payload": None},
    "no payload": lambda rec: {k: v for k, v in rec.items() if k != "payload"},
}


def _malform_record(path: Path, case: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = json.dumps(MALFORMED_RECORDS[case](json.loads(lines[2]))) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("case", MALFORMED_RECORDS)
def test_a_malformed_record_is_a_corrupt_line(tmp_path, case):
    # it used to be a raw KeyError, or a record silently left out
    cfg = _fe_config(tmp_path)
    run(cfg)
    _malform_record(tmp_path / "records.jsonl", case)
    with pytest.raises(ConfigError, match="line 3 is corrupt; refusing to resume"):
        run(cfg)


@pytest.mark.parametrize("case", ["bare", "string task", "list payload"])
def test_the_cli_refuses_to_resume_from_a_malformed_record(tmp_path, capsys, case):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(base_config(tmp_path, kind="fe", sampling={"n": 4})))
    assert main(["fe", "-c", str(config_path)]) == 0
    _malform_record(tmp_path / "records.jsonl", case)
    capsys.readouterr()
    assert main(["fe", "-c", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 3 is corrupt; refusing to resume" in err


def test_torn_header_restarts_the_run(tmp_path):
    cfg = _fe_config(tmp_path)
    run(cfg)
    serial = (tmp_path / "report.json").read_bytes()
    header = (tmp_path / "records.jsonl").read_text().splitlines()[0]
    (tmp_path / "records.jsonl").write_text(header[:10])
    with pytest.warns(UserWarning, match="torn last line"):
        run(cfg)
    assert (tmp_path / "report.json").read_bytes() == serial


class _TwoArgError(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def test_task_failure_is_chained_task_error(tmp_path, monkeypatch):
    def broken(cfg, task):
        raise _TwoArgError(7, "no constructor for a message alone")

    monkeypatch.setattr(harness, "run_task", broken)
    with pytest.raises(TaskError, match="task 0 failed") as info:
        run(_fe_config(tmp_path))
    assert isinstance(info.value.__cause__, _TwoArgError)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_payload_fails_its_task_and_writes_no_report(tmp_path, capsys):
    # the reweighting tilt overflows at beta 1e5, so every coupling deviation
    # is NaN; the run used to exit 0 with NaN in its records and report.json
    data = base_config(tmp_path, kind="covariance", geometry={"box": [3, 3]},
                       physics={"beta": 1e5}, sampling={"n": 2})
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(data))
    assert main(["covariance", "-c", str(config_path)]) == 2
    assert "task 0 failed (master seed 42, realization 0)" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert [json.loads(line)["type"] for line in lines] == ["header"]


def test_a_non_finite_summary_is_refused_before_the_report_is_written(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "reduce_report", lambda cfg, payloads: {"value": float("nan")})
    with pytest.raises(EafluctError, match="fe report .*report.json is not finite"):
        run(_fe_config(tmp_path))
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_tasks_raise_task_error_for_any_worker_count(tmp_path, workers):
    # 25 spins exceed the enumeration cap inside every task; parsing refuses
    # that config, so it is built past the parse check
    cfg = parse_config_dict(base_config(tmp_path, kind="fe", sampling={"n": 3}))
    with pytest.raises(TaskError) as info:
        run(dataclasses.replace(cfg, solver_method="enum"), workers=workers)
    assert isinstance(info.value.__cause__, SizeCapError)


@pytest.mark.parametrize("kind", [
    "fe", "ensemble", "domain-wall", "martingale", "edge-martingale", "bounds", "mgf",
    "probe", "scaling",
])
def test_config_solver_caps_bind_every_ensemble_kind(tmp_path, kind):
    # no axis of any box fits width 2, and every box has more than 4 spins:
    # parsing refuses these caps, and a config built past the parse check
    # still hands them to the engines of every task
    data = base_config(
        tmp_path, kind=kind,
        geometry={"box": [4, 4], "window": [2, 2], "window_sizes": [1, 2, 3]},
        sampling={"n": 2, "n_outer": 2, "bootstrap": 10},
    )
    cfg = parse_config_dict(data)
    data["solver"] = {"transfer_width_cap": 2, "enum_cap": 4}
    with pytest.raises(ConfigError, match="more sites than enum_cap"):
        parse_config_dict(data)
    with pytest.raises(TaskError) as info:
        run(dataclasses.replace(cfg, transfer_width_cap=2, enum_cap=4))
    assert isinstance(info.value.__cause__, SizeCapError)


def _oracle_mismatch(cfg, task):
    raise OracleMismatchError(f"task {task} disagrees")


@pytest.mark.parametrize("workers", [1, 2])
def test_oracle_mismatch_passes_through_for_any_worker_count(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(harness, "run_task", _oracle_mismatch)
    with pytest.raises(OracleMismatchError, match="disagrees"):
        run(_fe_config(tmp_path), workers=workers)


@pytest.mark.parametrize("key, dev", [
    ("logz_dev", 2 * harness.ORACLE_LOGZ_TOL),
    ("corr_dev", 2 * harness.ORACLE_CORR_TOL),
])
def test_oracle_reduce_raises_past_either_tolerance(tmp_path, key, dev):
    cfg = parse_config_dict(base_config(tmp_path, kind="oracle-verify"))
    ok = {"status": "ok", "logz_dev": 0.0, "corr_dev": 0.0}
    assert harness.reduce_report(cfg, [ok])["passed"]
    with pytest.raises(OracleMismatchError, match="cross-validation failed"):
        harness.reduce_report(cfg, [ok, {**ok, key: dev}])


def test_records_from_other_config_are_rejected(tmp_path):
    cfg = parse_config_dict(base_config(tmp_path, sampling={"n": 4, "bootstrap": 50}))
    run(cfg)
    other = parse_config_dict(base_config(tmp_path, sampling={"n": 5, "bootstrap": 50}))
    with pytest.raises(ConfigError):
        run(other)


def test_records_carry_seed_provenance(tmp_path):
    cfg = parse_config_dict(base_config(tmp_path, kind="fe", sampling={"n": 2}))
    run(cfg)
    recs = [json.loads(l) for l in (tmp_path / "records.jsonl").read_text().splitlines()]
    payload = next(r for r in recs if r["type"] == "record" and r["task"] == 1)["payload"]
    assert payload["result"]["seed"] == {"master": 42, "realization": 1, "purpose": "couplings"}


def _record_seeds(tmp_path):
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    recs = [json.loads(line) for line in lines[1:]]
    return {r["task"]: r["seed"] for r in recs}


def test_scaling_records_carry_size_and_replicate(tmp_path):
    data = base_config(tmp_path, kind="scaling", sampling={"n": 2, "bootstrap": 20})
    data["geometry"] = {"box": [4, 4], "window": [2, 2], "window_sizes": [2, 3, 4]}
    run(parse_config_dict(data))
    seeds = _record_seeds(tmp_path)
    assert seeds == {
        s * 2 + i: {"master": 42, "size": size, "realization": i}
        for s, size in enumerate([2, 3, 4])
        for i in range(2)
    }


def test_scaling_with_a_fixed_bc_runs_at_every_window_size(tmp_path):
    # the fixed bc is clamped on each size's own box, not the template's
    data = base_config(tmp_path, kind="scaling", sampling={"n": 3, "bootstrap": 20},
                       physics={"bc_prime": "fixed:+1"})
    data["geometry"] = {"box": [6, 6], "window": [2, 2], "window_sizes": [2, 3, 4]}
    cfg = parse_config_dict(data)
    rows = run(cfg)["summary"]["rows"]
    assert [(r["window_size"], r["n"]) for r in rows] == [(2, 3), (3, 3), (4, 3)]
    spec = harness.ensemble_spec_from_config(cfg)
    sub = scaling_sub_spec(spec, 4)
    assert sub.bc_prime == uniform_fixed_bc(+1)
    assert all(r["variance"] > 0.0 for r in rows)


def test_oracle_verify_records_carry_geometry_bc_beta_and_replicate(tmp_path):
    data = base_config(tmp_path, kind="oracle-verify")
    data["geometry"] = {"geometries": [[2, 2], [2, 3]]}
    data["physics"] = {"betas": [0.5, 1.0]}
    data["sampling"] = {"n": 2}
    run(parse_config_dict(data))
    seeds = _record_seeds(tmp_path)
    assert len(seeds) == 2 * 4 * 2 * 2
    task = 0
    for geometry in ([2, 2], [2, 3]):
        for bc in harness.ORACLE_BC_NAMES:
            for beta in (0.5, 1.0):
                for replicate in range(2):
                    assert seeds[task] == {
                        "master": 42, "geometry": geometry, "bc": bc, "beta": beta,
                        "replicate": replicate, "realization": task,
                    }
                    task += 1


def test_oracle_verify_unsupported_width_is_clean(tmp_path):
    data = base_config(tmp_path, kind="oracle-verify")
    data["geometry"] = {"geometries": [[3, 3]]}
    data["sampling"] = {"n": 2}
    data["solver"] = {"transfer_width_cap": 2}
    cfg = parse_config_dict(data)
    report = run(cfg)
    assert report["summary"]["unsupported"] == report["summary"]["instances"]
    assert report["summary"]["checked"] == 0
    assert report["summary"]["passed"]


def test_oracle_verify_beta_zero_deviations_tiny(tmp_path):
    data = base_config(tmp_path, kind="oracle-verify")
    data["geometry"] = {"geometries": [[2, 2], [3, 2]]}
    data["physics"] = {"betas": [0.0]}
    data["sampling"] = {"n": 2}
    cfg = parse_config_dict(data)
    report = run(cfg)
    assert report["summary"]["max_logz_deviation"] <= 1e-12


def test_task_counts(tmp_path):
    cfg = parse_config_dict(
        base_config(tmp_path, kind="bounds", physics={"betas": [0.5, 1.0]}, sampling={"n": 3})
    )
    assert len(task_coordinates(cfg)) == 6
    cfg2 = parse_config_dict(
        base_config(tmp_path, kind="scaling",
                    geometry={"window_sizes": [2, 3, 4]}, sampling={"n": 4})
    )
    assert len(task_coordinates(cfg2)) == 12


def test_domain_wall_run(tmp_path):
    data = base_config(tmp_path, kind="domain-wall", sampling={"n": 3})
    data["geometry"] = {"box": [4, 4], "window": [4, 4]}
    cfg = parse_config_dict(data)
    report = run(cfg)
    assert report["summary"]["count"] == 3
    assert "variance" in report["summary"]


@pytest.mark.parametrize("seam", [0, 1])
def test_domain_wall_run_uses_the_configured_seam_axis(tmp_path, seam):
    cfg = parse_config_dict(_domain_wall_config(tmp_path, [seam], box=(3, 4)))
    values = run(cfg)["summary"]["values"]
    spec = harness.ensemble_spec_from_config(cfg)
    assert spec.seam_axis == seam
    assert spec.bc_prime.label == f"antiperiodic[seam={seam}]"
    region = Region((3, 4), (True, True))
    for i, value in enumerate(values):
        couplings = spec.master(i)
        assert value == domain_wall(couplings, region, 1.0, seam_axis=seam)
        enum = domain_wall(couplings, region, 1.0, seam_axis=seam, method="enum")
        assert abs(value - enum) <= 1e-9
        other = domain_wall(couplings, region, 1.0, seam_axis=1 - seam)
        assert abs(value - other) > 1e-6


@pytest.mark.parametrize("physics", [
    {"bc": "free", "bc_prime": "periodic"},
    {"bc": "periodic", "bc_prime": "antiperiodic", "seam_axes": [0, 1]},
])
def test_a_spec_whose_bc_prime_has_not_one_seam_has_no_seam_axis(tmp_path, physics):
    # a domain-wall config's spec has one (test_domain_wall_run_uses_the_configured_seam_axis)
    spec = harness.ensemble_spec_from_config(
        parse_config_dict(base_config(tmp_path, kind="fe", physics=physics))
    )
    with pytest.raises(UnsupportedOperationError, match="no one seam axis"):
        spec.seam_axis


# --- CSV reports --------------------------------------------------------------------


def test_csv_report_for_ensemble(tmp_path):
    cfg = parse_config_dict(base_config(tmp_path, sampling={"n": 4, "bootstrap": 50}))
    report = run(cfg)
    paths = write_csv_reports(report, tmp_path / "csv")
    names = {p.rsplit("/", 1)[-1] for p in paths}
    assert names == {"ensemble_values.csv", "ensemble_summary.csv"}
    header = (tmp_path / "csv" / "ensemble_summary.csv").read_text().splitlines()[0]
    assert header == "n,f_mean,f_mean_stderr,f_variance,f_variance_stderr"


def test_csv_report_for_scaling(tmp_path):
    data = base_config(
        tmp_path, kind="scaling",
        geometry={"window_sizes": [2, 3, 4]}, sampling={"n": 8, "bootstrap": 50},
    )
    cfg = parse_config_dict(data)
    report = run(cfg)
    paths = write_csv_reports(report, tmp_path / "csv")
    points = (tmp_path / "csv" / "scaling_points.csv").read_text().splitlines()
    assert len(points) == 4  # header + three sizes
    fit = (tmp_path / "csv" / "scaling_fit.csv").read_text().splitlines()
    assert fit[0].startswith("predictor,exponent,ci95_lo,ci95_hi")
    assert len(fit) == 3


@pytest.mark.parametrize("seed, kept", [(1, [0, 1]), (2, [0, 0]), (3, [0, 1]), (4, [0, 0])])
def test_a_scaling_fit_with_fewer_than_two_resampled_fits_has_no_ci(
    tmp_path, monkeypatch, seed, kept
):
    # at n 2 a resample repeats one draw half the time, and its variance 0
    # has no log; the CI of no fit was [NaN, NaN], which failed the run after
    # every task, and the CI of one fit was a zero-width [s, s]
    data = json.loads((GOLDEN / "scaling" / "config.json").read_text())
    data["seed"] = seed
    data["sampling"].update(n=2, bootstrap=2)
    monkeypatch.chdir(tmp_path)
    report = run(parse_config_dict(data), workers=1)
    json.loads((tmp_path / "report.json").read_text(), parse_constant=_refuse)
    fits = report["summary"]["fits"]
    assert [fits[name]["bootstrap_fits"] for name in sorted(fits, reverse=True)] == kept
    assert all(fit["ci95"] is None for fit in fits.values())
    write_csv_reports(report, "csv")
    rows = (tmp_path / "csv" / "scaling_fit.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:4] for row in rows] == [["", ""], ["", ""]]


def test_csv_report_for_bounds(tmp_path):
    data = base_config(tmp_path, kind="bounds",
                       physics={"betas": [0.5, 1.0]}, sampling={"n": 3})
    cfg = parse_config_dict(data)
    report = run(cfg)
    assert report["summary"]["min_slack"] >= 0.0
    paths = write_csv_reports(report, tmp_path / "csv")
    slack_lines = (tmp_path / "csv" / "bounds_slack.csv").read_text().splitlines()
    assert len(slack_lines) == 7
    assert all(float(l.split(",")[4]) >= 0.0 for l in slack_lines[1:])


def test_csv_report_requires_summary():
    with pytest.raises(IncompleteRunError):
        write_csv_reports({"kind": "ensemble", "summary": {}}, "/tmp/nowhere")


def test_empty_values_rejected(tmp_path):
    with pytest.raises(IncompleteRunError):
        write_csv_reports({"kind": "ensemble", "summary": {"values": []}}, tmp_path)


@pytest.mark.parametrize("report", [
    {"summary": {"values": [1.0]}},
    {"kind": "frobnicate", "summary": {"values": [1.0]}},
    {"kind": None, "summary": {"values": [1.0]}},
    {"kind": "scaling", "summary": {"values": [1.0]}},
])
def test_csv_report_of_unknown_kind_or_summary_is_incomplete(tmp_path, report):
    with pytest.raises(IncompleteRunError):
        write_csv_reports(report, tmp_path)


def test_readme_csv_table_matches_the_emitted_headers(tmp_path, monkeypatch):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## CSV summaries")[1].split("\n## ")[0]
    documented = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) > 3 and cells[1].startswith("`"):
            header = cells[2].split("`")[1]
            for name in cells[1].replace("`", "").split(","):
                documented[name.strip()] = header
    emitted = {}
    monkeypatch.chdir(tmp_path)
    golden = Path(__file__).parent / "golden"
    for kind in KINDS:
        report = json.loads((golden / kind / "report.json").read_text())
        for path in write_csv_reports(report, kind):
            emitted[Path(path).name] = Path(path).read_text().splitlines()[0]
    assert documented == emitted


# --- CLI -------------------------------------------------------------------------------


def test_cli_subcommands_are_the_kind_table_and_report():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == [*harness.KIND_TABLE, "report"]


def test_cli_runs_experiment_and_report(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(base_config(tmp_path, sampling={"n": 3, "bootstrap": 50})))
    assert main(["ensemble", "-c", str(config_path)]) == 0
    assert (tmp_path / "report.json").exists()
    assert main(["report", "--report", str(tmp_path / "report.json"),
                 "--out-dir", str(tmp_path / "csv")]) == 0
    out = capsys.readouterr().out
    assert "ensemble_summary.csv" in out


def test_cli_report_writes_to_the_reports_csv_dir_by_default(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(base_config(tmp_path, sampling={"n": 3, "bootstrap": 50})))
    assert main(["ensemble", "-c", str(config_path)]) == 0
    assert main(["report", "--report", str(tmp_path / "report.json")]) == 0
    assert (tmp_path / "csv" / "ensemble_summary.csv").exists()
    # a report without a config names no directory
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"kind": "ensemble", "summary": {"values": [1.0, 2.0]}}))
    assert main(["report", "--report", str(bare)]) == 2
    assert "csv_dir" in capsys.readouterr().err


def test_cli_flag_overrides(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(base_config(tmp_path, sampling={"n": 3, "bootstrap": 50})))
    rec2 = tmp_path / "r2.jsonl"
    rep2 = tmp_path / "p2.json"
    assert main([
        "ensemble", "-c", str(config_path), "--seed", "7", "--n", "4",
        "--records", str(rec2), "--report", str(rep2),
    ]) == 0
    report = report_from_file(rep2)
    assert report["config"]["seed"] == 7
    assert report["config"]["sampling"]["n"] == 4


@pytest.mark.parametrize("kind", ["bounds", "oracle-verify"])
def test_cli_beta_runs_every_task_at_that_beta(tmp_path, kind):
    # --beta used to leave physics.betas in force: the report said beta 3
    # while every task ran at 0.5 or 1
    data = base_config(tmp_path, kind=kind, physics={"betas": [0.5, 1.0]}, sampling={"n": 2})
    if kind == "oracle-verify":
        data["geometry"] = {"geometries": [[2, 2]]}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(data))
    assert main([kind, "-c", str(config_path), "--beta", "3.0"]) == 0
    physics = report_from_file(tmp_path / "report.json")["config"]["physics"]
    assert (physics["beta"], physics["betas"]) == (3.0, [])
    lines = (tmp_path / "records.jsonl").read_text().splitlines()[1:]
    tasks = 2 if kind == "bounds" else 2 * len(harness.ORACLE_BC_NAMES)
    assert [json.loads(line)["payload"]["beta"] for line in lines] == [3.0] * tasks


def test_cli_requires_seed(tmp_path, capsys):
    data = base_config(tmp_path)
    data["seed"] = None
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(data))
    assert main(["ensemble", "-c", str(config_path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_subcommand_overrides_config_kind(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(
        json.dumps(base_config(tmp_path, kind="fe", sampling={"n": 2, "bootstrap": 50}))
    )
    # invoking the ensemble subcommand on an fe config re-kinds the run
    assert main(["ensemble", "-c", str(config_path)]) == 0
    assert report_from_file(tmp_path / "report.json")["kind"] == "ensemble"


BAD_CONFIG_FILES = {
    "missing": None,
    "malformed": '{"schema_version": 1, "kind": ',
    "list": "[1, 2]",
}


@pytest.mark.parametrize("case", BAD_CONFIG_FILES)
def test_unreadable_config_file_is_a_config_error(tmp_path, case):
    path = tmp_path / "cfg.json"
    if BAD_CONFIG_FILES[case] is not None:
        path.write_text(BAD_CONFIG_FILES[case])
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("case", BAD_CONFIG_FILES)
def test_cli_reports_an_unreadable_config_file(tmp_path, capsys, case):
    path = tmp_path / "cfg.json"
    if BAD_CONFIG_FILES[case] is not None:
        path.write_text(BAD_CONFIG_FILES[case])
    assert main(["fe", "-c", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("section, body", [("geometry", 5), ("geometry", [1]), ("physics", "x")])
def test_config_section_that_is_not_an_object_is_a_config_error(tmp_path, section, body):
    with pytest.raises(ConfigError, match=f"section '{section}' must be an object"):
        parse_config_dict(base_config(tmp_path, **{section: body}))


@pytest.mark.parametrize("text", ['{"kind": "fe", ', "[1, 2]", None])
def test_unreadable_report_is_an_incomplete_run_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    if text is not None:  # None: no file at all
        path.write_text(text)
    with pytest.raises(IncompleteRunError):
        report_from_file(path)
    assert main(["report", "--report", str(path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _fe_golden_under(tmp_path, **output):
    """The ``fe`` golden config with its outputs in ``tmp_path``, then
    ``output`` on top, written to ``tmp_path/cfg.json``; ``afile`` there is a
    regular file."""
    (tmp_path / "afile").write_text("not a directory\n")
    data = json.loads((GOLDEN / "fe" / "config.json").read_text())
    data["output"] = {name: str(tmp_path / path) for name, path in {
        "records": "records.jsonl", "report": "report.json", "csv_dir": "csv", **output,
    }.items()}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(data))
    return config_path


@pytest.mark.parametrize("name, path", [
    ("report", "afile/report.json"),
    ("records", "afile/records.jsonl"),
    ("csv_dir", "afile/csv"),
    ("csv_dir", "afile"),
])
def test_an_output_path_under_a_file_is_refused_at_parse(tmp_path, capsys, name, path):
    # the report's case ran every task and wrote the records, then raised a
    # raw FileExistsError; the records' case raised it before the first task
    config_path = _fe_golden_under(tmp_path, **{name: path})
    with pytest.raises(ConfigError, match=f"output {name}"):
        load_config(config_path)
    assert main(["fe", "-c", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: output {name}")
    assert not (tmp_path / "records.jsonl").exists()
    assert (tmp_path / "afile").read_text() == "not a directory\n"


@pytest.mark.parametrize("out_dir", ["afile", "afile/sub", "taken"])
def test_a_csv_directory_under_a_file_is_refused_by_the_cli(tmp_path, capsys, out_dir):
    # these raised a raw FileExistsError, NotADirectoryError and IsADirectoryError
    config_path = _fe_golden_under(tmp_path)
    (tmp_path / "taken" / "fe_values.csv").mkdir(parents=True)
    assert main(["fe", "-c", str(config_path)]) == 0
    report = str(tmp_path / "report.json")
    assert main(["report", "--report", report, "--out-dir", str(tmp_path / out_dir)]) == 2
    assert "cannot write the CSV files to" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "not a directory\n"
    assert not (tmp_path / "csv").exists()


def test_config_digest_stable(tmp_path):
    cfg = parse_config_dict(base_config(tmp_path))
    assert config_digest(cfg) == config_digest(parse_config_dict(config_to_dict(cfg)))


@pytest.mark.parametrize("raw", ["abc", "2.0", "", "0", "-3"])
def test_a_bad_worker_count_in_the_environment_is_a_config_error(tmp_path, monkeypatch,
                                                                   capsys, raw):
    data = base_config(tmp_path, sampling={"n": 4, "bootstrap": 50})
    monkeypatch.setenv("EAFLUCT_WORKERS", raw)
    with pytest.raises(ConfigError, match="EAFLUCT_WORKERS|worker count"):
        run(parse_config_dict(data))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    assert main(["ensemble", "-c", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "records.jsonl").exists()


@pytest.mark.parametrize("workers", [0, -3, 1.5, "2", True])
def test_a_bad_worker_count_argument_is_a_config_error(tmp_path, workers):
    cfg = parse_config_dict(base_config(tmp_path, sampling={"n": 4, "bootstrap": 50}))
    with pytest.raises(ConfigError, match="worker count"):
        run(cfg, workers=workers)


def test_a_one_worker_run_imports_no_pool_and_no_masked_arrays(tmp_path):
    # the process pool is imported only for two or more workers, and the
    # bootstrap's percentiles do not go through np.quantile
    data = base_config(tmp_path, kind="probe", sampling={"n": 4, "bootstrap": 20})
    script = (
        "import json, sys\n"
        "from eafluct import harness\n"
        "harness.run(harness.parse_config_dict(json.loads(sys.argv[1])), workers=1)\n"
        "names = ('multiprocessing', 'concurrent.futures.process', 'numpy.ma')\n"
        "print(json.dumps([name for name in names if name in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(data)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
    assert json.loads((tmp_path / "report.json").read_text())["kind"] == "probe"


def test_worker_count_env_var(tmp_path, monkeypatch):
    cfg = parse_config_dict(base_config(tmp_path, sampling={"n": 4, "bootstrap": 50}))
    monkeypatch.setenv("EAFLUCT_WORKERS", "2")
    run(cfg)
    first = (tmp_path / "report.json").read_bytes()
    (tmp_path / "records.jsonl").unlink()
    monkeypatch.setenv("EAFLUCT_WORKERS", "1")
    run(cfg)
    assert (tmp_path / "report.json").read_bytes() == first
