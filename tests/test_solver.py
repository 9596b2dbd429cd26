"""The one engine-choice rule: :class:`~eafluct.exactsolve.Solver` checks
itself at construction, every entry that chooses an engine refuses a box
beyond its engine's cap with the same words, and no public signature
threads the method and the two caps on its own."""

import dataclasses
import inspect

import numpy as np
import pytest

from eafluct import exactsolve, fluctuation, interface
from eafluct.disorder import Gaussian
from eafluct.errors import ConfigError, SizeCapError
from eafluct.exactsolve import (
    Solver,
    edge_correlations,
    free_bc,
    log_partition,
    log_partition_pairs,
    periodic_bc,
)
from eafluct.fluctuation import EnsembleSpec, bound_check
from eafluct.interface import interface_free_energy
from eafluct.lattice import Region


@pytest.mark.parametrize("kwargs, match", [
    ({"method": "exact"}, "unknown solver method 'exact'"),
    ({"method": "Auto"}, "unknown solver method"),
    ({"enum_cap": 0}, "solver caps must be positive integers, got enum_cap=0"),
    ({"width_cap": -3}, "solver caps must be positive integers, got width_cap=-3"),
    ({"width_cap": True}, "got width_cap=True"),
    ({"enum_cap": 12.0}, "got enum_cap=12.0"),
])
def test_a_solver_is_checked_at_construction(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        Solver(**kwargs)


def test_a_replaced_solver_is_checked_again():
    with pytest.raises(ConfigError, match="unknown solver method"):
        dataclasses.replace(Solver(), method="exact")


def test_the_engine_rule():
    strip, cube = Region((3, 13)), Region((2, 2, 2))
    assert Solver().engine(strip) == "transfer"
    assert Solver(enum_cap=39, width_cap=2).engine(strip) == "enum"
    assert Solver("enum", enum_cap=39).engine(strip) == "enum"
    assert Solver().engine(cube) == Solver("enum", enum_cap=8).engine(cube) == "enum"
    assert Solver("transfer", width_cap=3).engine(strip) == "transfer"
    with pytest.raises(SizeCapError, match="box \\[2, 2, 2\\] does not fit the transfer"):
        Solver("transfer").engine(cube)
    with pytest.raises(SizeCapError, match="its 39 spins exceed the enum engine's cap 24"):
        Solver(width_cap=2).engine(strip)


# (solver, box, window, the refusal): a box one spin past enum_cap under
# enumeration, and a 3x13 box under a transfer of width 2
PAST_A_CAP = [
    (Solver("enum", enum_cap=11), (3, 4), (1, 2),
     "box [3, 4] has more sites than enum_cap: its 12 spins exceed the enum engine's cap 11"),
    (Solver("transfer", width_cap=2), (3, 13), (1, 11),
     "box [3, 13] does not fit the transfer engine's cap: it needs a 2-d box with an axis "
     "of at most width_cap 2"),
]


@pytest.mark.parametrize("solver, box, window, text", PAST_A_CAP)
def test_every_entry_refuses_a_box_beyond_its_cap_in_the_same_words(solver, box, window, text):
    spec = EnsembleSpec(Gaussian(), box, window, 1.0, free_bc(), periodic_bc(), 5,
                        solver=solver)
    master = spec.master(0)
    pair = spec.pair_from(master)
    g, gp = pair.gamma, pair.gamma_prime
    stacks = (g.couplings.values[None], gp.couplings.values[None])
    entries = {
        "log_partition": lambda: log_partition(g, solver),
        "log_partition_pairs": lambda: log_partition_pairs(g, gp, *stacks, solver),
        "edge_correlations": lambda: edge_correlations(g, pair.window_edges, solver),
        "interface_free_energy": lambda: interface_free_energy(pair, solver),
        "bound_check": lambda: bound_check(pair, solver=solver),
        "EnsembleSpec.f_from": lambda: spec.f_from(master),
    }
    for name, call in entries.items():
        with pytest.raises(SizeCapError) as info:
            call()
        assert str(info.value) == text, name


def test_the_default_solver_solves_what_auto_did():
    spec = EnsembleSpec(Gaussian(), (4, 4), (2, 2), 1.0, free_bc(), periodic_bc(), 5)
    pair = spec.pair_from(spec.master(0))
    assert spec.solver == Solver() == Solver("auto", exactsolve.ENUM_CAP,
                                             exactsolve.TRANSFER_WIDTH_CAP)
    assert interface_free_energy(pair).solver == "transfer"
    by_enum = interface_free_energy(pair, Solver("enum"))
    assert by_enum.solver == "enum"
    assert np.isclose(by_enum.value, spec.f_from(spec.master(0)), rtol=0, atol=1e-10)


# The public names that still take a method or a cap of their own, and why:
# none of them chooses an engine from a loose triple.
THREADED = {"method", "enum_cap", "width_cap"}
KEPT = {
    # the value that carries the three
    (exactsolve, "Solver"): {"method", "enum_cap", "width_cap"},
    # read by signature by perfbench/tracer.py; each builds a Solver
    (exactsolve, "edge_correlation"): {"method", "enum_cap", "width_cap"},
    (exactsolve, "transfer_supported"): {"width_cap"},
    # the transfer kernel: it runs under the int cap it is given
    (exactsolve, "log_partition_transfer"): {"width_cap"},
    # the enumeration-only covariance check: no engine choice
    (fluctuation, "covariance_sample"): {"enum_cap"},
}


def _public_signatures(module):
    """``(name, parameter names)`` of each public function and class of
    ``module`` that it defines, and of each public method of those classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, set(inspect.signature(obj).parameters)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                yield name, {f.name for f in dataclasses.fields(obj)}
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", set(inspect.signature(member).parameters)


def test_no_public_signature_threads_the_solver_triple():
    seen = set()
    for module in (exactsolve, interface, fluctuation):
        for name, params in _public_signatures(module):
            kept = KEPT.get((module, name), set())
            assert not (params & THREADED) - kept, (module.__name__, name)
            if kept:
                assert kept <= params, (module.__name__, name)
                seen.add((module, name))
    assert seen == set(KEPT)
