"""The names the package exports, pinned: adding or removing one is a
deliberate change of this list, and a removal is noted in CHANGES.md."""

import ast
from pathlib import Path

import eafluct

EXPORTS = {
    "disorder": {
        "ZERO", "CouplingConfig", "Gaussian", "SeedSpec", "Uniform", "sample_couplings",
        "set_block", "translate_couplings",
    },
    "errors": {"TaskError"},
    "exactsolve": {
        "BoundaryCondition", "GibbsSpec", "Solver", "antiperiodic_bc", "edge_correlation",
        "edge_correlations", "free_bc", "gibbs_expectation_enum", "log_partition",
        "log_partition_enum", "log_partition_pairs", "log_partition_transfer", "periodic_bc",
        "reweight", "reweight_expectation", "uniform_fixed_bc",
    },
    "fluctuation": {
        "BlockConditioning", "EnsembleSpec", "VarianceReport", "bound_check",
        "conditional_mean_given_block",
    },
    "interface": {
        "FreeEnergyResult", "StatePair", "free_energy_gradient", "interface_free_energy",
        "interface_free_energy_direct", "make_state_pair", "sample_master",
    },
    "lattice": {
        "BlockPartition", "Edge", "EdgeSet", "Region", "block_partition", "boundary_edges",
        "centered_window", "interior_edges",
    },
}


def test_init_imports_exactly_the_pinned_names():
    tree = ast.parse(Path(eafluct.__file__).read_text(encoding="utf-8"))
    imported: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
    assert imported == EXPORTS
    assert sum(map(len, EXPORTS.values())) == 45
    for names in EXPORTS.values():
        assert all(hasattr(eafluct, name) for name in names)
