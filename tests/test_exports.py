"""The names the package exports, pinned: adding or removing one is a
deliberate change of this list, and a removal is noted in CHANGES.md.  And
every public definition of the package, down to the methods and properties
of its public classes, is reached by the package itself or by the benchmark,
so nothing in ``src/`` is there for the tests alone."""

import ast
import re
from pathlib import Path

import eafluct

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = {
    "disorder": {
        "ZERO", "CouplingConfig", "Gaussian", "SeedSpec", "Uniform", "sample_couplings",
        "set_block", "translate_couplings",
    },
    "errors": {"TaskError"},
    "exactsolve": {
        "BoundaryCondition", "GibbsSpec", "Solver", "antiperiodic_bc", "edge_correlation",
        "edge_correlations", "free_bc", "log_partition", "log_partition_enum",
        "log_partition_pairs", "log_partition_transfer", "periodic_bc", "reweight",
        "reweight_expectation", "uniform_fixed_bc",
    },
    "fluctuation": {
        "BlockConditioning", "EnsembleSpec", "VarianceReport", "bound_check",
    },
    "interface": {
        "FreeEnergyResult", "StatePair", "interface_free_energy", "make_state_pair",
        "sample_master",
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
    assert sum(map(len, EXPORTS.values())) == 41
    for names in EXPORTS.values():
        assert all(hasattr(eafluct, name) for name in names)


def _public_definitions(path, tree):
    """``(name, node)`` of each top-level public function and class of a
    module, and of each public method and property of its public classes."""
    for d in tree.body:
        if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_"):
            yield f"{path.stem}.{d.name}", d
            if isinstance(d, ast.ClassDef):
                for m in d.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield f"{path.stem}.{d.name}.{m.name}", m


def test_every_public_definition_is_reached_by_the_package_or_the_benchmark():
    # a definition counts as reached when a Name or Attribute node of src/
    # outside its own definition, or a word of the text of perfbench/*.py,
    # spells it; docstrings and __init__'s imports do not count
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in (ROOT / "src" / "eafluct").glob("*.py") if p.stem != "__init__"}
    bench = "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py"))
    spelled = [(path, node.lineno, getattr(node, "id", getattr(node, "attr", None)))
               for path, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, (ast.Name, ast.Attribute))]
    unreached = [
        name
        for path, tree in trees.items() for name, d in _public_definitions(path, tree)
        if not any(spelling == d.name and not (p == path and d.lineno <= line <= d.end_lineno)
                   for p, line, spelling in spelled)
        and not re.search(rf"\b{d.name}\b", bench)
    ]
    assert unreached == []
