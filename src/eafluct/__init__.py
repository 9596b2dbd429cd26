"""Finite-volume laboratory for interface free energies in the
Edwards-Anderson Ising spin glass: exact solvers, reproducible disorder
ensembles, and a fluctuation-analysis suite."""

__version__ = "0.1.0"

from .disorder import (  # noqa: E402
    ZERO,
    CouplingConfig,
    Gaussian,
    SeedSpec,
    Uniform,
    sample_couplings,
    set_block,
    translate_couplings,
)
from .errors import TaskError  # noqa: E402
from .exactsolve import (  # noqa: E402
    BoundaryCondition,
    GibbsSpec,
    antiperiodic_bc,
    edge_correlation,
    edge_correlations,
    energy,
    fixed_bc,
    free_bc,
    gibbs_expectation_enum,
    log_partition,
    log_partition_enum,
    log_partition_pairs,
    log_partition_transfer,
    periodic_bc,
    reweight,
    reweight_expectation,
    uniform_fixed_bc,
)
from .fluctuation import (  # noqa: E402
    BlockConditioning,
    EnsembleSpec,
    VarianceReport,
    bound_check,
    conditional_mean_given_block,
    lindeberg_diagnostic,
)
from .interface import (  # noqa: E402
    FreeEnergyResult,
    StatePair,
    domain_wall_free_energy,
    free_energy_gradient,
    interface_free_energy,
    interface_free_energy_direct,
    make_state_pair,
    sample_master,
)
from .lattice import (  # noqa: E402
    BlockPartition,
    Edge,
    EdgeSet,
    Region,
    block_partition,
    boundary_edges,
    centered_window,
    interior_edges,
)
