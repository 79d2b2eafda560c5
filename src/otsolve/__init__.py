"""Matrix-free restarted primal-dual solver for discrete optimal transport."""

from .instance import (
    CostMatrix,
    GridImage,
    InstanceError,
    InstanceFormatError,
    Marginal,
    OTProblem,
    grid_cost,
    grid_problem,
    load_instance,
    marginal_from_image,
    save_instance,
    synth_instance,
)
from .operator import (
    OTShape,
    apply_A,
    apply_At,
    materialize_A,
    operator_norm,
    power_iteration_norm,
)
from .kkt import Iterate, kkt_error
from .rounding import round_to_feasible, rounding_bound_check
from .pdhg import (
    FIXED_BETA,
    RestartRecord,
    SolverConfig,
    default_stepsize,
    pdhg_step,
    primal_weight_update,
    should_restart,
    solve,
    stepsize_bound,
)
from .sinkhorn import SinkhornConfig, sinkhorn_solve
from .theory import (
    check_identification,
    data_precision,
    partition_and_delta,
    tu_submatrix_check,
)
from .oracle import exact_oracle, optimal_basis_duals, spanning_tree_count
from .reports import SolveReport
from .bench import geomean_gap, run_bench, sgm10

__version__ = "0.1.0"
