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
from .operator import apply_A, apply_At
from .kkt import Iterate, kkt_error
from .rounding import round_to_feasible
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
from .reports import SolveReport
from .bench import geomean_gap, run_bench, sgm10

__version__ = "0.1.0"
