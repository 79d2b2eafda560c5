"""Matrix-free restarted primal-dual solver for discrete optimal transport."""

from .instance import (
    CostMatrix,
    InstanceError,
    InstanceFormatError,
    Marginal,
    OTProblem,
    grid_cost,
    grid_problem,
    load_instance,
    save_instance,
    synth_instance,
)
from .kkt import Iterate, kkt_error
from .rounding import round_to_feasible
from .pdhg import RestartRecord, SolverConfig, solve
from .sinkhorn import SinkhornConfig, sinkhorn_solve
from .reports import SolveReport
from .bench import geomean_gap, run_bench, sgm10

__version__ = "0.1.0"
