"""The package ships the solver only; the test oracles live in tests/_oracles.py."""

import importlib
import inspect
import pkgutil

import otsolve


def test_only_the_solver_is_exported():
    names = sorted(n for n, v in vars(otsolve).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert names == [
        "CostMatrix", "FIXED_BETA", "GridImage", "InstanceError", "InstanceFormatError",
        "Iterate", "Marginal", "OTProblem", "RestartRecord", "SinkhornConfig", "SolveReport",
        "SolverConfig", "apply_A", "apply_At", "default_stepsize", "geomean_gap", "grid_cost",
        "grid_problem", "kkt_error", "load_instance", "marginal_from_image", "pdhg_step",
        "primal_weight_update", "round_to_feasible", "run_bench", "save_instance", "sgm10",
        "should_restart", "sinkhorn_solve", "solve", "stepsize_bound", "synth_instance",
    ]
    for info in pkgutil.iter_modules(otsolve.__path__):
        module = importlib.import_module(f"otsolve.{info.name}")
        for oracle in ("materialize_A", "exact_oracle", "partition_and_delta"):
            assert not hasattr(module, oracle), f"otsolve.{info.name}.{oracle}"
