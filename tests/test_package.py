"""The package ships the solver only; the test oracles live in tests/_oracles.py.

The solver's internals stay in their modules, where the tests and the
benchmark's tracer reach them, and are not exported.
"""

import importlib
import inspect
import pkgutil

import otsolve


def test_only_the_solver_is_exported():
    names = sorted(n for n, v in vars(otsolve).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert names == [
        "CostMatrix", "InstanceError", "InstanceFormatError", "Iterate", "Marginal",
        "OTProblem", "RestartRecord", "SinkhornConfig", "SolveReport", "SolverConfig",
        "geomean_gap", "grid_cost", "grid_problem", "kkt_error", "load_instance",
        "round_to_feasible", "run_bench", "save_instance", "sgm10", "sinkhorn_solve",
        "solve", "synth_instance",
    ]
    for info in pkgutil.iter_modules(otsolve.__path__):
        module = importlib.import_module(f"otsolve.{info.name}")
        for gone in ("materialize_A", "exact_oracle", "partition_and_delta",
                     "GridImage", "marginal_from_image"):
            assert not hasattr(module, gone), f"otsolve.{info.name}.{gone}"
