"""The names and options the benchmark in perfbench/ relies on.

The benchmark's tracer wraps solver functions by module and name, and its
workloads pass solver options by keyword. A tracer target that no longer
resolves is reported as "absent" instead of failing, so these tests catch
a rename or removal before it silently empties a per-layer metric.
"""

from dataclasses import fields
from functools import reduce

import pytest

import otsolve

from _helpers import load_perfbench as load


@pytest.mark.parametrize("module, attr, span", load("spans").TRACED)
def test_traced_function_resolves(module, attr, span):
    # walk from the package, since the benchmark reaches submodules as attributes
    parts = module.split(".")
    assert parts[0] == "otsolve"
    owner = reduce(getattr, parts[1:], otsolve)
    assert callable(getattr(owner, attr, None)), f"{span}: {module}.{attr} is gone"


@pytest.mark.parametrize("submodule", ["bench", "instance", "rounding"])
def test_submodule_loaded_by_package_import(submodule):
    assert hasattr(otsolve, submodule)


def test_workload_options_are_config_fields():
    allowed = {
        "pdot": {f.name for f in fields(otsolve.SolverConfig)},
        "sinkhorn": {f.name for f in fields(otsolve.SinkhornConfig)},
    }
    for workload in load("workloads").WORKLOADS.values():
        for case in workload.cases:
            unknown = set(case.options) - allowed[case.method]
            assert not unknown, f"{workload.name}/{case.label}: {sorted(unknown)}"
            case.config(workload.time_limit_s)
