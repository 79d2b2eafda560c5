"""Plan-sized passes split over threads: the same bytes for any worker count.

The ``split_passes`` fixture (conftest.py) splits every pass, however small
the plan, so that these tests run the threaded path on small problems.
"""

import importlib
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import otsolve
from otsolve import Iterate, SolverConfig, grid_problem, solve
from otsolve import _par
from otsolve.pdhg import ADAPTIVE, FIXED_BETA

from _helpers import load_perfbench, random_iterate, random_problem, solve_bytes


@pytest.mark.parametrize("mode", [ADAPTIVE, FIXED_BETA])
@pytest.mark.parametrize("m, n, fortran", [
    (6, 6, False),  # square
    (7, 4, False),
    (4, 9, False),
    (2, 9, False),  # fewer rows than workers
    (9, 3, False),  # too few columns for a range of two per worker
    (5, 8, True),   # a Fortran-ordered initial plan, which solve converts
])
def test_bytes_do_not_depend_on_workers(split_passes, mode, m, n, fortran):
    rng = np.random.default_rng(m * 10 + n)
    prob = random_problem(rng, m, n)
    initial = None
    if fortran:
        start = random_iterate(rng, m, n)
        initial = Iterate(np.asfortranarray(start.X), start.p, start.q)
    cfg = SolverConfig(tol=1e-9, restart_mode=mode, max_iters=300)
    split_passes(1)
    one = solve_bytes(prob, cfg, initial)
    assert len(one[1]) >= 3  # the start and at least two restarts
    for workers in (2, 3):
        split_passes(workers)
        assert solve_bytes(prob, cfg, initial) == one
        assert _par._pool is not None  # the passes did run on the pool


@pytest.mark.parametrize(
    "m, n", [(1, 1), (1, 9), (9, 1), (2, 5), (5, 2), (3, 7), (300, 17), (17, 300)]
)
@pytest.mark.parametrize("workers", [2, 3, 8])
def test_range_sums_have_the_bits_of_whole_sums(split_passes, m, n, workers):
    split_passes(workers)
    rng = np.random.default_rng(m * n)
    X = rng.standard_normal((m, n)) * np.exp(rng.uniform(-20.0, 20.0, (m, n)))
    rows, cols = _par.over_rows(None, m, sums_of=X)
    assert rows.tobytes() == X.sum(axis=1).tobytes()
    assert cols.tobytes() == X.sum(axis=0).tobytes()


def test_tasks_call_no_traced_name(split_passes, monkeypatch):
    # The benchmark's tracer keeps one span stack, so a traced function
    # called from a worker would corrupt it.
    callers = []
    for module_name, attr, _ in load_perfbench("spans").TRACED:
        module = importlib.import_module(module_name)

        def recorded(*args, _fn=getattr(module, attr), **kwargs):
            callers.append(threading.get_ident())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, recorded)
    split_passes(3)
    prob = random_problem(np.random.default_rng(5), 6, 7)
    solve(prob, SolverConfig(tol=1e-9, max_iters=200))
    assert _par._pool is not None
    assert len(callers) > 200 and set(callers) == {threading.get_ident()}


def test_small_solve_starts_no_thread(monkeypatch):
    monkeypatch.setattr(_par, "_pool", None)
    before = threading.active_count()
    prob = grid_problem("shapes", 16, "l1", seed=11)  # 65,536 plan entries
    solve(prob, SolverConfig(tol=1e-12, max_iters=20))
    assert threading.active_count() == before
    assert _par._pool is None


def test_small_solve_imports_no_pool_modules():
    # The pool's modules are imported with the pool: the set-up times of the
    # small benchmark workloads follow the heap layout that imports leave.
    code = ("import sys, otsolve\n"
            "prob = otsolve.grid_problem('shapes', 16, 'l1', seed=11)\n"
            "otsolve.solve(prob, otsolve.SolverConfig(tol=1e-12, max_iters=20))\n"
            "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
    src = Path(otsolve.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=300).stdout
    assert out.strip() == "[]"


def test_split_solve_starts_at_most_w_minus_one_threads(split_passes):
    split_passes(3)
    before = threading.active_count()
    prob = random_problem(np.random.default_rng(8), 6, 7)
    solve(prob, SolverConfig(tol=1e-9, max_iters=100))
    assert 1 <= threading.active_count() - before <= 2


@pytest.mark.parametrize("state", [{"all": "ignore"}, {"over": "raise"}], ids=["ignore", "raise"])
def test_tasks_see_the_callers_error_state(split_passes, state):
    split_passes(3)
    seen = []

    def record(a, b):
        seen.append((threading.get_ident(), np.geterr()))

    with np.errstate(**state):
        expected = np.geterr()
        _par.over_rows(record, 6)
    assert len(seen) == 3
    assert len({ident for ident, _ in seen}) > 1  # not all on the calling thread
    assert all(err == expected for _, err in seen)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_makes_its_own_pool(split_passes):
    split_passes(2)
    _par.over_rows(lambda a, b: None, 4)  # the pool now has an idle thread
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking a process with threads
        pid = os.fork()
    if pid == 0:  # the child: exit at once, whatever happens
        code = 1
        try:
            ranges = []
            _par.over_rows(lambda a, b: ranges.append(a), 4)
            code = 0 if sorted(ranges) == [0, 2] else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's pass never finished")
        time.sleep(0.01)
        done, status = os.waitpid(pid, os.WNOHANG)
    assert os.waitstatus_to_exitcode(status) == 0


def test_a_task_error_reaches_the_caller(split_passes):
    split_passes(3)
    big = np.full((6, 4), 1e300)
    big[2:] = 1.0  # only the first range, which a worker runs, overflows
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _par.over_rows(lambda a, b: np.multiply(big[a:b], big[a:b]), 6)
