"""Shared test utilities."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from otsolve import CostMatrix, Iterate, Marginal, OTProblem, solve


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    """The module ``perfbench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def make_problem(C, f, g) -> OTProblem:
    return OTProblem(CostMatrix(C), Marginal(f), Marginal(g))


def random_problem(rng: np.random.Generator, m: int, n: int, margin: float = 0.05) -> OTProblem:
    """Random instance with marginals bounded away from zero."""
    C = rng.random((m, n))
    f = rng.random(m) + margin
    g = rng.random(n) + margin
    return make_problem(C, f, g)


def random_iterate(rng: np.random.Generator, m: int, n: int) -> Iterate:
    return Iterate(rng.random((m, n)), rng.standard_normal(m), rng.standard_normal(n))


def two_by_two_optimal():
    """The swap-cost instance with optimum at half mass on each diagonal cell."""
    prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    it = Iterate(np.diag([0.5, 0.5]), np.zeros(2), np.zeros(2))
    return prob, it


def blocks(it: Iterate) -> list[bytes]:
    return [block.tobytes() for block in (it.X, it.p, it.q)]


def solve_bytes(prob, cfg, initial=None):
    """The bits of a solve: the returned iterate, every restart record and
    the report (wall time zeroed)."""
    records = []
    it, report = solve(prob, cfg, initial=initial, on_restart=records.append)
    report.wall_time_s = 0.0
    restarts = [(r.iteration, r.length, r.kkt, r.candidate, r.eta, r.omega, blocks(r.point))
                for r in records]
    return blocks(it), restarts, report.to_json()
