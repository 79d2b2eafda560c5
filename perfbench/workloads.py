"""The benchmark's workloads: which problems are built and how each is solved.

Every workload solves a fixed problem set. The instances of the grid
workloads are the acceptance suite at grid seed 11, and the 5x5 problems of
``pdot-tiny`` come from seed 11 too. The benchmark's ``--seed`` only sets the
order in which each pass hands the problems to the solver. The adaptive
solver's iteration counts are chaotic under any perturbation of an instance,
and random 5x5 sets have a heavy tail, so problems drawn from the run seed
would make run-to-run spreads reflect the draw, not the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import otsolve
import otsolve.instance

INSTANCE_SEED = 11
TINY_COUNT = 25
TINY_SIZE = 5
TINY_MARGIN = 0.2


@dataclass(frozen=True)
class Case:
    """One problem of a workload and the solver call it gets."""

    label: str
    method: str  # "pdot" or "sinkhorn"
    options: dict
    grid: tuple | None = None  # (class, resolution, norm) for grid instances

    def config(self, time_limit_s: float):
        if self.method == "pdot":
            return otsolve.SolverConfig(time_limit_s=time_limit_s, **self.options)
        return otsolve.SinkhornConfig(time_limit_s=time_limit_s, **self.options)

    def plan_bytes(self) -> int:
        if self.grid is None:
            return TINY_SIZE * TINY_SIZE * 8
        return (self.grid[1] ** 2) ** 2 * 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple
    time_limit_s: float  # per solve; a solve over it fails and counts at the limit
    rel_err_tol: float  # allowed (rounded objective - optimum) / optimum
    # Per-call self times (us) from the ROADMAP re-anchor, printed beside the
    # traced figures so the two can be compared by eye.
    anchor_us: dict = field(default_factory=dict)

    def build(self) -> list:
        """Build the workload's problems; this is what ``setup_s`` times."""
        if self.cases[0].grid is None:
            return tiny_problems()
        return [
            otsolve.instance.grid_problem(kind, r, norm, seed=INSTANCE_SEED)
            for kind, r, norm in (c.grid for c in self.cases)
        ]


def tiny_problems() -> list:
    """Random 5x5 problems, drawn as tests/_helpers.random_problem draws them."""
    rng = np.random.default_rng(INSTANCE_SEED)
    out = []
    for _ in range(TINY_COUNT):
        C = rng.random((TINY_SIZE, TINY_SIZE))
        f = rng.random(TINY_SIZE) + TINY_MARGIN
        g = rng.random(TINY_SIZE) + TINY_MARGIN
        out.append(
            otsolve.OTProblem(otsolve.CostMatrix(C), otsolve.Marginal(f), otsolve.Marginal(g))
        )
    return out


def _grid_case(kind: str, r: int, norm: str, method: str, **options) -> Case:
    return Case(f"{kind}-{norm}-r{r}", method, options, (kind, r, norm))


_FIXED = {"tol": 1e-9, "restart_mode": "fixed", "beta": 0.5}

# Tolerances, penalties and the 5x5 count keep each pass short enough that
# every problem gets several solves in a 30 s run, since a problem's time is
# a percentile of its solves (run.problem_seconds).

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pdot-grid16",
            why="six 16x16 acceptance instances, adaptive PDHG at tol 1e-5; "
            "the 512 KB plan fits in L2, so the O(mn) passes per iteration dominate",
            cases=tuple(
                _grid_case(kind, 16, norm, "pdot", tol=1e-5)
                for kind in ("shapes", "cauchy_like")
                for norm in ("l1", "l2", "linf")
            ),
            time_limit_s=20.0,
            rel_err_tol=5e-3,
            anchor_us={"pdhg_step": 440.0, "stepsize_bound": 210.0, "kkt_error": 370.0,
                       "loop": 300.0},
        ),
        Workload(
            name="pdot-grid32",
            why="shapes l1 at 32x32, adaptive PDHG at tol 1e-3; "
            "the 8 MB plan spills out of L2, so memory passes and workspaces show",
            cases=(_grid_case("shapes", 32, "l1", "pdot", tol=1e-3),),
            time_limit_s=60.0,
            rel_err_tol=1e-2,
        ),
        Workload(
            name="sinkhorn-grid16",
            why="log-domain Sinkhorn: cauchy_like l1 at penalty 0.05 (exp/logsumexp bound) "
            "and shapes l2/linf at 0.003 (per-iteration overhead bound)",
            cases=(
                _grid_case("cauchy_like", 16, "l1", "sinkhorn", penalty=0.05, tol=1e-4),
                _grid_case("shapes", 16, "l2", "sinkhorn", penalty=0.003, tol=1e-4),
                _grid_case("shapes", 16, "linf", "sinkhorn", penalty=0.003, tol=1e-4),
            ),
            time_limit_s=45.0,
            rel_err_tol=0.1,
        ),
        Workload(
            name="pdot-tiny",
            why="25 random 5x5 problems, fixed-restart PDHG at tol 1e-9; "
            "Python overhead per iteration and per restart dominates, no line search",
            cases=tuple(
                Case(f"tiny{INSTANCE_SEED}-{i:03d}", "pdot", dict(_FIXED))
                for i in range(TINY_COUNT)
            ),
            time_limit_s=1.5,
            rel_err_tol=1e-6,
        ),
    )
}

