"""Solve reports, the one builder both solvers use, and JSON round-trip."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .instance import OTProblem


@dataclass
class SolveReport:
    """Per-solve benchmark record.

    ``final_relative_kkt`` stores the solver's own termination metric: the
    relative KKT error for the primal-dual solver, the l1 primal feasibility
    for the Sinkhorn baseline. ``rounded_objective`` and ``duality_gap`` are
    always evaluated on the exactly feasible rounded plan. ``wall_time_s`` is
    the measured time up to rounding; the CLI's and ``run_bench``'s
    deterministic mode writes it as 0.0 so repeated runs are byte-stable.
    A bench cell whose solver raised has ``None`` for the results it lacks.
    """

    method: str
    solved: bool
    wall_time_s: float
    termination_reason: str
    iterations: int | None = None
    restarts: int | None = None
    final_relative_kkt: float | None = None
    rounded_objective: float | None = None
    duality_gap: float | None = None
    config_echo: dict = field(default_factory=dict)
    restart_lengths: list = field(default_factory=list)
    restart_kkts: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        return cls(**json.loads(text))


def finished_report(
    method: str, config, prob: OTProblem, rounded_plan: np.ndarray, p: np.ndarray,
    q: np.ndarray, *, termination: str, iterations: int, final_kkt: float,
    wall_time_s: float, restart_lengths: Sequence = (), restart_kkts: Sequence = (),
) -> SolveReport:
    """The report of a finished solve.

    The objective is taken on the rounded plan, and the gap against the dual
    objective f·p + g·q of the solver's own duals. Only a ``"tolerance"``
    termination counts as solved.
    """
    objective = float(np.vdot(prob.C, rounded_plan))
    gap = abs(objective - float(prob.f @ p + prob.g @ q))
    return SolveReport(
        method=method, solved=termination == "tolerance", wall_time_s=float(wall_time_s),
        termination_reason=termination, iterations=iterations, restarts=len(restart_lengths),
        final_relative_kkt=final_kkt, rounded_objective=objective, duality_gap=gap,
        config_echo=asdict(config), restart_lengths=list(restart_lengths),
        restart_kkts=list(restart_kkts),
    )
