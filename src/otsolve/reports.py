"""Solve reports and their JSON round-trip serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class SolveReport:
    """Per-solve benchmark record.

    ``final_relative_kkt`` stores the solver's own termination metric: the
    relative KKT error for the primal-dual solver, the l1 primal feasibility
    for the Sinkhorn baseline. ``rounded_objective`` and ``duality_gap`` are
    always evaluated on the exactly feasible rounded plan. In deterministic
    mode ``wall_time_s`` is reported as 0.0 so repeated runs are byte-stable.
    A bench cell whose solver raised has ``None`` for the results it lacks.
    """

    method: str
    solved: bool
    wall_time_s: float
    iterations: int | None
    restarts: int | None
    final_relative_kkt: float | None
    rounded_objective: float | None
    duality_gap: float | None
    termination_reason: str
    config_echo: dict = field(default_factory=dict)
    restart_lengths: list = field(default_factory=list)
    restart_kkts: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        return cls(**json.loads(text))
