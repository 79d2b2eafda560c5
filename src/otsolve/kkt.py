"""Relative KKT error of a primal-dual pair.

The relative KKT error sums three blocks, each normalized by the scale of the
corresponding problem data: the primal residual, the element-wise positive
part of the dual violation, and the duality gap. It has no term for X >= 0:
on a plan with no negative entry, as every iterate of the step and every
``initial`` that ``solve`` accepts is, it vanishes exactly at optimality. It
is the one number the restart and termination tests read.
``dual_slack`` builds the O(mn) part, which the solver also hands on to the
next PDHG step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import OTProblem
from .operator import apply_A, apply_At


@dataclass(eq=False)
class Iterate:
    """Primal plan and the two dual vectors.

    A value: ``solve`` writes into no iterate, ``initial`` included, and may
    return ``initial`` itself or one that shares arrays with a restart point.
    """

    X: np.ndarray
    p: np.ndarray
    q: np.ndarray

    @classmethod
    def zeros(cls, m: int, n: int) -> "Iterate":
        return cls(np.zeros((m, n)), np.zeros(m), np.zeros(n))


def dual_slack(prob: OTProblem, it: Iterate) -> np.ndarray:
    """S = p 1^T + 1 q^T - C as a new array: the dual slack, whose positive
    part is the dual violation and whose negation is the reduced cost."""
    slack = apply_At(it.p, it.q)
    np.subtract(slack, prob.C, out=slack)
    return slack


def kkt_error(prob: OTProblem, it: Iterate, slack: np.ndarray | None = None) -> float:
    """Relative KKT error, evaluated matrix-free:

        |X 1 - f, X^T 1 - g| / (1 + |f| + |g|)
      + |[p 1^T + 1 q^T - C]^+|_F / (1 + |C|_F)
      + |<C,X> - f^T p - g^T q| / (1 + |<C,X>| + |f^T p + g^T q|).

    ``slack``, if given, must be ``dual_slack(prob, it)``; it is read, not
    written, so the next ``pdhg_step`` can take it too. A NaN or infinite
    entry in X, p or q makes the result non-finite.
    """
    rows, cols = apply_A(it.X)
    primal_row = rows - prob.f
    primal_col = cols - prob.g
    if slack is None:
        violation = dual_slack(prob, it)
        np.maximum(violation, 0.0, out=violation)
    else:
        violation = np.maximum(slack, 0.0)

    primal_obj = float(np.vdot(prob.C, it.X))
    dual_obj = float(prob.f @ it.p + prob.g @ it.q)
    gap = primal_obj - dual_obj

    primal_sq = float(np.vdot(primal_row, primal_row) + np.vdot(primal_col, primal_col))
    dual_sq = float(np.vdot(violation, violation))
    return float(
        np.sqrt(primal_sq) / (1.0 + prob.marginal_norm)
        + np.sqrt(dual_sq) / (1.0 + prob.cost_fro_norm)
        + abs(gap) / (1.0 + abs(primal_obj) + abs(dual_obj))
    )
