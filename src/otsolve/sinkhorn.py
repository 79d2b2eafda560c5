"""Log-domain entropically regularized baseline solver.

Alternating dual potential updates computed entirely in the log domain with
max-subtracted log-sum-exp, so no intermediate quantity overflows even at
penalties down to 1e-4. Rows of the implied plan match the row marginal
exactly right after a row-potential update, and likewise for columns.

Zero-mass rows and columns are eliminated up front (their log weights
diverge) and reinserted as zero rows/columns of the plan afterwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .instance import OTProblem
from .reports import SolveReport, finished_report
from .rounding import round_to_feasible


@dataclass
class SinkhornConfig:
    penalty: float = 0.001
    tol: float = 1e-4
    max_iters: int = 100_000
    time_limit_s: float = 3600.0

    def __post_init__(self):
        # Written as "not x > 0" so that NaN is rejected too.
        if not self.penalty > 0:
            raise ValueError("penalty must be positive")
        if not self.tol > 0 or not self.max_iters >= 1 or not self.time_limit_s > 0:
            raise ValueError("tol, max_iters and time_limit_s must be positive")


@dataclass(eq=False)
class Potentials:
    phi: np.ndarray
    psi: np.ndarray


def _plan(phi: np.ndarray, psi: np.ndarray, C: np.ndarray, eps: float) -> np.ndarray:
    return np.exp((phi[:, None] + psi[None, :] - C) / eps)


def _update_phi(psi: np.ndarray, C: np.ndarray, log_f: np.ndarray, eps: float) -> np.ndarray:
    return eps * log_f - eps * logsumexp((psi[None, :] - C) / eps, axis=1)


def _update_psi(phi: np.ndarray, C: np.ndarray, log_g: np.ndarray, eps: float) -> np.ndarray:
    return eps * log_g - eps * logsumexp((phi[:, None] - C) / eps, axis=0)


def sinkhorn_solve(
    prob: OTProblem, cfg: SinkhornConfig | None = None
) -> tuple[np.ndarray, Potentials, SolveReport]:
    """Iterate until the l1 marginal violation of the plan is at most tol.

    Returns the (unrounded) plan, the dual potentials, and a report whose
    objective and gap fields are evaluated on the rounded plan. The report's
    ``final_relative_kkt`` holds the terminal l1 feasibility, this solver's
    own termination metric.
    """
    if cfg is None:
        cfg = SinkhornConfig()
    start_time = time.perf_counter()
    eps = cfg.penalty

    row_mask = prob.f > 0
    col_mask = prob.g > 0
    f = prob.f[row_mask]
    g = prob.g[col_mask]
    C = prob.C[np.ix_(row_mask, col_mask)]
    log_f = np.log(f)
    log_g = np.log(g)

    phi = np.zeros(f.size)
    psi = np.zeros(g.size)
    iterations = 0
    while True:
        X = _plan(phi, psi, C, eps)
        feasibility = float(np.abs(X.sum(axis=1) - f).sum() + np.abs(X.sum(axis=0) - g).sum())
        if feasibility <= cfg.tol:
            termination = "tolerance"
            break
        if iterations >= cfg.max_iters:
            termination = "iteration_limit"
            break
        if time.perf_counter() - start_time > cfg.time_limit_s:
            termination = "time_limit"
            break
        phi = _update_phi(psi, C, log_f, eps)
        psi = _update_psi(phi, C, log_g, eps)
        iterations += 1
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))):
            raise RuntimeError("numerical failure: non-finite potential")

    plan = np.zeros((prob.m, prob.n))
    plan[np.ix_(row_mask, col_mask)] = X
    phi_full = np.zeros(prob.m)
    psi_full = np.zeros(prob.n)
    phi_full[row_mask] = phi
    psi_full[col_mask] = psi
    potentials = Potentials(phi_full, psi_full)

    elapsed = time.perf_counter() - start_time
    report = finished_report(
        "sinkhorn", cfg, prob, round_to_feasible(prob, plan), phi_full, psi_full,
        termination=termination, iterations=iterations, final_kkt=feasibility,
        wall_time_s=elapsed,
    )
    return plan, potentials, report
