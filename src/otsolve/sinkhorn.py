"""Log-domain entropically regularized baseline solver.

Alternating dual potential updates computed entirely in the log domain. A
half-update writes (psi - C) / eps, or (phi - C) / eps, into a C-shaped work
buffer that every half-update and plan of a solve reuses, and reduces it
with a max-shifted log-sum-exp of one exp per entry that gives the bits of
``scipy.special.logsumexp``. Rows of the implied plan match the row marginal
exactly right after a row-potential update, and likewise for columns.

So the plan exists only at the start and at the exit. After a column update
row i of the plan sums to f_i exp((phi_i - phi+_i) / eps), where phi+ is the
next row update, which each pass needs anyway: the l1 test of every later
pass costs O(m). Its rounding grows like ulp * max|C| / eps (about 1e-13 at
penalty 0.001 on a unit cost), far below the tolerances in use. A pass of
that test is confirmed on the plan, which the exit needs anyway, so a
tolerance exit means the same as when every pass formed the plan, and the
reported violation is the returned plan's, both marginals included.

A solve fails before its first pass when the penalty is subnormal (the
potentials are held scaled by eps, which then cannot resolve them) or when
``_HEADROOM * max|C| / eps``, a bound on every scaled quantity, overflows.

Zero-mass rows and columns are eliminated up front (their log weights
diverge) and reinserted as zero rows/columns of the plan afterwards.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

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
        if not 0.0 < self.penalty < math.inf:
            raise ValueError("penalty must be positive and finite")
        if not self.tol > 0 or not self.max_iters >= 1 or not self.time_limit_s > 0:
            raise ValueError("tol, max_iters and time_limit_s must be positive")


# |phi|, |psi| and |phi + psi - C| reached 2.3 max|C| at most over 300 random
# problems of 500 iterations each, so every scaled quantity, max-shifted
# exponents included, stays within 7 max|C| / eps; 16 leaves a margin.
_HEADROOM = 16.0


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a), axis)) for finite ``a``, computed in place in ``a``.

    Follows ``scipy.special.logsumexp``: the terms equal to the maximum are
    taken out of the sum and counted, so the result, log1p(rest / count) +
    log(count) + max, has the same bits as scipy's. (scipy guards the
    division for a zero sum; here rest >= 0 and count >= 1, so 0 / count is
    the same +0.) ``a`` is overwritten.
    """
    a_max = a.max(axis=axis, keepdims=True)
    ties = a == a_max
    count = ties.sum(axis=axis, keepdims=True, dtype=np.float64)
    a -= a_max
    np.putmask(a, ties, -np.inf)
    s = np.exp(a, out=a).sum(axis=axis, keepdims=True) / count
    return (np.log1p(s) + np.log(count) + a_max).squeeze(axis)


def _plan(phi: np.ndarray, psi: np.ndarray, C: np.ndarray, eps: float,
          out: np.ndarray) -> np.ndarray:
    np.add(phi[:, None], psi[None, :], out=out)
    out -= C
    out /= eps
    return np.exp(out, out=out)


def _l1_violation(X: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    return float(np.abs(X.sum(axis=1) - f).sum() + np.abs(X.sum(axis=0) - g).sum())


def _update_phi(psi: np.ndarray, C: np.ndarray, log_f: np.ndarray, eps: float,
                work: np.ndarray) -> np.ndarray:
    z = np.subtract(psi[None, :], C, out=work)
    z /= eps
    return eps * log_f - eps * _logsumexp(z, axis=1)


def _update_psi(phi: np.ndarray, C: np.ndarray, log_g: np.ndarray, eps: float,
                work: np.ndarray) -> np.ndarray:
    z = np.subtract(phi[:, None], C, out=work)
    z /= eps
    return eps * log_g - eps * _logsumexp(z, axis=0)


def sinkhorn_solve(
    prob: OTProblem, cfg: SinkhornConfig | None = None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], SolveReport]:
    """Iterate until the l1 marginal violation of the plan is at most tol.

    Returns the (unrounded) plan, the dual potentials as a pair (phi, psi),
    and a report whose objective and gap fields are evaluated on the rounded
    plan. The report's ``final_relative_kkt`` holds the terminal l1
    feasibility, this solver's own termination metric.
    """
    if cfg is None:
        cfg = SinkhornConfig()
    start_time = time.perf_counter()
    eps = float(cfg.penalty)

    row_mask = prob.f > 0
    col_mask = prob.g > 0
    f = prob.f[row_mask]
    g = prob.g[col_mask]
    C = prob.C[np.ix_(row_mask, col_mask)]
    log_f = np.log(f)
    log_g = np.log(g)
    c_max = float(C.max())
    if eps < np.finfo(np.float64).tiny or not math.isfinite(_HEADROOM * c_max / eps):
        raise RuntimeError(f"numerical failure: penalty {eps!r} too small for max |C| {c_max!r}")

    # One C-shaped buffer holds the plan X, formed at the start and at the
    # exit, until the next half-update overwrites it.
    work = np.empty_like(C)
    phi = np.zeros(f.size)
    psi = np.zeros(g.size)
    iterations = 0
    # psi = 0 is no column update, so the start checks both marginals.
    X = _plan(phi, psi, C, eps, work)
    feasibility = _l1_violation(X, f, g)
    while True:
        if feasibility <= cfg.tol:
            termination = "tolerance"
            break
        if iterations >= cfg.max_iters:
            termination = "iteration_limit"
            break
        if time.perf_counter() - start_time > cfg.time_limit_s:
            termination = "time_limit"
            break
        phi = _update_phi(psi, C, log_f, eps, work) if iterations == 0 else phi_next
        psi = _update_psi(phi, C, log_g, eps, work)
        iterations += 1
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))):
            raise RuntimeError("numerical failure: non-finite potential")
        # The columns are exact now. Each exp is a row mass, at most 1.
        phi_next = _update_phi(psi, C, log_f, eps, work)
        feasibility = float(np.abs(np.exp(log_f + (phi - phi_next) / eps) - f).sum())
        if feasibility <= cfg.tol:
            # An eps too small to resolve phi - phi_next can pass the row
            # test falsely (at 1e-307 it read 0 for a plan 8 off), so the
            # plan decides.
            X = _plan(phi, psi, C, eps, work)
            feasibility = _l1_violation(X, f, g)

    if termination != "tolerance" and iterations:  # a limit exit after a pass
        X = _plan(phi, psi, C, eps, work)
        feasibility = _l1_violation(X, f, g)
    plan = np.zeros((prob.m, prob.n))
    plan[np.ix_(row_mask, col_mask)] = X
    phi_full = np.zeros(prob.m)
    psi_full = np.zeros(prob.n)
    phi_full[row_mask] = phi
    psi_full[col_mask] = psi

    elapsed = time.perf_counter() - start_time
    report = finished_report(
        "sinkhorn", cfg, prob, round_to_feasible(prob, plan), phi_full, psi_full,
        termination=termination, iterations=iterations, final_kkt=feasibility,
        wall_time_s=elapsed,
    )
    return plan, (phi_full, psi_full), report
