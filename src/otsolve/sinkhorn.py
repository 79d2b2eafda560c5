"""Log-domain entropically regularized baseline solver.

Alternating dual potential updates, in the log domain and in units of the
penalty eps (Peyre & Cuturi, arXiv:1803.00567, 4.4): a solve divides its
copy of the cost once, K = C / eps, and holds the potentials as a = phi / eps
and b = psi / eps until the exit multiplies them by eps. A half-update
writes b - K, or a - K, into a K-shaped work buffer that every half-update
and plan of a solve reuses, and reduces it with the max-shifted log-sum-exp,
whose exponents are clipped at -700 so that ``exp`` never takes its slow
underflow path; a clipped term moves the exact lane sum, which is at least 1,
by less than e^-700 (see ``_logsumexp``). The plan is exp(a + b - K), not
clipped; its rows match the row marginal exactly right after a row update,
and likewise for columns.

So the plan exists only at the start and at the exit. After a column update
row i of the plan sums to f_i exp(a_i - a+_i), where a+ is the next row
update, which each pass needs anyway: the l1 test of every later pass costs
O(m). a and a+ are rounded to a few ulps of max|K| = max|C| / eps, so the
test's exponent is off by about 1e-13 at penalty 0.001 on a unit cost, far
below the tolerances in use. A pass of that test is confirmed on the plan,
which the exit needs anyway, so a tolerance exit means the same as when
every pass formed the plan, and the reported violation is the returned
plan's, both marginals included.

A solve fails before its first pass when the penalty is subnormal (the
exported eps * a underflows for every a of order one) or when
``_HEADROOM * max|C| / eps``, a bound on every quantity in units of eps,
overflows.

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


# |a|, |b| and |a + b - K| reached 2.3 max|K| at most over 300 random problems
# of 500 iterations each, so every quantity in units of eps, max-shifted
# exponents included, stays within 7 max|K| = 7 max|C| / eps; 16 leaves a margin.
_HEADROOM = 16.0


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a), axis)) for finite ``a``, computed in place in ``a``.

    The max-shifted form log(sum(exp(a - max))) + max: every exponent is at
    most 0 and the sum of n terms lies in [1, n], so nothing overflows and
    the result is within a few ulps of max(1, max|a|) of the exact value
    (at most 4 from ``scipy.special.logsumexp`` on random lanes of up to 40
    entries). ``a`` is overwritten.

    Shifted exponents below -700 are raised to -700 first, because numpy's
    ``exp`` is 10 to over 100 times slower where its result is subnormal or 0
    (below about -708.4), and at small penalties most exponents are. A
    clipped term and the term it replaces both lie in [0, e^-700], and every
    lane holds its maximum, whose term is exactly 1, so the exact lane sum
    moves by less than n e^-700 relative to a sum of at least 1. That is not
    a proof that the rounded sum keeps its bits: a chain of rounding
    near-ties among the tiny partial sums could in principle carry up. The
    tests check the bits against the unclipped form on every problem they
    solve.
    """
    a_max = a.max(axis=axis, keepdims=True)
    a -= a_max
    np.maximum(a, -700.0, out=a)
    s = np.exp(a, out=a).sum(axis=axis, keepdims=True)
    return (np.log(s) + a_max).squeeze(axis)


def _plan(a: np.ndarray, b: np.ndarray, K: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(a_i + b_j - K_ij), potentials and cost in units of eps, formed in ``out``."""
    np.add(a[:, None], b[None, :], out=out)
    out -= K
    return np.exp(out, out=out)


def _l1_violation(X: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    return float(np.abs(X.sum(axis=1) - f).sum() + np.abs(X.sum(axis=0) - g).sum())


def _update_phi(b: np.ndarray, K: np.ndarray, log_f: np.ndarray, work: np.ndarray) -> np.ndarray:
    """a = log f - log sum_j exp(b_j - K_ij), in units of eps; ``work`` is overwritten."""
    return log_f - _logsumexp(np.subtract(b[None, :], K, out=work), axis=1)


def _update_psi(a: np.ndarray, K: np.ndarray, log_g: np.ndarray, work: np.ndarray) -> np.ndarray:
    """b = log g - log sum_i exp(a_i - K_ij), in units of eps; ``work`` is overwritten."""
    return log_g - _logsumexp(np.subtract(a[:, None], K, out=work), axis=0)


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
    K = prob.C[np.ix_(row_mask, col_mask)]  # a copy, so it can be divided in place
    log_f = np.log(f)
    log_g = np.log(g)
    c_max = float(K.max())
    if eps < np.finfo(np.float64).tiny or not math.isfinite(_HEADROOM * c_max / eps):
        raise RuntimeError(f"numerical failure: penalty {eps!r} too small for max |C| {c_max!r}")
    K /= eps

    # One K-shaped buffer holds the plan X, formed at the start and at the
    # exit, until the next half-update overwrites it.
    work = np.empty_like(K)
    a = np.zeros(f.size)
    b = np.zeros(g.size)
    iterations = 0
    # b = 0 is no column update, so the start checks both marginals.
    X = _plan(a, b, K, work)
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
        a = _update_phi(b, K, log_f, work) if iterations == 0 else a_next
        b = _update_psi(a, K, log_g, work)
        iterations += 1
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise RuntimeError("numerical failure: non-finite potential")
        # The columns are exact now. Each exp is a row mass, at most 1.
        a_next = _update_phi(b, K, log_f, work)
        feasibility = float(np.abs(np.exp(log_f + a - a_next) - f).sum())
        if feasibility <= cfg.tol:
            # The row test rounds to ulps of max|K|, which at the smallest
            # penalties exceed any tol, so it can pass falsely; the plan decides.
            X = _plan(a, b, K, work)
            feasibility = _l1_violation(X, f, g)

    if termination != "tolerance" and iterations:  # a limit exit after a pass
        X = _plan(a, b, K, work)
        feasibility = _l1_violation(X, f, g)
    plan = np.zeros((prob.m, prob.n))
    plan[np.ix_(row_mask, col_mask)] = X
    del K, work, X  # not to be kept through the rounding
    phi_full = np.zeros(prob.m)
    psi_full = np.zeros(prob.n)
    phi_full[row_mask] = eps * a
    psi_full[col_mask] = eps * b

    elapsed = time.perf_counter() - start_time
    report = finished_report(
        "sinkhorn", cfg, prob, round_to_feasible(prob, plan), phi_full, psi_full,
        termination=termination, iterations=iterations, final_kkt=feasibility,
        wall_time_s=elapsed,
    )
    return plan, (phi_full, psi_full), report
