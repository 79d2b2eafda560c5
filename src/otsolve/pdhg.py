"""Restarted primal-dual hybrid gradient for the transport LP.

One inner iteration alternates a projected gradient step on the plan with an
extrapolated gradient ascent step on the two dual vectors, all matrix-free.
The outer loop restarts from the better of the current iterate and the
running inner average whenever a KKT-decay condition fires; restarts are what
turn the sublinear base method into a linearly converging one.

Two operating modes:

* ``fixed``: constant step size and primal weight, restart on a fixed decay
  factor ``beta``. This is the analyzed algorithm and what the theory checks
  drive.
* ``adaptive`` (default): the practical bundle - three-condition adaptive
  restarts, a halving/growth step-size line search, and a primal weight
  update at each restart.

``solve`` records the run as a stream of ``RestartRecord``s: one for the
starting point and one for each restart. The report's restart fields are
derived from those records, and an optional ``on_restart`` callback receives
each record as it is made.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .instance import OTProblem
from .kkt import Iterate, dual_slack, kkt_error
# apply_At is not called here since dual_slack took it over, but the
# benchmark's tracer still wraps it under this module's name.
from .operator import apply_A, apply_At
from .reports import SolveReport, finished_report
from .rounding import round_to_feasible

FIXED_BETA = "fixed"
ADAPTIVE = "adaptive"

# Adaptive restart thresholds on the candidate's KKT decay: sufficient decay,
# necessary decay (with a local increase), and the artificial restart's share
# of all iterations so far.
BETA_SUFFICIENT = 0.1
BETA_NECESSARY = 0.9
BETA_ARTIFICIAL = 0.36

_STEP_GROWTH = 1.05
_MAX_HALVINGS = 80
# Log-space smoothing weight of the primal weight update, and the size below
# which a displacement or a coupling counts as zero.
_THETA = 0.5
_EPS_ZERO = 1e-10


@dataclass
class SolverConfig:
    tol: float = 1e-4
    time_limit_s: float = 3600.0
    restart_mode: str = ADAPTIVE
    beta: float = 0.5  # fixed-mode restart decay factor
    max_iters: int = 1_000_000

    def __post_init__(self):
        # Written as "not x > 0" so that NaN is rejected too.
        if not self.tol > 0 or not self.time_limit_s > 0 or not self.max_iters >= 1:
            raise ValueError("tol, time_limit_s and max_iters must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.restart_mode not in (FIXED_BETA, ADAPTIVE):
            raise ValueError(f"unknown restart mode {self.restart_mode!r}")


@dataclass(frozen=True)
class RestartRecord:
    """The point an epoch starts from: the initial iterate or a restart.

    ``iteration`` counts all iterations before the epoch, ``length`` those of
    the epoch this restart ended (0 for the start), and ``kkt`` is the point's
    relative KKT error. ``candidate`` says where the point came from:
    ``"start"``, ``"current"`` or ``"average"``. ``eta`` and ``omega`` are the
    step-size scale and primal weight the next epoch begins with.
    """

    iteration: int
    length: int
    kkt: float
    candidate: str
    eta: float
    omega: float
    point: Iterate


def pdhg_step(prob: OTProblem, it: Iterate, tau: float, sigma: float, slack: np.ndarray) -> Iterate:
    """One primal-dual step: projected primal descent, extrapolated dual ascent.

    ``slack`` must be ``dual_slack(prob, it)``. The step overwrites it with
    the extrapolated plan 2 X_next - X, so it is scratch afterwards.
    """
    # X + tau S has the bits of X - tau (C - p 1^T - 1 q^T): negation is exact.
    X_next = tau * slack
    X_next += it.X
    np.maximum(X_next, 0.0, out=X_next)
    extra = np.multiply(X_next, 2.0, out=slack)
    extra -= it.X
    rows, cols = apply_A(extra)
    p_next = it.p + sigma * (prob.f - rows)
    q_next = it.q + sigma * (prob.g - cols)
    return Iterate(X_next, p_next, q_next)


def stepsize_bound(it: Iterate, it_next: Iterate, omega: float, work: np.ndarray) -> float:
    """Largest admissible step-size scale for the displacement pair.

    Ratio of the omega-weighted squared displacement norm to twice the
    absolute bilinear coupling of the primal and dual displacements;
    infinite when the coupling vanishes. The plan displacement is written
    into ``work``, a plan-shaped array.
    """
    dX = np.subtract(it_next.X, it.X, out=work)
    dp = it_next.p - it.p
    dq = it_next.q - it.q
    numer = omega * float(np.vdot(dX, dX)) + (
        float(np.vdot(dp, dp)) + float(np.vdot(dq, dq))
    ) / omega
    rows, cols = apply_A(dX)
    denom = 2.0 * abs(float(dp @ rows + dq @ cols))
    if denom <= _EPS_ZERO:
        return math.inf
    return numer / denom


def primal_weight_update(delta_X: float, delta_pq: float, omega_prev: float) -> float:
    """Log-space smoothing of the dual/primal progress ratio into omega."""
    if omega_prev <= 0:
        raise ValueError("omega_prev must be positive")
    if delta_X > _EPS_ZERO and delta_pq > _EPS_ZERO:
        return math.exp(_THETA * math.log(delta_pq / delta_X) + (1.0 - _THETA) * math.log(omega_prev))
    return omega_prev


def should_restart(
    config: SolverConfig,
    candidate_kkt: float,
    epoch_kkt: float,
    prev_candidate_kkt: float,
    k: int,
    total_iterations: int,
) -> bool:
    """Restart test on candidate KKT errors.

    Fixed mode fires on a plain ``beta`` decay from the epoch start. Adaptive
    mode fires on sufficient decay, on necessary decay combined with a local
    increase over the previous candidate, or on an inner loop exceeding the
    ``BETA_ARTIFICIAL`` fraction of all iterations so far.
    """
    if config.restart_mode == FIXED_BETA:
        return candidate_kkt <= config.beta * epoch_kkt
    if candidate_kkt <= BETA_SUFFICIENT * epoch_kkt:
        return True
    if (
        candidate_kkt <= BETA_NECESSARY * epoch_kkt
        and candidate_kkt > prev_candidate_kkt
    ):
        return True
    return k >= BETA_ARTIFICIAL * total_iterations


def _mean_step(new: np.ndarray, average: np.ndarray, k: int) -> np.ndarray:
    """(new - average) / k + average, in one new array: the bits of
    average + (new - average) / k, since addition commutes."""
    out = new - average
    out /= k
    out += average
    return out


def default_stepsize(prob: OTProblem) -> float:
    """1 / (2 sqrt(m + n)): half the inverse operator norm."""
    return 1.0 / (2.0 * math.sqrt(prob.m + prob.n))


def _accepted_step(
    prob: OTProblem, it: Iterate, slack: np.ndarray, eta: float, omega: float, adaptive: bool
) -> tuple[Iterate, float]:
    """Take one step with tau = eta / omega and sigma = eta * omega.

    ``slack`` is ``dual_slack(prob, it)``; the step and the bound use it as
    scratch. In adaptive mode the step is retaken with halved eta, from the
    slack rebuilt in the same array, until accepted. Returns the step and
    the eta proposed for the next one.
    """
    if not adaptive:
        return pdhg_step(prob, it, eta / omega, eta * omega, slack), eta
    for _ in range(_MAX_HALVINGS):
        trial = pdhg_step(prob, it, eta / omega, eta * omega, slack)
        bound = stepsize_bound(it, trial, omega, slack)
        if eta <= bound:
            # Accepted: propose mild growth for the next iteration. An
            # infinite bound carries no curvature information, so keep eta.
            if math.isfinite(bound):
                eta = min(_STEP_GROWTH * eta, bound)
            return trial, eta
        eta *= 0.5
        # The rejected trial goes first, and the slack is rebuilt in place:
        # the caller holds it, and a second plan-sized array would raise the peak.
        del trial
        slack[...] = dual_slack(prob, it)
    raise RuntimeError("step-size line search failed to find an admissible eta")


def solve(
    prob: OTProblem,
    config: SolverConfig | None = None,
    initial: Iterate | None = None,
    on_restart: Callable[[RestartRecord], None] | None = None,
) -> tuple[Iterate, SolveReport]:
    """Run restarted PDHG until the KKT tolerance, iteration, or time limit.

    Returns the (pre-rounding) point of lowest KKT error among those
    evaluated, the one that met the tolerance if any did, together with a
    report whose objective and duality gap are evaluated on its rounded
    feasible plan.

    The first step uses ``default_stepsize(prob)`` and primal weight 1.
    ``on_restart``, if given, is called with the ``RestartRecord`` of the
    starting point and then with that of each restart, as they happen.
    ``solve`` never writes into an iterate, ``initial`` included; the one it
    returns may be ``initial`` itself or share arrays with a record's ``point``.
    A mis-shaped ``initial``, or one with a non-finite entry or with X < 0, is a ``ValueError``.
    """
    if config is None:
        config = SolverConfig()
    start_time = time.perf_counter()
    if initial is None:
        it = Iterate.zeros(prob.m, prob.n)
    else:
        it = initial
        shapes = (np.shape(it.X), np.shape(it.p), np.shape(it.q))
        expected = ((prob.m, prob.n), (prob.m,), (prob.n,))
        if shapes != expected:
            raise ValueError(f"initial (X, p, q) has shapes {shapes}, expected {expected}")
        for name, block in (("X", it.X), ("p", it.p), ("q", it.q)):
            if not np.all(np.isfinite(block)):
                raise ValueError(f"initial {name} has a non-finite entry")
        if np.any(it.X < 0):  # kkt_error has no term for X >= 0, so it would not see one
            raise ValueError("initial X has a negative entry")
    eta, omega = default_stepsize(prob), 1.0
    adaptive = config.restart_mode == ADAPTIVE
    history: list[tuple[int, float]] = []  # (length, kkt) of every record

    def emit(record: RestartRecord) -> RestartRecord:
        # The report needs only these two fields. Keeping the records would
        # keep every restart point alive, and memory would grow with restarts.
        history.append((record.length, record.kkt))
        if on_restart is not None:
            on_restart(record)
        return record

    # No iterate is written after it is built, so iterates may share arrays.
    # The slack is the current iterate's: its KKT error reads it, and the
    # next step consumes it as scratch.
    slack = dual_slack(prob, it)
    epoch = emit(RestartRecord(0, 0, kkt_error(prob, it, slack), "start", eta, omega, it))
    average = best = it
    prev_candidate_kkt = best_kkt = epoch.kkt
    total = 0  # iterations in all

    # Every exit returns ``best``. A candidate within tol is below best_kkt,
    # which stays above tol while the loop runs, so it has just become best.
    termination = "tolerance" if epoch.kkt <= config.tol else None
    while termination is None:
        if total >= config.max_iters:
            termination = "iteration_limit"
            break
        if time.perf_counter() - start_time > config.time_limit_s:
            termination = "time_limit"
            break

        it, eta = _accepted_step(prob, it, slack, eta, omega, adaptive)
        total += 1
        k = total - epoch.iteration  # iterations since the last restart

        # Uniform running mean of the inner iterates since the last restart.
        average = Iterate(
            _mean_step(it.X, average.X, k),
            _mean_step(it.p, average.p, k),
            _mean_step(it.q, average.q, k),
        )

        # The step spent the slack; it is replaced only now, after the
        # average, so that no two plan-sized arrays are freed back to back.
        # That would let malloc return their pages to the system, and each
        # iteration would then fault them in again.
        slack = dual_slack(prob, it)
        # A non-finite entry anywhere in the iterate makes its KKT error
        # non-finite, so this one number doubles as the finiteness check.
        kkt_cur = kkt_error(prob, it, slack)
        if not math.isfinite(kkt_cur):
            raise RuntimeError("numerical failure: non-finite iterate")
        kkt_avg = kkt_error(prob, average)
        # The current iterate wins only if strictly better; ties go to the average.
        if kkt_cur < kkt_avg:
            cand, cand_kkt, source = it, kkt_cur, "current"
        else:
            cand, cand_kkt, source = average, kkt_avg, "average"

        if cand_kkt < best_kkt:
            best, best_kkt = cand, cand_kkt
        if cand_kkt <= config.tol:
            termination = "tolerance"
            break

        if should_restart(config, cand_kkt, epoch.kkt, prev_candidate_kkt, k, total):
            if adaptive:
                dX = float(np.linalg.norm(cand.X - epoch.point.X))
                dpq = float(np.sqrt(
                    np.sum((cand.p - epoch.point.p) ** 2) + np.sum((cand.q - epoch.point.q) ** 2)
                ))
                omega = primal_weight_update(dX, dpq, omega)
            if source == "average":
                slack = dual_slack(prob, cand)
            it = average = cand
            epoch = emit(RestartRecord(total, k, cand_kkt, source, eta, omega, cand))
        prev_candidate_kkt = cand_kkt
        del cand  # an old iterate, not to be kept through the next iteration

    del slack  # not to be kept through the rounding
    elapsed = time.perf_counter() - start_time
    return best, finished_report(
        "pdot", config, prob, round_to_feasible(prob, best.X), best.p, best.q,
        termination=termination, iterations=total, final_kkt=best_kkt, wall_time_s=elapsed,
        restart_lengths=[length for length, _ in history[1:]],
        restart_kkts=[kkt for _, kkt in history],
    )
