"""Entropically regularized baseline solver: Sinkhorn on an absorbed kernel.

Alternating dual potential updates in units of the penalty eps (Peyre &
Cuturi, arXiv:1803.00567, 4.4): a solve divides its copy of the cost once,
K = C / eps, and holds the potentials as a = phi / eps and b = psi / eps
until the exit multiplies them by eps.

The first pass runs in the log domain (``_update_phi``, ``_update_psi``: a
max-shifted log-sum-exp over a K-shaped work buffer, see ``_logsumexp``).
Then the potentials are absorbed into a kernel (Schmitzer, arXiv:1610.06519,
3): a = a0 + log u and b = b0 + log v with G = exp(a0 + b0 - K), formed by
``_kernel`` in the work buffer, and each later pass is two BLAS matrix-vector
products, v = g / (G^T u), then u+ = f / (G v). When max|log u+| or
max|log v| exceeds _TAU = 100, the next pass first absorbs them into a new G
(a0 += log u+, b0 += log v, u = 1).

Entries of G below e^-600 are set to 0, so that while the scalings stay
within e^+-100 no nonzero product in the matrix-vector products falls below
e^-700 into the subnormal range (below about e^-708.4), where they run
several times slower: a solve of ``cauchy_like`` l2 16x16 at penalty 0.01
took 0.42 s unflushed and 0.11 s flushed on a 2-vCPU Xeon. Row i of G sums to
f_i when it is built, so it loses less than n e^-600 of a mass of at least
min f, and while the scalings stay within e^+-100 each plan entry dropped is
below e^-400. If G^T u or G v has an entry that is not finite or below the
smallest normal number (a marginal entry below about n e^-600 flushes its
whole row or column), that pass runs in the log domain instead, and the next
pass absorbs its potentials.

A kernel is only built from a row update: the potentials of u+ after a
scaling pass, or the next row update after a log-domain pass. So row i of G
sums to f_i up to the rounding of its exponents, which is far below a factor
e while max|K| is far below 2^52. If f_i < e^-601, every entry of row i is
then below e^-600 and flushed, (G v)_i = 0, and the pass falls back. A solve
whose smallest row marginal is below e^-601 decides this once, at the start:
it builds no kernel and runs every pass in the log domain, with the same
bits.

Scaling passes run in batches (``_scaling_passes``). Up to B passes run back
to back, each writing s = G^T u, v, t = G v and u+ with ``out=`` into one
row of small buffers, and the clock is read before each pass. Then the tests
of every pass run at once, row by row on the buffers: the usability of both
products, the row test and the range test. The batch keeps its passes up to
and including the first that meets tol or sets absorb. If a product is
unusable first, the passes before it count and that pass runs in the log
domain. Later passes are thrown away. A matrix-vector product into a buffer
row had the bits of one into a new vector on every size tried, and a row sum
of a 2-D array has the bits of the 1-D sum (numpy sums each contiguous row
pairwise), so every pass that counts has the arithmetic and the tests of a
pass run alone, and a solve keeps its bits; the tests check this against a
loop of single passes. B = min(32, max(1, 2048 // (m + n))) after
elimination: 32 on the 58x6 ``shapes`` problems, where the per-pass tests
cost more than the two products, and 4 at 256x256, where a thrown-away pass
costs two O(mn) products; the buffers hold at most 32 KB while m + n <=
2048, and one pass beyond. The batch after a pass that fell back is one
pass, so a solve that falls back on every pass (a column marginal of 1e-310,
say, which unlike a row's cannot be decided up front) throws no pass away
after its first batch. After an unusable product the later ones may overflow
or be NaN, so the batch runs under one ``np.errstate(all="ignore")``, and
the tests after it read only the passes before the first unusable product:
no warning is raised.

The plan is exp(a + b - K), not flushed. It exists only at the start and at
the exit: after a column update row i of the plan sums to u_i (G v)_i, or to
f_i exp(a_i - a+_i) in a log-domain pass (a+ the next row update), which
each pass needs anyway, so the l1 test of every pass costs O(m). At the
smallest penalties that test can pass falsely; a pass of it is confirmed on
the plan, which the exit needs anyway, so a tolerance exit means the same as
when every pass formed the plan, and the reported violation is the returned
plan's, both marginals included. A plan that does not meet tol overwrites G,
so the next pass rebuilds it.

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

# The absorption and flush rule (see the module docstring); _TINY is the
# smallest normal number and _HUGE the largest finite one.
_TAU = 100.0
_SCALE_LO = math.exp(-_TAU)
_SCALE_HI = math.exp(_TAU)
_FLUSH = math.exp(-600.0)
_FLUSH_EXPONENT = -601.0  # an entry of G with a lower exponent is flushed
_FLUSHED_ROW = math.exp(_FLUSH_EXPONENT)
_TINY = float(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max)


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


def _kernel(a0: np.ndarray, b0: np.ndarray, K: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The absorbed kernel exp(a0_i + b0_j - K_ij) in ``work``, entries below e^-600 set to 0.

    Exponents below -601 are raised to -601 before ``exp``, which is several
    times slower where its result is subnormal or 0. That keeps the bytes of
    G: such an entry is below e^-601 either way, so it is flushed either way,
    and an exponent at or above -601 is not changed.
    """
    G = np.add(a0[:, None], b0[None, :], out=work)
    G -= K
    np.maximum(G, _FLUSH_EXPONENT, out=G)
    np.exp(G, out=G)
    np.copyto(G, 0.0, where=G < _FLUSH)
    return G


def _within(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """For each row of x, whether every entry lies in [lo, hi] (not NaN)."""
    if x.size and lo <= x.min() and x.max() <= hi:  # every row, the usual case
        return np.ones(len(x), dtype=bool)
    return (x.min(axis=1) >= lo) & (x.max(axis=1) <= hi)


def _usable(s: np.ndarray) -> np.ndarray:
    """For each row of s, whether every entry is finite and at least the smallest normal number.

    Then a marginal, whose entries are at most 1, divided by that row is finite.
    """
    return _within(s, _TINY, _HUGE)


def _scaling_passes(G, f, g, U, S, V, T, passes: int, start_time: float, time_limit_s: float) -> int:
    """Up to ``passes`` scaling passes on the kernel G, from u = U[0].

    Pass j writes s = G^T u_j to S[j], v = g / s to V[j], t = G v to T[j] and
    u_j+1 = f / t to U[j + 1]. The clock is read before every pass but the
    first, whose read the caller made; returns the number of passes run,
    fewer than ``passes`` when the time limit has passed. A product may be
    unusable, and then every later pass is meaningless: the caller tests
    them all afterwards, so no warning is raised here.
    """
    with np.errstate(all="ignore"):
        for j, (u, s, v, t, u_next) in enumerate(zip(U[:passes], S, V, T, U[1:])):
            if j and time.perf_counter() - start_time > time_limit_s:
                return j
            u.dot(G, out=s)
            np.divide(g, s, out=v)
            G.dot(v, out=t)
            np.divide(f, t, out=u_next)
    return passes


def _potentials(a0: np.ndarray, u: np.ndarray, b0: np.ndarray, v: np.ndarray):
    """The potentials a0 + log u and b0 + log v of the scalings u and v of G."""
    return a0 + np.log(u), b0 + np.log(v)


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
    if eps < _TINY or not math.isfinite(_HEADROOM * c_max / eps):
        raise RuntimeError(f"numerical failure: penalty {eps!r} too small for max |C| {c_max!r}")
    K /= eps

    # One K-shaped buffer holds the kernel G, or the plan X at the start and
    # at the exit, or a log-domain half-update's terms.
    work = np.empty_like(K)
    ones_f = np.ones(f.size)
    ones_g = np.ones(g.size)
    # A batch of scaling passes writes pass j's u, s, v and t to row j of U,
    # S, V and T, and the next u to U[j + 1] (see _scaling_passes).
    batch = min(32, max(1, 2048 // (f.size + g.size)))
    passes = batch  # after a fallback one, so that a batch wastes none
    U = np.empty((batch + 1, f.size))
    T = np.empty((batch, f.size))
    S = np.empty((batch, g.size))
    V = np.empty((batch, g.size))
    # A row marginal below e^-601 flushes its whole kernel row, so every
    # scaling pass would fall back: no kernel is built (module docstring).
    scaling = f.min() >= _FLUSHED_ROW
    # The potentials are a0 + log u and b0 + log v; G = exp(a0 + b0 - K),
    # flushed, once built. last holds this form of the last pass's potentials.
    a0, b0, u, v = np.zeros(f.size), np.zeros(g.size), ones_f, ones_g
    last = (a0, u, b0, v)
    G = None  # built after the first pass
    absorb = False
    iterations = 0
    # b = 0 is no column update, so the start checks both marginals.
    X = _plan(a0, b0, K, work)
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
        log_pass = iterations == 0 or not scaling  # the first pass is in the log domain
        if not log_pass:
            if absorb:
                a0, b0, u = a0 + np.log(u), b0 + np.log(v), ones_f
                G = _kernel(a0, b0, K, work)
                absorb = False
            U[0] = u
            ran = _scaling_passes(G, f, g, U, S, V, T, min(passes, cfg.max_iters - iterations),
                                  start_time, cfg.time_limit_s)
            # The passes before the first unusable product; row i of the plan
            # after pass j sums to u_j,i t_j,i, and the columns are exact.
            ok = _usable(S[:ran]) & _usable(T[:ran])
            usable = ran if ok.all() else int(ok.argmin())
            rows = np.abs(U[:usable] * T[:usable] - f).sum(axis=1)
            far = ~(_within(U[1:usable + 1], _SCALE_LO, _SCALE_HI)
                    & _within(V[:usable], _SCALE_LO, _SCALE_HI))
            events = np.flatnonzero((rows <= cfg.tol) | far)
            # The batch keeps its passes up to the first that meets tol or
            # sets absorb; without one, an unusable product's pass runs in
            # the log domain. Later passes are thrown away.
            kept = int(events[0]) + 1 if events.size else usable
            if kept:
                v = V[kept - 1].copy()
                last = (a0, U[kept - 1].copy(), b0, v)
                feasibility = float(rows[kept - 1])
                u = U[kept].copy()
                absorb = bool(far[kept - 1])
            iterations += kept
            log_pass = kept < ran and not events.size
            passes = 1 if log_pass else batch
        if log_pass:
            # The first pass, a pass without a kernel, or G^T u or G v has an
            # entry that is zero, subnormal or not finite: the pass in the
            # log domain, from the row potentials of u, then a new kernel.
            iterations += 1
            a = a0 + np.log(u) if iterations > 1 else _update_phi(b0, K, log_f, work)
            b = _update_psi(a, K, log_g, work)
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise RuntimeError("numerical failure: non-finite potential")
            # The columns are exact now. Each exp is a row mass, at most 1.
            a_next = _update_phi(b, K, log_f, work)
            feasibility = float(np.abs(np.exp(log_f + a - a_next) - f).sum())
            last = (a, ones_f, b, ones_g)
            a0, b0, u, v = a_next, b, ones_f, ones_g
            absorb = True  # the half-updates overwrote the kernel
        if feasibility <= cfg.tol:
            # The plan's exponents round to ulps of max|K|, which at the
            # smallest penalties exceed any tol, so the row test can pass
            # falsely; the plan decides.
            X = _plan(*_potentials(*last), K, work)
            feasibility = _l1_violation(X, f, g)
            absorb = True  # X overwrote the kernel

    a, b = _potentials(*last)
    if termination != "tolerance" and iterations:  # a limit exit after a pass
        X = _plan(a, b, K, work)
        feasibility = _l1_violation(X, f, g)
    plan = np.zeros((prob.m, prob.n))
    plan[np.ix_(row_mask, col_mask)] = X
    del K, work, X, G  # not to be kept through the rounding
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
