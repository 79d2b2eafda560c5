import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

import otsolve.sinkhorn
from otsolve import SinkhornConfig, sinkhorn_solve
from otsolve.sinkhorn import _kernel, _logsumexp, _plan, _update_phi, _update_psi

from _helpers import make_problem, random_problem


def naive_sinkhorn(C, f, g, eps, tol, max_iters=100_000):
    """Reference: multiplicative matrix scaling in the linear domain."""
    K = np.exp(-C / eps)
    v = np.ones_like(g)
    for _ in range(max_iters):
        u = f / (K @ v)
        v = g / (K.T @ u)
        X = u[:, None] * K * v[None, :]
        err = np.abs(X.sum(axis=1) - f).sum() + np.abs(X.sum(axis=0) - g).sum()
        if err <= tol:
            return X
    raise AssertionError("naive reference did not converge")


def lse(a, axis):
    """The textbook max-shifted log-sum-exp, the one the solver computes."""
    m = a.max(axis, keepdims=True)
    return (np.log(np.exp(a - m).sum(axis, keepdims=True)) + m).squeeze(axis)


def log_domain_sinkhorn(prob, eps, tol, max_iters, logsumexp_fn):
    """Reference: the log-domain loop with logsumexp_fn(a, axis) half-updates.

    The cost and the potentials a = phi / eps, b = psi / eps are held in
    units of eps. It forms the plan on every pass and returns, besides the
    plan, the potentials eps * a and eps * b and the iteration count, the
    plan's last l1 violation.
    """
    rows, cols = prob.f > 0, prob.g > 0
    K, f, g = prob.C[np.ix_(rows, cols)] / eps, prob.f[rows], prob.g[cols]
    a, b = np.zeros(f.size), np.zeros(g.size)
    iterations = 0
    while True:
        X = np.exp(a[:, None] + b[None, :] - K)
        err = np.abs(X.sum(axis=1) - f).sum() + np.abs(X.sum(axis=0) - g).sum()
        if err <= tol or iterations == max_iters:
            break
        a = np.log(f) - logsumexp_fn(b[None, :] - K, axis=1)
        b = np.log(g) - logsumexp_fn(a[:, None] - K, axis=0)
        iterations += 1
    plan = np.zeros(prob.C.shape)
    plan[np.ix_(rows, cols)] = X
    phi_full, psi_full = np.zeros(prob.m), np.zeros(prob.n)
    phi_full[rows], psi_full[cols] = eps * a, eps * b
    return plan, phi_full, psi_full, iterations, err


# The absorption rule of the solver: scalings within [e^-100, e^100], kernel
# entries below e^-600 set to 0, products that must be normal and finite.
TAU = 100.0
FLUSH = np.exp(-600.0)
TINY = np.finfo(np.float64).tiny


def gemv_sinkhorn(prob, eps, tol, max_iters):
    """Reference: the solver's loop, scaling passes on an absorbed kernel.

    In units of eps the potentials are a = a0 + log u and b = b0 + log v, and
    the kernel is G = exp(a0 + b0 - K) with entries below FLUSH set to 0. A
    pass computes v = g / (G^T u), then u+ = f / (G v); its row violation is
    sum |u (G v) - f|, the columns being exact. The first pass, and a pass
    whose G^T u or G v has an entry below TINY or not finite, runs in the log
    domain with ``lse`` instead, and the next pass absorbs its potentials
    into a new kernel. So does the pass after a scaling leaves
    [e^-TAU, e^TAU], or after a plan that did not meet tol (it overwrites the
    solver's kernel). The plan is formed when the row violation is at most
    tol, and at a limit exit. Returns the plan, eps * a, eps * b, the
    iteration count, the plan's last l1 violation and the passes that built
    a kernel.
    """
    rows, cols = prob.f > 0, prob.g > 0
    K, f, g = prob.C[np.ix_(rows, cols)] / eps, prob.f[rows], prob.g[cols]

    def plan(a, b):
        X = np.exp(a[:, None] + b[None, :] - K)
        return X, np.abs(X.sum(axis=1) - f).sum() + np.abs(X.sum(axis=0) - g).sum()

    def usable(s):
        return s.min() >= TINY and s.max() < np.inf

    a0, b0, u, v = np.zeros(f.size), np.zeros(g.size), np.ones(f.size), np.ones(g.size)
    a, b = a0, b0
    X, err = plan(a, b)
    iterations = 0
    kernels = []
    absorb = False
    while err > tol and iterations < max_iters:
        iterations += 1
        if absorb:
            a0, b0, u = a0 + np.log(u), b0 + np.log(v), np.ones(f.size)
            G = np.exp(a0[:, None] + b0[None, :] - K)
            G[G < FLUSH] = 0.0
            kernels.append(iterations)
        absorb = False
        t = None
        if iterations > 1 and usable(s := G.T @ u):
            v = g / s
            t = G @ v
        if t is not None and usable(t):
            a, b = a0 + np.log(u), b0 + np.log(v)
            err = float(np.abs(u * t - f).sum())
            u = f / t
            absorb = not all(np.exp(-TAU) <= x.min() and x.max() <= np.exp(TAU) for x in (u, v))
        else:
            a = a0 + np.log(u) if iterations > 1 else np.log(f) - lse(b0[None, :] - K, axis=1)
            b = np.log(g) - lse(a[:, None] - K, axis=0)
            a_next = np.log(f) - lse(b[None, :] - K, axis=1)
            err = float(np.abs(np.exp(np.log(f) + a - a_next) - f).sum())
            a0, b0, u, v = a_next, b, np.ones(f.size), np.ones(g.size)
            absorb = True
        if err <= tol:
            X, err = plan(a, b)
            absorb = True
    if err > tol and iterations:
        X, err = plan(a, b)
    full = np.zeros(prob.C.shape)
    full[np.ix_(rows, cols)] = X
    phi_full, psi_full = np.zeros(prob.m), np.zeros(prob.n)
    phi_full[rows], psi_full[cols] = eps * a, eps * b
    return full, phi_full, psi_full, iterations, err, kernels


def assert_same_bits(prob, cfg, ref_max_iters=None):
    """sinkhorn_solve under cfg matches ``gemv_sinkhorn`` to the bit.

    The reference stops by tolerance or by ref_max_iters (cfg.max_iters if
    None), the pass a time-limit exit is expected at. Returns the solve and
    the passes at which the reference built a kernel.
    """
    plan, (phi, psi), report = sinkhorn_solve(prob, cfg)
    max_iters = cfg.max_iters if ref_max_iters is None else ref_max_iters
    ref_plan, ref_phi, ref_psi, ref_iterations, ref_err, kernels = gemv_sinkhorn(
        prob, cfg.penalty, cfg.tol, max_iters)
    assert report.iterations == ref_iterations
    assert np.array_equal(plan, ref_plan)
    assert np.array_equal(phi, ref_phi)
    assert np.array_equal(psi, ref_psi)
    assert report.final_relative_kkt == ref_err
    return (plan, (phi, psi), report), kernels


def record_batch_lengths(monkeypatch):
    """The number of passes each batch of the solver is asked for, as a list that fills."""
    lengths = []
    scaling_passes = otsolve.sinkhorn._scaling_passes

    def recorded(*args):
        lengths.append(args[7])
        return scaling_passes(*args)

    monkeypatch.setattr(otsolve.sinkhorn, "_scaling_passes", recorded)
    return lengths


# Measured worst cases of the agreement with the log-domain loops on the 15
# problems checked against them, times a margin of 4: potentials 2.8e-14 of
# the reference's largest |potential| (phi and psi together) and plans 9.1e-13
# of its largest entry, both on the 58x6 shapes problems.
LOG_DOMAIN_PHI_PSI_RTOL = 4 * 2.8e-14
LOG_DOMAIN_PLAN_RTOL = 4 * 9.1e-13


def assert_agrees_with_log_domain(prob, cfg, solved):
    """The solve agrees with the log-domain loop, with ``lse`` and with scipy's.

    The scaling passes round differently from log-sum-exps, so the bits
    differ, but the pass count is the same and the results agree closely.
    """
    plan, (phi, psi), report = solved
    for logsumexp_fn in (lse, logsumexp):
        ref_plan, ref_phi, ref_psi, ref_iterations, _ = log_domain_sinkhorn(
            prob, cfg.penalty, cfg.tol, cfg.max_iters, logsumexp_fn)
        assert report.iterations == ref_iterations
        scale = max(np.abs(ref_phi).max(), np.abs(ref_psi).max())
        assert np.abs(phi - ref_phi).max() <= LOG_DOMAIN_PHI_PSI_RTOL * scale
        assert np.abs(psi - ref_psi).max() <= LOG_DOMAIN_PHI_PSI_RTOL * scale
        assert np.abs(plan - ref_plan).max() <= LOG_DOMAIN_PLAN_RTOL * np.abs(ref_plan).max()


@st.composite
def lse_inputs(draw):
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    # integer-valued entries make maxima tie
    entry = st.one_of(st.integers(-20, 20).map(float), st.floats(-20, 20))
    scale = draw(st.floats(1e-3, 1e3))
    return draw(arrays(np.float64, shape, elements=entry)) * scale, draw(st.sampled_from([0, 1]))


# Tied maxima: the textbook form and scipy's, which counts the ties, differ
# in the last bit here. Then a lane holding its (tied) maximum, entries more
# than 745.2 below it, whose exp is exactly 0, and entries 700-745.2 below it.
TIED_MAXIMA = np.array([[0.0, 0.0, -1.0, -2.0]])
FAR_BELOW_MAX = np.array([[5.0, -760.0, 5.0, -900.0, -700.0, -740.0, 4.0]])
# A lane whose other entries spread over (-745.2, -600) below its maximum,
# through the band where exp is subnormal (below about -708.4).
SUBNORMAL_BAND = np.append(3.0, 3.0 + np.linspace(-745.1, -600.5, 40))[None, :]


class TestLogSumExp:
    # No shrink phase: shrinking arrays of up to 40x40 entries one example at
    # a time took about 5 minutes to report a failure.
    @settings(phases=set(Phase) - {Phase.shrink})
    @given(lse_inputs())
    @example(case=(TIED_MAXIMA, 1))
    @example(case=(TIED_MAXIMA.T, 0))
    @example(case=(FAR_BELOW_MAX, 1))
    @example(case=(FAR_BELOW_MAX.T, 0))
    @example(case=(SUBNORMAL_BAND, 1))
    def test_textbook_bits_within_ulps_of_scipy(self, case):
        a, axis = case
        work = a.copy()
        got = _logsumexp(work, axis)
        assert np.array_equal(got, lse(a, axis))
        # every term exp took was at least e^-700: none was subnormal or 0,
        # where exp is slow, and yet the bits are those of the unclipped form
        assert np.all(work >= np.exp(-700.0))
        expected = logsumexp(a, axis=axis)
        assert got.shape == expected.shape
        lane_scale = np.maximum(1.0, np.abs(a).max(axis=axis))
        assert np.all(np.abs(got - expected) <= 8 * np.spacing(lane_scale))
        # lanes whose entries all tie: both compute log(count) + max
        ties = (a == a.max(axis=axis, keepdims=True)).all(axis=axis)
        assert np.array_equal(got[ties], expected[ties])


class TestSinkhornSolve:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_bits_as_scipy_half_updates(self, seed):
        """Same bits as the reference loop, and the same passes as with scipy's
        log-sum-exp, whose half-updates it agrees with to a few ulps."""
        rng = np.random.default_rng(seed)
        m, n = (int(x) for x in rng.integers(1, 12, 2))
        C = rng.random((m, n))
        if seed % 3 == 0:
            C = np.round(C, 1)  # ties in the log-sum-exp maxima
        f, g = rng.random(m) + 0.05, rng.random(n) + 0.05
        if seed % 2 == 0:  # zero-mass rows and columns
            f[rng.random(m) < 0.4] = 0.0
            g[rng.random(n) < 0.4] = 0.0
            f[0] = g[-1] = 0.5
        prob = make_problem(C, f, g)
        eps = float(10.0 ** rng.uniform(-2.5, -0.5))
        cfg = SinkhornConfig(penalty=eps, tol=1e-9, max_iters=5000)
        solved, _ = assert_same_bits(prob, cfg)
        assert_agrees_with_log_domain(prob, cfg, solved)

    def test_zero_cost_gives_product_coupling(self):
        rng = np.random.default_rng(0)
        prob = make_problem(np.zeros((3, 4)), rng.random(3) + 0.1, rng.random(4) + 0.1)
        plan, _, report = sinkhorn_solve(prob, SinkhornConfig(penalty=0.5, tol=1e-12))
        assert report.solved
        np.testing.assert_allclose(plan, np.outer(prob.f, prob.g), rtol=0, atol=1e-10)

    def test_symmetric_problem_symmetric_plan(self):
        rng = np.random.default_rng(1)
        A = rng.random((4, 4))
        C = A + A.T
        f = rng.random(4) + 0.2
        prob = make_problem(C, f, f)
        plan, _, report = sinkhorn_solve(prob, SinkhornConfig(penalty=0.2, tol=1e-12))
        assert report.solved
        np.testing.assert_allclose(plan, plan.T, rtol=0, atol=1e-10)

    def test_matches_naive_scaling(self):
        rng = np.random.default_rng(2)
        prob = random_problem(rng, 4, 4)
        cfg = SinkhornConfig(penalty=0.1, tol=1e-11)
        plan, _, report = sinkhorn_solve(prob, cfg)
        ref = naive_sinkhorn(prob.C, prob.f, prob.g, eps=0.1, tol=1e-11)
        assert report.solved
        np.testing.assert_allclose(plan, ref, rtol=0, atol=1e-8)

    def test_row_feasibility_exact_after_phi_update(self):
        rng = np.random.default_rng(3)
        prob = random_problem(rng, 5, 4)
        K = prob.C / 0.1  # the cost in units of the penalty, as the solver holds it
        log_f, log_g = np.log(prob.f), np.log(prob.g)
        b = np.zeros(4)
        work = np.empty_like(K)  # shared like the solver's: X lives until the next update
        for _ in range(3):
            a = _update_phi(b, K, log_f, work)
            X = _plan(a, b, K, work)
            np.testing.assert_allclose(X.sum(axis=1), prob.f, rtol=0, atol=1e-12)
            b = _update_psi(a, K, log_g, work)
            X = _plan(a, b, K, work)
            np.testing.assert_allclose(X.sum(axis=0), prob.g, rtol=0, atol=1e-12)

    def test_kernel_flushes_entries_below_e_minus_600(self):
        # exponents from 0 down through the flush threshold, the subnormal
        # band and the underflow to 0
        K = -np.linspace(-760.0, 0.0, 40).reshape(4, 10)
        a0, b0 = np.array([0.0, -1.5, 2.0, 0.25]), np.linspace(-3.0, 3.0, 10)
        X = np.exp(a0[:, None] + b0[None, :] - K)
        G = _kernel(a0, b0, K, np.empty_like(K))
        assert np.array_equal(G, np.where(X < FLUSH, 0.0, X))
        assert np.count_nonzero((X > 0) & (G == 0)) == 8

    def test_kernel_clip_keeps_the_bytes(self):
        # exponents straddling -601, where _kernel clips, and -600, where it flushes
        rng = np.random.default_rng(23)
        for _ in range(20):
            K = rng.uniform(0.0, 50.0, (30, 40))
            a0 = rng.uniform(-580.0, -550.0, 30)
            b0 = rng.uniform(-5.0, 5.0, 40)
            exponents = a0[:, None] + b0[None, :] - K
            assert exponents.min() < -601.0 < -600.0 < exponents.max()
            plan = _plan(a0, b0, K, np.empty_like(K))
            flushed = np.where(plan < FLUSH, 0.0, plan)
            G = _kernel(a0, b0, K, np.empty_like(K))
            assert G.tobytes() == flushed.tobytes()

    @pytest.mark.parametrize("zero_mass", [False, True])
    def test_inputs_not_written(self, zero_mass):
        # The solve divides its copy of the cost in place; with every marginal
        # entry positive that copy is all of C.
        prob = random_problem(np.random.default_rng(10), 5, 6)
        if zero_mass:
            prob = make_problem(prob.C, [0.2, 0.0, 0.3, 0.5, 0.0], [0.0, 0.1, 0.2, 0.3, 0.0, 0.4])
        inputs = (prob.C, prob.f, prob.g)
        before = [x.tobytes() for x in inputs]
        for max_iters, termination in ((100_000, "tolerance"), (3, "iteration_limit")):
            _, _, report = sinkhorn_solve(prob, SinkhornConfig(penalty=0.1, max_iters=max_iters))
            assert report.termination_reason == termination
            assert [x.tobytes() for x in inputs] == before

    def test_zero_marginals_eliminated(self):
        prob = make_problem(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
            [0.5, 0.0, 0.5],
            [0.2, 0.3, 0.5],
        )
        plan, (phi, _), report = sinkhorn_solve(prob, SinkhornConfig(penalty=0.2, tol=1e-8))
        assert report.solved
        np.testing.assert_array_equal(plan[1], np.zeros(3))
        assert np.all(np.isfinite(phi))
        np.testing.assert_allclose(plan.sum(axis=1), prob.f, rtol=0, atol=1e-7)

    def test_small_penalty_stays_finite(self):
        rng = np.random.default_rng(4)
        prob = random_problem(rng, 4, 4)
        plan, (phi, psi), _ = sinkhorn_solve(
            prob, SinkhornConfig(penalty=1e-4, tol=1e-6, max_iters=20_000)
        )
        assert np.all(np.isfinite(plan))
        assert np.all(plan >= 0)
        assert np.all(np.isfinite(phi))
        assert np.all(np.isfinite(psi))

    def test_objective_monotone_in_penalty(self):
        # rounded objective decreases toward the LP optimum 0.3 as the
        # penalty shrinks
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.3, 0.7], [0.6, 0.4])
        objectives = []
        for eps in (0.1, 0.01, 0.001):
            _, _, report = sinkhorn_solve(prob, SinkhornConfig(penalty=eps, tol=1e-12))
            assert report.solved
            objectives.append(report.rounded_objective)
        assert objectives[0] >= objectives[1] - 1e-9
        assert objectives[1] >= objectives[2] - 1e-9
        assert objectives[2] == pytest.approx(0.3, abs=5e-3)
        assert all(o >= 0.3 - 1e-9 for o in objectives)

    def test_gap_trend_on_small_grid(self):
        from otsolve import grid_problem

        prob = grid_problem("whitenoise", 4, "l2", seed=0)
        gaps = {}
        for eps in (0.01, 0.001):
            _, _, report = sinkhorn_solve(prob, SinkhornConfig(penalty=eps, tol=1e-6))
            gaps[eps] = report.duality_gap
        assert gaps[0.01] > gaps[0.001]

    def test_iteration_limit_reported(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, 4, 4)
        _, _, report = sinkhorn_solve(prob, SinkhornConfig(penalty=0.001, tol=1e-14, max_iters=5))
        assert not report.solved
        assert report.termination_reason == "iteration_limit"
        assert report.iterations == 5

    def test_start_meeting_tol_takes_no_iteration(self):
        # exp(-ln 4) = 1/4 is the product coupling of uniform 2x2 marginals
        prob = make_problem(np.full((2, 2), np.log(4.0)), [0.5, 0.5], [0.5, 0.5])
        plan, (phi, _), report = sinkhorn_solve(prob, SinkhornConfig(penalty=1.0))
        assert report.solved and report.iterations == 0
        np.testing.assert_array_equal(phi, 0.0)
        np.testing.assert_allclose(plan, 0.25, rtol=0, atol=1e-15)

    def test_plan_formed_at_start_and_exit(self, monkeypatch):
        # _kernel, not _plan, builds each absorbed kernel
        calls, kernel_calls = [], []

        def counted(*args):
            calls.append(1)
            return _plan(*args)

        def counted_kernel(*args):
            kernel_calls.append(1)
            return _kernel(*args)

        monkeypatch.setattr(otsolve.sinkhorn, "_plan", counted)
        monkeypatch.setattr(otsolve.sinkhorn, "_kernel", counted_kernel)
        prob = random_problem(np.random.default_rng(3), 4, 5)
        kernel_counts = []
        for eps in (0.1, 0.001):
            for max_iters, termination in ((7, "iteration_limit"), (100_000, "tolerance")):
                calls.clear()
                kernel_calls.clear()
                cfg = SinkhornConfig(penalty=eps, max_iters=max_iters)
                _, _, report = sinkhorn_solve(prob, cfg)
                kernels = len(gemv_sinkhorn(prob, eps, cfg.tol, max_iters)[-1])
                assert report.termination_reason == termination and report.iterations >= 7
                assert len(calls) == 2 and len(kernel_calls) == kernels
                kernel_counts.append(kernels)
        assert kernel_counts == [1, 1, 1, 4]
        calls.clear()
        start = make_problem(np.full((2, 2), np.log(4.0)), [0.5, 0.5], [0.5, 0.5])
        _, _, report = sinkhorn_solve(start, SinkhornConfig(penalty=1.0))
        assert report.iterations == 0 and len(calls) == 1

    def test_plan_not_meeting_tol_rebuilds_the_kernel(self, monkeypatch):
        # At tol 1e-13 the row test passes falsely 6 times here; each plan
        # formed then overwrites the kernel, which the next pass rebuilds.
        violations = []
        l1_violation = otsolve.sinkhorn._l1_violation

        def recorded(*args):
            violations.append(l1_violation(*args))
            return violations[-1]

        monkeypatch.setattr(otsolve.sinkhorn, "_l1_violation", recorded)
        prob = random_problem(np.random.default_rng(1), 4, 5)
        cfg = SinkhornConfig(penalty=0.001, tol=1e-13)
        (_, _, report), kernels = assert_same_bits(prob, cfg)
        assert report.termination_reason == "tolerance" and report.iterations == 1446
        failed = sum(x > cfg.tol for x in violations[1:])
        assert failed == 6 and len(kernels) > failed

    def test_subnormal_row_falls_back_to_the_log_domain(self, monkeypatch):
        # Row 0 of every kernel would be below e^-600, flushed to 0, so that
        # G v had a zero: every pass runs in the log domain, with the passes
        # of the log-domain loop, no warning and no kernel built.
        calls, kernels = [], []

        def counted(*args):
            calls.append(1)
            return _update_psi(*args)

        def counted_kernel(*args):
            kernels.append(1)
            return _kernel(*args)

        monkeypatch.setattr(otsolve.sinkhorn, "_update_psi", counted)
        monkeypatch.setattr(otsolve.sinkhorn, "_kernel", counted_kernel)
        prob = random_problem(np.random.default_rng(7), 4, 5)
        subnormal_row = make_problem(prob.C, [1e-310, 1 / 3, 1 / 3, 1 / 3], prob.g)
        passes = []
        for eps in (0.1, 0.01, 0.001):
            calls.clear()
            cfg = SinkhornConfig(penalty=eps, max_iters=2000)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, _, report = sinkhorn_solve(subnormal_row, cfg)
            assert len(calls) == report.iterations
            ref_iterations = log_domain_sinkhorn(subnormal_row, eps, cfg.tol, 2000, lse)[3]
            assert report.iterations == ref_iterations
            passes.append((report.iterations, report.termination_reason))
        assert passes == [(24, "tolerance"), (246, "tolerance"), (2000, "iteration_limit")]
        assert kernels == []

    def test_one_pass_batches_after_a_fallback(self, monkeypatch):
        # Column 0 of every kernel is below e^-600 here, flushed to 0, so G^T u
        # has a zero and every scaling pass falls back. After a fallback the
        # next batch is one pass, so only the first batch throws passes away.
        lengths = record_batch_lengths(monkeypatch)
        prob = random_problem(np.random.default_rng(7), 4, 5)
        subnormal_column = make_problem(prob.C, prob.f, [1e-310, 0.25, 0.25, 0.25, 0.25])
        for eps, iterations in ((0.1, 13), (0.01, 38), (0.001, 230)):
            lengths.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                (_, _, report), kernels = assert_same_bits(
                    subnormal_column, SinkhornConfig(penalty=eps, max_iters=2000))
            assert report.termination_reason == "tolerance" and report.iterations == iterations
            assert len(kernels) == iterations - 1
            assert lengths == [32] + [1] * (iterations - 2)

    def test_scaling_passes_resume_after_a_fallback(self, monkeypatch):
        # The product tests of one batch in mid-solve report its third pass
        # unusable: the two passes before it count, it runs in the log
        # domain, the fourth is thrown away, the next pass builds a kernel,
        # and the scaling passes go on.
        from otsolve import grid_problem

        checks, log_passes = itertools.count(), []
        usable = otsolve.sinkhorn._usable

        def forced(s):
            ok = usable(s)
            if next(checks) == 20:
                assert ok.size == 4 and ok.all()  # batches of 4 passes at 256x256
                ok[2] = False
            return ok

        def counted(*args):
            log_passes.append(1)
            return _update_psi(*args)

        monkeypatch.setattr(otsolve.sinkhorn, "_usable", forced)
        monkeypatch.setattr(otsolve.sinkhorn, "_update_psi", counted)
        prob = grid_problem("cauchy_like", 16, "l1", seed=11)
        cfg = SinkhornConfig(penalty=0.05, tol=1e-4)
        solved = sinkhorn_solve(prob, cfg)
        assert len(log_passes) == 2 and next(checks) > 100
        assert_agrees_with_log_domain(prob, cfg, solved)

    @pytest.mark.parametrize("max_iters", [1, 2, 7])
    def test_iteration_limit_exit_same_bits(self, max_iters):
        prob = random_problem(np.random.default_rng(8), 6, 5)
        cfg = SinkhornConfig(penalty=0.05, tol=1e-12, max_iters=max_iters)
        (_, _, report), _ = assert_same_bits(prob, cfg)
        assert report.termination_reason == "iteration_limit"
        assert report.iterations == max_iters

    @pytest.mark.parametrize("max_iters", [31, 32, 33, 34, 65, 66])
    def test_batch_boundary_iteration_limits_same_bits(self, max_iters):
        # shapes l2 is 58x6 after elimination: batches of 32 passes, the
        # first over passes 2-33, so the limits cut it, end it, cut the
        # second after one pass, end the second and cut the third
        from otsolve import grid_problem

        prob = grid_problem("shapes", 16, "l2", seed=11)
        cfg = SinkhornConfig(penalty=0.003, tol=1e-4, max_iters=max_iters)
        (_, _, report), kernels = assert_same_bits(prob, cfg)
        assert report.termination_reason == "iteration_limit"
        assert report.iterations == max_iters and kernels == [2]

    def test_events_mid_batch_same_bits(self, monkeypatch):
        # A batch starts at each kernel build and every 32 passes after it,
        # so an absorption or a tolerance exit lands mid-batch when its pass
        # is not 32k passes after the last build.
        from otsolve import grid_problem

        lengths = record_batch_lengths(monkeypatch)
        prob = grid_problem("shapes", 16, "l2", seed=11)
        cfg = SinkhornConfig(penalty=0.003, tol=1e-4)
        (_, _, report), kernels = assert_same_bits(prob, cfg)
        assert report.termination_reason == "tolerance" and max(lengths) == 32
        assert kernels == [2, 246, 2631]
        assert all(gap % 32 for gap in np.diff(kernels + [report.iterations + 1]))

    @settings(max_examples=100, phases=set(Phase) - {Phase.shrink})
    @given(st.integers(2, 8), st.integers(2, 8), st.floats(-2.0, math.log10(0.5)), st.data())
    def test_random_problems_same_bits(self, m, n, log_eps, data):
        # Batches of 32 passes, cut by absorptions, tolerance exits,
        # iteration limits and false row tests at every position. A problem
        # with one row or column is solved by its first pass; costs up to 30
        # penalties of 0.01 scale to 3,000, far enough to absorb.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        C = rng.random((m, n)) * data.draw(st.sampled_from([1.0, 10.0, 30.0]))
        prob = make_problem(C, rng.random(m) + 1e-3, rng.random(n) + 1e-3)
        tol = data.draw(st.sampled_from([1e-4, 1e-8, 1e-13]))
        cfg = SinkhornConfig(10.0 ** log_eps, tol, data.draw(st.integers(1, 400)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_bits(prob, cfg)

    @pytest.mark.parametrize("passes", [0, 1, 2, 7])
    def test_time_limit_exit_same_bits(self, passes, monkeypatch):
        # the clock reads 0, 1, 2, ...: the start, then one read per pass
        ticks = itertools.count()
        monkeypatch.setattr(otsolve.sinkhorn, "time",
                            SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        prob = random_problem(np.random.default_rng(9), 5, 6)
        cfg = SinkhornConfig(penalty=0.05, tol=1e-12, time_limit_s=passes + 0.5)
        (_, _, report), _ = assert_same_bits(prob, cfg, ref_max_iters=passes)
        assert report.termination_reason == "time_limit"
        assert report.iterations == passes

    @pytest.mark.parametrize("kind, norm, eps, iterations", [
        ("cauchy_like", "l1", 0.05, 310),
        ("shapes", "l2", 0.003, 3625),
        ("shapes", "linf", 0.003, 1859),
    ])
    def test_benchmark_problems_same_bits(self, kind, norm, eps, iterations):
        from otsolve import grid_problem

        prob = grid_problem(kind, 16, norm, seed=11)
        cfg = SinkhornConfig(penalty=eps, tol=1e-4)
        solved, _ = assert_same_bits(prob, cfg)
        assert_agrees_with_log_domain(prob, cfg, solved)
        _, _, report = solved
        assert report.termination_reason == "tolerance"
        assert report.iterations == iterations

    def test_peak_memory(self):
        # The solve's peak allocation, in plan-sized arrays above the problem.
        # The loop holds the scaled cost and its work buffer; the returned
        # plan and the rounding's two arrays come after both are dropped;
        # keeping them through the rounding would read 5.3.
        from otsolve import grid_problem

        prob = grid_problem("cauchy_like", 16, "l1", seed=11)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, _, report = sinkhorn_solve(prob, SinkhornConfig(penalty=0.05, tol=1e-4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations == 310
        assert (peak - before) / prob.C.nbytes <= 3.5

    @pytest.mark.parametrize("C", [
        [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],  # used to run to max_iters
        [[1.0, 2.0], [2.0, 1.0]],  # used to fail after overflow warnings
        np.zeros((3, 3)),  # finite scaled cost, but a subnormal penalty
    ])
    def test_overflowing_penalty_fails_fast(self, C, monkeypatch):
        def no_pass(*args):
            raise AssertionError("a pass was started")

        monkeypatch.setattr(otsolve.sinkhorn, "_plan", no_pass)
        n = len(C)
        prob = make_problem(C, np.ones(n), np.ones(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"^numerical failure: penalty 1e-320 "):
                sinkhorn_solve(prob, SinkhornConfig(penalty=1e-320, max_iters=2000))

    def test_smallest_accepted_penalty_stays_finite(self):
        rng = np.random.default_rng(7)
        prob = random_problem(rng, 4, 5)
        tiny = make_problem(prob.C * 1e-300, prob.f, prob.g)
        c_max = float(np.abs(prob.C).max())
        for p, eps in ((prob, 32.0 * c_max / np.finfo(np.float64).max),
                       (tiny, float(np.finfo(np.float64).tiny))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                plan, (phi, psi), _ = sinkhorn_solve(p, SinkhornConfig(penalty=eps, max_iters=50))
            assert np.all(np.isfinite(plan))
            assert np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))

    def test_extreme_weights_and_penalties_same_bits(self):
        # Each row test exp is a row mass, at most 1, so it cannot overflow;
        # at the smallest penalty it can pass falsely, and the plan decides.
        rng = np.random.default_rng(7)
        prob = random_problem(rng, 4, 5)
        tiny = make_problem(prob.C * 1e-300, prob.f, prob.g)
        subnormal_row = make_problem(prob.C, [1e-310, 1 / 3, 1 / 3, 1 / 3], prob.g)
        assert subnormal_row.f[0] == 1e-310
        c_max = float(np.abs(prob.C).max())
        cases = [(prob, 32.0 * c_max / np.finfo(np.float64).max, 50),
                 (tiny, float(np.finfo(np.float64).tiny), 50)]
        cases += [(subnormal_row, eps, 2000) for eps in (0.1, 0.01, 0.001)]
        for p, eps, max_iters in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert_same_bits(p, SinkhornConfig(penalty=eps, max_iters=max_iters))

    def test_config_validation(self):
        for penalty in (0.0, float("inf")):
            with pytest.raises(ValueError):
                SinkhornConfig(penalty=penalty)
        for name in ("penalty", "tol", "time_limit_s", "max_iters"):
            with pytest.raises(ValueError):
                SinkhornConfig(**{name: float("nan")})


def test_package_import_loads_no_scipy():
    src = Path(otsolve.__file__).resolve().parents[1]
    code = "import sys, otsolve; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


# Solves the two grid problems of the thread-count test and prints, first, a
# dot product whose bits depend on the BLAS thread count, then each solve's
# passes and a hash of its plan and potentials.
THREADS_SCRIPT = """
import hashlib
import numpy as np
from otsolve import SinkhornConfig, grid_problem, sinkhorn_solve
x, y = np.random.default_rng(0).standard_normal((2, 65536))
print(float(np.vdot(x, y)).hex())
for kind, norm, eps in (("cauchy_like", "l1", 0.05), ("shapes", "l2", 0.003)):
    prob = grid_problem(kind, 16, norm, seed=11)
    plan, (phi, psi), report = sinkhorn_solve(prob, SinkhornConfig(penalty=eps, tol=1e-4))
    digest = hashlib.sha256(plan.tobytes() + phi.tobytes() + psi.tobytes()).hexdigest()
    print(report.iterations, digest)
"""


def test_same_bits_on_one_and_two_blas_threads():
    # The report's objective and gap are left out: they go through np.vdot.
    src = Path(otsolve.__file__).resolve().parents[1]
    out = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        out[threads] = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], capture_output=True,
                                      text=True, check=True, env=env).stdout.splitlines()
    if out["1"][0] == out["2"][0]:
        pytest.skip("np.vdot has the same bits on 1 and 2 BLAS threads here: BLAS ran one thread")
    assert len(out["1"]) == 3
    assert out["1"][1:] == out["2"][1:]
