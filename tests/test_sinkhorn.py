import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

import otsolve.sinkhorn
from otsolve import SinkhornConfig, sinkhorn_solve
from otsolve.sinkhorn import _logsumexp, _plan, _update_phi, _update_psi

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


def scipy_sinkhorn(prob, eps, tol, max_iters):
    """Reference: the log-domain loop with scipy.special.logsumexp half-updates.

    It forms the plan on every pass and returns, besides the plan, the
    potentials and the iteration count, the plan's last l1 violation.
    """
    rows, cols = prob.f > 0, prob.g > 0
    C, f, g = prob.C[np.ix_(rows, cols)], prob.f[rows], prob.g[cols]
    phi, psi = np.zeros(f.size), np.zeros(g.size)
    iterations = 0
    while True:
        X = np.exp((phi[:, None] + psi[None, :] - C) / eps)
        err = np.abs(X.sum(axis=1) - f).sum() + np.abs(X.sum(axis=0) - g).sum()
        if err <= tol or iterations == max_iters:
            break
        phi = eps * np.log(f) - eps * logsumexp((psi[None, :] - C) / eps, axis=1)
        psi = eps * np.log(g) - eps * logsumexp((phi[:, None] - C) / eps, axis=0)
        iterations += 1
    plan = np.zeros(prob.C.shape)
    plan[np.ix_(rows, cols)] = X
    phi_full, psi_full = np.zeros(prob.m), np.zeros(prob.n)
    phi_full[rows], psi_full[cols] = phi, psi
    return plan, phi_full, psi_full, iterations, err


def assert_same_bits(prob, cfg, ref_max_iters=None):
    """sinkhorn_solve under cfg matches the reference to the bit.

    The reference stops by tolerance or by ref_max_iters (cfg.max_iters if
    None), the pass a time-limit exit is expected at.
    """
    plan, (phi, psi), report = sinkhorn_solve(prob, cfg)
    max_iters = cfg.max_iters if ref_max_iters is None else ref_max_iters
    ref_plan, ref_phi, ref_psi, ref_iterations, ref_err = scipy_sinkhorn(
        prob, cfg.penalty, cfg.tol, max_iters)
    assert report.iterations == ref_iterations
    assert np.array_equal(plan, ref_plan)
    assert np.array_equal(phi, ref_phi)
    assert np.array_equal(psi, ref_psi)
    assert report.final_relative_kkt == ref_err
    return report


@st.composite
def lse_inputs(draw):
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    # integer-valued entries make maxima tie
    entry = st.one_of(st.integers(-20, 20).map(float), st.floats(-20, 20))
    scale = draw(st.floats(1e-3, 1e3))
    return draw(arrays(np.float64, shape, elements=entry)) * scale, draw(st.sampled_from([0, 1]))


class TestLogSumExp:
    @given(lse_inputs())
    def test_same_bits_as_scipy(self, case):
        a, axis = case
        expected = logsumexp(a, axis=axis)
        got = _logsumexp(a.copy(), axis)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


class TestSinkhornSolve:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_bits_as_scipy_half_updates(self, seed):
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
        assert_same_bits(prob, cfg)

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
        eps = 0.1
        log_f, log_g = np.log(prob.f), np.log(prob.g)
        psi = np.zeros(4)
        work = np.empty_like(prob.C)  # shared like the solver's: X lives until the next update
        for _ in range(3):
            phi = _update_phi(psi, prob.C, log_f, eps, work)
            X = _plan(phi, psi, prob.C, eps, work)
            np.testing.assert_allclose(X.sum(axis=1), prob.f, rtol=0, atol=1e-12)
            psi = _update_psi(phi, prob.C, log_g, eps, work)
            X = _plan(phi, psi, prob.C, eps, work)
            np.testing.assert_allclose(X.sum(axis=0), prob.g, rtol=0, atol=1e-12)

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
        calls = []

        def counted(*args):
            calls.append(1)
            return _plan(*args)

        monkeypatch.setattr(otsolve.sinkhorn, "_plan", counted)
        prob = random_problem(np.random.default_rng(3), 4, 5)
        for max_iters, termination in ((7, "iteration_limit"), (100_000, "tolerance")):
            calls.clear()
            _, _, report = sinkhorn_solve(prob, SinkhornConfig(penalty=0.1, max_iters=max_iters))
            assert report.termination_reason == termination and report.iterations >= 7
            assert len(calls) == 2
        calls.clear()
        start = make_problem(np.full((2, 2), np.log(4.0)), [0.5, 0.5], [0.5, 0.5])
        _, _, report = sinkhorn_solve(start, SinkhornConfig(penalty=1.0))
        assert report.iterations == 0 and len(calls) == 1

    @pytest.mark.parametrize("max_iters", [1, 2, 7])
    def test_iteration_limit_exit_same_bits(self, max_iters):
        prob = random_problem(np.random.default_rng(8), 6, 5)
        report = assert_same_bits(prob, SinkhornConfig(penalty=0.05, tol=1e-12,
                                                       max_iters=max_iters))
        assert report.termination_reason == "iteration_limit"
        assert report.iterations == max_iters

    @pytest.mark.parametrize("passes", [0, 1, 2, 7])
    def test_time_limit_exit_same_bits(self, passes, monkeypatch):
        # the clock reads 0, 1, 2, ...: the start, then one read per pass
        ticks = itertools.count()
        monkeypatch.setattr(otsolve.sinkhorn, "time",
                            SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        prob = random_problem(np.random.default_rng(9), 5, 6)
        cfg = SinkhornConfig(penalty=0.05, tol=1e-12, time_limit_s=passes + 0.5)
        report = assert_same_bits(prob, cfg, ref_max_iters=passes)
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
        report = assert_same_bits(prob, SinkhornConfig(penalty=eps, tol=1e-4))
        assert report.termination_reason == "tolerance"
        assert report.iterations == iterations

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
