import math
import re
import threading
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

import otsolve.kkt
import otsolve.pdhg
from otsolve import Iterate, SolverConfig, grid_problem, kkt_error, solve
from otsolve.kkt import dual_slack
from otsolve.pdhg import (
    ADAPTIVE,
    FIXED_BETA,
    default_stepsize,
    pdhg_step,
    primal_weight_update,
    should_restart,
    stepsize_bound,
)

from _helpers import (
    blocks, make_problem, random_iterate, random_problem, solve_bytes, two_by_two_optimal,
)
from _oracles import (
    materialize_A,
    unshared_kkt_error,
    unshared_mean_step,
    unshared_pdhg_step,
    unshared_stepsize_bound,
)


def dense_pdhg_run(prob, x, y, eta, iters):
    """Reference: generic PDHG on the vectorized LP with the dense matrix."""
    A = materialize_A(prob.m, prob.n)
    c = prob.C.ravel()
    b = np.concatenate([prob.f, prob.g])
    states = []
    for _ in range(iters):
        x_new = np.maximum(x - eta * (c - A.T @ y), 0.0)
        y = y + eta * (b - A @ (2.0 * x_new - x))
        x = x_new
        states.append((x.copy(), y.copy()))
    return states


def record_steps(monkeypatch):
    """Wrap the solver's step; each call appends (trial iterate, eta).

    eta = sqrt(tau * sigma) is recovered from the step lengths, so it matches
    the solver's value up to rounding.
    """
    calls = []
    real = otsolve.pdhg.pdhg_step

    def step(prob, it, tau, sigma, slack):
        out = real(prob, it, tau, sigma, slack)
        calls.append((out, math.sqrt(tau * sigma)))
        return out

    monkeypatch.setattr(otsolve.pdhg, "pdhg_step", step)
    return calls


def fixed_bound(monkeypatch, value):
    """Make the line search see ``value`` as the bound of every trial step."""
    monkeypatch.setattr(otsolve.pdhg, "stepsize_bound", lambda it, nxt, omega, work: value)


class TestPdhgStep:
    def test_fixed_point_at_optimum(self):
        prob, it = two_by_two_optimal()
        nxt = pdhg_step(prob, it, 0.2, 0.2, dual_slack(prob, it))
        np.testing.assert_allclose(nxt.X, it.X, rtol=0, atol=1e-14)
        np.testing.assert_allclose(nxt.p, it.p, rtol=0, atol=1e-14)
        np.testing.assert_allclose(nxt.q, it.q, rtol=0, atol=1e-14)

    def test_from_zero_start(self):
        prob, _ = two_by_two_optimal()
        start = Iterate.zeros(2, 2)
        nxt = pdhg_step(prob, start, 0.1, 0.1, dual_slack(prob, start))
        np.testing.assert_array_equal(nxt.X, np.zeros((2, 2)))
        np.testing.assert_allclose(nxt.p, 0.1 * prob.f, rtol=0, atol=1e-16)
        np.testing.assert_allclose(nxt.q, 0.1 * prob.g, rtol=0, atol=1e-16)

    def test_matches_dense_vectorized_pdhg(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            prob = random_problem(rng, m, n)
            it = Iterate(rng.random((m, n)), rng.standard_normal(m), rng.standard_normal(n))
            eta = default_stepsize(prob)
            dense = dense_pdhg_run(
                prob, it.X.ravel().copy(), np.concatenate([it.p, it.q]), eta, 50
            )
            for x_ref, y_ref in dense:
                it = pdhg_step(prob, it, eta, eta, dual_slack(prob, it))
                np.testing.assert_allclose(it.X.ravel(), x_ref, rtol=0, atol=1e-10)
                np.testing.assert_allclose(
                    np.concatenate([it.p, it.q]), y_ref, rtol=0, atol=1e-10
                )

    def test_shared_slack_same_bits(self):
        # integer data, so p_i + q_j == C_ij exactly on many cells and the
        # slack holds exact zeros; the given slack ends up overwritten
        rng = np.random.default_rng(13)
        for _ in range(20):
            m, n = (int(v) for v in rng.integers(1, 7, size=2))
            prob = make_problem(rng.integers(0, 4, (m, n)), rng.random(m) + 0.1, rng.random(n) + 0.1)
            it = Iterate(rng.integers(0, 2, (m, n)) * rng.random((m, n)),
                         rng.integers(-2, 3, m).astype(float), rng.integers(-2, 3, n).astype(float))
            tau, sigma = rng.random(2) + 0.01
            expected = unshared_pdhg_step(prob, it, tau, sigma, None)
            slack = dual_slack(prob, it)
            out = pdhg_step(prob, it, tau, sigma, slack)
            for block in ("X", "p", "q"):
                assert getattr(out, block).tobytes() == getattr(expected, block).tobytes()
            assert slack.tobytes() == (2.0 * expected.X - it.X).tobytes()


class TestStepSize:
    def test_zero_displacement_keeps_eta(self, monkeypatch):
        # a zero displacement has zero coupling and so an infinite bound, which
        # carries no curvature information: forced here for every step, each
        # is accepted and eta never changes
        prob = random_problem(np.random.default_rng(3), 3, 4)
        steps = record_steps(monkeypatch)
        fixed_bound(monkeypatch, math.inf)
        _, report = solve(prob, SolverConfig(tol=1e-16, max_iters=20))
        assert len(steps) == report.iterations == 20
        for _, eta in steps:
            assert eta == pytest.approx(default_stepsize(prob), rel=1e-14)

    def test_hand_evaluated_bound(self):
        it = Iterate.zeros(2, 2)
        nxt = Iterate(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0]), np.zeros(2))
        assert stepsize_bound(it, nxt, 1.0, np.empty((2, 2))) == pytest.approx(1.0, abs=1e-15)

    def test_halving_until_bound(self, monkeypatch):
        prob = random_problem(np.random.default_rng(4), 3, 4)
        eta0 = default_stepsize(prob)
        steps = record_steps(monkeypatch)
        fixed_bound(monkeypatch, 0.3 * eta0)
        _, report = solve(prob, SolverConfig(tol=1e-16, max_iters=1))
        etas = [eta / eta0 for _, eta in steps]
        # 1 -> 1/2 -> 1/4: two rejected trials, then the first eta under the bound
        assert etas == pytest.approx([1.0, 0.5, 0.25], rel=1e-14)
        assert report.iterations == 1

    def test_growth_capped_by_bound(self, monkeypatch):
        prob = random_problem(np.random.default_rng(4), 3, 4)
        eta0 = default_stepsize(prob)
        steps = record_steps(monkeypatch)
        fixed_bound(monkeypatch, 0.3 * eta0)
        solve(prob, SolverConfig(tol=1e-16, max_iters=8))
        etas = [eta / eta0 for _, eta in steps[2:]]  # the accepted steps
        # far below the bound: mild 1.05x growth; once it would pass the bound: capped
        expected = [0.25, 0.2625, 0.275625, 0.28940625, 0.3, 0.3, 0.3, 0.3]
        assert etas == pytest.approx(expected, rel=1e-14)

    def test_tau_sigma_from_eta_omega(self, monkeypatch):
        # each epoch's first trial takes tau = eta / omega and sigma = eta * omega
        # from its record; later trials change eta but keep omega
        prob = random_problem(np.random.default_rng(6), 3, 5)
        trials = []
        real = otsolve.pdhg.pdhg_step

        def step(prob, it, tau, sigma, slack):
            trials.append((tau, sigma))
            return real(prob, it, tau, sigma, slack)

        monkeypatch.setattr(otsolve.pdhg, "pdhg_step", step)
        epochs = []  # (record, index of the epoch's first trial)
        solve(prob, SolverConfig(tol=1e-6), on_restart=lambda r: epochs.append((r, len(trials))))
        assert len(epochs) >= 4 and len({r.omega for r, _ in epochs}) > 1
        ends = [start for _, start in epochs[1:]] + [len(trials)]
        for (record, start), end in zip(epochs, ends):
            assert trials[start] == (record.eta / record.omega, record.eta * record.omega)
            for tau, sigma in trials[start:end]:
                assert sigma / tau == pytest.approx(record.omega**2, rel=1e-12)


class TestPrimalWeight:
    def test_balanced_ratio(self):
        assert primal_weight_update(1.0, 4.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_below_eps_zero_unchanged(self):
        assert primal_weight_update(1e-12, 4.0, 3.0) == 3.0
        assert primal_weight_update(4.0, 1e-12, 3.0) == 3.0

    def test_equal_progress(self):
        assert primal_weight_update(2.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-15)


def restart_with_kkts(monkeypatch, kkt_current, kkt_average):
    """One fixed-mode iteration whose current iterate and running average
    have the given relative KKT errors; returns the restart record."""
    steps = record_steps(monkeypatch)

    def kkt(prob, it, slack=None):
        if not steps:
            value = 1.0  # the starting point
        else:
            value = kkt_current if it is steps[-1][0] else kkt_average
        return value

    monkeypatch.setattr(otsolve.pdhg, "kkt_error", kkt)
    prob = random_problem(np.random.default_rng(7), 3, 3)
    records = []
    cfg = SolverConfig(restart_mode=FIXED_BETA, beta=0.5, tol=1e-16, max_iters=1)
    solve(prob, cfg, on_restart=records.append)
    assert len(records) == 2 and records[0].candidate == "start"
    return records[1], steps[-1][0]


class TestRestartCandidate:
    def test_picks_strictly_better_current(self, monkeypatch):
        record, current = restart_with_kkts(monkeypatch, 0.2, 0.3)
        assert record.candidate == "current"
        assert record.kkt == 0.2
        np.testing.assert_array_equal(record.point.X, current.X)

    def test_picks_better_average(self, monkeypatch):
        record, _ = restart_with_kkts(monkeypatch, 0.3, 0.2)
        assert record.candidate == "average"
        assert record.kkt == 0.2

    def test_tie_goes_to_average(self, monkeypatch):
        record, _ = restart_with_kkts(monkeypatch, 0.2, 0.2)
        assert record.candidate == "average"


class TestShouldRestart:
    def test_sufficient_decay(self):
        cfg = SolverConfig()
        assert should_restart(cfg, 0.05, 1.0, 0.01, k=5, total_iterations=1000)

    def test_necessary_decay_with_local_increase(self):
        cfg = SolverConfig()
        assert should_restart(cfg, 0.5, 1.0, 0.4, k=5, total_iterations=1000)
        assert not should_restart(cfg, 0.5, 1.0, 0.6, k=5, total_iterations=1000)

    def test_long_inner_loop(self):
        cfg = SolverConfig()
        assert should_restart(cfg, 0.95, 1.0, 0.9, k=36, total_iterations=100)
        assert not should_restart(cfg, 0.95, 1.0, 0.9, k=35, total_iterations=100)

    def test_fixed_mode(self):
        cfg = SolverConfig(restart_mode=FIXED_BETA, beta=0.5)
        assert should_restart(cfg, 0.5, 1.0, 0.0, k=1, total_iterations=2)
        assert not should_restart(cfg, 0.51, 1.0, 0.0, k=1, total_iterations=2)


class TestSolve:
    def test_forced_single_cell(self):
        prob = make_problem([[0.0]], [1.0], [1.0])
        it, report = solve(prob, SolverConfig(tol=1e-8))
        assert report.solved
        assert report.rounded_objective == 0.0
        assert report.duality_gap <= 1e-7

    def test_asymmetric_two_by_two(self):
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.3, 0.7], [0.6, 0.4])
        it, report = solve(prob, SolverConfig(tol=1e-6))
        assert report.solved
        assert report.rounded_objective == pytest.approx(0.3, abs=1e-4)
        assert np.all(np.isfinite(it.X))

    def test_warm_start_at_optimum(self):
        prob, opt = two_by_two_optimal()
        it, report = solve(prob, SolverConfig(tol=1e-6), initial=opt)
        assert report.solved
        assert report.iterations == 0

    @pytest.mark.parametrize("form", [
        lambda b: np.rint(4.0 * b).astype(np.int64),
        lambda b: b > 0.3,
        lambda b: b.astype(np.float32),
        lambda b: b.tolist(),
        lambda b: np.asfortranarray(b),
    ], ids=["int64", "bool", "float32", "lists", "fortran"])
    def test_initial_taken_as_float64_c_order(self, form):
        # the bits of the float64, C-ordered initial with the same values
        rng = np.random.default_rng(9)
        prob = random_problem(rng, 4, 6)
        start = random_iterate(rng, 4, 6)
        given = Iterate(form(start.X), form(start.p), form(start.q))
        same = Iterate(*(np.array(b, dtype=np.float64, order="C") for b in
                         (given.X, given.p, given.q)))
        cfg = SolverConfig(tol=1e-8, max_iters=300)
        expected = solve_bytes(prob, cfg, same)
        assert len(expected[1]) >= 3  # the start and at least two restarts
        assert solve_bytes(prob, cfg, given) == expected

    @pytest.mark.parametrize("X, p, q, shapes", [
        (np.zeros((3, 4)), np.zeros((3, 1)), np.zeros(4), "((3, 4), (3, 1), (4,))"),
        (np.zeros((4, 3)), np.zeros(3), np.zeros(4), "((4, 3), (3,), (4,))"),
        (np.zeros((1, 4)), np.zeros(3), np.zeros(4), "((1, 4), (3,), (4,))"),
        (np.zeros((3, 4)), np.zeros(3), 0.0, "((3, 4), (3,), ())"),
    ], ids=["p_column", "X_transposed", "X_one_row", "q_scalar"])
    def test_misshaped_initial_rejected(self, X, p, q, shapes):
        prob = random_problem(np.random.default_rng(2), 3, 4)
        expected = re.escape(f"shapes {shapes}, expected ((3, 4), (3,), (4,))")
        with pytest.raises(ValueError, match=expected):
            solve(prob, initial=Iterate(X, p, q))

    @pytest.mark.parametrize("mode", [ADAPTIVE, FIXED_BETA])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("block", ["X", "p", "q"])
    def test_non_finite_initial_rejected(self, block, value, mode, monkeypatch):
        # rejected before any step: in the loop, adaptive mode would report a
        # failed line search after 80 halvings, fixed mode a non-finite iterate
        def no_step(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(otsolve.pdhg, "pdhg_step", no_step)
        prob = random_problem(np.random.default_rng(2), 3, 4)
        start = random_iterate(np.random.default_rng(5), 3, 4)
        getattr(start, block)[-1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^initial {block} has a non-finite entry$"):
                solve(prob, SolverConfig(restart_mode=mode), initial=start)

    @pytest.mark.parametrize("mode", [ADAPTIVE, FIXED_BETA])
    def test_negative_initial_plan_rejected(self, mode, monkeypatch):
        # kkt_error has no term for X >= 0, so this start reads exactly 0:
        # accepted, it would come back as optimal with objective -0.2, where
        # the optimum is 0
        def no_step(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(otsolve.pdhg, "pdhg_step", no_step)
        prob, _ = two_by_two_optimal()
        start = Iterate(np.array([[0.6, -0.1], [-0.1, 0.6]]), np.array([-0.2, -0.2]), np.zeros(2))
        assert kkt_error(prob, start) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^initial X has a negative entry$"):
                solve(prob, SolverConfig(restart_mode=mode), initial=start)

    @pytest.mark.parametrize("termination, cfg, warm", [
        ("tolerance", SolverConfig(tol=1e-6), False),
        ("iteration_limit", SolverConfig(tol=1e-14, max_iters=10), False),
        ("tolerance", SolverConfig(tol=1e-6), True),  # the start already meets tol
    ], ids=["tolerance", "iteration_limit", "warm_start_meets_tol"])
    def test_returns_the_point_the_report_describes(self, termination, cfg, warm):
        prob, opt = two_by_two_optimal()
        if not warm:
            prob = random_problem(np.random.default_rng(8), 4, 4)
        it, report = solve(prob, cfg, initial=opt if warm else None)
        assert report.termination_reason == termination
        assert (report.iterations == 0) == warm
        assert kkt_error(prob, it) == report.final_relative_kkt

    def test_fixed_beta_restart_decay(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, 4, 4)
        cfg = SolverConfig(restart_mode=FIXED_BETA, beta=0.5, tol=1e-7)
        _, report = solve(prob, cfg)
        assert report.solved
        assert report.restarts >= 3
        kkts = report.restart_kkts
        for prev, nxt in zip(kkts, kkts[1:]):
            assert nxt <= 0.5 * prev

    def test_accepted_steps_satisfy_bound(self, monkeypatch):
        rng = np.random.default_rng(6)
        prob = random_problem(rng, 3, 5)
        steps = record_steps(monkeypatch)
        bounds = {}
        real_bound = otsolve.pdhg.stepsize_bound

        def bound(it, nxt, omega, work):
            bounds[id(nxt)] = real_bound(it, nxt, omega, work)
            return bounds[id(nxt)]

        evaluated = []  # the iterates whose KKT error the loop evaluates
        real_kkt = otsolve.pdhg.kkt_error

        def kkt(prob, it, slack=None):
            evaluated.append(it)  # a reference, so no later object reuses its id
            return real_kkt(prob, it, slack)

        monkeypatch.setattr(otsolve.pdhg, "stepsize_bound", bound)
        monkeypatch.setattr(otsolve.pdhg, "kkt_error", kkt)
        _, report = solve(prob, SolverConfig(tol=1e-6))
        assert report.solved
        # a trial becomes the current iterate iff the loop goes on to evaluate it
        evaluated_ids = {id(it) for it in evaluated}
        accepted = [(eta, bounds[id(out)]) for out, eta in steps if id(out) in evaluated_ids]
        assert len(accepted) == report.iterations
        assert len(steps) > report.iterations  # the line search did reject some trials
        for eta, b in accepted:
            assert eta <= b * (1.0 + 1e-14)  # eta recovered from tau, sigma to rounding

    def test_running_average_recursion(self, monkeypatch):
        rng = np.random.default_rng(8)
        prob = random_problem(rng, 3, 3)
        steps = record_steps(monkeypatch)
        averages = {}  # iteration -> the average evaluated after that step
        real_kkt = otsolve.pdhg.kkt_error

        def kkt(prob, it, slack=None):
            if steps and it is not steps[-1][0]:
                averages.setdefault(len(steps), it)  # a value, never written after
            return real_kkt(prob, it, slack)

        monkeypatch.setattr(otsolve.pdhg, "kkt_error", kkt)
        records = []
        # beta tiny so no restart fires within the budget
        cfg = SolverConfig(restart_mode=FIXED_BETA, beta=1e-9, tol=1e-16, max_iters=25)
        solve(prob, cfg, on_restart=records.append)
        assert len(steps) == 25
        assert len(records) == 1  # the start only
        for k in (1, 5, 25):
            inner = [out for out, _ in steps[:k]]
            for block in ("X", "p", "q"):
                mean = np.mean([getattr(z, block) for z in inner], axis=0)
                np.testing.assert_allclose(
                    getattr(averages[k], block), mean, rtol=0, atol=1e-13
                )

    @pytest.mark.parametrize("mode", [ADAPTIVE, FIXED_BETA])
    def test_solve_writes_into_no_iterate(self, mode):
        rng = np.random.default_rng(21)
        prob = random_problem(rng, 4, 5)
        initial = random_iterate(rng, 4, 5)
        seen = [(initial, blocks(initial))]
        records = []

        def on_restart(record):
            records.append(record)
            seen.append((record.point, blocks(record.point)))

        cfg = SolverConfig(tol=1e-8, restart_mode=mode)
        it, report = solve(prob, cfg, initial=initial, on_restart=on_restart)
        assert report.restarts >= 3
        assert "average" in {r.candidate for r in records}
        for point, before in seen:
            assert blocks(point) == before
        assert kkt_error(prob, it) == report.final_relative_kkt

    @pytest.mark.parametrize(
        "mode, iters, bound, workers",
        [(FIXED_BETA, 400, 5.5, 1), (ADAPTIVE, 60, 6.5, 1), (FIXED_BETA, 400, 5.5, 2),
         (ADAPTIVE, 60, 6.5, 2)],
        ids=[FIXED_BETA, ADAPTIVE, f"{FIXED_BETA}-split", f"{ADAPTIVE}-split"],
    )
    def test_peak_memory(self, mode, iters, bound, workers, split_passes):
        # The solve's peak allocation, in plan-sized arrays above the problem.
        # A copied or needlessly kept iterate costs one more array, and so
        # would a pass split over threads that needed one.
        if workers > 1:
            split_passes(workers)
        prob = grid_problem("shapes", 16, "l1", seed=11)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, report = solve(prob, SolverConfig(tol=1e-12, restart_mode=mode, max_iters=iters))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations == iters
        assert (peak - before) / prob.C.nbytes <= bound

    def test_restart_records_match_report(self):
        prob = random_problem(np.random.default_rng(6), 3, 5)
        records = []
        _, report = solve(prob, SolverConfig(tol=1e-6), on_restart=records.append)
        start = records[0]
        assert (start.iteration, start.length, start.candidate) == (0, 0, "start")
        assert (start.eta, start.omega) == (default_stepsize(prob), 1.0)
        assert report.restarts == len(records) - 1 >= 3
        assert report.restart_lengths == [r.length for r in records[1:]]
        assert report.restart_kkts == [r.kkt for r in records]
        assert [r.iteration for r in records[1:]] == np.cumsum(report.restart_lengths).tolist()
        assert {r.candidate for r in records[1:]} <= {"current", "average"}

    def test_kkt_error_calls(self, monkeypatch):
        # one evaluation of the start, then the current iterate and the
        # average once each per iteration; the report reuses a known value
        calls = []
        real_kkt = otsolve.pdhg.kkt_error

        def kkt(prob, it, slack=None):
            calls.append(real_kkt(prob, it, slack))
            return calls[-1]

        monkeypatch.setattr(otsolve.pdhg, "kkt_error", kkt)
        prob = random_problem(np.random.default_rng(6), 3, 5)
        tiny, opt = two_by_two_optimal()
        for problem, cfg, initial in (
            (prob, SolverConfig(tol=1e-6), None),
            (prob, SolverConfig(tol=1e-14, max_iters=30), None),
            (prob, SolverConfig(tol=1e-6, restart_mode=FIXED_BETA), None),
            (tiny, SolverConfig(tol=1e-6), opt),
        ):
            calls.clear()
            _, report = solve(problem, cfg, initial=initial)
            assert len(calls) == 1 + 2 * report.iterations
            assert report.final_relative_kkt in calls

    def test_non_finite_iterate_fails(self, monkeypatch):
        real = otsolve.pdhg.pdhg_step

        def step(prob, it, tau, sigma, slack):
            out = real(prob, it, tau, sigma, slack)
            out.q[-1] = math.nan
            return out

        monkeypatch.setattr(otsolve.pdhg, "pdhg_step", step)
        prob = random_problem(np.random.default_rng(3), 3, 4)
        with pytest.raises(RuntimeError, match="numerical failure: non-finite iterate"):
            solve(prob, SolverConfig(restart_mode=FIXED_BETA))

    def test_huge_finite_start_is_no_failure(self):
        # a finite start whose squared norm overflows runs to the limit
        prob, _ = two_by_two_optimal()
        start = Iterate(np.zeros((2, 2)), np.full(2, -1e200), np.zeros(2))
        _, report = solve(prob, SolverConfig(max_iters=3), initial=start)
        assert report.termination_reason == "iteration_limit"
        assert math.isfinite(report.final_relative_kkt)

    def test_iteration_limit(self):
        rng = np.random.default_rng(9)
        prob = random_problem(rng, 4, 4)
        _, report = solve(prob, SolverConfig(tol=1e-14, max_iters=10))
        assert not report.solved
        assert report.termination_reason == "iteration_limit"
        assert report.iterations == 10

    def test_time_limit(self):
        rng = np.random.default_rng(10)
        prob = random_problem(rng, 8, 8)
        _, report = solve(prob, SolverConfig(tol=1e-16, time_limit_s=1e-4, max_iters=10**9))
        assert not report.solved
        assert report.termination_reason == "time_limit"

    def test_iterates_stay_finite(self):
        rng = np.random.default_rng(12)
        prob = random_problem(rng, 5, 3)
        it, report = solve(prob, SolverConfig(tol=1e-6))
        for block in (it.X, it.p, it.q):
            assert np.all(np.isfinite(block))
        assert report.final_relative_kkt <= 1e-6

    def test_whitenoise_grid_self_certifies(self):
        # 256x256 cost matrix; the returned iterate certifies itself through
        # the relative KKT error and the post-rounding duality gap
        from otsolve import grid_problem

        prob = grid_problem("whitenoise", 16, "l2", seed=11)
        _, report = solve(prob, SolverConfig(tol=1e-5))
        assert report.solved
        assert report.final_relative_kkt <= 1e-4
        assert report.duality_gap <= 1e-3 * (1.0 + abs(report.rounded_objective))

    def test_default_stepsize_matches_operator_norm(self):
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        assert default_stepsize(prob) == pytest.approx(0.25)

    def test_report_round_trip(self):
        from otsolve import SolveReport

        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.3, 0.7], [0.6, 0.4])
        _, report = solve(prob, SolverConfig(tol=1e-5))
        back = SolveReport.from_json(report.to_json())
        assert back == report


def use_unshared(monkeypatch):
    """Give the solver the arithmetic in which no reduced cost is shared."""
    for name, fn in (("pdhg_step", unshared_pdhg_step), ("stepsize_bound", unshared_stepsize_bound),
                     ("kkt_error", unshared_kkt_error), ("_mean_step", unshared_mean_step),
                     ("_mean_rows", unshared_mean_step)):
        monkeypatch.setattr(otsolve.pdhg, name, fn)


class TestSharedSlack:
    """One dual slack per current iterate, read by its KKT error and spent by
    its step, leaves every bit of a solve as it was."""

    def test_same_bits_on_grid(self, monkeypatch):
        prob = grid_problem("shapes", 16, "l1", seed=11)
        cfg = SolverConfig(tol=1e-5, max_iters=2000)
        shared = solve_bytes(prob, cfg)
        assert '"iterations": 421' in shared[2]
        use_unshared(monkeypatch)
        assert solve_bytes(prob, cfg) == shared

    @pytest.mark.parametrize("mode", [ADAPTIVE, FIXED_BETA])
    def test_same_bits_on_random_problems(self, monkeypatch, mode):
        rng = np.random.default_rng(17)
        cases = []
        for i in range(8):
            m, n = (int(v) for v in rng.integers(2, 8, size=2))
            prob = random_problem(rng, m, n)
            cases.append((prob, random_iterate(rng, m, n) if i % 2 else None))
        cfg = SolverConfig(tol=1e-8, restart_mode=mode, max_iters=5000)
        steps = record_steps(monkeypatch)
        shared = [solve_bytes(prob, cfg, initial) for prob, initial in cases]
        iterations = sum(int(re.search(r'"iterations": (\d+)', s[2])[1]) for s in shared)
        if mode == ADAPTIVE:
            assert len(steps) > iterations  # the line search rejected some trials
        # restarts the average won
        assert sum(r[3] == "average" for s in shared for r in s[1]) >= 10
        use_unshared(monkeypatch)
        assert [solve_bytes(prob, cfg, initial) for prob, initial in cases] == shared

    def test_same_bits_in_split_tasks_on_zero_row_blocks(self, monkeypatch, split_passes):
        # Each of the two tasks takes 85 rows of 200 entries, more than the
        # zero row holds, so positive_part runs as (2, 8192) blocks and a
        # tail inside the pool's tasks.
        assert 2 * otsolve.kkt._ZERO_ENTRIES < 85 * 200 < 3 * otsolve.kkt._ZERO_ENTRIES
        threads_using_row = set()
        real = otsolve.kkt._zeros

        def recorded():
            threads_using_row.add(threading.get_ident())
            return real()

        monkeypatch.setattr(otsolve.kkt, "_zeros", recorded)
        split_passes(2)
        prob = random_problem(np.random.default_rng(26), 170, 200)
        cfg = SolverConfig(tol=1e-12, max_iters=300)
        shared = solve_bytes(prob, cfg)
        assert '"iterations": 300' in shared[2]
        assert threads_using_row - {threading.get_ident()}  # a pool thread took blocks
        assert otsolve._par._pool is not None  # the passes did run on the pool
        use_unshared(monkeypatch)
        assert solve_bytes(prob, cfg) == shared

    @pytest.mark.parametrize("mode", [ADAPTIVE, FIXED_BETA])
    def test_adjoint_calls(self, monkeypatch, mode):
        # counted where p 1^T + 1 q^T is built, in the slack of a point:
        # the start and each step's iterate build their slack once; the
        # average's KKT error builds its own; a rejected trial's retry and a
        # restart the average wins rebuild the current slack
        builds = []
        real = otsolve.kkt._slack_rows

        def counted(*args):
            builds.append(1)
            return real(*args)

        monkeypatch.setattr(otsolve.kkt, "_slack_rows", counted)
        steps = record_steps(monkeypatch)
        retried = won = 0
        for seed in range(3):
            prob = random_problem(np.random.default_rng(seed), 4, 6)
            builds.clear()
            steps.clear()
            records = []
            _, report = solve(prob, SolverConfig(tol=1e-8, restart_mode=mode, max_iters=5000),
                              on_restart=records.append)
            retries = len(steps) - report.iterations
            averages = sum(r.candidate == "average" for r in records)
            assert len(builds) == 1 + 2 * report.iterations + retries + averages
            retried += retries
            won += averages
        assert won > 0 and (retried > 0) == (mode == ADAPTIVE)


class TestConfigValidation:
    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            SolverConfig(beta=1.5)

    def test_rejects_nan(self):
        for name in ("tol", "time_limit_s", "beta", "max_iters"):
            with pytest.raises(ValueError):
                SolverConfig(**{name: math.nan})

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            SolverConfig(restart_mode="sometimes")

    def test_only_the_five_settings(self):
        names = [f.name for f in fields(SolverConfig)]
        assert names == ["tol", "time_limit_s", "restart_mode", "beta", "max_iters"]
