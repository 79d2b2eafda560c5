"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The large-instance solves are shared across criteria via module-scoped
fixtures, so the whole module runs in a few minutes.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

from otsolve import (
    Iterate,
    SolverConfig,
    SinkhornConfig,
    geomean_gap,
    grid_problem,
    round_to_feasible,
    sgm10,
    sinkhorn_solve,
    solve,
)
from otsolve.cli import main as cli_main
from otsolve.kkt import dual_slack
from otsolve.operator import apply_A, apply_At
from otsolve.pdhg import FIXED_BETA, default_stepsize, pdhg_step

from _helpers import random_problem
from _oracles import (
    check_identification,
    exact_oracle,
    materialize_A,
    partition_and_delta,
    power_iteration_norm,
    rounding_bound_check,
    tu_submatrix_check,
)

SCALE_CLASSES = ("shapes", "cauchy_like")
SCALE_NORMS = ("l1", "l2", "linf")
SCALE_SEED = 11


def report_pass(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS  {detail}")


@pytest.fixture(scope="module")
def scale_results():
    """Six 256x256 instances solved by the primal-dual method.

    Solved at tol 1e-5 so the delivered iterates satisfy both criterion-7
    bounds: relative KKT below 1e-4 and post-rounding gap below the
    objective-scaled allowance (at 1e-4 exactly, the rank-one rounding
    correction alone exceeds the gap allowance on small-objective instances).
    """
    results = {}
    t0 = time.perf_counter()
    for cls in SCALE_CLASSES:
        for norm in SCALE_NORMS:
            prob = grid_problem(cls, 16, norm, seed=SCALE_SEED)
            it, report = solve(prob, SolverConfig(tol=1e-5, max_iters=200_000))
            results[(cls, norm)] = (prob, it, report)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sinkhorn_results(scale_results):
    """The baseline at both penalties on the criterion-7 instances."""
    results, _ = scale_results
    out = {}
    for key, (prob, _, _) in results.items():
        for eps in (0.01, 0.001):
            cfg = SinkhornConfig(penalty=eps, tol=1e-4, time_limit_s=900.0)
            _, _, report = sinkhorn_solve(prob, cfg)
            out[key + (eps,)] = report
    return out


@pytest.fixture(scope="module")
def identification_runs():
    """Fixed-decay restart logs on 20 nondegenerate 5x5 instances.

    The reference partition comes from an independent LP solve (HiGHS) whose
    basic solution and equality duals classify every cell exactly;
    nondegeneracy is enforced by requiring an empty degenerate set and a
    margin of at least 0.01.
    """
    rng = np.random.default_rng(2025)
    A = materialize_A(5, 5)
    runs = []
    while len(runs) < 20:
        prob = random_problem(rng, 5, 5, margin=0.2)
        b = np.concatenate([prob.f, prob.g])
        res = linprog(prob.C.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert res.status == 0
        y = res.eqlin.marginals
        p, q = y[:5], y[5:]
        if (prob.C - p[:, None] - q[None, :]).min() < -1e-9:
            continue
        try:
            part = partition_and_delta(prob, res.x.reshape(5, 5), p, q)
        except ValueError:
            continue
        if part.B2 or part.delta < 0.01:
            continue
        records = []
        cfg = SolverConfig(restart_mode=FIXED_BETA, beta=0.5, tol=1e-9, max_iters=400_000)
        _, report = solve(prob, cfg, on_restart=records.append)
        assert report.solved
        # records[0] is the starting point; the restart points follow it
        flags = [check_identification(prob, part, r.point, tol=1e-9) for r in records[1:]]
        runs.append((prob, part, report, flags))
    return runs


class TestCriterion01OperatorOracle:
    def test_apply_matches_materialized(self):
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        for m in range(1, 7):
            for n in range(1, 7):
                A = materialize_A(m, n)
                for _ in range(100):
                    X = rng.standard_normal((m, n))
                    rows, cols = apply_A(X)
                    assert np.max(np.abs(A @ X.ravel() - np.concatenate([rows, cols]))) <= 1e-14
                    p = rng.standard_normal(m)
                    q = rng.standard_normal(n)
                    ref = (A.T @ np.concatenate([p, q])).reshape(m, n)
                    assert np.max(np.abs(ref - apply_At(p, q))) <= 1e-14
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report_pass(1, f"36 shapes x 100 inputs within 1e-14 in {elapsed:.2f}s")


class TestCriterion02OperatorNorm:
    def test_power_iteration_matches_closed_form(self):
        t0 = time.perf_counter()
        for m, n in [(2, 2), (3, 5), (8, 8), (16, 16)]:
            A = materialize_A(m, n)
            # independent dense power iteration on A^T A
            rng = np.random.default_rng(m * 100 + n)
            v = rng.standard_normal(m * n)
            v /= np.linalg.norm(v)
            sigma = 0.0
            for _ in range(500):
                w = A.T @ (A @ v)
                norm_w = np.linalg.norm(w)
                sigma_new = np.sqrt(norm_w)
                v = w / norm_w
                if abs(sigma_new - sigma) <= 1e-13 * sigma_new:
                    break
                sigma = sigma_new
            assert abs(sigma_new - np.sqrt(m + n)) <= 1e-6
            assert abs(power_iteration_norm(m, n) - np.sqrt(m + n)) <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report_pass(2, f"four shapes agree with sqrt(m+n) to 1e-6 in {elapsed:.2f}s")


class TestCriterion03TotallyUnimodular:
    def test_500_random_submatrices(self):
        t0 = time.perf_counter()
        assert tu_submatrix_check(4, 4, trials=500, seed=7)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        report_pass(3, f"500 nonsingular submatrices up to 8x8 in {elapsed:.2f}s")


class TestCriterion04VectorizationEquivalence:
    def test_50_iterations_match_dense_pdhg(self):
        rng = np.random.default_rng(4)
        t0 = time.perf_counter()
        for _ in range(20):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            prob = random_problem(rng, m, n)
            A = materialize_A(m, n)
            c = prob.C.ravel()
            b = np.concatenate([prob.f, prob.g])
            eta = default_stepsize(prob)
            it = Iterate(rng.random((m, n)), rng.standard_normal(m), rng.standard_normal(n))
            x = it.X.ravel().copy()
            y = np.concatenate([it.p, it.q])
            for _ in range(50):
                x_new = np.maximum(x - eta * (c - A.T @ y), 0.0)
                y = y + eta * (b - A @ (2.0 * x_new - x))
                x = x_new
                it = pdhg_step(prob, it, eta, eta, dual_slack(prob, it))
                assert np.max(np.abs(it.X.ravel() - x)) <= 1e-10
                assert np.max(np.abs(np.concatenate([it.p, it.q]) - y)) <= 1e-10
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report_pass(4, f"20 instances x 50 iterations within 1e-10 in {elapsed:.2f}s")


class TestCriterion05Rounding:
    def test_1000_random_inputs(self):
        rng = np.random.default_rng(5)
        t0 = time.perf_counter()
        for _ in range(1000):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(1, 8))
            prob = random_problem(rng, m, n)
            X = rng.random((m, n)) * float(rng.choice([0.05, 1.0, 5.0]))
            X_feas = round_to_feasible(prob, X)
            assert np.all(X_feas >= 0)
            assert np.max(np.abs(X_feas.sum(axis=1) - prob.f)) <= 1e-12
            assert np.max(np.abs(X_feas.sum(axis=0) - prob.g)) <= 1e-12
            assert rounding_bound_check(prob, X, X_feas)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report_pass(5, f"1000 inputs exactly feasible and within the l1 bound in {elapsed:.2f}s")


class TestCriterion06ExactRecovery:
    def test_50_instances_match_oracle(self):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(50):
            while True:
                m = int(rng.integers(2, 6))
                n = int(rng.integers(2, 6))
                if m + n <= 9:
                    break
            prob = random_problem(rng, m, n)
            opt, _ = exact_oracle(prob)
            _, report = solve(prob, SolverConfig(tol=1e-6))
            assert report.solved
            err = abs(report.rounded_objective - opt) / (1.0 + abs(opt))
            worst = max(worst, err)
            assert err <= 1e-4
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        report_pass(6, f"50 instances, worst scaled error {worst:.2e}, in {elapsed:.1f}s")


class TestCriterion07SelfCertifiedScale:
    def test_six_instances_certified(self, scale_results):
        results, elapsed = scale_results
        assert elapsed < 600.0
        details = []
        for (cls, norm), (prob, it, report) in results.items():
            assert report.solved
            assert report.final_relative_kkt <= 1e-4
            allowance = 1e-3 * (1.0 + abs(report.rounded_objective))
            assert report.duality_gap <= allowance, (cls, norm, report.duality_gap, allowance)
            details.append(f"{cls}/{norm}: kkt={report.final_relative_kkt:.1e} "
                           f"gap={report.duality_gap:.1e}")
        report_pass(7, f"six 256x256 instances in {elapsed:.1f}s; " + "; ".join(details))


class TestCriterion08IdentificationPersistence:
    def test_false_then_permanently_true(self, identification_runs):
        """Finite-time identification: flags start false and, from some
        restart onward, stay true. An isolated accidental true before the
        persistent tail is tolerated since only persistence is guaranteed."""
        for prob, part, report, flags in identification_runs:
            assert len(flags) >= 5
            assert flags[0] is False
            assert flags[-1] is True
            last_false = max(i for i, fl in enumerate(flags) if not fl)
            tail = len(flags) - (last_false + 1)
            assert tail >= 3, f"persistent identified tail too short: {flags}"
        first_trues = [next(i for i, fl in enumerate(flags) if fl)
                       for *_ , flags in identification_runs]
        report_pass(8, f"20 instances, identification by restart "
                       f"{min(first_trues)}..{max(first_trues)}, persistent thereafter")


class TestCriterion09RestartLengthBound:
    def test_post_identification_lengths(self, identification_runs):
        bound = (16.0 / 0.5) * (5 + 5) ** 1.5
        worst = 0
        for prob, part, report, flags in identification_runs:
            last_false = max(i for i, fl in enumerate(flags) if not fl)
            # flags[i] is for records[i+1], which starts epoch i+1, whose
            # length is restart_lengths[i+1]
            post = report.restart_lengths[last_false + 2 :]
            if post:
                worst = max(worst, max(post))
            for length in post:
                assert length <= bound
        report_pass(9, f"post-identification restart lengths <= {worst} "
                       f"(bound {bound:.0f})")


# Sinkhorn pass counts at penalties 0.01 and 0.001, so that a change to the
# Sinkhorn arithmetic that moves a pass fails here.
SINKHORN_PASSES = {
    ("shapes", "l1"): (3_287, 32_458),
    ("shapes", "l2"): (1_256, 10_523),
    ("shapes", "linf"): (631, 5_366),
    ("cauchy_like", "l1"): (1_529, 15_246),
    ("cauchy_like", "l2"): (2_003, 19_146),
    ("cauchy_like", "linf"): (2_046, 20_549),
}


class TestCriterion10SinkhornTradeoff:
    def test_gap_and_time_ordering(self, scale_results, sinkhorn_results):
        results, _ = scale_results
        gaps = {0.01: [], 0.001: [], "pdot": []}
        for key, (prob, it, report) in results.items():
            passes = tuple(sinkhorn_results[key + (eps,)].iterations for eps in (0.01, 0.001))
            assert passes == SINKHORN_PASSES[key], (key, passes)
            pdot_gap = report.duality_gap
            gaps["pdot"].append(pdot_gap)
            g01 = sinkhorn_results[key + (0.01,)].duality_gap
            g001 = sinkhorn_results[key + (0.001,)].duality_gap
            t01 = sinkhorn_results[key + (0.01,)].wall_time_s
            t001 = sinkhorn_results[key + (0.001,)].wall_time_s
            assert g01 > g001 > pdot_gap, (key, g01, g001, pdot_gap)
            assert t001 > t01, (key, t001, t01)
            gaps[0.01].append(g01)
            gaps[0.001].append(g001)
        gm01 = geomean_gap(gaps[0.01])
        gm001 = geomean_gap(gaps[0.001])
        # order-of-magnitude pattern of the reported per-class means
        assert 0.15 / 10 <= gm01 <= 0.15 * 10
        assert 0.013 / 10 <= gm001 <= 0.013 * 10
        report_pass(10, f"gap(0.01)={gm01:.3g} > gap(0.001)={gm001:.3g} > "
                        f"gap(pdot)={geomean_gap(gaps['pdot']):.3g}; slower at smaller penalty")


class TestCriterion11Metrics:
    def test_hand_computed_examples(self):
        assert sgm10([10.0, 10.0], [True, True], 3600.0) == pytest.approx(10.0, abs=1e-12)
        assert sgm10([0.0, 30.0], [True, True], 3600.0) == pytest.approx(10.0, abs=1e-12)
        # unsolved entries are charged the full time limit
        assert sgm10([0.0, 1.0], [True, False], 3600.0) == pytest.approx(
            np.sqrt(10.0 * 3610.0) - 10.0, abs=1e-12
        )
        assert sgm10([0.0, 1.0], [True, False], 3600.0) == pytest.approx(180.0, abs=1e-9)
        assert geomean_gap([0.25, 0.25]) == pytest.approx(0.25, rel=1e-12)
        assert geomean_gap([1e-2, 1e-4]) == pytest.approx(1e-3, rel=1e-12)
        with pytest.raises(ValueError):
            sgm10([], [], 3600.0)
        report_pass(11, "SGM10 and geometric-mean examples match exactly")


class TestCriterion12Determinism:
    def test_bit_identical_reports(self, tmp_path):
        inst = tmp_path / "inst.txt"
        assert cli_main([
            "gen", "--class", "cauchy_like", "--resolution", "4",
            "--norm", "l2", "--seed", "3", "--out", str(inst),
        ]) == 0
        payloads = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert cli_main([
                "solve", "--instance", str(inst), "--method", "pdot",
                "--tol", "1e-6", "--deterministic", "--out", str(out),
            ]) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]
        report_pass(12, "two deterministic runs produced byte-identical reports")
