import itertools
import math

import numpy as np
import pytest

from otsolve import Iterate

from _helpers import make_problem, random_problem, two_by_two_optimal
from _oracles import (
    check_identification,
    data_precision,
    exact_oracle,
    materialize_A,
    optimal_basis_duals,
    partition_and_delta,
    tu_submatrix_check,
)


class TestPartition:
    def test_hand_evaluated_two_by_two(self):
        prob, it = two_by_two_optimal()
        part = partition_and_delta(prob, it.X, it.p, it.q)
        assert part.N == {(0, 1), (1, 0)}
        assert part.B1 == {(0, 0), (1, 1)}
        assert part.B2 == set()
        assert part.delta == pytest.approx(0.5, abs=1e-15)  # min(1/sqrt(4), 0.5)

    def test_forced_single_cell(self):
        prob = make_problem([[3.0]], [1.0], [1.0])
        part = partition_and_delta(prob, np.array([[1.0]]), np.array([3.0]), np.array([0.0]))
        assert part.N == set()
        assert part.B1 == {(0, 0)}
        assert part.delta == 1.0

    def test_degenerate_cell_lands_in_B2(self):
        # reduced cost 0 with zero mass
        prob = make_problem([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        X = np.array([[0.5, 0.0], [0.0, 0.5]])
        p = np.zeros(2)
        q = np.zeros(2)
        part = partition_and_delta(prob, X, p, q)
        assert (0, 1) in part.B2
        assert (1, 0) in part.N

    def test_empty_support_rejected(self):
        prob, it = two_by_two_optimal()
        with pytest.raises(ValueError, match="inconsistent optimal input"):
            partition_and_delta(prob, np.zeros((2, 2)), it.p - 10.0, it.q - 10.0)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            prob = random_problem(rng, 4, 3)
            obj, X = exact_oracle(prob)
            p, q = optimal_basis_duals(prob)
            tol = 1e-7 * (1.0 + max(prob.C.max(), prob.f.max(), prob.g.max()))
            part = partition_and_delta(prob, X, p, q)
            # independent cell-by-cell scan of the definition
            N, B1, B2 = set(), set(), set()
            deltas = []
            for i in range(4):
                for j in range(3):
                    r = prob.C[i, j] - p[i] - q[j]
                    if r > tol:
                        N.add((i, j))
                        deltas.append(r / math.sqrt(4 + 3))
                    elif abs(r) <= tol and X[i, j] > tol:
                        B1.add((i, j))
                        deltas.append(X[i, j])
                    else:
                        B2.add((i, j))
            assert part.N == N and part.B1 == B1 and part.B2 == B2
            assert part.delta == pytest.approx(min(deltas), rel=1e-12)
            # sets cover the grid disjointly
            union = part.N | part.B1 | part.B2
            assert len(union) == 12
            assert len(part.N) + len(part.B1) + len(part.B2) == 12


class TestIdentification:
    def test_reference_optimum_identifies(self):
        prob, it = two_by_two_optimal()
        part = partition_and_delta(prob, it.X, it.p, it.q)
        assert check_identification(prob, part, it, tol=1e-9)

    def test_mass_on_N_cell_fails(self):
        prob, it = two_by_two_optimal()
        part = partition_and_delta(prob, it.X, it.p, it.q)
        X = it.X.copy()
        X[0, 1] = 1e-8  # ten times the tolerance
        bad = Iterate(X, it.p, it.q)
        assert not check_identification(prob, part, bad, tol=1e-9)

    def test_vanished_support_fails(self):
        prob, it = two_by_two_optimal()
        part = partition_and_delta(prob, it.X, it.p, it.q)
        X = it.X.copy()
        X[0, 0] = 0.0
        bad = Iterate(X, it.p, it.q)
        assert not check_identification(prob, part, bad, tol=1e-9)

    def test_shrunk_reduced_cost_fails(self):
        prob, it = two_by_two_optimal()
        part = partition_and_delta(prob, it.X, it.p, it.q)
        bad = Iterate(it.X, np.array([1.0, 1.0]), it.q)  # reduced costs on N drop to 0
        assert not check_identification(prob, part, bad, tol=1e-9)


class TestTotallyUnimodular:
    def test_one_by_one(self):
        A = materialize_A(1, 1)
        sub = A[:1, :1]
        np.testing.assert_array_equal(np.linalg.inv(sub), [[1.0]])
        assert tu_submatrix_check(1, 1, trials=10, seed=0)

    def test_exhaustive_3x3_submatrices(self):
        A = materialize_A(2, 2)
        checked = 0
        for rows in itertools.combinations(range(4), 3):
            for cols in itertools.combinations(range(4), 3):
                sub = A[np.ix_(rows, cols)]
                det = np.linalg.det(sub)
                assert round(det) in (-1, 0, 1)
                if abs(det) < 0.5:
                    continue
                inv = np.linalg.inv(sub)
                nearest = np.round(inv)
                assert np.max(np.abs(inv - nearest)) <= 1e-9
                assert set(np.unique(nearest).tolist()) <= {-1.0, 0.0, 1.0}
                checked += 1
        assert checked > 0

    def test_randomized_3x4(self):
        assert tu_submatrix_check(3, 4, trials=200, seed=123)


class TestDataPrecision:
    def test_half_grid(self):
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        bounds = data_precision(prob, declared_denominator=2)
        assert bounds.Delta == 0.5
        assert bounds.H == 1.0

    def test_integer_grid_gcd(self):
        prob = make_problem([[2.0, 4.0], [6.0, 2.0]], [0.5, 0.5], [0.5, 0.5])
        # marginals 0.5 force the gcd down once scaled by 2
        bounds = data_precision(prob, declared_denominator=2)
        assert bounds.Delta == 0.5
        # pure integer data with unit denominator
        prob2 = make_problem([[2.0, 4.0], [6.0, 2.0]], [1.0, 1.0], [1.0, 1.0])
        # Marginal normalizes to 0.5 each, so declare denominator 2 again
        bounds2 = data_precision(prob2, declared_denominator=2)
        assert bounds2.Delta == 0.5

    def test_global_bound_hand_value(self):
        # H/Delta = 2 with beta = 0.5 and m = n = 2
        prob = make_problem([[1.0, 1.0], [1.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
        bounds = data_precision(prob, declared_denominator=2, beta=0.5)
        assert bounds.H == 1.0 and bounds.Delta == 0.5
        assert bounds.global_restart_bound == pytest.approx(393216.0, rel=1e-15)
        assert bounds.local_restart_bound == pytest.approx(32.0 * 4**1.5, rel=1e-15)

    def test_non_rational_entry_rejected(self):
        prob = make_problem([[0.0, math.sqrt(2)], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="non-rational"):
            data_precision(prob, declared_denominator=2)

    def test_H_at_least_Delta(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            denom = int(rng.integers(1, 50))
            C = rng.integers(0, 10, size=(3, 3)).astype(float) / denom
            f = np.array([1.0, 2.0, 1.0]) / 4.0
            g = np.array([2.0, 1.0, 1.0]) / 4.0
            prob = make_problem(C, f, g)
            bounds = data_precision(prob, declared_denominator=4 * denom)
            assert bounds.H >= bounds.Delta
