import numpy as np
import pytest

from otsolve import round_to_feasible

from _helpers import make_problem, random_problem
from _oracles import rounding_bound_check, scaled_rounding_reference


def assert_feasible(prob, X, atol=1e-12):
    np.testing.assert_allclose(X.sum(axis=1), prob.f, rtol=0, atol=atol)
    np.testing.assert_allclose(X.sum(axis=0), prob.g, rtol=0, atol=atol)
    assert np.all(X >= 0)


class TestRoundToFeasible:
    def test_feasible_unchanged(self):
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        X = np.diag([0.5, 0.5])
        np.testing.assert_allclose(round_to_feasible(prob, X), X, rtol=0, atol=1e-15)

    def test_excess_mass_scaled_down(self):
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        X = np.diag([0.6, 0.6])
        np.testing.assert_allclose(
            round_to_feasible(prob, X), np.diag([0.5, 0.5]), rtol=0, atol=1e-15
        )

    def test_deficit_repaired_by_correction(self):
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        X = np.diag([0.4, 0.4])
        # scales stay 1, both deficits are (0.1, 0.1); the rank-one correction
        # spreads 0.2 mass uniformly
        np.testing.assert_allclose(
            round_to_feasible(prob, X),
            [[0.45, 0.05], [0.05, 0.45]],
            rtol=0,
            atol=1e-15,
        )

    def test_zero_row_with_positive_marginal(self):
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        X = np.array([[0.0, 0.0], [0.25, 0.25]])
        assert_feasible(prob, round_to_feasible(prob, X))

    def test_zero_plan(self):
        rng = np.random.default_rng(1)
        prob = random_problem(rng, 3, 5)
        assert_feasible(prob, round_to_feasible(prob, np.zeros((3, 5))))

    def test_random_inputs_feasible_and_bounded(self):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            prob = random_problem(rng, m, n)
            X = rng.random((m, n)) * rng.choice([0.1, 1.0, 3.0])
            X_feas = round_to_feasible(prob, X)
            assert_feasible(prob, X_feas)
            assert rounding_bound_check(prob, X, X_feas)

    def test_same_bits_as_reference(self):
        # Zero-mass marginal entries, empty rows and columns and all-zero
        # plans are where the reference divides by zero and the solver does not.
        rng = np.random.default_rng(16)
        for trial in range(1000):
            m, n = (int(x) for x in rng.integers(1, 12, 2))
            f, g = rng.random(m), rng.random(n)
            f[rng.random(m) < 0.3] = 0.0
            g[rng.random(n) < 0.3] = 0.0
            f[0] += 0.1
            g[-1] += 0.1
            prob = make_problem(rng.random((m, n)), f, g)
            X = rng.random((m, n)) * rng.choice([0.1, 1.0, 3.0])
            X[rng.random(m) < 0.3] = 0.0
            X[:, rng.random(n) < 0.3] = 0.0
            if trial % 10 == 0:
                X[...] = 0.0
            got, ref = round_to_feasible(prob, X), scaled_rounding_reference(prob, X)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_idempotent(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            prob = random_problem(rng, 4, 3)
            X_feas = round_to_feasible(prob, rng.random((4, 3)))
            again = round_to_feasible(prob, X_feas)
            np.testing.assert_allclose(again, X_feas, rtol=0, atol=1e-14)


class TestRoundingBound:
    def test_feasible_input_zero_distance(self):
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        X = np.diag([0.5, 0.5])
        assert rounding_bound_check(prob, X, round_to_feasible(prob, X))

    def test_hand_computation(self):
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        X = np.diag([0.4, 0.4])
        X_feas = round_to_feasible(prob, X)
        assert float(np.abs(X_feas - X).sum()) == pytest.approx(0.2, abs=1e-15)
        assert rounding_bound_check(prob, X, X_feas)
