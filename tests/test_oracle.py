import numpy as np
import pytest
from scipy.optimize import linprog

from _helpers import make_problem, random_problem
from _oracles import (
    exact_oracle,
    materialize_A,
    optimal_basis_duals,
    spanning_tree_count,
    spanning_trees,
)


def linprog_objective(prob):
    """Independent LP reference via HiGHS on the vectorized problem."""
    A = materialize_A(prob.m, prob.n)
    b = np.concatenate([prob.f, prob.g])
    res = linprog(prob.C.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


class TestEnumeration:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (4, 3)])
    def test_tree_count_matches_closed_form(self, m, n):
        seen = set()

        def visit(cells):
            assert len(cells) == m + n - 1
            seen.add(tuple(cells))

        count = spanning_trees(m, n, visit)
        assert count == spanning_tree_count(m, n)
        assert len(seen) == count  # all distinct


class TestExactOracle:
    def test_zero_cost_diagonal(self):
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        obj, plan = exact_oracle(prob)
        assert obj == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(plan, np.diag([0.5, 0.5]), atol=1e-15)

    def test_asymmetric_marginals(self):
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]], [0.3, 0.7], [0.6, 0.4])
        obj, plan = exact_oracle(prob)
        assert obj == pytest.approx(0.3, abs=1e-12)
        np.testing.assert_allclose(plan.sum(axis=1), prob.f, atol=1e-12)
        np.testing.assert_allclose(plan.sum(axis=0), prob.g, atol=1e-12)

    def test_single_cell(self):
        prob = make_problem([[7.5]], [1.0], [1.0])
        obj, plan = exact_oracle(prob)
        assert obj == 7.5
        assert plan.tolist() == [[1.0]]

    def test_matches_linprog(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            prob = random_problem(rng, m, n)
            obj, plan = exact_oracle(prob)
            assert obj == pytest.approx(linprog_objective(prob), abs=1e-9)
            np.testing.assert_allclose(plan.sum(axis=1), prob.f, atol=1e-12)
            np.testing.assert_allclose(plan.sum(axis=0), prob.g, atol=1e-12)
            assert np.all(plan >= 0)

    def test_size_guard(self):
        rng = np.random.default_rng(1)
        prob = random_problem(rng, 7, 6)
        with pytest.raises(ValueError, match="m \\+ n"):
            exact_oracle(prob)

    def test_zero_marginal_entries(self):
        prob = make_problem(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]], [1.0, 0.0], [0.5, 0.25, 0.25]
        )
        obj, plan = exact_oracle(prob)
        np.testing.assert_allclose(plan.sum(axis=1), prob.f, atol=1e-12)
        assert obj == pytest.approx(linprog_objective(prob), abs=1e-9)


class TestOptimalBasisDuals:
    def test_strong_duality_and_feasibility(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            prob = random_problem(rng, 4, 4)
            obj, plan = exact_oracle(prob)
            p, q = optimal_basis_duals(prob)
            # dual feasible: reduced costs non-negative
            reduced = prob.C - p[:, None] - q[None, :]
            assert reduced.min() >= -1e-9
            # strong duality: dual objective equals the optimum
            assert float(prob.f @ p + prob.g @ q) == pytest.approx(obj, abs=1e-9)
            # complementary slackness on the support
            assert float(np.vdot(plan, reduced)) == pytest.approx(0.0, abs=1e-9)
