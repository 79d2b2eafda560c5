import numpy as np
import pytest

from otsolve.operator import apply_A, apply_At

from _oracles import materialize_A, power_iteration_norm


class TestApply:
    def test_zero_plan(self):
        rows, cols = apply_A(np.zeros((2, 2)))
        assert rows.tolist() == [0.0, 0.0]
        assert cols.tolist() == [0.0, 0.0]

    def test_direct_summation(self):
        rows, cols = apply_A(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert rows.tolist() == [3.0, 7.0]
        assert cols.tolist() == [4.0, 6.0]

    def test_scaled_identity(self):
        rows, cols = apply_A(0.5 * np.eye(2))
        assert rows.tolist() == [0.5, 0.5]
        assert cols.tolist() == [0.5, 0.5]

    def test_adjoint_zero(self):
        np.testing.assert_array_equal(apply_At(np.zeros(2), np.zeros(3)), np.zeros((2, 3)))

    def test_adjoint_direct(self):
        out = apply_At(np.array([1.0, 2.0]), np.array([10.0, 20.0]))
        assert out.tolist() == [[11.0, 21.0], [12.0, 22.0]]

    def test_composition_by_hand(self):
        rows, cols = apply_A(apply_At(np.array([1.0, 0.0]), np.array([0.0, 0.0])))
        assert rows.tolist() == [2.0, 0.0]
        assert cols.tolist() == [1.0, 1.0]

    def test_adjoint_identity_random(self):
        # <A X, (p, q)> == <X, A^T (p, q)> over all small shapes
        rng = np.random.default_rng(42)
        for m in range(1, 7):
            for n in range(1, 7):
                for _ in range(5):
                    X = rng.standard_normal((m, n))
                    p = rng.standard_normal(m)
                    q = rng.standard_normal(n)
                    rows, cols = apply_A(X)
                    lhs = float(rows @ p + cols @ q)
                    rhs = float(np.vdot(X, apply_At(p, q)))
                    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


class TestMaterialize:
    def test_one_by_one(self):
        assert materialize_A(1, 1).tolist() == [[1.0], [1.0]]

    def test_two_by_two_column_sums(self):
        A = materialize_A(2, 2)
        assert A.shape == (4, 4)
        np.testing.assert_array_equal(A.sum(axis=0), np.full(4, 2.0))
        assert set(np.unique(A).tolist()) == {0.0, 1.0}

    def test_oracle_equivalence_3x4(self):
        rng = np.random.default_rng(7)
        A = materialize_A(3, 4)
        X = rng.standard_normal((3, 4))
        rows, cols = apply_A(X)
        np.testing.assert_allclose(
            A @ X.ravel(), np.concatenate([rows, cols]), rtol=0, atol=1e-14
        )

    def test_oracle_equivalence_all_small_shapes(self):
        rng = np.random.default_rng(11)
        for m in range(1, 7):
            for n in range(1, 7):
                A = materialize_A(m, n)
                X = rng.standard_normal((m, n))
                rows, cols = apply_A(X)
                np.testing.assert_allclose(
                    A @ X.ravel(), np.concatenate([rows, cols]), rtol=0, atol=1e-14
                )
                p = rng.standard_normal(m)
                q = rng.standard_normal(n)
                np.testing.assert_allclose(
                    (A.T @ np.concatenate([p, q])).reshape(m, n),
                    apply_At(p, q),
                    rtol=0,
                    atol=1e-14,
                )

    def test_size_guard(self):
        with pytest.raises(ValueError, match="refusing to materialize"):
            materialize_A(101, 101)


class TestOperatorNorm:
    def test_closed_form(self):
        # the spectral norm of the dense matrix is sqrt(m + n)
        assert np.linalg.norm(materialize_A(2, 2), 2) == pytest.approx(2.0, abs=1e-14)
        assert np.linalg.norm(materialize_A(1, 1), 2) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_power_iteration_agrees(self):
        for m, n in [(1, 1), (2, 2), (3, 5), (6, 4)]:
            est = power_iteration_norm(m, n)
            assert est == pytest.approx(np.sqrt(m + n), abs=1e-6)

    def test_power_iteration_3x5_value(self):
        assert power_iteration_norm(3, 5) == pytest.approx(2.8284271, abs=1e-6)
