import warnings

import numpy as np
import pytest

import otsolve.instance
from otsolve import (
    CostMatrix,
    InstanceError,
    InstanceFormatError,
    Marginal,
    OTProblem,
    grid_cost,
    grid_problem,
    load_instance,
    save_instance,
    synth_instance,
)
from _helpers import make_problem
from _oracles import grid_cost_reference


class TestMarginalFromImage:
    """A pixel grid flattened into a Marginal, as grid_problem builds its marginals."""

    def test_single_mass_point(self):
        m = Marginal(np.array([[5.0]]).ravel())
        assert m.weights.tolist() == [1.0]

    def test_uniform(self):
        m = Marginal(np.ones((2, 2)).ravel())
        np.testing.assert_allclose(m.weights, [0.25, 0.25, 0.25, 0.25], rtol=0, atol=0)

    def test_direct_normalization(self):
        m = Marginal(np.array([[3.0, 1.0], [0.0, 0.0]]).ravel())
        np.testing.assert_allclose(m.weights, [0.75, 0.25, 0.0, 0.0], rtol=0, atol=0)

    def test_row_major_flattening(self, monkeypatch):
        images = (np.array([[1.0, 0.0], [0.0, 3.0]]), np.array([[1.0, 2.0], [0.0, 5.0]]))
        monkeypatch.setattr(otsolve.instance, "synth_instance", lambda kind, r, seed: images)
        prob = grid_problem("whitenoise", 2, "l1", seed=0)
        np.testing.assert_allclose(prob.f, [0.25, 0.0, 0.0, 0.75])
        np.testing.assert_allclose(prob.g, [0.125, 0.25, 0.0, 0.625])


class TestMarginal:
    def test_normalizes_to_unit_sum(self):
        rng = np.random.default_rng(0)
        for k in (1, 3, 17, 100):
            m = Marginal(rng.random(k) * 7.3)
            assert abs(m.weights.sum() - 1.0) <= 1e-12

    def test_negative_entry(self):
        with pytest.raises(InstanceError, match="negative marginal entry"):
            Marginal([0.5, -0.1])

    def test_zero_mass(self):
        with pytest.raises(InstanceError, match="zero mass"):
            Marginal([0.0, 0.0])

    def test_overflowing_mass(self):
        # the total overflows to inf; the check must not be an assert, which
        # python -O strips (it would then build an all-zero marginal), and
        # the error must come before any numpy overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstanceError, match="mass overflows"):
                Marginal([1e308, 1e308])

    def test_zero_entries_allowed(self):
        m = Marginal([0.0, 1.0, 3.0])
        np.testing.assert_allclose(m.weights, [0.0, 0.25, 0.75])

    def test_normalizing_twice_changes_no_bit(self):
        # the weights of a marginal often sum to 1 +- 1 ulp; dividing them by
        # that sum again would move some of them
        rng = np.random.default_rng(1)
        for k in range(1, 60):
            m = Marginal(rng.random(k) + 0.01)
            assert Marginal(m.weights).weights.tobytes() == m.weights.tobytes()


class TestGridCost:
    def test_single_cell(self):
        assert grid_cost(1, "l1").entries.tolist() == [[0.0]]

    def test_r2_cell_pair_distances(self):
        # cells (1,1) and (2,2) in 1-based grid coordinates are flat 0 and 3
        assert grid_cost(2, "l1").entries[0, 3] == 2.0
        assert grid_cost(2, "l2").entries[0, 3] == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert grid_cost(2, "linf").entries[0, 3] == 1.0

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_symmetric_zero_diagonal(self, r):
        for kind in ("l1", "l2", "linf"):
            C = grid_cost(r, kind).entries
            np.testing.assert_allclose(C, C.T)
            assert np.all(np.diag(C) == 0.0)

    @pytest.mark.parametrize("r", [2, 4])
    def test_norm_ordering(self, r):
        c1 = grid_cost(r, "l1").entries
        c2 = grid_cost(r, "l2").entries
        ci = grid_cost(r, "linf").entries
        assert np.all(ci <= c2 + 1e-15)
        assert np.all(c2 <= c1 + 1e-15)

    def test_coordinates_row_major(self):
        # cells 0..3 of a 2x2 grid are (0,0), (0,1), (1,0), (1,1)
        np.testing.assert_array_equal(
            grid_cost(2, "l1").entries, [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]
        )

    @pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_bytes_match_coordinate_differences(self, r, kind):
        entries = grid_cost(r, kind).entries
        assert entries.tobytes() == grid_cost_reference(r, kind).tobytes()

    def test_bad_kind(self):
        with pytest.raises(InstanceError):
            grid_cost(2, "explicit")

    def test_max_normalization_off_by_default(self):
        assert grid_cost(3, "l1").entries.max() == 4.0


class TestSynth:
    def test_whitenoise_deterministic(self):
        a1, b1 = synth_instance("whitenoise", 2, seed=1)
        a2, b2 = synth_instance("whitenoise", 2, seed=1)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_shapes_two_level(self):
        for seed in (0, 3, 9):
            for img in synth_instance("shapes", 8, seed=seed):
                values = np.unique(img)
                positive = values[values > 0]
                assert positive.size == 1
                assert set(values.tolist()) <= {0.0, float(positive[0])}

    def test_cauchy_center_maximal(self):
        img, _ = synth_instance("cauchy_like", 4, seed=7)
        flat = np.sort(img.ravel())
        assert flat[-1] == 1.0  # zero distance from the center cell
        assert flat[-2] <= 0.5 + 1e-15  # any other cell is at distance >= 1

    def test_resolution_guard(self):
        with pytest.raises(InstanceError):
            synth_instance("whitenoise", 1, seed=0)

    def test_unknown_class(self):
        with pytest.raises(InstanceError):
            synth_instance("stripes", 4, seed=0)


class TestFileRoundTrip:
    def test_grid_instance_round_trip(self, tmp_path):
        prob = grid_problem("whitenoise", 2, "l1", seed=5)
        path = tmp_path / "inst.txt"
        save_instance(prob, path)
        assert path.read_text().splitlines()[2] == "cost l1"
        back = load_instance(path)
        np.testing.assert_allclose(back.C, prob.C, rtol=0, atol=1e-15)
        np.testing.assert_allclose(back.f, prob.f, rtol=0, atol=1e-15)
        np.testing.assert_allclose(back.g, prob.g, rtol=0, atol=1e-15)

    def test_explicit_rectangular_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        prob = make_problem(rng.random((2, 3)), rng.random(2) + 0.1, rng.random(3) + 0.1)
        path = tmp_path / "inst.txt"
        save_instance(prob, path)
        back = load_instance(path)
        np.testing.assert_allclose(back.C, prob.C, rtol=0, atol=1e-15)
        np.testing.assert_allclose(back.f, prob.f, rtol=0, atol=1e-15)
        np.testing.assert_allclose(back.g, prob.g, rtol=0, atol=1e-15)

    def test_random_problems_load_back_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "inst.txt"
        for _ in range(100):
            m, n = (int(v) for v in rng.integers(1, 20, size=2))
            prob = make_problem(rng.random((m, n)), rng.random(m) + 0.01, rng.random(n) + 0.01)
            save_instance(prob, path)
            back = load_instance(path)
            for block in ("C", "f", "g"):
                assert np.array_equal(getattr(back, block), getattr(prob, block))

    def test_normalized_grid_cost_round_trips_explicitly(self, tmp_path):
        # an l2 grid cost divided by its maximum no longer matches any grid
        # cost, so its entries must be written out in full
        prob = grid_problem("cauchy_like", 2, "l2", seed=1)
        entries = prob.C / prob.C.max()
        prob = OTProblem(CostMatrix(entries), prob.row_marginal, prob.col_marginal)
        path = tmp_path / "norm.txt"
        save_instance(prob, path)
        assert "cost explicit" in path.read_text()
        back = load_instance(path)
        np.testing.assert_allclose(back.C, prob.C, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("entries, line", [
        (grid_cost(3, "l1").entries.copy(), "cost l1"),
        (grid_cost(3, "l2").entries.copy(), "cost l2"),
        (grid_cost(3, "linf").entries.copy(), "cost linf"),
        (grid_cost(4, "l2").entries / np.sqrt(18.0), "cost explicit"),
        (np.random.default_rng(3).random((16, 16)), "cost explicit"),
        (np.random.default_rng(4).random((2, 3)), "cost explicit"),
    ], ids=["l1", "l2", "linf", "normalized_l2", "random_16x16", "random_2x3"])
    def test_cost_line_follows_the_entries(self, tmp_path, entries, line):
        # the shorthand is chosen from the entries alone, however they were built
        m, n = entries.shape
        rng = np.random.default_rng(5)
        prob = make_problem(entries, rng.random(m) + 0.1, rng.random(n) + 0.1)
        path = tmp_path / "inst.txt"
        save_instance(prob, path)
        assert path.read_text().splitlines()[2] == line
        back = load_instance(path)
        assert back.C.tobytes() == prob.C.tobytes()
        np.testing.assert_allclose(back.f, prob.f, rtol=0, atol=1e-15)
        np.testing.assert_allclose(back.g, prob.g, rtol=0, atol=1e-15)

    def test_explicit_rectangular_by_hand(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text(
            "# hand-built\n2 3\ncost explicit\n0 1 2\n2 1 0\n0.5 0.5\n0.2 0.3 0.5\n"
        )
        prob = load_instance(path)
        assert prob.m == 2 and prob.n == 3
        assert prob.C[1, 0] == 2.0

    def test_negative_marginal(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\ncost explicit\n1.0\n-1.0\n1.0\n")
        with pytest.raises(InstanceError, match="negative marginal entry"):
            load_instance(path)

    def test_negative_cost(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\ncost explicit\n-1.0\n1.0\n1.0\n")
        with pytest.raises(InstanceError, match="negative cost entry"):
            load_instance(path)

    @pytest.mark.parametrize(
        "text",
        [
            "2 2\ncost l1\n0.5 0.5\n",  # truncated
            "2 2\nl1\n0.5 0.5\n0.5 0.5\n",  # missing cost keyword
            "2 3\ncost l1\n0.5 0.5\n0.3 0.3 0.4\n",  # grid cost needs m == n
            "3 3\ncost l2\n0.4 0.3 0.3\n0.4 0.3 0.3\n",  # 3 is not a square
            "2 2\ncost explicit\n0 1\n1 x\n0.5 0.5\n0.5 0.5\n",  # bad token
            "2 2\ncost l1\n0.5 0.5\n0.5 0.5\nextra line\n",  # trailing junk
        ],
    )
    def test_malformed_files(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InstanceFormatError):
            load_instance(path)

    def test_dimension_mismatch_in_marginal(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\ncost explicit\n0 1\n1 0\n0.5 0.5 0.5\n0.5 0.5\n")
        with pytest.raises(InstanceFormatError, match="dimension mismatch"):
            load_instance(path)

    def test_marginals_checked_before_the_grid_cost(self, tmp_path, monkeypatch):
        # a 4e6 x 4e6 grid cost would need 233 TiB; a bad file must fail first
        def boom(*args, **kwargs):
            raise AssertionError("grid cost built for a malformed file")

        monkeypatch.setattr(otsolve.instance, "grid_cost", boom)
        path = tmp_path / "huge.txt"
        path.write_text("4000000 4000000\ncost l1\n1\n1\n")
        with pytest.raises(InstanceFormatError, match="dimension mismatch in row marginal"):
            load_instance(path)


def test_problem_dimension_check():
    with pytest.raises(InstanceError, match="dimension mismatch"):
        make_problem([[0.0, 1.0]], [1.0], [0.5, 0.4, 0.1])
