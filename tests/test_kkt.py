import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from otsolve import Iterate, kkt_error
from otsolve.kkt import dual_slack

from _helpers import make_problem, random_iterate, random_problem, two_by_two_optimal


class TestKKTError:
    def test_optimal_point_vanishes(self):
        prob, it = two_by_two_optimal()
        assert kkt_error(prob, it) == 0.0

    def test_hand_evaluated_display(self):
        # feasible plan, so no primal residual; dual violation [[1, 0], [0, 0]]
        # against |C|_F = sqrt 2; gap |0 - 0.5| against 1 + 0 + 0.5
        prob, it = two_by_two_optimal()
        it.p = np.array([1.0, 0.0])
        expected = 1.0 / (1.0 + np.sqrt(2.0)) + 1.0 / 3.0
        assert kkt_error(prob, it) == pytest.approx(expected, abs=1e-15)

    def test_zero_iterate_pure_primal(self):
        prob, _ = two_by_two_optimal()
        it = Iterate.zeros(2, 2)
        norm_f, norm_g = np.linalg.norm(prob.f), np.linalg.norm(prob.g)
        expected = np.sqrt(norm_f**2 + norm_g**2) / (1.0 + norm_f + norm_g)
        assert kkt_error(prob, it) == pytest.approx(expected, abs=1e-15)

    def test_composite_zero_iff_optimal(self):
        # the three blocks are summed, so the sum is zero only if each is
        prob, it = two_by_two_optimal()
        assert kkt_error(prob, it) == 0.0
        for perturbed in (
            Iterate(it.X + 0.01, it.p.copy(), it.q.copy()),  # primal residual
            Iterate(it.X.copy(), it.p + 0.3, it.q.copy()),  # dual violation + gap
        ):
            assert kkt_error(prob, perturbed) > 0.0

    def test_relative_composite_formula(self):
        # recompute the three-block normalized sum independently
        rng = np.random.default_rng(3)
        prob = make_problem(rng.random((3, 4)), rng.random(3) + 0.1, rng.random(4) + 0.1)
        it = Iterate(rng.random((3, 4)), rng.standard_normal(3), rng.standard_normal(4))
        pr = it.X.sum(axis=1) - prob.f
        pc = it.X.sum(axis=0) - prob.g
        dv = np.maximum(it.p[:, None] + it.q[None, :] - prob.C, 0.0)
        pobj = float(np.vdot(prob.C, it.X))
        dobj = float(prob.f @ it.p + prob.g @ it.q)
        expected = (
            np.sqrt(np.sum(pr**2) + np.sum(pc**2))
            / (1.0 + np.linalg.norm(prob.f) + np.linalg.norm(prob.g))
            + np.linalg.norm(dv) / (1.0 + np.linalg.norm(prob.C))
            + abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        )
        assert kkt_error(prob, it) == pytest.approx(expected, rel=1e-14)

    def test_reads_the_given_slack(self):
        # the same value from a given dual slack, which stays as it was
        rng = np.random.default_rng(4)
        prob = make_problem(rng.random((4, 3)), rng.random(4) + 0.1, rng.random(3) + 0.1)
        it = Iterate(rng.random((4, 3)), rng.standard_normal(4), rng.standard_normal(3))
        slack = dual_slack(prob, it)
        before = slack.tobytes()
        assert slack.tobytes() == (it.p[:, None] + it.q[None, :] - prob.C).tobytes()
        assert kkt_error(prob, it, slack) == kkt_error(prob, it)
        assert slack.tobytes() == before

    def test_slack_into_out_allocates_under_half_a_plan(self):
        rng = np.random.default_rng(7)
        prob = random_problem(rng, 256, 256)
        it = random_iterate(rng, 256, 256)
        expected = dual_slack(prob, it).tobytes()
        out = np.empty((256, 256))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert dual_slack(prob, it, out=out) is out
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / out.nbytes < 0.5
        assert out.tobytes() == expected

    def test_huge_finite_dual_stays_finite(self):
        # the gap and its normalizer are both ~1e200 here; squaring the gap
        # would overflow, the relative error does not
        prob, _ = two_by_two_optimal()
        it = Iterate(np.zeros((2, 2)), np.full(2, -1e200), np.zeros(2))
        value = kkt_error(prob, it)
        assert math.isfinite(value)
        assert value == pytest.approx(1.0 / (1.0 + np.sqrt(2.0)) + 1.0, rel=1e-12)


@st.composite
def problem_with_bad_iterate(draw):
    """A small problem (zero-mass rows and columns allowed) and an otherwise
    finite iterate with at least one NaN or infinite entry."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))

    def vec(size, elements):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    mass = st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0])
    f, g = vec(m, mass), vec(n, mass)
    f[draw(st.integers(0, m - 1))] = 1.0  # each marginal needs positive mass
    g[draw(st.integers(0, n - 1))] = 1.0
    prob = make_problem(vec(m * n, st.floats(0.0, 10.0)).reshape(m, n), f, g)

    finite = st.floats(-1e3, 1e3)
    blocks = {"X": vec(m * n, finite), "p": vec(m, finite), "q": vec(n, finite)}
    bad = st.sampled_from([math.nan, math.inf, -math.inf])
    for _ in range(draw(st.integers(1, 3))):
        block = blocks[draw(st.sampled_from(["X", "p", "q"]))]
        block[draw(st.integers(0, block.size - 1))] = draw(bad)
    return prob, Iterate(blocks["X"].reshape(m, n), blocks["p"], blocks["q"])


@given(problem_with_bad_iterate())
def test_non_finite_entry_makes_error_non_finite(case):
    # solve's finiteness check reads only the current iterate's KKT error
    prob, it = case
    with np.errstate(all="ignore"):
        assert not math.isfinite(kkt_error(prob, it))
