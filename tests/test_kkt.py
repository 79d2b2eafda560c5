import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import otsolve.kkt
from otsolve import Iterate, kkt_error
from otsolve.kkt import dual_slack, positive_part

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


# Entries on which a maximum could tell its two forms apart: signed zeros,
# NaNs of both signs with payloads (quiet and signalling), infinities and
# subnormals, as float64 bit patterns.
_SPECIAL_BITS = np.array([
    0x8000000000000000,  # -0.0
    0x0000000000000000,
    0x7FF8000000000000, 0xFFF8000000000000,  # the quiet NaNs
    0x7FF8000000000ABC, 0xFFF80000DEADBEEF,  # quiet NaNs with payloads
    0x7FF0000000000001, 0xFFF4000000000123,  # signalling NaNs with payloads
    0x7FF0000000000000, 0xFFF0000000000000,  # +inf, -inf
    0x0000000000000001, 0x8000000000000001,  # the smallest subnormals
    0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,  # the largest subnormals
], dtype=np.uint64).view(np.float64)
_ROW_ENTRIES = otsolve.kkt._ZERO_ENTRIES


@st.composite
def special_array(
    draw, sizes=(1, 25, _ROW_ENTRIES - 1, _ROW_ENTRIES, _ROW_ENTRIES + 1, 3 * _ROW_ENTRIES + 5)
):
    """A float64 array of one of ``sizes`` entries, normal draws with special
    entries planted at drawn places."""
    size = draw(st.sampled_from(sizes))
    a = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(size)
    places = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=40))
    a[places] = _SPECIAL_BITS[draw(st.lists(st.integers(0, len(_SPECIAL_BITS) - 1),
                                            min_size=len(places), max_size=len(places)))]
    return a


_LAYOUTS = ["fortran", "strided", "float32", "fortran out"]


def _in_layout(X, layout):
    """``X`` as an input, and an ``out``, that positive_part hands to the scalar call."""
    if layout == "fortran":
        return np.asfortranarray(X), None
    if layout == "strided":
        return X[::2], None
    if layout == "float32":
        with np.errstate(all="ignore"):  # the cast of a NaN or a huge entry
            return X.astype(np.float32), None
    return X, np.empty(X.shape, order="F")


def _assert_zero_row_intact():
    row = otsolve.kkt._zeros()  # the row in use, if any array was large enough to make it
    assert not row.flags.writeable
    assert row.tobytes() == bytes(8 * _ROW_ENTRIES)  # +0.0 everywhere


class TestPositivePart:
    """positive_part has the bytes of np.maximum(a, 0.0) on every input."""

    @given(special_array(), st.sampled_from(["new", "in place", "into out"]))
    def test_bytes_of_the_scalar_maximum(self, a, form):
        expected = np.maximum(a, 0.0)
        with np.errstate(all="raise"):  # NaN and inf raise in neither form
            np.maximum(a, 0.0)
            if form == "new":
                got = positive_part(a)
            elif form == "in place":
                got = positive_part(a, out=a)
                assert got is a
            else:
                out = np.empty_like(a)
                assert positive_part(a, out=out) is out
                got = out
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        _assert_zero_row_intact()

    @given(special_array(sizes=(3 * _ROW_ENTRIES + 5,)), st.integers(1, 61), st.data())
    def test_row_ranges_of_a_plan(self, flat, n, data):
        # the row ranges that split tasks hand over, some above the zero row's length
        X = flat[: flat.size // n * n].reshape(-1, n)
        a = data.draw(st.integers(0, len(X) - 1))
        b = data.draw(st.integers(a + 1, len(X)))
        expected = np.maximum(X[a:b], 0.0)
        out = np.full(X.shape, 7.0)
        assert positive_part(X[a:b]).tobytes() == expected.tobytes()
        positive_part(X[a:b], out=out[a:b])
        assert out[a:b].tobytes() == expected.tobytes()
        assert (out[:a] == 7.0).all() and (out[b:] == 7.0).all()  # no write outside the range
        before = X.copy()
        positive_part(X[a:b], out=X[a:b])
        assert X[a:b].tobytes() == expected.tobytes()
        assert X[:a].tobytes() == before[:a].tobytes() and X[b:].tobytes() == before[b:].tobytes()
        _assert_zero_row_intact()

    @given(special_array(sizes=(25, 3 * _ROW_ENTRIES + 5)), st.sampled_from(_LAYOUTS))
    def test_other_layouts_keep_the_bytes(self, flat, layout):
        a, out = _in_layout(flat[: flat.size // 5 * 5].reshape(-1, 5), layout)
        expected = np.maximum(a, 0.0)
        with np.errstate(all="raise"):
            got = positive_part(a, out=out)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("layout", _LAYOUTS + ["small"])
    def test_other_layouts_take_the_scalar_call(self, layout, monkeypatch):
        monkeypatch.setattr(otsolve.kkt, "_zero_row", None)
        X = np.linspace(-1.0, 1.0, 40 * 500).reshape(40, 500)  # 10,000 entries when strided
        # "small": C-ordered float64 rows, but no more entries than the zero row
        a, out = (X[:16], None) if layout == "small" else _in_layout(X, layout)
        positive_part(a, out=out)
        assert otsolve.kkt._zero_row is None
        positive_part(X)
        assert otsolve.kkt._zero_row is not None
        _assert_zero_row_intact()
