"""Optimal transport instances: grid images, marginals, cost matrices, file I/O.

Images and transport plans are flattened in row-major order throughout the
package; cell index ``k`` of an ``r x r`` grid corresponds to the coordinate
pair ``(k // r, k % r)``. Any consistent flattening yields the same problem up
to an index permutation, so row-major is fixed once here and reused everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

L1 = "l1"
L2 = "l2"
LINF = "linf"
EXPLICIT = "explicit"
GRID_COST_KINDS = (L1, L2, LINF)
COST_KINDS = GRID_COST_KINDS + (EXPLICIT,)

SYNTH_CLASSES = ("whitenoise", "shapes", "cauchy_like")

MARGINAL_SUM_TOL = 1e-12


class InstanceError(ValueError):
    """Invalid instance data: negative entries, zero mass, bad shapes."""


class InstanceFormatError(InstanceError):
    """Malformed instance file."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InstanceError(f"non-finite {name} entry")
    return arr


@dataclass(eq=False)
class Marginal:
    """Probability vector. Weights are divided by their sum on construction,
    unless they already sum to one within ``MARGINAL_SUM_TOL``: those are kept
    as given, so a marginal built from a marginal's weights (a saved instance
    loaded back, say) has the same bytes."""

    weights: np.ndarray

    @np.errstate(over="ignore")  # an overflowing mass raises InstanceError below, not a warning
    def __post_init__(self):
        self.weights = _as_float_array(self.weights, "marginal")
        if self.weights.ndim != 1 or self.weights.size < 1:
            raise InstanceError("marginal must be a non-empty vector")
        if np.any(self.weights < 0):
            raise InstanceError("negative marginal entry")
        total = float(self.weights.sum())
        if not math.isfinite(total):
            raise InstanceError("marginal mass overflows")
        if total <= 0.0:
            raise InstanceError("marginal has zero mass")
        if abs(total - 1.0) > MARGINAL_SUM_TOL:
            self.weights = self.weights / total
            if abs(float(self.weights.sum()) - 1.0) > MARGINAL_SUM_TOL:
                raise InstanceError("marginal does not normalize to unit sum")

    def __len__(self) -> int:
        return self.weights.size


@dataclass(eq=False)
class CostMatrix:
    """Non-negative cost matrix, held as its entries alone; ``save_instance``
    works out from them whether it is a grid cost."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = _as_float_array(self.entries, "cost")
        if self.entries.ndim != 2:
            raise InstanceError("cost must be a 2-D matrix")
        if np.any(self.entries < 0):
            raise InstanceError("negative cost entry")

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass(eq=False)
class OTProblem:
    """Cost matrix plus row/column marginals; the data of the transport LP."""

    cost: CostMatrix
    row_marginal: Marginal
    col_marginal: Marginal

    def __post_init__(self):
        m, n = self.cost.shape
        if len(self.row_marginal) != m or len(self.col_marginal) != n:
            raise InstanceError("dimension mismatch between cost and marginals")

    @property
    def m(self) -> int:
        return self.cost.shape[0]

    @property
    def n(self) -> int:
        return self.cost.shape[1]

    @property
    def C(self) -> np.ndarray:
        return self.cost.entries

    @property
    def f(self) -> np.ndarray:
        return self.row_marginal.weights

    @property
    def g(self) -> np.ndarray:
        return self.col_marginal.weights

    # Cached norms used by the KKT scaling denominators; the solver evaluates
    # the KKT error every iteration, so these must not be recomputed there.
    @cached_property
    def cost_fro_norm(self) -> float:
        return float(np.linalg.norm(self.C))

    @cached_property
    def marginal_norm(self) -> float:
        return float(np.linalg.norm(self.f) + np.linalg.norm(self.g))


def grid_cost(r: int, kind: str) -> CostMatrix:
    """Pairwise moving cost between cells of an r x r grid.

    Entry (i, j) is the distance between the coordinate tuples of cells i and
    j under the requested norm: the sum of absolute coordinate differences
    (l1), the Euclidean distance (l2), or the larger coordinate difference
    (linf), in raw grid units.
    """
    if r < 1:
        raise InstanceError("grid resolution must be positive")
    if kind not in GRID_COST_KINDS:
        raise InstanceError(f"grid cost kind must be one of {GRID_COST_KINDS}")
    rows, cols = np.divmod(np.arange(r * r, dtype=np.float64), r)
    dr = np.abs(np.subtract.outer(rows, rows))
    dc = np.abs(np.subtract.outer(cols, cols))
    if kind == L1:
        return CostMatrix(dr + dc)
    if kind == L2:
        return CostMatrix(np.sqrt(dr ** 2 + dc ** 2))
    return CostMatrix(np.maximum(dr, dc))


def _random_rectangle(rng: np.random.Generator, rows: range, cols: range) -> tuple:
    r0 = int(rng.integers(rows.start, rows.stop))
    r1 = int(rng.integers(r0, rows.stop))
    c0 = int(rng.integers(cols.start, cols.stop))
    c1 = int(rng.integers(c0, cols.stop))
    return r0, r1, c0, c1


def _synth_one(kind: str, r: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "whitenoise":
        return rng.random((r, r))
    if kind == "shapes":
        # Two disjoint constant-intensity rectangles, one per half of a random
        # horizontal split; disjointness holds by construction.
        pixels = np.zeros((r, r))
        split = int(rng.integers(1, r))
        for rows in (range(0, split), range(split, r)):
            r0, r1, c0, c1 = _random_rectangle(rng, rows, range(0, r))
            pixels[r0 : r1 + 1, c0 : c1 + 1] = 1.0
        return pixels
    # cauchy_like: synth_instance has already rejected any other class
    center = rng.integers(0, r, size=2)
    ii, jj = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
    d2 = (ii - center[0]) ** 2 + (jj - center[1]) ** 2
    return 1.0 / (1.0 + d2.astype(np.float64))


def synth_instance(kind: str, r: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic pair of r x r non-negative pixel arrays of the given class.

    Every image has a positive pixel, so it flattens to a valid ``Marginal``.
    """
    if kind not in SYNTH_CLASSES:
        raise InstanceError(f"unknown synthetic class {kind!r}")
    if r < 2:
        raise InstanceError("synthetic images need resolution >= 2")
    rng = np.random.default_rng(seed)
    return _synth_one(kind, r, rng), _synth_one(kind, r, rng)


def grid_problem(kind: str, r: int, cost_kind: str, seed: int) -> OTProblem:
    """Synthesize a full grid OT instance (two images + grid cost).

    Each image is flattened row-major into a marginal.
    """
    src, dst = synth_instance(kind, r, seed)
    return OTProblem(
        cost=grid_cost(r, cost_kind),
        row_marginal=Marginal(src.ravel()),
        col_marginal=Marginal(dst.ravel()),
    )


def _format_vector(v: np.ndarray) -> str:
    return " ".join(str(x) for x in v.tolist())


def _grid_kind(prob: OTProblem) -> str | None:
    """The first grid cost kind whose entries equal the cost's, if any."""
    r = math.isqrt(prob.m)
    if prob.m != prob.n or r * r != prob.m:
        return None
    matches = (k for k in GRID_COST_KINDS if np.array_equal(prob.C, grid_cost(r, k).entries))
    return next(matches, None)


def save_instance(prob: OTProblem, path) -> None:
    """Write an instance in the plain-text format accepted by load_instance.

    The cost is written as the one-line grid shorthand whenever its entries
    equal a grid cost, however it was built; any other cost (a normalized
    grid cost, say) is written out explicitly. A load reproduces every cost
    entry byte for byte.
    """
    kind = _grid_kind(prob) or EXPLICIT
    lines = ["# otsolve instance", f"{prob.m} {prob.n}", f"cost {kind}"]
    if kind == EXPLICIT:
        lines.extend(_format_vector(row) for row in prob.C)
    lines.append(_format_vector(prob.f))
    lines.append(_format_vector(prob.g))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_floats(tokens: list[str], count: int, what: str) -> np.ndarray:
    if len(tokens) != count:
        raise InstanceFormatError(f"dimension mismatch in {what}")
    try:
        return np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise InstanceFormatError(f"could not parse {what}: {exc}") from exc


def load_instance(path) -> OTProblem:
    """Parse an instance file.

    Format (UTF-8, ``#`` comment lines ignored): ``m n`` on the first line,
    ``cost <l1|l2|linf|explicit>`` on the second, then ``m`` rows of ``n``
    costs if explicit, then one line of ``m`` row-marginal weights and one
    line of ``n`` column-marginal weights.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except UnicodeDecodeError as exc:
        raise InstanceFormatError("instance file is not UTF-8 text") from exc
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 4:
        raise InstanceFormatError("instance file is truncated")

    dims = lines[0].split()
    if len(dims) != 2:
        raise InstanceFormatError("first line must be 'm n'")
    try:
        m, n = int(dims[0]), int(dims[1])
    except ValueError as exc:
        raise InstanceFormatError(f"could not parse dimensions: {exc}") from exc
    if m < 1 or n < 1:
        raise InstanceFormatError("dimensions must be positive")

    cost_line = lines[1].split()
    if len(cost_line) != 2 or cost_line[0] != "cost":
        raise InstanceFormatError("second line must be 'cost <kind>'")
    kind = cost_line[1]
    if kind not in COST_KINDS:
        raise InstanceFormatError(f"unknown cost kind {kind!r}")

    pos = 2
    if kind == EXPLICIT:
        if len(lines) < 2 + m + 2:
            raise InstanceFormatError("instance file is truncated")
        rows = [_parse_floats(lines[pos + i].split(), n, f"cost row {i}") for i in range(m)]
        cost = CostMatrix(np.stack(rows))
        pos += m
    else:
        if m != n:
            raise InstanceFormatError("grid cost requires m == n")
        r = math.isqrt(m)
        if r * r != m:
            raise InstanceFormatError("grid cost requires a perfect-square dimension")

    if len(lines) != pos + 2:
        raise InstanceFormatError("instance file has trailing or missing lines")
    f = _parse_floats(lines[pos].split(), m, "row marginal")
    g = _parse_floats(lines[pos + 1].split(), n, "column marginal")
    # The O(m^2) grid cost is built only once the whole file has checked out.
    if kind != EXPLICIT:
        cost = grid_cost(r, kind)
    return OTProblem(cost=cost, row_marginal=Marginal(f), col_marginal=Marginal(g))
