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
    """Invalid instance data: negative entries, degenerate image, bad shapes."""


class InstanceFormatError(InstanceError):
    """Malformed instance file."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InstanceError(f"non-finite {name} entry")
    return arr


@dataclass(eq=False)
class GridImage:
    """Square grid of non-negative intensities with at least one positive pixel."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = _as_float_array(self.pixels, "pixel")
        if self.pixels.ndim != 2 or self.pixels.shape[0] != self.pixels.shape[1]:
            raise InstanceError("image must be a square 2-D grid")
        if self.pixels.shape[0] < 1:
            raise InstanceError("image resolution must be positive")
        if np.any(self.pixels < 0):
            raise InstanceError("negative pixel intensity")
        if not np.any(self.pixels > 0):
            raise InstanceError("degenerate image")

    @property
    def resolution(self) -> int:
        return self.pixels.shape[0]


@dataclass(eq=False)
class Marginal:
    """Probability vector. Weights are normalized to unit sum on construction."""

    weights: np.ndarray

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
        self.weights = self.weights / total
        if abs(float(self.weights.sum()) - 1.0) > MARGINAL_SUM_TOL:
            raise InstanceError("marginal does not normalize to unit sum")

    def __len__(self) -> int:
        return self.weights.size


@dataclass(eq=False)
class CostMatrix:
    """Non-negative cost matrix, tagged with how it was constructed."""

    entries: np.ndarray
    norm_kind: str = EXPLICIT

    def __post_init__(self):
        self.entries = _as_float_array(self.entries, "cost")
        if self.entries.ndim != 2:
            raise InstanceError("cost must be a 2-D matrix")
        if np.any(self.entries < 0):
            raise InstanceError("negative cost entry")
        if self.norm_kind not in COST_KINDS:
            raise InstanceError(f"unknown cost kind {self.norm_kind!r}")

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


def marginal_from_image(img: GridImage) -> Marginal:
    """Flatten an image row-major and normalize it to a probability vector."""
    flat = img.pixels.ravel()
    if float(flat.sum()) <= 0.0:
        raise InstanceError("degenerate image")
    return Marginal(flat)


def grid_coordinates(r: int) -> np.ndarray:
    """(r^2, 2) array of (row, col) coordinates in row-major cell order."""
    idx = np.arange(r * r)
    return np.stack([idx // r, idx % r], axis=1).astype(np.float64)


def grid_cost(r: int, norm_kind: str, normalize: bool = False) -> CostMatrix:
    """Pairwise moving cost between cells of an r x r grid.

    Entry (i, j) is the distance between the coordinate tuples of cells i and
    j under the requested norm: the sum of absolute coordinate differences
    (l1), the Euclidean distance (l2), or the larger coordinate difference
    (linf). Costs are raw grid distances by default; ``normalize`` divides by
    the maximum entry (useful to compare entropic penalties across
    resolutions) and such costs are serialized explicitly.
    """
    if r < 1:
        raise InstanceError("grid resolution must be positive")
    if norm_kind not in GRID_COST_KINDS:
        raise InstanceError(f"grid cost kind must be one of {GRID_COST_KINDS}")
    coords = grid_coordinates(r)
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    if norm_kind == L1:
        entries = diff.sum(axis=2)
    elif norm_kind == L2:
        entries = np.sqrt((diff ** 2).sum(axis=2))
    else:
        entries = diff.max(axis=2)
    if normalize and entries.max() > 0:
        entries = entries / entries.max()
    return CostMatrix(entries, norm_kind)


def _random_rectangle(rng: np.random.Generator, rows: range, cols: range) -> tuple:
    r0 = int(rng.integers(rows.start, rows.stop))
    r1 = int(rng.integers(r0, rows.stop))
    c0 = int(rng.integers(cols.start, cols.stop))
    c1 = int(rng.integers(c0, cols.stop))
    return r0, r1, c0, c1


def _synth_one(kind: str, r: int, rng: np.random.Generator) -> GridImage:
    if kind == "whitenoise":
        return GridImage(rng.random((r, r)))
    if kind == "shapes":
        # Two disjoint constant-intensity rectangles, one per half of a random
        # horizontal split; disjointness holds by construction.
        pixels = np.zeros((r, r))
        split = int(rng.integers(1, r))
        for rows in (range(0, split), range(split, r)):
            r0, r1, c0, c1 = _random_rectangle(rng, rows, range(0, r))
            pixels[r0 : r1 + 1, c0 : c1 + 1] = 1.0
        return GridImage(pixels)
    if kind == "cauchy_like":
        center = rng.integers(0, r, size=2)
        ii, jj = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
        d2 = (ii - center[0]) ** 2 + (jj - center[1]) ** 2
        return GridImage(1.0 / (1.0 + d2.astype(np.float64)))
    raise InstanceError(f"unknown synthetic class {kind!r}")


def synth_instance(kind: str, r: int, seed: int) -> tuple[GridImage, GridImage]:
    """Deterministic pair of synthetic images of the given class."""
    if kind not in SYNTH_CLASSES:
        raise InstanceError(f"unknown synthetic class {kind!r}")
    if r < 2:
        raise InstanceError("synthetic images need resolution >= 2")
    rng = np.random.default_rng(seed)
    return _synth_one(kind, r, rng), _synth_one(kind, r, rng)


def grid_problem(kind: str, r: int, norm_kind: str, seed: int) -> OTProblem:
    """Synthesize a full grid OT instance (two images + grid cost)."""
    src, dst = synth_instance(kind, r, seed)
    return OTProblem(
        cost=grid_cost(r, norm_kind),
        row_marginal=marginal_from_image(src),
        col_marginal=marginal_from_image(dst),
    )


def _format_vector(v: np.ndarray) -> str:
    return " ".join(str(x) for x in v.tolist())


def _is_canonical_grid(prob: OTProblem) -> bool:
    if prob.cost.norm_kind == EXPLICIT or prob.m != prob.n:
        return False
    r = math.isqrt(prob.m)
    if r * r != prob.m:
        return False
    return np.array_equal(prob.C, grid_cost(r, prob.cost.norm_kind).entries)


def save_instance(prob: OTProblem, path) -> None:
    """Write an instance in the plain-text format accepted by load_instance.

    Grid-tagged costs are written as the one-line shorthand only when the
    entries actually equal the canonical grid cost (normalized or otherwise
    modified entries are written out explicitly), so a load always reproduces
    the saved data.
    """
    if _is_canonical_grid(prob):
        lines = ["# otsolve instance", f"{prob.m} {prob.n}", f"cost {prob.cost.norm_kind}"]
    else:
        lines = ["# otsolve instance", f"{prob.m} {prob.n}", f"cost {EXPLICIT}"]
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
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
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
        cost = CostMatrix(np.stack(rows), EXPLICIT)
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
