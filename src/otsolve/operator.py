"""Matrix-free application of the transport constraint operator.

The equality constraints of the transport LP stack the row sums and column
sums of the plan. Applying the constraint matrix therefore never requires
building it: the forward map is ``X -> (X @ 1, X.T @ 1)`` and the adjoint is
``(p, q) -> p 1^T + 1 q^T``. The solver never forms the dense matrix; the
tests build it to check these two maps against.

Plans are vectorized row-major (``X.ravel()``), matching the flattening used
for grid images. These sums use numpy's fixed order, whether or not a large
plan's passes are split over threads (see ``_par``), but the solver's dot
products and norms call BLAS, which may split long vectors across threads:
a run is byte-identical only for a fixed BLAS thread count.
"""

from __future__ import annotations

import numpy as np

from . import _par


def apply_A(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums and column sums of the plan, i.e. the constraint map."""
    if not _par.split(X.size):
        return X.sum(axis=1), X.sum(axis=0)
    return _par.over_rows(None, len(X), sums_of=X)


def apply_At(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Adjoint of the constraint map: entry (i, j) is p_i + q_j."""
    return p[:, None] + q[None, :]
