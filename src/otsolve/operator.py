"""Matrix-free application of the transport constraint operator.

The equality constraints of the transport LP stack the row sums and column
sums of the plan. Applying the constraint matrix therefore never requires
building it: the forward map is ``X -> (X @ 1, X.T @ 1)`` and the adjoint is
``(p, q) -> p 1^T + 1 q^T``. The solver never forms the dense matrix; the
tests build it to check these two maps against.

Plans are vectorized row-major (``X.ravel()``), matching the flattening used
for grid images. All reductions go through numpy's pairwise summation, which
uses a fixed association order regardless of thread count, so results are
reproducible in deterministic mode.
"""

from __future__ import annotations

import numpy as np


def apply_A(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums and column sums of the plan, i.e. the constraint map."""
    return X.sum(axis=1), X.sum(axis=0)


def apply_At(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Adjoint of the constraint map: entry (i, j) is p_i + q_j."""
    return p[:, None] + q[None, :]
