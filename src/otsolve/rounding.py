"""Turn an approximately feasible plan into an exactly feasible one.

The procedure scales rows down to at most their target marginals, then
columns, then repairs the remaining (non-negative) deficits with a rank-one
correction. One pass of O(mn) work; the output moves at most twice the input
marginal violation in entry-wise l1 distance.
"""

from __future__ import annotations

import numpy as np

from .instance import OTProblem

ZERO_RESIDUAL_TOL = 1e-14


def round_to_feasible(prob: OTProblem, X: np.ndarray) -> np.ndarray:
    """Return a non-negative plan whose marginals match f and g exactly.

    ``X`` must have no negative entry. A row or column without mass keeps scale 1."""
    f, g = prob.f, prob.g
    row_sums = X.sum(axis=1)
    row_scale = np.minimum(np.divide(f, row_sums, out=np.ones_like(f), where=row_sums > 0), 1.0)
    X_tmp = row_scale[:, None] * X

    col_sums = X_tmp.sum(axis=0)
    X_tmp *= np.minimum(np.divide(g, col_sums, out=np.ones_like(g), where=col_sums > 0), 1.0)

    # Deficits are non-negative by construction; clip roundoff so the
    # correction cannot introduce negative entries.
    err_r = np.maximum(f - X_tmp.sum(axis=1), 0.0)
    err_c = np.maximum(g - X_tmp.sum(axis=0), 0.0)
    total = float(err_r.sum())
    if total <= ZERO_RESIDUAL_TOL:
        # Rows are exact, and the marginals carry equal total mass, so the
        # columns are exact too; skip the 0/0 correction.
        return X_tmp
    correction = np.outer(err_r, err_c)
    correction /= total
    return np.add(correction, X_tmp, out=correction)  # the bits of X_tmp + correction
