"""Pointwise reference formulas the kernel tests compare against."""

import numpy as np

from svoed.geometry import RANK_TOL_DEFAULT, LocalCriterion, as_jacobian


def local_skewness_oracle(J, rank_tol: float = RANK_TOL_DEFAULT) -> LocalCriterion:
    """Local skewness by explicit projection; reference path for tests.

    Splits each row as j_k = j_k0 + j_k_perp with j_k0 the least-squares
    projection onto the span of the other rows, and scores
    ||j_k|| / ||j_k_perp||.  Row k scores +inf when it lies in that span
    (within ``rank_tol`` relative) or is identically zero.
    """
    J = as_jacobian(J)
    m = J.shape[0]
    sigma = np.linalg.svd(J, compute_uv=False)
    deficient = bool(sigma[-1] <= rank_tol * sigma[0])
    scaling = np.inf if deficient else float(1.0 / np.prod(sigma))

    if m == 1:
        vec = np.array([np.inf]) if deficient else np.ones(1)
        return LocalCriterion(scaling, float(vec[0]), vec, sigma, deficient)

    vec = np.empty(m)
    for k in range(m):
        row = J[k]
        others = np.delete(J, k, axis=0)
        coeffs, *_ = np.linalg.lstsq(others.T, row, rcond=None)
        perp = row - others.T @ coeffs
        row_norm = np.linalg.norm(row)
        perp_norm = np.linalg.norm(perp)
        if row_norm == 0.0 or perp_norm <= rank_tol * row_norm:
            vec[k] = np.inf
        else:
            vec[k] = row_norm / perp_norm
    return LocalCriterion(scaling, float(vec.max()), vec, sigma, deficient)
