"""Pointwise reference formulas the kernel tests compare against.

Each works on one matrix from its singular values (or, for
:func:`local_skewness_oracle`, from explicit projections) and reports rank
deficiency as +inf rather than raising: the readable definitions of the
quantities the batched kernels in ``svoed.geometry`` compute.
"""

from dataclasses import dataclass

import numpy as np

from svoed.geometry import RANK_TOL_DEFAULT


@dataclass(frozen=True)
class LocalCriterion:
    """Scaling and skewness of one Jacobian at one parameter point.

    ``scaling`` is the volume of the pre-image cross-section of a unit
    output cube (+inf when rank deficient).  ``skewness`` is the largest
    entry of ``skewness_vector``, whose k-th entry is ||j_k|| / ||j_k_perp||
    for row k (1 for a row orthogonal to all others, +inf for a row inside
    the span of the others).
    """

    scaling: float
    skewness: float
    skewness_vector: np.ndarray
    singular_values: np.ndarray
    rank_deficient: bool


def as_jacobian(matrix) -> np.ndarray:
    """Validate a Jacobian and return it as a float 2-D array.

    Requires finite entries and 1 <= m <= n.  Maps with more outputs than
    parameters carry redundant rows that should be reduced before any
    criterion is evaluated, so wide-or-square is the only supported shape.
    """
    J = np.asarray(matrix, dtype=float)
    if J.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={J.ndim}")
    if not np.all(np.isfinite(J)):
        raise ValueError("Jacobian contains non-finite entries")
    m, n = J.shape
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got shape {J.shape}")
    return J


def singular_values(J) -> np.ndarray:
    """Singular values of an m x n Jacobian, descending, length m."""
    return np.linalg.svd(as_jacobian(J), compute_uv=False)


def parallelepiped_measure(J) -> float:
    """m-volume of the parallelepiped spanned by the rows of J.

    Equals the product of the m singular values (and sqrt(det(J J^T))).
    """
    return float(np.prod(singular_values(J)))


def cross_section_measure(J, rank_tol: float = RANK_TOL_DEFAULT) -> float:
    """m-volume of the pre-image cross-section of a unit output cube.

    The pre-image of a unit cube under a full-rank J is a cylinder; its
    orthogonal cross-section is the parallelepiped spanned by the columns
    of the pseudo-inverse, with volume 1 / prod(sigma_k).  Returns +inf
    when J is rank deficient under ``rank_tol`` (legal, not an error).
    """
    sigma = singular_values(J)
    if sigma[-1] <= rank_tol * sigma[0]:
        return np.inf
    return float(1.0 / np.prod(sigma))


def local_skewness_svd(J, rank_tol: float = RANK_TOL_DEFAULT) -> LocalCriterion:
    """Local skewness from singular values of J and its row-deleted minors.

    For each row k, ||j_k_perp|| * vol(rows without k) = vol(all rows), so

        ||j_k|| / ||j_k_perp|| = ||j_k|| * prod(sigma of J minus row k)
                                          / prod(sigma of J)

    which needs only SVDs, no explicit orthogonal decompositions.  A single
    row is trivially orthogonal to the (empty) rest, so m = 1 scores 1.
    When J is rank deficient under ``rank_tol`` every entry is reported as
    +inf (some row must lie in the span of the others).
    """
    J = as_jacobian(J)
    m = J.shape[0]
    sigma = np.linalg.svd(J, compute_uv=False)
    deficient = bool(sigma[-1] <= rank_tol * sigma[0])

    if deficient:
        return LocalCriterion(
            scaling=np.inf,
            skewness=np.inf,
            skewness_vector=np.full(m, np.inf),
            singular_values=sigma,
            rank_deficient=True,
        )

    scaling = float(1.0 / np.prod(sigma))
    if m == 1:
        return LocalCriterion(scaling, 1.0, np.ones(1), sigma, False)

    full_prod = float(np.prod(sigma))
    row_norms = np.linalg.norm(J, axis=1)
    vec = np.empty(m)
    for k in range(m):
        minor = np.delete(J, k, axis=0)
        minor_prod = float(np.prod(np.linalg.svd(minor, compute_uv=False)))
        vec[k] = row_norms[k] * minor_prod / full_prod
    return LocalCriterion(scaling, float(vec.max()), vec, sigma, False)


def skewness_as_scaling_ratio(J, rank_tol: float = RANK_TOL_DEFAULT) -> float:
    """Skewness recovered purely from scaling effects.

    Dropping row k from a full-rank J changes the scaling from
    SE(J minus row k) to SE(J); the skewness is the largest row-normalized
    ratio of the two:

        SK(J) = SE(J) * max_k ||j_k|| / SE(J minus row k).

    Cross-check identity for :func:`local_skewness_svd`; requires m >= 2.
    """
    J = as_jacobian(J)
    m = J.shape[0]
    if m < 2:
        raise ValueError("scaling-ratio skewness needs at least two rows")
    se_full = cross_section_measure(J, rank_tol=rank_tol)
    if np.isinf(se_full):
        return np.inf
    row_norms = np.linalg.norm(J, axis=1)
    best = 0.0
    for k in range(m):
        se_minor = cross_section_measure(np.delete(J, k, axis=0), rank_tol=rank_tol)
        best = max(best, row_norms[k] / se_minor)
    return float(se_full * best)



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
