"""Geometric criteria of Jacobians: batched kernels.

Everything here describes how a differentiable map with an m x n Jacobian
(m <= n) distorts small sets when output events are pulled back into the
parameter space:

* the m-volume of the parallelepiped spanned by the Jacobian rows,
* the m-volume of the cross-section of the pre-image of a unit output
  cube (the "local scaling"), and
* the per-row redundancy of the map components (the "local skewness"),
  i.e. how far each row sticks out of the span of the others.

:func:`batch_reciprocals` scores a whole stack from one QR factorization
per matrix, and :class:`ExtensionBase` factors a fixed set of rows once and
scores every one-row extension of it by rank-one updates of that factor.
Both fall back to the singular-value formula for the matrices whose
conditioning makes the QR route unreliable, so the rank cutoff means
exactly what it means pointwise.  The pointwise definitions the tests
check these kernels against live in ``tests/geometry_oracles.py``.
"""

from __future__ import annotations

import numpy as np

# Relative spectral cutoff: a singular value sigma_k is treated as zero when
# sigma_k <= RANK_TOL_DEFAULT * sigma_max.  Scale-free, and comfortably above
# the backward error of LAPACK's SVD for the tiny matrices handled here.
RANK_TOL_DEFAULT = 1e-12


# ---------------------------------------------------------------------------
# Batched kernels over stacks of Jacobians.
#
# They return the *reciprocals* 1/SE and 1/SK (zero where rank deficient),
# which is the form every downstream average needs.  With J^T = Q R for an
# m x n matrix J, the Gram matrix is J J^T = R^T R, so
#
#     1/SE = prod_k sigma_k = prod_k |R_kk|,
#     ||j_k_perp||^2 = 1 / (G^-1)_kk = 1 / ||row k of R^-1||^2,
#     ||j_k|| = ||column k of R||,
#
# and 1/SK = min_k ||j_k_perp|| / ||j_k|| needs one triangular inverse.
# ---------------------------------------------------------------------------

# The QR route loses about cond(J) * eps of relative accuracy, and only the
# SVD can tell which side of the rank cutoff a nearly deficient matrix is
# on.  Matrices whose condition bound ||R||_F * ||R^-1||_F (>= cond(J)) is
# not below this ceiling take the singular-value formula instead.
_COND_CEILING = 1e8


def _as_stack(stack) -> np.ndarray:
    S = np.asarray(stack, dtype=float)
    if S.ndim != 3:
        raise ValueError(f"expected a (N, m, n) stack, got ndim={S.ndim}")
    if S.shape[1] > S.shape[2]:
        raise ValueError(f"need m <= n in stack, got shape {S.shape}")
    return S


def _cond_limit(rank_tol: float) -> float:
    """Largest condition bound the QR route accepts under ``rank_tol``.

    A bound below half of 1/rank_tol leaves sigma_min above twice the
    cutoff, so the SVD rank test would call the matrix full rank too.
    """
    if rank_tol <= 0.0:
        return _COND_CEILING
    return min(_COND_CEILING, 0.5 / rank_tol)


def _triangular_inverse(R: np.ndarray) -> np.ndarray:
    """Inverses of a (N, k, k) stack of upper-triangular matrices.

    Back substitution vectorized over the stack.  A zero diagonal entry
    gives inf or nan entries rather than an error; callers route those
    matrices elsewhere through their condition bound.
    """
    k = R.shape[-1]
    X = np.zeros_like(R)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    for i in range(k - 1, -1, -1):
        X[:, i, i] = 1.0 / diag[:, i]
        for j in range(i + 1, k):
            dot = np.einsum("nl,nl->n", R[:, i, i + 1 : j + 1], X[:, i + 1 : j + 1, j])
            X[:, i, j] = -dot / diag[:, i]
    return X


def _svd_reciprocals(S: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(1/SE, 1/SK) of a (N, m, n) stack from singular values alone.

    1/SE is the product of the singular values; 1/SK uses
    ||j_k_perp|| * vol(rows without k) = vol(all rows), so it needs the
    singular values of every row-deleted minor.  Both are zero where the
    matrix is rank deficient under ``rank_tol``.  This is the reference
    formula, and the fallback of the QR kernels near the rank cutoff.
    """
    n_mats, m, _ = S.shape
    sigma = np.linalg.svd(S, compute_uv=False)
    deficient = sigma[:, -1] <= rank_tol * sigma[:, 0]
    full_prod = np.prod(sigma, axis=-1)
    scal = np.where(deficient, 0.0, full_prod)
    if m == 1:
        return scal, np.where(deficient, 0.0, 1.0)

    row_norms = np.linalg.norm(S, axis=2)
    worst = np.zeros(n_mats)
    for k in range(m):
        minor = np.delete(S, k, axis=1)
        minor_prod = np.prod(np.linalg.svd(minor, compute_uv=False), axis=-1)
        np.maximum(worst, row_norms[:, k] * minor_prod, out=worst)
    ok = ~deficient & (worst > 0.0)
    skew = np.zeros(n_mats)
    skew[ok] = full_prod[ok] / worst[ok]
    return scal, skew


def batch_reciprocals(
    stack, rank_tol: float = RANK_TOL_DEFAULT
) -> tuple[np.ndarray, np.ndarray]:
    """(1/SE, 1/SK) for each matrix in a (N, m, n) stack.

    1/SE is the product of the singular values and 1/SK, in [0, 1], the
    smallest ||j_k_perp|| / ||j_k|| over rows (one for mutually orthogonal
    rows and for any nonzero single row).  Both are zero where the matrix
    is rank deficient under ``rank_tol``.  One QR of J^T per matrix gives
    both; matrices too ill-conditioned for it use the SVD formula.
    """
    S = _as_stack(stack)
    R = np.linalg.qr(S.transpose(0, 2, 1), mode="r")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        R_inv = _triangular_inverse(R)
        col_sq = np.einsum("nij,nij->nj", R, R)  # ||j_k||^2
        inv_row_sq = np.einsum("nij,nij->ni", R_inv, R_inv)  # 1 / ||j_k_perp||^2
        bound_sq = col_sq.sum(axis=1) * inv_row_sq.sum(axis=1)
        scal = np.abs(np.prod(np.diagonal(R, axis1=1, axis2=2), axis=1))
        skew = 1.0 / np.sqrt(np.max(col_sq * inv_row_sq, axis=1))
    if S.shape[1] == 1:
        skew = np.ones_like(skew)
    fallback = ~(bound_sq < _cond_limit(rank_tol) ** 2)
    if fallback.any():
        scal[fallback], skew[fallback] = _svd_reciprocals(S[fallback], rank_tol)
    return scal, skew


class ExtensionBase:
    """A (N, k, n) stack of base matrices, k < n, factored once so that
    :meth:`skewness` can score any number of one-row extensions of it.

    Each base is factored as base^T = Q R, and a row j extends the factor by
    one column:

        R' = [[R, g], [0, s]],   g = Q^T j,   s = ||j - Q g||,

    so the new row scores s / ||j|| and row l of R'^-1 is row l of R^-1
    followed by -h_l / s, with h = R^-1 g.  A base that is already rank
    deficient scores zero with every row, since adding a row can only
    lower sigma_min / sigma_max.
    """

    def __init__(self, base, rank_tol: float = RANK_TOL_DEFAULT):
        B = _as_stack(base)
        k, n = B.shape[1:]
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n rows in the base stack, got shape {B.shape}")
        self.base, self.rank_tol = B, rank_tol
        sigma = np.linalg.svd(B, compute_uv=False)
        self.deficient = sigma[:, -1] <= rank_tol * sigma[:, 0]
        self.Q, R = np.linalg.qr(B.transpose(0, 2, 1))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.R_inv = _triangular_inverse(R)
            self.col_sq = np.einsum("nij,nij->nj", R, R)  # ||base row l||^2
            self.inv_row_sq = np.einsum("nij,nij->ni", self.R_inv, self.R_inv)

    def skewness(self, rows) -> np.ndarray:
        """1/SK of each base matrix extended by each of its candidate rows.

        ``rows`` is a (N, C, n) stack; entry [i, c] of the (N, C) result is
        1/SK of base i with ``rows[i, c]`` appended as row k, as
        :func:`batch_reciprocals` would score it.  Pairs whose condition
        bound is not safely small use the SVD formula, as there.
        """
        Q, col_sq, inv_row_sq = self.Q, self.col_sq, self.inv_row_sq
        J = np.asarray(rows, dtype=float)
        n_mats, _, n = self.base.shape
        if J.ndim != 3 or J.shape[0] != n_mats or J.shape[2] != n:
            raise ValueError(f"expected a ({n_mats}, C, {n}) row stack, got shape {J.shape}")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = J @ Q  # (N, C, k)
            resid = J - g @ Q.transpose(0, 2, 1)
            s_sq = np.einsum("ncj,ncj->nc", resid, resid)
            row_sq = np.einsum("ncj,ncj->nc", J, J)
            h_over_s_sq = (g @ self.R_inv.transpose(0, 2, 1)) ** 2 / s_sq[..., None]
            old_rows = col_sq[:, None, :] * (inv_row_sq[:, None, :] + h_over_s_sq)
            worst_sq = np.maximum(old_rows.max(axis=2), row_sq / s_sq)
            skew = 1.0 / np.sqrt(worst_sq)
            bound_sq = (col_sq.sum(axis=1)[:, None] + row_sq) * (
                inv_row_sq.sum(axis=1)[:, None] + h_over_s_sq.sum(axis=2) + 1.0 / s_sq
            )
        skew[self.deficient] = 0.0
        fallback = ~(bound_sq < _cond_limit(self.rank_tol) ** 2) & ~self.deficient[:, None]
        if fallback.any():
            i, c = np.nonzero(fallback)
            extended = np.concatenate([self.base[i], J[i, c][:, None, :]], axis=1)
            skew[i, c] = _svd_reciprocals(extended, self.rank_tol)[1]
        return skew
