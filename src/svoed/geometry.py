"""Geometric criteria of Jacobians: one batched kernel.

Everything here describes how a differentiable map with an m x n Jacobian
(m <= n) distorts small sets when output events are pulled back into the
parameter space:

* the m-volume of the parallelepiped spanned by the Jacobian rows,
* the m-volume of the cross-section of the pre-image of a unit output
  cube (the "local scaling"), and
* the per-row redundancy of the map components (the "local skewness"),
  i.e. how far each row sticks out of the span of the others.

The one criterion kernel, :class:`ExtensionBase`, factors a stack of
bases once and scores any one-row extension of each: a scalar design
extends a base of no rows, a pair a base of one row, and a greedy round
the rows chosen so far.  Matrices too ill-conditioned for its QR route
take the singular-value formula, so the rank cutoff means exactly what
it means pointwise.  The pointwise definitions the tests check the
kernel against live in ``tests/geometry_oracles.py``.

The stacks hold up to millions of matrices of at most 9 x 9, and a LAPACK
call per matrix costs more than the arithmetic it does.  So the QR works
on a batch-last (n, k, N) copy of the stack: entry [i, j] of every
matrix's J^T is one contiguous length-N vector, and each step of the
factorization is one elementwise numpy operation over the whole stack.
Every sum or product over the m or n axis is written out in order, term
by term, so each score depends on its own matrix alone: not on the stack
length, its place in the stack, the chunking or the worker count.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

# Relative spectral cutoff: a singular value sigma_k is treated as zero when
# sigma_k <= RANK_TOL_DEFAULT * sigma_max.  Scale-free, and comfortably above
# the backward error of LAPACK's SVD for the tiny matrices handled here.
RANK_TOL_DEFAULT = 1e-12


# ---------------------------------------------------------------------------
# The batched kernel over stacks of Jacobians.
#
# It returns the *reciprocals* 1/SE and 1/SK (zero where rank deficient),
# which is the form every downstream average needs.  With J^T = Q R for an
# m x n matrix J, the Gram matrix is J J^T = R^T R, so
#
#     1/SE = prod_k sigma_k = prod_k |R_kk|,
#     ||j_k_perp||^2 = 1 / (G^-1)_kk = 1 / ||row k of R^-1||^2,
#     ||j_k|| = ||column k of R||,
#
# and 1/SK = min_k ||j_k_perp|| / ||j_k|| needs one triangular inverse.
#
# Each matrix is first scaled by a power of two that brings its largest
# entries near one, so no square or product over- or underflows.  The
# scaling is exact: 1/SK does not change at all, and 1/SE is scaled back by
# 2^(m e) for a matrix scaled by 2^-e.
# ---------------------------------------------------------------------------

# The QR route loses about cond(J) * eps of relative accuracy, and only the
# SVD can tell which side of the rank cutoff a nearly deficient matrix is
# on.  Matrices whose condition bound ||R||_F * ||R^-1||_F (>= cond(J)) is
# not below this ceiling take the singular-value formula instead.
_COND_CEILING = 1e8


def _cond_limit(rank_tol: float) -> float:
    """Largest condition bound the QR route accepts under ``rank_tol``.

    A bound below half of 1/rank_tol leaves sigma_min above twice the
    cutoff, so the SVD rank test would call the matrix full rank too.
    """
    if rank_tol <= 0.0:
        return _COND_CEILING
    return min(_COND_CEILING, 0.5 / rank_tol)


def _exponents(A: np.ndarray, axis) -> np.ndarray:
    """e with max |entry| over ``axis`` in [2^(e-1), 2^e); at least -1021,
    so that 2^-e is a finite double."""
    top = np.maximum(A.max(axis=axis), -A.min(axis=axis))
    return np.maximum(np.frexp(top)[1], -1021)


def _batch_last(S: np.ndarray) -> np.ndarray:
    """The batch-last (n, m, N) copy of J^T for a (N, m, n) stack."""
    A = np.empty(S.shape[::-1])
    A[...] = S.transpose(2, 1, 0)
    return A


def _householder(A: np.ndarray) -> np.ndarray:
    """Householder QR of a batch-last (n, m, N) stack, m <= n, in place.

    Column k is reflected onto beta_k e_k by H_k = I - tau_k v_k v_k^T with
    v_k[k] = 1 and beta_k = -sign(a_kk) ||a_k|| (Golub & Van Loan, Matrix
    Computations, section 5.1; LAPACK's sign convention).  Afterwards the
    upper triangle of A[:m] holds R, and A[k + 1:, k] the rest of v_k.
    Returns the (m, N) array of tau.  A zero column leaves NaNs behind,
    which callers route elsewhere through their rank test or bound.
    """
    n, m, _ = A.shape
    tau = np.empty(A.shape[1:])
    for k in range(m):
        alpha = A[k, k].copy()
        norm_sq = alpha * alpha
        for i in range(k + 1, n):
            norm_sq += A[i, k] * A[i, k]
        beta = -np.copysign(np.sqrt(norm_sq), alpha)
        tau[k] = (beta - alpha) / beta
        A[k + 1 :, k] /= alpha - beta
        A[k, k] = beta
        if k + 1 < m:
            _reflect(A, k, tau[k], A[:, k + 1 :])
    return tau


def _reflect(A: np.ndarray, k: int, tau_k: np.ndarray, X: np.ndarray) -> None:
    """X <- H_k X in place, for a batch-last (n, c, N) view X and the
    reflector H_k that :func:`_householder` left in column k of A."""
    w = X[k].copy()  # v_k . x_j for every column j of X
    for i in range(k + 1, A.shape[0]):
        w += A[i, k] * X[i]
    w *= tau_k
    X[k] -= w
    X[k + 1 :] -= A[k + 1 :, k, None] * w


def _triangular_inverse(R: np.ndarray) -> np.ndarray:
    """Inverses of the upper triangles of a batch-last (k, k, N) stack.

    Back substitution, row by row from the bottom; entries below the
    diagonal are never read.  A zero diagonal entry gives inf or nan
    entries rather than an error; callers route those matrices elsewhere
    through their condition bound.
    """
    k = R.shape[0]
    X = np.zeros(R.shape)
    for i in range(k - 1, -1, -1):
        X[i, i] = 1.0 / R[i, i]
        if i + 1 < k:
            dot = R[i, i + 1] * X[i + 1, i + 1 :]  # sum_l R[i, l] X[l, j], l = i+1 .. j
            for l in range(i + 2, k):
                dot[l - i - 1 :] += R[i, l] * X[l, l:]
            X[i, i + 1 :] = -dot / R[i, i]
    return X


def _svd_reciprocals(S: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(1/SE, 1/SK) of a (N, m, n) stack from singular values alone.

    1/SE is the product of the singular values; 1/SK uses
    ||j_k_perp|| * vol(rows without k) = vol(all rows), so it needs the
    singular values of every row-deleted minor.  Both are zero where the
    matrix is rank deficient under ``rank_tol``.  This is the reference
    formula, and the fallback of the QR kernel near the rank cutoff.
    """
    n_mats, m, n = S.shape
    e = _exponents(S, axis=(1, 2))
    S = S * np.ldexp(1.0, -e)[:, None, None]
    sigma = np.linalg.svd(S, compute_uv=False)
    deficient = sigma[:, -1] <= rank_tol * sigma[:, 0]
    full_prod = reduce(np.multiply, sigma.T)
    with np.errstate(over="ignore"):
        scal = np.where(deficient, 0.0, np.ldexp(full_prod, m * e))
    if m == 1:
        return scal, np.where(deficient, 0.0, 1.0)

    row_norms = np.sqrt(reduce(np.add, (S[..., i] * S[..., i] for i in range(n))))
    worst = np.zeros(n_mats)
    for k in range(m):
        minor = np.delete(S, k, axis=1)
        minor_prod = reduce(np.multiply, np.linalg.svd(minor, compute_uv=False).T)
        np.maximum(worst, row_norms[:, k] * minor_prod, out=worst)
    ok = ~deficient & (worst > 0.0)
    skew = np.zeros(n_mats)
    skew[ok] = full_prod[ok] / worst[ok]
    return scal, skew


class ExtensionBase:
    """A (N, k, n) stack of base matrices, 0 <= k < n, factored once so that
    :meth:`extend` can score any number of one-row extensions of it.

    Only what :func:`_householder` leaves of each base^T is kept: R and the
    k reflectors H_0 .. H_(k-1), never Q.  They take a new row j to
    x = H_(k-1) ... H_0 j, whose head g = x[:k] is Q^T j and whose tail is
    the part of j outside the base's row space, of norm s = ||x[k:]||
    (Golub & Van Loan, Matrix Computations, sections 5.1-5.2).  So the row
    extends the factor to R' = [[R, g], [0, s]]: 1/SE is the product of
    the base's |R_ii| times s, the new row scores s / ||j||, and row l of
    R'^-1 is row l of R^-1 followed by -h_l / s, with h = R^-1 g.  With no
    base rows R' = [s], so a lone row j scores (||j||, 1).

    A base and every row extending it are scaled by the power of two that
    brings the base's largest entry into [0.5, 1); without base rows, each
    row is scaled by its own.  The scaling is exact, so 1/SK does not
    change and 1/SE is scaled back.  A row so much larger or smaller than
    its base that its squares overflow, or all underflow, fails the
    condition bound, and its pair takes the SVD formula, which scales the
    pair on its own.  A base whose own condition bound fails has its rank
    tested by that formula too.  A rank-deficient base scores zero with
    every row, since adding a row can only lower sigma_min / sigma_max.
    """

    def __init__(self, base, rank_tol: float = RANK_TOL_DEFAULT):
        B = np.asarray(base, dtype=float)
        if B.ndim != 3 or B.shape[1] >= B.shape[2]:
            raise ValueError(f"need a (N, k, n) base stack with k < n, got shape {B.shape}")
        n_mats, k, _ = B.shape
        self.base, self.rank_tol = B, rank_tol
        self.factor = _batch_last(B)
        self.exponents = _exponents(self.factor, axis=(0, 1)) if k else None
        if k:
            self.factor *= np.ldexp(1.0, -self.exponents)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.tau = _householder(self.factor)
            R = self.factor[:k]
            self.R_inv = _triangular_inverse(R)
            # ||base row l||^2 and its dual, each (k, N) and summed in index
            # order, and their sums over l.
            self.col_sq, self.inv_row_sq = np.zeros(R.shape[1:]), np.zeros(R.shape[1:])
            for i in range(k):
                self.col_sq[i:] += R[i, i:] * R[i, i:]
                self.inv_row_sq[: i + 1] += self.R_inv[: i + 1, i] * self.R_inv[: i + 1, i]
            self.col_total = reduce(np.add, self.col_sq, np.zeros(n_mats))
            self.inv_total = reduce(np.add, self.inv_row_sq, np.zeros(n_mats))
            self.diagonal = np.abs(reduce(np.multiply, (R[i, i] for i in range(k)), 1.0))
        self.deficient = ~(self.col_total * self.inv_total < _cond_limit(rank_tol) ** 2)
        if self.deficient.any():
            self.deficient[self.deficient] = _svd_reciprocals(B[self.deficient], rank_tol)[1] == 0

    def extend(self, rows, repeats=()) -> tuple[np.ndarray, np.ndarray]:
        """(1/SE, 1/SK) of each base matrix extended by each of its candidate rows.

        ``rows`` is a (N, C, n) stack; entry [i, c] of each (N, C) result
        scores base i with ``rows[i, c]`` appended as row k.  1/SE is the
        product of the singular values and 1/SK, in [0, 1], the smallest
        ||j_l_perp|| / ||j_l|| over rows (one for mutually orthogonal rows
        and for any nonzero single row).  Both are zero where the extended
        matrix is rank deficient under ``rank_tol``.  Pairs whose condition
        bound is not safely small use the SVD formula.  The positions c in
        ``repeats`` hold a row of the base in every sample: they score
        exactly zero, the value of a repeated row, and never take the SVD
        formula.
        """
        J = np.asarray(rows, dtype=float)
        n_mats, k, n = self.base.shape
        if J.ndim != 3 or J.shape[0] != n_mats or J.shape[2] != n:
            raise ValueError(f"expected a ({n_mats}, C, {n}) row stack, got shape {J.shape}")
        X = _batch_last(J)  # (n, C, N)
        e = self.exponents if k else _exponents(X, axis=0)
        X *= np.ldexp(1.0, -e)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            row_sq = reduce(np.add, (x * x for x in X))
            for i in range(k):
                _reflect(self.factor, i, self.tau[i], X)
            # With no base rows nothing is reflected, and s = ||j||.
            s_sq = reduce(np.add, (x * x for x in X[k:])) if k else row_sq.copy()
            scal = np.sqrt(s_sq)
            scal *= self.diagonal
            scal = np.ldexp(scal, (k + 1) * e, out=scal).T
            # In place from here on, to keep the chunks' temporaries few:
            # h_l = sum_(i >= l) R_inv[l, i] g_i becomes (h_l / s)^2, then
            # the squared ratio of base row l in the extended matrix.
            h = np.empty(X[:k].shape)
            for i in range(k):
                h[:i] += self.R_inv[:i, i, None] * X[i]
                h[i] = self.R_inv[i, i] * X[i]
            del X
            h *= h
            h /= s_sq
            inv_sq_total = self.inv_total + reduce(np.add, h, 0.0)
            h += self.inv_row_sq[:, None]
            h *= self.col_sq[:, None]
            worst_sq = row_sq / s_sq
            for old_row in h:
                np.maximum(worst_sq, old_row, out=worst_sq)
            skew = np.divide(1.0, np.sqrt(worst_sq, out=worst_sq), out=worst_sq).T
            # The condition bound squared, ||R'||_F^2 ||R'^-1||_F^2, is
            # (||R||_F^2 + ||j||^2) (||R^-1||_F^2 + ||h / s||^2 + 1 / s^2).
            bound_sq = np.add(row_sq, self.col_total, out=row_sq)
            bound_sq *= np.add(np.divide(1.0, s_sq, out=s_sq), inv_sq_total, out=s_sq)
        for score in (scal, skew):
            score[self.deficient] = 0.0
            score[:, repeats] = 0.0
        fallback = ~(bound_sq.T < _cond_limit(self.rank_tol) ** 2) & ~self.deficient[:, None]
        fallback[:, repeats] = False
        if fallback.any():
            i, c = np.nonzero(fallback)
            extended = np.concatenate([self.base[i], J[i, c][:, None, :]], axis=1)
            scal[i, c], skew[i, c] = _svd_reciprocals(extended, self.rank_tol)
        return scal, skew
