"""Correctness oracles the benchmark applies to each study's outputs.

They are independent of the kernels under test: Jacobians are checked
against central differences of the forward model, and the ESE/ESK
utilities against a per-matrix product of singular values and an explicit
least-squares projection, averaged over samples with plain numpy.
"""

from __future__ import annotations

import csv

import numpy as np

# Relative spectral cutoff of the documented rank test.
RANK_TOL = 1e-12
# Central-difference step; its truncation and round-off errors both sit far
# below the forward-difference error being checked.
CENTRAL_STEP = 1e-4
# Column-wise relative error allowed against the central-difference
# reference.  The forward-difference default (step 1e-5) is at 2.7e-4;
# exact Jacobians also pass.
JACOBIAN_RTOL = 1e-3
# Allowed relative disagreement of the utility means with the oracle.
UTILITY_RTOL = 1e-6


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_jacobians(model, points, jacobians, columns_per_sample=None, rng=None) -> None:
    """Compare Jacobian columns with central differences of ``model``.

    Checks every column, or ``columns_per_sample`` columns drawn by ``rng``
    at each point, against the largest column-wise relative error allowed.
    """
    worst = 0.0
    for lam, jac in zip(points, jacobians):
        n = lam.size
        columns = range(n) if columns_per_sample is None else rng.choice(
            n, size=columns_per_sample, replace=False)
        for j in columns:
            up, down = lam.copy(), lam.copy()
            up[j] += CENTRAL_STEP
            down[j] -= CENTRAL_STEP
            ref = (model.evaluate(up) - model.evaluate(down)) / (2.0 * CENTRAL_STEP)
            err = float(np.linalg.norm(jac[:, j] - ref) / np.linalg.norm(ref))
            worst = max(worst, err)
    require(worst <= JACOBIAN_RTOL,
            f"Jacobian column error {worst:.3g} exceeds {JACOBIAN_RTOL:g}")


def reciprocals(J: np.ndarray) -> tuple[float, float]:
    """(1/SE, 1/SK) of one m x n matrix; (0, 0) when rank deficient.

    1/SE is the product of the singular values.  1/SK is the smallest
    ||j_k_perp|| / ||j_k|| over rows, with j_k_perp the residual of row k
    after least-squares projection onto the other rows.
    """
    sigma = np.linalg.svd(J, compute_uv=False)
    if sigma[-1] <= RANK_TOL * sigma[0]:
        return 0.0, 0.0
    scaling = float(np.prod(sigma))
    if J.shape[0] == 1:
        return scaling, 1.0
    worst = np.inf
    for k in range(J.shape[0]):
        others = np.delete(J, k, axis=0)
        coeffs, *_ = np.linalg.lstsq(others.T, J[k], rcond=None)
        perp = J[k] - others.T @ coeffs
        worst = min(worst, float(np.linalg.norm(perp) / np.linalg.norm(J[k])))
    return scaling, worst


def expected_utilities(jacobians: np.ndarray, rows) -> tuple[float, float]:
    """Sample means of 1/SE and 1/SK for the design made of ``rows``."""
    values = np.array([reciprocals(J[list(rows)]) for J in jacobians])
    return float(values[:, 0].mean()), float(values[:, 1].mean())


def check_close(label: str, got: float, want: float) -> None:
    require(bool(np.isclose(got, want, rtol=UTILITY_RTOL, atol=1e-300)),
            f"{label}: got {got!r}, oracle {want!r}")


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
