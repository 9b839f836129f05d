"""Monte Carlo design criteria: expected scaling and skewness utilities.

Both global criteria are harmonic means of the local quantities over the
parameter space, which damps the +inf contributions of rank-deficient
samples.  What gets *reported* is the utility form, i.e. the reciprocal of
the harmonic mean, because the reciprocal of a harmonic mean is just the
plain mean of reciprocals: it is always finite, it is what a design search
maximizes, and each rank-deficient sample simply contributes zero.

Each design is reported as one row of floats, with the columns named in
:data:`STATISTICS`: the two utilities, their standard errors and the count
of rank-deficient samples.
"""

from __future__ import annotations

import numpy as np

# Columns of a :func:`reciprocal_statistics` row, in order.
STATISTICS = ("ese_inverse", "esk_inverse", "stderr_ese", "stderr_esk", "infinite_count")


def reciprocal_statistics(scaling: np.ndarray, skewness: np.ndarray) -> np.ndarray:
    """Reduce (C, N) per-sample reciprocals to per-design statistics.

    Row c of the (C, 5) result holds, for design c over its N samples, the
    :data:`STATISTICS` columns: the mean 1/SE (>= 0, unbounded above), the
    mean 1/SK (in [0, 1], since pointwise skewness is never below one),
    their standard errors (ddof=1; zero for a single sample) and the number
    of rank-deficient samples (1/SE == 0), which contribute zero to both
    means.
    """
    n = scaling.shape[1]
    stats = np.zeros((scaling.shape[0], 5))
    stats[:, 0] = scaling.mean(axis=1)
    stats[:, 1] = skewness.mean(axis=1)
    if n > 1:
        stats[:, 2] = scaling.std(axis=1, ddof=1) / np.sqrt(n)
        stats[:, 3] = skewness.std(axis=1, ddof=1) / np.sqrt(n)
    stats[:, 4] = np.count_nonzero(scaling == 0.0, axis=1)
    return stats
