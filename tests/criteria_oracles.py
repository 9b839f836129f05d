"""Pointwise form of the global criteria: the reported utilities in
``svoed.criteria`` are reciprocals of these harmonic means."""

import numpy as np


def harmonic_mean(values) -> float:
    """Harmonic mean of positive values; +inf entries contribute zero.

    Returns +inf only when every value is +inf.  Zero or negative values
    are rejected: the mean is defined for positive quantities only.
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("harmonic mean of an empty collection")
    if np.any(np.isnan(v)) or np.any(v <= 0.0):
        raise ValueError("harmonic mean requires values > 0 (or +inf)")
    reciprocals = np.where(np.isinf(v), 0.0, 1.0 / v)
    mean_recip = float(reciprocals.mean())
    return 1.0 / mean_recip if mean_recip > 0.0 else np.inf
