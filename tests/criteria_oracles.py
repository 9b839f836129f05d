"""Pointwise form of the global criteria: the reported utilities in
``svoed.criteria`` are reciprocals of these harmonic means.  Also a field
batch over a raw Jacobian stack, so tests can score any stack through the
design search."""

import numpy as np

from svoed import sampling


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


def stack_batch(jacobians) -> sampling.FieldJacobianBatch:
    """A field batch over a raw (N, P, n) Jacobian stack; no model behind it."""
    count, field_size, n = jacobians.shape
    return sampling.FieldJacobianBatch(
        samples=sampling.SampleSet(points=np.zeros((count, n))),
        outputs=np.zeros((count, field_size)),
        jacobians=jacobians,
    )
