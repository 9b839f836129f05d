"""Data-consistent inversion: density-ratio updates of a parameter ensemble.

Given an observed density on the outputs of a chosen design and an initial
density on the parameters, the updated parameter density is the initial one
reweighted by

    r(lam) = observed(Q(lam)) / predicted(Q(lam)),

where the predicted density is the push-forward of the initial density
through the design map, estimated here with a Gaussian kernel density over
the sampled outputs.  Pushing the updated density back through Q reproduces
the observed density, which is the defining property of the update.
Nothing here solves a model: the weights are a function of the sampled
outputs Q(lam) alone, which the caller computes.

Both Gaussian densities here are plain numpy on a Cholesky factor: the
kernel density whitens its samples once and evaluates query points in
blocks, striped over ``workers`` processes, elementwise, so its values
depend neither on the block nor on the worker count.  Each stripe
allocates one pair of block buffers, which together fit in
``sampling.BLOCK_BYTES``, and evaluates all of its blocks into them, so no
block faults in fresh memory.  Block boundaries depend on the sizes alone,
and the memory in flight is the worker count times ``BLOCK_BYTES``.

The sample mean of r doubles as a diagnostic: it estimates the integral of
the updated density and should be one.  A mean far from one means the
observed density puts mass where the model cannot predict, i.e. the
predictability assumption behind the construction is violated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import sampling

# Densities below this are treated as underflow: the sample sits where the
# predicted density has no support worth the name.
UNDERFLOW_FLOOR = 1e-300

# |mean ratio - 1| beyond this warns, and the report's predictability_ok is
# false.  Loose on purpose: kernel-density bias and Monte Carlo noise live
# well below it, genuine support mismatches far above.
DIAGNOSTIC_TOL = 0.2


class PredictabilityWarning(UserWarning):
    """Observed density is not dominated by the predicted density."""


class Density:
    """Evaluable (and sampleable) probability density on R^d."""

    dim: int = 0

    def pdf(self, points) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def _points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None] if self.dim == 1 else pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got shape {pts.shape}")
        return pts


def _log_norm(factor: np.ndarray) -> float:
    """Log normalising constant of a Gaussian whose covariance has the lower
    Cholesky factor ``factor``."""
    return -0.5 * factor.shape[0] * np.log(2.0 * np.pi) - float(np.log(np.diag(factor)).sum())


class GaussianDensity(Density):
    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 0:
            cov = float(cov) * np.eye(self.mean.size)
        elif cov.ndim == 1:
            cov = np.diag(cov)
        self.dim = self.mean.size
        if cov.shape != (self.dim, self.dim):
            raise ValueError(f"covariance of shape {cov.shape} for a mean of length {self.dim}")
        if not np.array_equal(cov, cov.T):
            raise ValueError(f"covariance {cov.tolist()} is not symmetric")
        self.cov = cov
        # Raises LinAlgError, a ValueError, on a non-SPD covariance.
        self._factor = scipy.linalg.cholesky(cov, lower=True)
        self._log_norm = _log_norm(self._factor)

    def pdf(self, points) -> np.ndarray:
        z = scipy.linalg.solve_triangular(self._factor, (self._points(points) - self.mean).T,
                                          lower=True)
        return np.exp(self._log_norm - 0.5 * np.einsum("ij,ij->j", z, z))

    def sample(self, rng, count) -> np.ndarray:
        return rng.multivariate_normal(self.mean, self.cov, size=count)


class UniformBoxDensity(Density):
    def __init__(self, box: sampling.ParameterBox):
        self.box = box
        self.dim = box.dim
        self._density = 1.0 / box.volume

    def pdf(self, points) -> np.ndarray:
        pts = self._points(points)
        return np.where(self.box.contains(pts), self._density, 0.0)

    def sample(self, rng, count) -> np.ndarray:
        return rng.uniform(self.box.lower, self.box.upper, size=(count, self.dim))


class KdeDensity(Density):
    """Gaussian-kernel density over samples; strictly positive everywhere.

    The kernel covariance is the (weighted) sample covariance times the
    square of a bandwidth factor: Silverman's (neff (d + 2) / 4)^(-1/(d+4))
    or Scott's neff^(-1/(d+4)), where neff = 1 / sum(w^2) is the effective
    sample count of the normalised weights w.  The samples are centred and
    whitened by the kernel's Cholesky factor once; :meth:`pdf` then sums
    standard-normal kernels over them for a block of query points at a time.
    """

    def __init__(self, samples, bandwidth_rule="silverman", weights=None, workers=None):
        pts = np.asarray(samples, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        # One contiguous column per axis, whatever the caller's layout: the
        # mean and covariance sum along each axis, and numpy rounds a sum
        # along a strided axis differently from one along a contiguous axis.
        pts = np.asfortranarray(pts)
        if pts.shape[0] < 2:
            raise ValueError("kernel density needs at least 2 samples")
        if bandwidth_rule not in ("silverman", "scott"):
            raise ValueError(f"bandwidth must be 'silverman' or 'scott', not {bandwidth_rule!r}")
        spread = pts.std(axis=0)
        dead = np.nonzero(spread == 0.0)[0]
        if dead.size:
            raise ValueError(
                f"zero variance in output dimension(s) {dead.tolist()}; "
                "a kernel density cannot be formed there"
            )
        count, self.dim = pts.shape
        self.samples, self.workers = pts, workers
        if weights is None:
            self.weights = np.ones(count) / count
        else:
            self.weights = np.asarray(weights, dtype=float) / np.sum(weights)
        neff = 1.0 / (self.weights @ self.weights)
        if bandwidth_rule == "silverman":
            factor = (neff * (self.dim + 2.0) / 4.0) ** (-1.0 / (self.dim + 4))
        else:
            factor = neff ** (-1.0 / (self.dim + 4))
        data_cov = np.atleast_2d(np.cov(pts.T, aweights=self.weights))
        self.covariance = data_cov * factor**2
        # Raises LinAlgError, a ValueError, when the samples span a subspace.
        self._factor = scipy.linalg.cholesky(data_cov, lower=True) * factor
        self._norm = np.exp(_log_norm(self._factor))
        self._centre = pts.mean(axis=0)
        self._white = np.ascontiguousarray(self._whiten(pts).T)  # one row per axis

    def _whiten(self, pts: np.ndarray) -> np.ndarray:
        """Points centred on the sample mean and mapped by the
        inverse Cholesky factor, so the kernel is a standard normal."""
        return scipy.linalg.solve_triangular(self._factor, (pts - self._centre).T, lower=True).T

    def pdf(self, points) -> np.ndarray:
        queries = self._whiten(self._points(points))
        count = len(queries)
        values = np.empty(count)
        # Each stripe's pair of (query x sample) buffers fits in BLOCK_BYTES.
        rows = max(1, min(count, sampling.BLOCK_BYTES // (16 * len(self.samples))))
        starts = range(0, count, rows)
        stripes = min(self.workers or 1, sampling.cpu_count(), len(starts))

        def evaluate(stripe):
            # One pair of buffers, reused by every block of the stripe:
            # blocks stripe, stripe + stripes, ...
            exponent_rows = np.empty((rows, len(self.samples)))
            step_rows = np.empty_like(exponent_rows)
            sums = []
            for start in starts[stripe::stripes]:
                block = queries[start:start + rows]
                exponent, step = exponent_rows[:len(block)], step_rows[:len(block)]
                # -|x - p|^2 / 2 for every query x and sample p, one axis at
                # a time.  Elementwise, not a matrix product: BLAS results
                # vary with the block shape and the thread count, these do not.
                np.subtract.outer(block[:, 0], self._white[0], out=exponent)
                exponent *= exponent
                for axis in range(1, self.dim):
                    np.subtract.outer(block[:, axis], self._white[axis], out=step)
                    step *= step
                    exponent += step
                exponent *= -0.5
                np.exp(exponent, out=exponent)
                sums.append(np.einsum("ij,j->i", exponent, self.weights))
            return sums

        def collect(stripe, sums):
            for start, block in zip(starts[stripe::stripes], sums):
                values[start:start + len(block)] = block

        sampling.fork_map(evaluate, range(stripes), collect, self.workers)
        return values * self._norm

    def sample(self, rng, count) -> np.ndarray:
        """A kernel centred on a sample drawn by weight: the same draw as
        SciPy's ``gaussian_kde.resample`` makes from the same generator."""
        noise = rng.multivariate_normal(np.zeros(self.dim), self.covariance, size=count)
        return self.samples[rng.choice(len(self.samples), size=count, p=self.weights)] + noise


@dataclass
class WeightedEnsemble:
    """Density-ratio weights of sampled outputs.

    ``mean_ratio`` is the average weight over the retained (non-underflow)
    samples and should sit near one when the observed density is reachable
    by the model; ``excluded`` marks the underflow samples, whose weight is
    zero.
    """

    weights: np.ndarray
    mean_ratio: float
    stderr: float
    excluded: np.ndarray


def update_weights(qoi_samples, observed: Density, predicted: Density) -> WeightedEnsemble:
    """Density-ratio weights observed/predicted at each sampled output.

    Samples where the predicted density underflows are excluded (weight
    zero); they sit outside the predicted support, where the ratio is
    meaningless.  Warns with :class:`PredictabilityWarning` when the mean
    ratio strays from one by more than ``DIAGNOSTIC_TOL``.
    """
    qoi = np.asarray(qoi_samples, dtype=float)
    if qoi.ndim == 1:
        qoi = qoi[:, None]
    pred = np.asarray(predicted.pdf(qoi), dtype=float)
    obs = np.asarray(observed.pdf(qoi), dtype=float)
    excluded = pred < UNDERFLOW_FLOOR
    weights = np.where(excluded, 0.0, obs / np.maximum(pred, UNDERFLOW_FLOOR))
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise ValueError("density ratio produced invalid weights")

    kept = weights[~excluded]
    if kept.size == 0:
        raise ValueError("predicted density underflowed at every sample")
    mean_ratio = float(kept.mean())
    stderr = float(kept.std(ddof=1) / np.sqrt(kept.size)) if kept.size > 1 else 0.0
    if abs(mean_ratio - 1.0) > DIAGNOSTIC_TOL:
        warnings.warn(
            f"mean update ratio {mean_ratio:.4g} is far from 1; the observed "
            "density is likely not dominated by the predicted density",
            PredictabilityWarning,
            stacklevel=2,
        )
    return WeightedEnsemble(weights, mean_ratio, stderr, excluded)


def rejection_sample(weights: np.ndarray, seed: int) -> np.ndarray:
    """The mask of samples accepted, each with probability weight / max weight.

    The accepted subset is an unweighted draw from the updated density.
    """
    bound = float(weights.max())
    if bound <= 0.0:
        raise ValueError("rejection sampling needs at least one positive weight")
    rng = np.random.default_rng(seed)
    return rng.uniform(size=weights.size) <= weights / bound


def updated_density_grid(points, weights, box: sampling.ParameterBox, shape=(60, 60),
                         workers: int | None = None):
    """Kernel density of the ``points`` (N, 2) weighted by ``weights``, the
    updated ensemble, on a 2-D grid over ``box``, on ``workers`` processes.

    Returns (x_axis, y_axis, values) with values[i, j] at (x_axis[i],
    y_axis[j]).  Two parameters only; higher-dimensional marginals are out
    of scope here.  In two dimensions Silverman's and Scott's bandwidth
    factors are both neff^(-1/6), so the grid takes no bandwidth rule.
    """
    if np.shape(points)[1] != 2 or box.dim != 2:
        raise ValueError("density grids are supported for 2 parameters only")
    if np.sum(weights) <= 0.0:
        raise ValueError("cannot form a density from all-zero weights")
    kde = KdeDensity(points, weights=weights, workers=workers)
    x = np.linspace(box.lower[0], box.upper[0], shape[0])
    y = np.linspace(box.lower[1], box.upper[1], shape[1])
    xx, yy = np.meshgrid(x, y, indexing="ij")
    values = kde.pdf(np.column_stack([xx.ravel(), yy.ravel()])).reshape(shape)
    return x, y, values
