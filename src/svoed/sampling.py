"""Parameter sampling and field Jacobians.

The expensive object in a design study is the *field* Jacobian batch: for N
parameter samples, the model output at every observable location together
with its derivative with respect to every parameter.  Candidate designs are
then priced by selecting rows out of this batch, so the model runs once per
sample, not once per design.  A model that can differentiate itself
(``evaluate_with_jacobian``: the heat models by tangent-linear time
stepping, the synthetic maps analytically) gives exact Jacobians from one
run per sample; any other model is differenced forward, at n + 1 runs per
sample.

Every loop over samples, for field batches and for data-consistent
inversion alike, goes through :func:`evaluate_samples`.  A model with
``evaluate_stacked`` (the rod) marches all samples in fixed-size chunks in
one call; any other model runs one task per sample, on a thread pool when
asked.
"""

from __future__ import annotations

import json
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Schema 3: ``fd_step`` is null for exact, model-supplied Jacobians.
# Schema 4: the rod's tridiagonal march moves its values at round-off.
BATCH_SCHEMA_VERSION = 4

# What np.load raises, besides ValueError, on a truncated or foreign file.
_UNREADABLE = (OSError, EOFError, KeyError, zipfile.BadZipFile)


@dataclass(frozen=True)
class ParameterBox:
    """Axis-aligned box of admissible parameters."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size < 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if not np.all(lo < hi):
            raise ValueError("need lower[i] < upper[i] for every axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lower) & (pts <= self.upper), axis=1)


@dataclass
class SampleSet:
    """Parameter points plus the recipe that produced them."""

    points: np.ndarray  # (N, n)
    seed: int
    scheme: str = "uniform-random"

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def draw_samples(box: ParameterBox, count: int, seed: int) -> SampleSet:
    """Reproducible uniform samples in the box; same seed, same points."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    points = rng.uniform(box.lower, box.upper, size=(count, box.dim))
    return SampleSet(points=points, seed=seed, scheme="uniform-random")


class ModelEvaluationError(RuntimeError):
    """Forward model failed at a specific sample."""

    def __init__(self, sample_index: int, parameters, cause: str):
        self.sample_index = sample_index
        self.parameters = np.asarray(parameters, dtype=float)
        super().__init__(
            f"model evaluation failed at sample {sample_index}, "
            f"parameters {self.parameters.tolist()}: {cause}"
        )


@dataclass
class FieldJacobianBatch:
    """Outputs and Jacobians at every observable location.

    ``outputs`` is (N, P) and ``jacobians`` is (N, P, n) where P is the
    number of observable field values (e.g. mesh nodes at the final time).
    ``fd_step`` is the forward-difference step that made the Jacobians, or
    None when they are exact, from the model's ``evaluate_with_jacobian``.
    """

    samples: SampleSet
    outputs: np.ndarray
    jacobians: np.ndarray
    fd_step: float | None
    model_id: str

    @property
    def count(self) -> int:
        return self.outputs.shape[0]

    @property
    def field_size(self) -> int:
        return self.outputs.shape[1]

    @property
    def n_params(self) -> int:
        return self.jacobians.shape[2]


def _require_finite(points, first, outputs, jacobians) -> None:
    """Raise ModelEvaluationError at the first sample, counted from sample
    ``first``, whose outputs or Jacobian hold a non-finite value."""
    bad = ~np.isfinite(outputs).reshape(len(outputs), -1).all(axis=1)
    if jacobians is not None:
        bad |= ~np.isfinite(jacobians).reshape(len(jacobians), -1).all(axis=1)
    if bad.any():
        i = first + int(np.argmax(bad))
        raise ModelEvaluationError(i, points[i], "model returned non-finite values")


def evaluate_samples(
    model,
    points,
    rows=None,
    with_jacobian: bool = False,
    fd_step: float = 1e-5,
    workers: int | None = None,
):
    """Model outputs at every row of ``points`` (N, n), and optionally Jacobians.

    Returns ``(outputs, jacobians)``: outputs (N, R) and jacobians
    (N, R, n), or None without ``with_jacobian``, where R counts ``rows``
    (observable indices; None keeps the whole field).  A model with
    ``evaluate_stacked`` is called once for all points.  Any other model
    runs one task per sample: ``evaluate``, ``evaluate_with_jacobian`` for
    an exact Jacobian, or n + 1 ``evaluate`` calls for a forward difference
    with absolute step ``fd_step``, whose base evaluation is shared by the
    n perturbations.  ``workers`` > 1 runs those tasks on a thread pool
    (the model must be safe to call concurrently); each task writes its
    sample's row, so results do not depend on completion order.  A raise
    inside the model, or a non-finite output or Jacobian, becomes a
    ModelEvaluationError naming the sample.
    """
    points = np.asarray(points, dtype=float)
    n_samples, n_params = points.shape
    take = slice(None) if rows is None else [int(r) for r in rows]

    if hasattr(model, "evaluate_stacked"):
        outputs, jacobians = model.evaluate_stacked(points, with_jacobian)
        outputs = outputs[:, take]
        if with_jacobian:
            jacobians = jacobians[:, take]
        _require_finite(points, 0, outputs, jacobians)
        return outputs, jacobians

    exact = hasattr(model, "evaluate_with_jacobian")
    # Preallocated, so the batch is never held twice.
    size = model.field_size if rows is None else len(take)
    outputs = np.empty((n_samples, size))
    jacobians = np.empty((n_samples, size, n_params)) if with_jacobian else None

    def one_sample(i):
        lam = points[i]
        try:
            if not with_jacobian:
                base, jac = np.asarray(model.evaluate(lam), dtype=float), None
            elif exact:
                base, jac = (np.asarray(a, dtype=float)
                             for a in model.evaluate_with_jacobian(lam))
            else:
                base = np.asarray(model.evaluate(lam), dtype=float)
                jac = np.empty((base.size, n_params))
                for j in range(n_params):
                    bumped = lam.copy()
                    bumped[j] += fd_step
                    jac[:, j] = (np.asarray(model.evaluate(bumped), dtype=float)
                                 - base) / fd_step
        except Exception as exc:  # propagate with the offending sample attached
            raise ModelEvaluationError(i, lam, repr(exc)) from exc
        outputs[i] = base[take]
        if with_jacobian:
            jacobians[i] = jac[take]
        _require_finite(points, i, outputs[i : i + 1],
                        None if jacobians is None else jacobians[i : i + 1])

    if workers is None or workers <= 1:
        for i in range(n_samples):
            one_sample(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # Reading every result re-raises the first failure.
            list(pool.map(one_sample, range(n_samples)))
    return outputs, jacobians


def estimate_field_jacobians(
    model,
    samples: SampleSet,
    fd_step: float = 1e-5,
    workers: int | None = None,
) -> FieldJacobianBatch:
    """Jacobians of the full observable field at every sample.

    Exact from a model with ``evaluate_with_jacobian`` (or
    ``evaluate_stacked``), else forward differences with absolute step
    ``fd_step``; see :func:`evaluate_samples` for the evaluation, the
    ``workers`` pool and the ModelEvaluationError naming a failed sample.
    """
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    exact = hasattr(model, "evaluate_with_jacobian") or hasattr(model, "evaluate_stacked")
    outputs, jacobians = evaluate_samples(model, samples.points, with_jacobian=True,
                                          fd_step=fd_step, workers=workers)
    return FieldJacobianBatch(
        samples=samples,
        outputs=outputs,
        jacobians=jacobians,
        fd_step=None if exact else fd_step,
        model_id=getattr(model, "model_id", type(model).__name__),
    )


def save_batch(batch: FieldJacobianBatch, path, recipe_sha256: str = "") -> None:
    """Persist a batch at ``path`` so criterion sweeps can re-run without
    model solves.

    ``recipe_sha256`` identifies what produced the batch (model and
    samples); :func:`load_batch` can refuse a file whose recipe differs.
    """
    header = {
        "schema_version": BATCH_SCHEMA_VERSION,
        "model_id": batch.model_id,
        "seed": batch.samples.seed,
        "scheme": batch.samples.scheme,
        "fd_step": batch.fd_step,
        "recipe_sha256": recipe_sha256,
        "N": batch.count,
        "P": batch.field_size,
        "n": batch.n_params,
    }
    # Uncompressed: float samples barely compress, and np.load reads
    # either form, so caches written compressed still load.  Through an
    # open file, because np.savez appends ".npz" to a path without it.
    with open(path, "wb") as fh:
        np.savez(
            fh,
            header=np.array(json.dumps(header)),
            points=batch.samples.points,
            outputs=batch.outputs,
            jacobians=batch.jacobians,
        )


def load_batch(path, recipe_sha256: str | None = None) -> FieldJacobianBatch:
    """Read a batch written by :func:`save_batch`, checking it first.

    Raises ValueError for a file that is not a readable batch, for an
    unknown schema, for a stored recipe that differs from ``recipe_sha256``
    (when given), and for arrays whose shapes disagree with the header or
    that hold non-finite values.
    """
    try:
        # Through an open file: np.load leaves a file it opened itself open
        # when the file is not a readable zip.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            header = json.loads(str(data["header"]))
            if header.get("schema_version") != BATCH_SCHEMA_VERSION:
                raise ValueError(f"unsupported batch schema: {header.get('schema_version')}")
            if recipe_sha256 is not None and header["recipe_sha256"] != recipe_sha256:
                raise ValueError("batch was made from a different recipe")
            points = data["points"]
            outputs = data["outputs"]
            jacobians = data["jacobians"]
    except _UNREADABLE as exc:
        raise ValueError(f"unreadable batch file: {exc!r}") from exc
    N, P, n = header["N"], header["P"], header["n"]
    for name, array, shape in (("points", points, (N, n)), ("outputs", outputs, (N, P)),
                               ("jacobians", jacobians, (N, P, n))):
        if array.shape != shape:
            raise ValueError(f"batch {name} has shape {array.shape}, header says {shape}")
        if not np.all(np.isfinite(array)):
            raise ValueError(f"batch {name} holds non-finite values")
    samples = SampleSet(points=points, seed=int(header["seed"]), scheme=header["scheme"])
    return FieldJacobianBatch(
        samples=samples,
        outputs=outputs,
        jacobians=jacobians,
        fd_step=None if header["fd_step"] is None else float(header["fd_step"]),
        model_id=header["model_id"],
    )


def save_statistics(stats: np.ndarray, path, key: str) -> None:
    """Persist per-candidate statistics rows beside the batch they came from.

    ``key`` identifies everything the rows depend on; :func:`load_statistics`
    refuses a file stored under any other key.
    """
    with open(path, "wb") as fh:  # at ``path`` exactly, as in save_batch
        np.savez(fh, key=np.array(key), statistics=stats)


def load_statistics(path, key: str, shape) -> np.ndarray:
    """Read statistics written by :func:`save_statistics`, checking them first.

    Raises ValueError for a file that is not a readable statistics file,
    for a stored key other than ``key``, for an array that is not float of
    ``shape``, and for negative or non-finite values.
    """
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:  # as in load_batch
            if str(data["key"]) != key:
                raise ValueError("statistics were made from another batch or setting")
            stats = data["statistics"]
    except _UNREADABLE as exc:
        raise ValueError(f"unreadable statistics file: {exc!r}") from exc
    if stats.dtype != np.float64 or stats.shape != tuple(shape):
        raise ValueError(f"statistics are {stats.dtype} of shape {stats.shape}, "
                         f"want float64 of shape {tuple(shape)}")
    if not np.all(np.isfinite(stats) & (stats >= 0.0)):
        raise ValueError("statistics hold negative or non-finite values")
    return stats
