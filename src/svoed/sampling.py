"""Parameter sampling and field Jacobians.

The expensive object in a design study is the *field* Jacobian batch: for N
parameter samples, the model output at every observable location together
with its derivative with respect to every parameter.  Candidate designs are
then priced by selecting rows out of this batch, so the model runs once per
sample, not once per design.  A model that can differentiate itself
(``evaluate_with_jacobian`` or ``evaluate_stacked``: the heat models by
tangent-linear time stepping) gives exact Jacobians from one run per
sample, and only such a model can make a batch.

Every loop over samples, for field batches and for data-consistent
inversion alike, goes through :func:`evaluate_samples`.  A model with
``evaluate_stacked`` (the rod) marches all samples in fixed-size chunks in
one call; any other model runs one task per sample, on threads when asked.
:func:`thread_map` runs those tasks, and the chunks of the design kernels
and kernel densities, which take every CPU the process may run on.
"""

from __future__ import annotations

import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Schema 4: the rod's tridiagonal march moves its values at round-off.
# Schema 5: the header drops ``fd_step``; every batch holds exact Jacobians.
# Schema 6: one key covers the recipe and the schema; no JSON header.
BATCH_SCHEMA_VERSION = 6

# Bytes of working set that one thread of a blocked loop may hold: the
# kernel density's pair of block buffers, a rod chunk's bands and columns.
# Sized to fit one core's L2 cache.  A loop takes as many rows or points as
# fit, so its block boundaries depend on the problem's sizes alone and the
# memory in flight is at most the thread count times this.
BLOCK_BYTES = 1 << 20

# What np.load raises, besides ValueError, on a truncated or foreign file.
_UNREADABLE = (OSError, EOFError, KeyError, zipfile.BadZipFile)


def cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, which ``taskset``
    limits, or every CPU where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_map(fn, items, threads: int | None = None) -> None:
    """Call ``fn`` on every item of ``items``, on ``threads`` threads but
    never more than :func:`cpu_count` (the default); a single item or thread
    runs inline.

    ``fn`` writes each result into its own preallocated slice, so results
    depend neither on the thread count nor on the completion order.  The
    threads are joined before this returns, and the first item to raise, in
    item order, re-raises its exception here.
    """
    items = list(items)
    cpus = cpu_count()
    threads = min(len(items), cpus, cpus if threads is None else threads)
    if threads <= 1:
        for item in items:
            fn(item)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # Reading every result re-raises the first failure.
        list(pool.map(fn, items))


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
    """Parameter points, one row per sample."""

    points: np.ndarray  # (N, n)


def draw_samples(box: ParameterBox, count: int, seed: int) -> SampleSet:
    """Reproducible uniform samples in the box; same seed, same points."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    points = rng.uniform(box.lower, box.upper, size=(count, box.dim))
    return SampleSet(points)


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
    """

    samples: SampleSet
    outputs: np.ndarray
    jacobians: np.ndarray

    @property
    def count(self) -> int:
        return self.outputs.shape[0]

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
    workers: int | None = None,
):
    """Model outputs at every row of ``points`` (N, n), and optionally Jacobians.

    Returns ``(outputs, jacobians)``: outputs (N, R) and jacobians
    (N, R, n), or None without ``with_jacobian``, where R counts ``rows``
    (observable indices; None keeps the whole field).  A model with
    ``evaluate_stacked`` is called once for all points.  Any other model
    runs one task per sample: ``evaluate``, or ``evaluate_with_jacobian``
    for the exact Jacobian.  With ``with_jacobian``, a model that has
    neither ``evaluate_stacked`` nor ``evaluate_with_jacobian`` is refused
    with ValueError before any call.  ``workers`` > 1 runs the tasks on
    that many threads of :func:`thread_map`, at most one per CPU (the model
    must be safe to call concurrently); the default is serial.
    A raise inside the model, or a non-finite output or Jacobian, becomes a
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

    if with_jacobian and not hasattr(model, "evaluate_with_jacobian"):
        raise ValueError(f"{type(model).__name__} gives no Jacobian: a batch needs "
                         "evaluate_with_jacobian or evaluate_stacked")
    # Preallocated, so the batch is never held twice.
    size = model.field_size if rows is None else len(take)
    outputs = np.empty((n_samples, size))
    jacobians = np.empty((n_samples, size, n_params)) if with_jacobian else None

    def one_sample(i):
        lam = points[i]
        try:
            if with_jacobian:
                base, jac = (np.asarray(a, dtype=float)
                             for a in model.evaluate_with_jacobian(lam))
            else:
                base, jac = np.asarray(model.evaluate(lam), dtype=float), None
        except Exception as exc:  # propagate with the offending sample attached
            raise ModelEvaluationError(i, lam, repr(exc)) from exc
        outputs[i] = base[take]
        if with_jacobian:
            jacobians[i] = jac[take]
        _require_finite(points, i, outputs[i : i + 1],
                        None if jacobians is None else jacobians[i : i + 1])

    thread_map(one_sample, range(n_samples), threads=workers or 1)
    return outputs, jacobians


def estimate_field_jacobians(
    model,
    samples: SampleSet,
    workers: int | None = None,
) -> FieldJacobianBatch:
    """Exact Jacobians of the full observable field at every sample, from
    the model's ``evaluate_with_jacobian`` (or ``evaluate_stacked``); see
    :func:`evaluate_samples` for the evaluation, the ``workers`` pool, the
    refusal of any other model and the ModelEvaluationError naming a
    failed sample.
    """
    outputs, jacobians = evaluate_samples(model, samples.points, with_jacobian=True,
                                          workers=workers)
    return FieldJacobianBatch(samples, outputs, jacobians)


def save_arrays(path, key: str, **arrays) -> None:
    """Write ``arrays`` under ``key`` at exactly ``path``, as an uncompressed
    ``.npz``; :func:`load_arrays` refuses the file under any other key.

    Uncompressed, because float samples barely compress.  Through an open
    file, because np.savez appends ".npz" to a path without it.
    """
    with open(path, "wb") as fh:
        np.savez(fh, key=np.array(key), **arrays)


def load_arrays(path, key: str, names) -> list[np.ndarray]:
    """The arrays ``names`` of a file written by :func:`save_arrays`.

    Raises ValueError for a file that is not a readable ``.npz`` holding
    them, for a file stored under another key (or none: an older schema),
    and for an array that is not float64 or holds a non-finite value.
    """
    try:
        # Through an open file: np.load leaves a file it opened itself open
        # when the file is not a readable zip.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            if "key" not in data.files or str(data["key"]) != key:
                raise ValueError("stored under another key")
            arrays = [data[name] for name in names]
    except _UNREADABLE as exc:
        raise ValueError(f"unreadable file: {exc!r}") from exc
    for name, array in zip(names, arrays):
        if array.dtype != np.float64:
            raise ValueError(f"{name} is {array.dtype}, not float64")
        if not np.all(np.isfinite(array)):
            raise ValueError(f"{name} holds non-finite values")
    return arrays


def save_batch(batch: FieldJacobianBatch, path, key: str) -> None:
    """Persist a batch at ``path`` under ``key``, which names what made it,
    so criterion sweeps can re-run without model solves."""
    save_arrays(path, key, points=batch.samples.points, outputs=batch.outputs,
                jacobians=batch.jacobians)


def load_batch(path, key: str) -> FieldJacobianBatch:
    """Read a batch written by :func:`save_batch` under ``key``; ValueError
    as for :func:`load_arrays`, and for array shapes that disagree."""
    points, outputs, jacobians = load_arrays(path, key, ("points", "outputs", "jacobians"))
    shape = jacobians.shape
    if len(shape) != 3 or points.shape != (shape[0], shape[2]) or outputs.shape != shape[:2]:
        raise ValueError(f"batch shapes disagree: points {points.shape}, "
                         f"outputs {outputs.shape}, jacobians {jacobians.shape}")
    return FieldJacobianBatch(SampleSet(points), outputs, jacobians)
