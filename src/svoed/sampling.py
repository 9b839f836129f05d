"""Parameter sampling and field Jacobians.

The expensive object in a design study is the *field* Jacobian batch: for N
parameter samples, the model output at every observable location together
with its derivative with respect to every parameter.  Candidate designs are
then priced by selecting rows out of this batch, so the model runs once per
sample, not once per design.  Every model differentiates itself (the heat
models by tangent-linear time stepping), so one run per sample gives exact
Jacobians.

Every loop over samples, for field batches and for data-consistent
inversion alike, goes through :func:`evaluate_samples`.  It splits the
samples into blocks of ``model.block_points`` and runs one
``model.evaluate_stacked`` call per block.  :func:`fork_map` is the one
way anything runs in parallel: the model blocks here, the candidate chunks
of the criterion kernel and the query blocks of kernel densities run
inline by default and on ``--workers`` forked processes when asked.
Processes, not threads: SuperLU's and LAPACK's solves hold the GIL, and
the kernels' short numpy calls lose to its hand-offs.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

# Schema 4: the rod's tridiagonal march moves its values at round-off.
# Schema 5: the header drops ``fd_step``; every batch holds exact Jacobians.
# Schema 6: one key covers the recipe and the schema; no JSON header.
BATCH_SCHEMA_VERSION = 6

# Bytes of working set that one process of a blocked loop may hold: the
# kernel density's pair of block buffers, a rod block's bands and columns.
# Sized to fit one core's L2 cache.  A loop takes as many rows or points as
# fit, so its block boundaries depend on the problem's sizes alone and the
# memory in flight is at most the worker count times this.
BLOCK_BYTES = 1 << 20

# Drawing from a density gives up after this many rounds of ``count`` draws,
# so one with less than about 1/1000 of its mass in the box is reported.
_MAX_DRAW_ROUNDS = 1000

# What np.load raises, besides ValueError, on a truncated or foreign file.
_UNREADABLE = (OSError, EOFError, KeyError, zipfile.BadZipFile)


def cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, which ``taskset``
    limits, or every CPU where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# A worker process's task, set by the pool initializer: the fork hands it
# over with everything it refers to, so it is never pickled.
_worker_task = None


def _start_worker(task) -> None:
    global _worker_task
    _worker_task = task
    # Ctrl-C stops the parent, whose shutdown of the pool ends the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_worker_task(item):
    return _worker_task(item)


def fork_map(task, items, collect, workers: int | None = None) -> None:
    """Call ``collect(item, task(item))`` for every item, in item order, here.

    ``task`` runs inline by default and for one worker or one item, else on
    ``min(workers, cpu_count(), len(items))`` processes forked from this
    one, which inherit ``task`` and its state; each takes its items in item
    order.  Items, results and raised exceptions must pickle.  The first
    failure in item order raises here (``BrokenProcessPool`` for a killed
    worker), and no worker outlives the call.  No other thread may run
    while the pool forks: a fork copies only the calling thread.
    """
    items = list(items)
    processes = min(workers or 1, cpu_count(), len(items))
    if processes <= 1:
        for item in items:
            collect(item, task(item))
        return
    pool = ProcessPoolExecutor(processes, multiprocessing.get_context("fork"),
                               _start_worker, (task,))
    try:
        for item, result in zip(items, pool.map(_run_worker_task, items)):
            collect(item, result)
    finally:
        pool.shutdown(cancel_futures=True)


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


def draw_samples(box: ParameterBox, count: int, seed: int, density=None) -> SampleSet:
    """``count`` points in the box, the same for the same seed: uniform on
    it, or drawn from ``density`` in rounds of ``count`` with the points
    outside it rejected.  ValueError after ``_MAX_DRAW_ROUNDS`` rounds."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    if density is None:
        return SampleSet(rng.uniform(box.lower, box.upper, size=(count, box.dim)))
    points = np.empty((count, box.dim))
    filled = 0
    for _ in range(_MAX_DRAW_ROUNDS):
        block = density.sample(rng, count)
        keep = block[box.contains(block)]
        take = min(count - filled, keep.shape[0])
        points[filled : filled + take] = keep[:take]
        filled += take
        if filled == count:
            return SampleSet(points)
    raise ValueError(f"only {filled} of {_MAX_DRAW_ROUNDS * count} draws fell in the box, "
                     f"{count} needed; the density has almost no mass there")


class ModelEvaluationError(RuntimeError):
    """Forward model failed at a specific sample."""

    def __init__(self, sample_index: int, parameters, cause: str):
        self.sample_index = sample_index
        self.parameters = np.asarray(parameters, dtype=float)
        self.cause = cause
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
    (observable indices; None keeps the whole field).  The points are split
    into blocks of ``model.block_points``, one ``model.evaluate_stacked``
    call each, run by :func:`fork_map` on ``workers``.  Only block starts
    and the blocks' results cross between processes.  Each block is written
    into the preallocated results in block order, so they depend on neither
    the worker count nor the order the blocks finish in.  A model's
    ModelEvaluationError names the sample its row is; any other raise
    inside the model names the block's first sample, and a non-finite
    output or Jacobian names its own.
    """
    points = np.asarray(points, dtype=float)
    n_samples, n_params = points.shape
    take = slice(None) if rows is None else [int(r) for r in rows]
    # Preallocated, so the batch is never held twice.
    size = model.field_size if rows is None else len(take)
    outputs = np.empty((n_samples, size))
    jacobians = np.empty((n_samples, size, n_params)) if with_jacobian else None

    def solve(first):
        # A failure comes back as (sample index, cause): a ModelEvaluationError
        # does not unpickle.
        try:
            U, J = model.evaluate_stacked(points[first : first + model.block_points],
                                          with_jacobian)
        except ModelEvaluationError as exc:
            return None, None, (first + exc.sample_index, exc.cause)
        except Exception as exc:  # named by the block's first sample
            return None, None, (first, repr(exc))
        return U[:, take], J[:, take] if with_jacobian else None, None

    def collect(first, solved):
        U, J, failure = solved
        if failure is not None:
            i, cause = failure
            raise ModelEvaluationError(i, points[i], cause)
        block = slice(first, first + len(U))
        outputs[block] = U
        if with_jacobian:
            jacobians[block] = J
        _require_finite(points, first, outputs[block],
                        None if jacobians is None else jacobians[block])

    fork_map(solve, range(0, n_samples, model.block_points), collect, workers)
    return outputs, jacobians


def estimate_field_jacobians(
    model,
    samples: SampleSet,
    workers: int | None = None,
) -> FieldJacobianBatch:
    """Exact Jacobians of the full observable field at every sample; see
    :func:`evaluate_samples` for the blocks, the ``workers`` processes and
    the ModelEvaluationError naming a failed sample.
    """
    outputs, jacobians = evaluate_samples(model, samples.points, with_jacobian=True,
                                          workers=workers)
    return FieldJacobianBatch(samples, outputs, jacobians)


def save_batch(batch: FieldJacobianBatch, path, key: str) -> None:
    """Persist a batch at exactly ``path`` under ``key``, which names what
    made it, so criterion sweeps can re-run without model solves;
    :func:`load_batch` refuses the file under any other key.

    Uncompressed, because float samples barely compress.  Through an open
    file, because np.savez appends ".npz" to a path without it.
    """
    with open(path, "wb") as fh:
        np.savez(fh, key=np.array(key), points=batch.samples.points, outputs=batch.outputs,
                 jacobians=batch.jacobians)


def load_batch(path, key: str) -> FieldJacobianBatch:
    """Read a batch written by :func:`save_batch` under ``key``.

    Raises ValueError for a file that is not a readable ``.npz`` holding
    the batch, for a file stored under another key (or none: an older
    schema), for an array that is not float64 or holds a non-finite value,
    and for array shapes that disagree.
    """
    names = ("points", "outputs", "jacobians")
    try:
        # Through an open file: np.load leaves a file it opened itself open
        # when the file is not a readable zip.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            if "key" not in data.files or str(data["key"]) != key:
                raise ValueError("stored under another key")
            points, outputs, jacobians = arrays = [data[name] for name in names]
    except _UNREADABLE as exc:
        raise ValueError(f"unreadable file: {exc!r}") from exc
    for name, array in zip(names, arrays):
        if array.dtype != np.float64:
            raise ValueError(f"{name} is {array.dtype}, not float64")
        if not np.all(np.isfinite(array)):
            raise ValueError(f"{name} holds non-finite values")
    shape = jacobians.shape
    if len(shape) != 3 or points.shape != (shape[0], shape[2]) or outputs.shape != shape[:2]:
        raise ValueError(f"batch shapes disagree: points {points.shape}, "
                         f"outputs {outputs.shape}, jacobians {jacobians.shape}")
    return FieldJacobianBatch(SampleSet(points), outputs, jacobians)
