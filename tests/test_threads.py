"""The worker processes behind the model solves, and the thread map behind
the kernels and kernel densities: results that do not depend on the worker
or thread count, no process or thread left running, and bounded memory."""

import json
import multiprocessing
import os
import signal
import threading
import time
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from svoed import cli, criteria, dci, design, geometry, models, sampling

ROD = {"kind": "heat_rod_1d", "elements": 10, "time_steps": 5}

# Small enough that every case below splits into many chunks or blocks.
CHUNK_MATRICES = 40
BLOCK_ROWS = 16


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(design, "_CHUNK_MATRICES", CHUNK_MATRICES)


def on_threads(monkeypatch, threads):
    monkeypatch.setattr(sampling, "cpu_count", lambda: threads)


def random_batch(count=20, field_size=40, n_params=4, seed=0):
    rng = np.random.default_rng(seed)
    return sampling.FieldJacobianBatch(
        sampling.SampleSet(rng.uniform(size=(count, n_params))),
        rng.normal(size=(count, field_size)),
        rng.normal(size=(count, field_size, n_params)))


def kde_case(count=300, queries=200, seed=31):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(count, 2)) @ np.array([[1.0, 0.4], [0.0, 0.7]])
    return (dci.KdeDensity(samples, weights=rng.uniform(0.5, 1.5, size=count)),
            rng.normal(size=(queries, 2)))


def test_thread_map_runs_items_concurrently_and_joins(monkeypatch):
    on_threads(monkeypatch, 3)
    barrier = threading.Barrier(3, timeout=30)
    seen = np.zeros(3)

    def fn(i):
        barrier.wait()  # passes only when all three items run at once
        seen[i] = i + 1

    before = threading.active_count()
    sampling.thread_map(fn, range(3), threads=3)
    assert seen.tolist() == [1, 2, 3]
    assert threading.active_count() == before


def test_thread_map_starts_at_most_one_thread_per_cpu(monkeypatch):
    on_threads(monkeypatch, 2)
    idents = set()
    sampling.thread_map(lambda i: idents.add(threading.get_ident()) or time.sleep(0.01),
                        range(16), threads=8)
    assert 1 <= len(idents) <= 2


def test_thread_map_runs_one_item_or_thread_inline():
    callers = []
    sampling.thread_map(lambda i: callers.append(threading.get_ident()), [0], threads=4)
    sampling.thread_map(lambda i: callers.append(threading.get_ident()), range(3), threads=1)
    assert callers == [threading.get_ident()] * 4


def test_thread_map_raises_the_first_failure_in_item_order():
    def fn(i):
        if i in (2, 5):
            raise RuntimeError(f"item {i}")

    with pytest.raises(RuntimeError, match="item 2"):
        sampling.thread_map(fn, range(8), threads=3)


def solved_bytes(model, points, workers):
    outputs, jacobians = sampling.evaluate_samples(model, points, with_jacobian=True,
                                                   workers=workers)
    return outputs.tobytes(), jacobians.tobytes()


def test_rod_samples_do_not_depend_on_the_block_size_or_worker_count(monkeypatch):
    on_threads(monkeypatch, 2)
    rod = models.HeatRod1D()
    points = sampling.draw_samples(rod.parameter_box, 250, seed=12).points
    assert len(points) > 2 * rod.block_points  # three blocks at the default size
    expected = solved_bytes(rod, points, 1)
    for block_points in (1, 7, rod.block_points):
        blocked = models.HeatRod1D()
        blocked.block_points = block_points
        for workers in (1, 2):
            assert solved_bytes(blocked, points, workers) == expected


def test_plate_samples_do_not_depend_on_the_worker_count(monkeypatch):
    on_threads(monkeypatch, 2)
    plate = models.HeatPlate2D(elements=6, time_steps=5)
    points = sampling.draw_samples(plate.parameter_box, 6, seed=4).points
    assert solved_bytes(plate, points, 2) == solved_bytes(plate, points, 1)


class PidModel(models.ForwardModel):
    """Outputs the id of the process that solves the point.  Each block
    waits at a barrier for ``parties - 1`` other blocks, so two blocks only
    pass a barrier of two if two processes take them."""

    model_id = "pid"
    n_params = 1
    field_size = 1

    def __init__(self, parties):
        self.coordinates = np.zeros(1)
        self.parameter_box = sampling.ParameterBox([0.0], [1.0])
        self.barrier = multiprocessing.get_context("fork").Barrier(parties, timeout=30)

    def evaluate_stacked(self, points, with_jacobian=False):
        self.barrier.wait()
        return np.full((len(points), 1), float(os.getpid())), None


def test_solves_run_in_worker_processes(monkeypatch):
    on_threads(monkeypatch, 2)
    outputs, _ = sampling.evaluate_samples(PidModel(2), np.zeros((4, 1)), workers=2)
    pids = set(outputs.ravel().tolist())
    assert len(pids) == 2 and os.getpid() not in pids
    assert multiprocessing.active_children() == []


def test_one_worker_or_block_solves_inline(monkeypatch):
    on_threads(monkeypatch, 2)
    for points, workers in ((np.zeros((3, 1)), 1), (np.zeros((1, 1)), 4)):
        outputs, _ = sampling.evaluate_samples(PidModel(1), points, workers=workers)
        assert set(outputs.ravel().tolist()) == {os.getpid()}


class KilledModel(PidModel):
    """Killed in any process but the one that built it, as the kernel's
    out-of-memory killer would kill a worker."""

    def __init__(self):
        super().__init__(1)
        self.parent = os.getpid()

    def evaluate_stacked(self, points, with_jacobian=False):
        if os.getpid() != self.parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().evaluate_stacked(points, with_jacobian)


def test_a_killed_worker_raises_instead_of_hanging(monkeypatch):
    on_threads(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):
        sampling.evaluate_samples(KilledModel(), np.zeros((4, 1)), workers=2)
    assert multiprocessing.active_children() == []


def test_worker_failures_name_their_sample(monkeypatch):
    on_threads(monkeypatch, 2)
    rod = models.HeatRod1D(elements=10, time_steps=5)
    rod.block_points = 7
    rod_points = sampling.draw_samples(rod.parameter_box, 20, seed=3).points
    rod_points[9] = [0.05, 0.0]  # row 2 of the block of 7 that starts at sample 7
    plate = models.HeatPlate2D(elements=3, time_steps=5)
    plate_points = sampling.draw_samples(plate.parameter_box, 6, seed=8).points
    plate_points[3, 4] = 0.0
    for model, points, bad in ((rod, rod_points, 9), (plate, plate_points, 3)):
        with pytest.raises(sampling.ModelEvaluationError, match="finite and positive") as err:
            sampling.evaluate_samples(model, points, with_jacobian=True, workers=2)
        assert err.value.sample_index == bad
        assert np.array_equal(err.value.parameters, points[bad])
        assert multiprocessing.active_children() == []
        points[bad] = points[0]
        solved_bytes(model, points, 2)
        assert multiprocessing.active_children() == []


def test_workers_fork_from_a_process_without_other_threads(monkeypatch):
    # A fork copies only the calling thread, so a lock another thread holds
    # stays held in the child; Python 3.12 warns of it, which is an error
    # here.  The kernels' threads are joined before the solves fork.
    on_threads(monkeypatch, 2)
    threads_at_fork, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: threads_at_fork.append(threading.active_count())
                        or fork())
    barrier = threading.Barrier(2, timeout=30)
    sampling.thread_map(lambda i: barrier.wait(), range(2), threads=2)
    plate = models.HeatPlate2D(elements=6, time_steps=5)
    points = sampling.draw_samples(plate.parameter_box, 4, seed=4).points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solved_bytes(plate, points, 2)
    assert threads_at_fork == [1, 1]


def test_candidate_statistics_do_not_depend_on_the_thread_count(monkeypatch):
    # The runs of pair_space (row i with every j < i) are split into chunks
    # of 2, 3 or 7 pairs, or each held whole in one.
    batch = random_batch()
    space = design.pair_space(batch.outputs.shape[1])
    rows = set()
    for chunk_matrices in (CHUNK_MATRICES, 60, 140, 1 << 14):
        monkeypatch.setattr(design, "_CHUNK_MATRICES", chunk_matrices)
        for threads in (1, 3):
            on_threads(monkeypatch, threads)
            rows.add(design._candidate_statistics(batch, space.candidates, 1e-12).tobytes())
    assert len(rows) == 1


def scored_alone(batch, candidate):
    """The statistics of one candidate, its head factored for it alone."""
    rows = batch.jacobians[:, candidate, :]
    scal, skew = geometry.ExtensionBase(rows[:, :-1]).extend(rows[:, -1:])
    return criteria.reciprocal_statistics(scal.T, skew.T)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_candidate_statistics_match_each_candidate_scored_alone(arity, small_chunks):
    batch = random_batch()
    batch.jacobians[:, 5] *= 2.0**-600  # tiny rows
    batch.jacobians[:, 6] = 3.0 * batch.jacobians[:, 7]  # collinear rows
    rng = np.random.default_rng(arity)
    # Random candidates, runs of one head longer than a chunk, and repeated,
    # tiny and collinear rows, in no order.
    head = list(rng.integers(0, 40, size=arity - 1))
    candidates = np.concatenate([
        rng.integers(0, 40, size=(30, arity)),
        [head + [j] for j in (9, 3, 6, 7, 5, 8)],
        [[i] * arity for i in (3, 5, 6)],
        [[5] * (arity - 1) + [j] for j in (5, 8, 9)],
        [[6] * (arity - 1) + [j] for j in (7, 6, 2)],
        [[7] * (arity - 1) + [6]]])
    want = np.concatenate([scored_alone(batch, candidate) for candidate in candidates])
    got = design._candidate_statistics(batch, candidates, 1e-12)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk_matrices", [CHUNK_MATRICES, 1 << 14])
def test_each_head_is_factored_once_per_chunk_of_its_run(chunk_matrices, monkeypatch):
    batch = random_batch()  # 20 samples
    space = design.pair_space(batch.outputs.shape[1])  # 39 runs, 780 pairs
    monkeypatch.setattr(design, "_CHUNK_MATRICES", chunk_matrices)
    factored, init = [], geometry.ExtensionBase.__init__
    monkeypatch.setattr(geometry.ExtensionBase, "__init__",
                        lambda self, base, *args: factored.append(len(base))
                        or init(self, base, *args))
    design._candidate_statistics(batch, space.candidates, 1e-12)
    chunks = -(-len(space) // max(1, chunk_matrices // batch.count))
    assert sum(factored) <= (39 + chunks) * batch.count < len(space) * batch.count


def test_greedy_does_not_depend_on_the_thread_count(monkeypatch, small_chunks):
    batch = random_batch()
    traces = []
    for threads in (1, 3):
        on_threads(monkeypatch, threads)
        traces.append(design.greedy_oed(design.scalar_space(batch.outputs.shape[1]), batch,
                                        m_target=4, tol=1e-12))
    one, three = traces
    assert one.selected == three.selected and len(one.selected) == 4
    assert [r.chosen for r in one.rounds] == [r.chosen for r in three.rounds]
    for a, b in zip(one.rounds, three.rounds):
        assert a.scores.tobytes() == b.scores.tobytes()


@pytest.mark.parametrize("chunk_matrices", [CHUNK_MATRICES, 60])
def test_greedy_scores_do_not_depend_on_the_chunk_size(monkeypatch, chunk_matrices):
    # 40 rows of 20 samples: chunks of 2 rows, or of 3 and a last one of 1.
    batch = random_batch(n_params=9)
    space = design.scalar_space(batch.outputs.shape[1])
    whole = design.greedy_oed(space, batch, m_target=4, tol=1e-12)
    monkeypatch.setattr(design, "_CHUNK_MATRICES", chunk_matrices)
    chunked = design.greedy_oed(space, batch, m_target=4, tol=1e-12)
    assert chunked.selected == whole.selected and len(whole.selected) == 4
    for a, b in zip(whole.rounds, chunked.rounds, strict=True):
        assert a.scores.tobytes() == b.scores.tobytes()


def block_rows(monkeypatch, samples):
    """Set BLOCK_BYTES to one pair of BLOCK_ROWS-row kernel-density buffers."""
    monkeypatch.setattr(sampling, "BLOCK_BYTES", 16 * samples * BLOCK_ROWS)


def test_kde_pdf_does_not_depend_on_the_thread_count(monkeypatch):
    kde, queries = kde_case()
    block_rows(monkeypatch, len(kde.samples))
    values = []
    for threads in (1, 3):
        on_threads(monkeypatch, threads)
        values.append(kde.pdf(queries))
    assert values[0].tobytes() == values[1].tobytes()


CLI_CASES = {
    "oed": {"model": ROD, "sampling": {"count": 8, "seed": 3}, "design": {"arity": 2}},
    "greedy": {"model": ROD, "sampling": {"count": 6, "seed": 5}, "greedy": {"m_target": 2}},
    "dci": {"model": ROD, "sampling": {"seed": 2},
            "dci": {"sensors": [0.0, 1.0], "count": 300, "seed": 9}},
}


def run_cli(tmp_path, task, out):
    config = tmp_path / f"{task}.json"
    config.write_text(json.dumps(dict(CLI_CASES[task], task=task)))
    assert cli.main([task, "--config", str(config), "--out", str(tmp_path / out)]) == cli.EXIT_OK
    return tmp_path / out


def output_bytes(outdir):
    files = {p.name: p.read_bytes() for p in outdir.iterdir() if p.name != "manifest.json"}
    manifest = json.loads((outdir / "manifest.json").read_text())
    del manifest["elapsed_seconds"]
    return files, manifest


@pytest.mark.parametrize("task", sorted(CLI_CASES))
def test_cli_outputs_do_not_depend_on_the_thread_count(task, tmp_path, monkeypatch,
                                                      small_chunks):
    block_rows(monkeypatch, 300)
    outputs = []
    for threads in (1, 3):
        on_threads(monkeypatch, threads)
        outputs.append(output_bytes(run_cli(tmp_path, task, f"out{threads}")))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("task", ["oed", "dci"])
def test_cli_leaves_no_thread_running(task, tmp_path, monkeypatch, small_chunks):
    # A pool left behind would keep the process, or the benchmark study, alive.
    on_threads(monkeypatch, 3)
    block_rows(monkeypatch, 300)
    before = threading.active_count()
    run_cli(tmp_path, task, "out")
    assert threading.active_count() == before


def spy_block_buffers(monkeypatch, samples) -> list:
    """Shapes of the (query x sample) matrices numpy allocates from now on."""
    allocated = []
    for name in ("empty", "empty_like"):
        def spied(*args, _allocate=getattr(np, name), **kwargs):
            array = _allocate(*args, **kwargs)
            if array.ndim == 2 and array.shape[1] == samples:
                allocated.append(array.shape)
            return array
        monkeypatch.setattr(np, name, spied)
    return allocated


def test_kde_block_rows_do_not_depend_on_the_thread_count(monkeypatch):
    # Every thread's pair of buffers takes the rows that fit in
    # BLOCK_BYTES, so more threads hold more memory, not smaller blocks.
    kde, queries = kde_case(count=2000, queries=3000)
    allocated = spy_block_buffers(monkeypatch, len(kde.samples))
    rows = {}
    for threads in (1, 3, 8):
        on_threads(monkeypatch, threads)
        allocated.clear()
        kde.pdf(queries)
        rows[threads] = {shape[0] for shape in allocated}
    assert rows[1] == rows[3] == rows[8] and len(rows[1]) == 1
    assert 2 * rows[1].pop() * 8 * len(kde.samples) <= sampling.BLOCK_BYTES


def test_kde_memory_is_bounded_per_thread(monkeypatch):
    # Each of T threads holds at most BLOCK_BYTES of (query x sample)
    # matrices.  Slack: 192 KiB per thread, whose broadcasting ufunc calls
    # allocate their own iterator buffers (8192 elements per operand)
    # whatever the block size.
    kde, queries = kde_case(count=2000, queries=3000)
    peaks = {}
    for threads in (1, 3):
        on_threads(monkeypatch, threads)
        tracemalloc.start()
        try:
            values = kde.pdf(queries)
            peaks[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[threads] <= threads * (sampling.BLOCK_BYTES + 192 * 1024) + values.nbytes
    assert peaks[1] > 0.9 * sampling.BLOCK_BYTES  # the matrices are traced at all


@pytest.mark.parametrize("threads", [1, 3])
def test_kde_threads_each_allocate_one_pair_of_block_buffers(monkeypatch, threads):
    # Every thread evaluates many blocks into the same two (query x sample)
    # matrices, so the call allocates two of them per thread, not per block.
    kde, queries = kde_case(queries=600)
    block_rows(monkeypatch, len(kde.samples))
    on_threads(monkeypatch, threads)
    expected = kde.pdf(queries)
    assert -(-len(queries) // BLOCK_ROWS) >= 10 * threads

    allocated = spy_block_buffers(monkeypatch, len(kde.samples))
    values = kde.pdf(queries)
    assert len(allocated) == 2 * threads
    assert values.tobytes() == expected.tobytes()
