"""The thread map behind the kernels and kernel densities: results that do not
depend on the thread count, no thread left running, and bounded memory."""

import json
import threading
import time
import tracemalloc

import numpy as np
import pytest

from svoed import cli, dci, design, sampling

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


def test_candidate_statistics_do_not_depend_on_the_thread_count(monkeypatch, small_chunks):
    batch = random_batch()
    space = design.pair_space(batch.outputs.shape[1])
    rows = []
    for threads in (1, 3):
        on_threads(monkeypatch, threads)
        rows.append(design._candidate_statistics(batch, space.candidates, 1e-12))
    assert rows[0].tobytes() == rows[1].tobytes()


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
