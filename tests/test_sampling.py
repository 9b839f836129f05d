"""Sampling, field Jacobians, row assembly and persistence."""

import tracemalloc
import zipfile

import numpy as np
import pytest
import scipy.sparse.linalg

import geometry_oracles
from svoed import dci, design, geometry, models, sampling


class CountingModel(models.ForwardModel):
    """Wraps another model in blocks of ``block_points``, and records the
    size of every block it is called on."""

    def __init__(self, inner, block_points):
        self.inner = inner
        self.model_id = inner.model_id
        self.n_params = inner.n_params
        self.field_size = inner.field_size
        self.coordinates = inner.coordinates
        self.parameter_box = inner.parameter_box
        self.block_points = block_points
        self.blocks = []

    def evaluate_stacked(self, points, with_jacobian=False):
        self.blocks.append(len(points))
        return self.inner.evaluate_stacked(points, with_jacobian)


class FailingModel(models.ForwardModel):
    """The sum of the parameters, with a unit Jacobian that is NaN at
    ``nan_at``; a RuntimeError at ``fail_at``."""

    model_id = "failing"
    n_params = 2
    field_size = 1

    def __init__(self, fail_at, nan_at=None):
        self.fail_at = np.asarray(fail_at, dtype=float)
        self.nan_at = None if nan_at is None else np.asarray(nan_at, dtype=float)
        self.coordinates = np.zeros(1)
        self.parameter_box = sampling.ParameterBox([0, 0], [1, 1])

    def evaluate_stacked(self, points, with_jacobian=False):
        if any(np.allclose(lam, self.fail_at) for lam in points):
            raise RuntimeError("boom")
        jac = np.ones((len(points), 1, 2))
        if self.nan_at is not None:
            jac[[np.allclose(lam, self.nan_at) for lam in points], 0, 1] = np.nan
        return points.sum(axis=1)[:, None], jac if with_jacobian else None


def unit_box(n=2):
    return sampling.ParameterBox([0.0] * n, [1.0] * n)


# --- boxes and samples --------------------------------------------------------


def test_box_validation():
    with pytest.raises(ValueError):
        sampling.ParameterBox([0.0, 1.0], [1.0, 1.0])  # lower == upper
    box = sampling.ParameterBox([0.01, 0.01], [0.2, 0.2])
    assert box.dim == 2
    assert np.allclose(box.midpoint, [0.105, 0.105])
    assert box.volume == pytest.approx(0.19 * 0.19)


def test_draw_samples_containment_and_determinism():
    box = unit_box()
    s = sampling.draw_samples(box, 4, seed=7)
    assert s.points.shape == (4, 2)
    assert np.all(box.contains(s.points))
    again = sampling.draw_samples(box, 4, seed=7)
    assert np.array_equal(s.points, again.points)
    other = sampling.draw_samples(box, 4, seed=8)
    assert not np.array_equal(s.points, other.points)


def test_draw_samples_zero_count_rejected():
    with pytest.raises(ValueError):
        sampling.draw_samples(unit_box(), 0, seed=1)


def test_draw_samples_mean_within_monte_carlo_error():
    box = sampling.ParameterBox([0.01, 0.01], [0.2, 0.2])
    s = sampling.draw_samples(box, 10_000, seed=3)
    # Uniform on [a, b]: mean (a+b)/2, sd (b-a)/sqrt(12).
    stderr = 0.19 / np.sqrt(12.0) / np.sqrt(10_000)
    assert np.all(np.abs(s.points.mean(axis=0) - 0.105) <= 3.0 * stderr)


def test_init_density_with_mass_in_the_box_fills_the_sample():
    density = dci.GaussianDensity([0.1, 0.1], 0.01)
    box = sampling.ParameterBox([0.01, 0.01], [0.2, 0.2])
    points = sampling.draw_samples(box, 50, seed=1, density=density).points
    assert points.shape == (50, 2)
    assert np.all(box.contains(points))
    assert np.array_equal(points, sampling.draw_samples(box, 50, seed=1, density=density).points)


def test_density_without_mass_in_the_box_stops_after_the_round_cap(monkeypatch):
    monkeypatch.setattr(sampling, "_MAX_DRAW_ROUNDS", 7)
    rounds, density = [], dci.GaussianDensity([5.0, 5.0], 0.01)
    sample = density.sample
    density.sample = lambda rng, count: rounds.append(count) or sample(rng, count)
    with pytest.raises(ValueError, match="only 0 of 35 draws fell in the box, 5 needed"):
        sampling.draw_samples(unit_box(), 5, seed=1, density=density)
    assert rounds == [5] * 7


# --- evaluation and field Jacobians -------------------------------------------


def test_evaluation_failure_reports_sample_and_parameters():
    # Outputs alone, as data-consistent inversion evaluates the plate.
    s = sampling.draw_samples(unit_box(), 5, seed=9)
    with pytest.raises(sampling.ModelEvaluationError) as err:
        sampling.evaluate_samples(FailingModel(s.points[3]), s.points)
    assert err.value.sample_index == 3
    assert np.allclose(err.value.parameters, s.points[3])


def test_exact_jacobian_failure_reports_sample_and_parameters():
    s = sampling.draw_samples(unit_box(), 5, seed=9)
    with pytest.raises(sampling.ModelEvaluationError) as err:
        sampling.estimate_field_jacobians(FailingModel(s.points[3]), s)
    assert err.value.sample_index == 3
    assert np.allclose(err.value.parameters, s.points[3])

    with pytest.raises(sampling.ModelEvaluationError, match="non-finite") as err:
        sampling.estimate_field_jacobians(FailingModel([2.0, 2.0], nan_at=s.points[1]), s)
    assert err.value.sample_index == 1


def test_bad_point_in_the_middle_of_a_rod_chunk_names_its_sample():
    rod = models.HeatRod1D(elements=10, time_steps=5)
    rod.block_points = 7
    s = sampling.draw_samples(rod.parameter_box, 20, seed=3)
    s.points[9] = [0.05, 0.0]
    for call in (lambda: sampling.estimate_field_jacobians(rod, s),
                 lambda: sampling.evaluate_samples(rod, s.points, rows=[0, 10])):
        with pytest.raises(sampling.ModelEvaluationError) as err:
            call()
        assert err.value.sample_index == 9
        assert np.array_equal(err.value.parameters, s.points[9])


def test_plate_block_whose_march_raises_names_its_sample(monkeypatch):
    plate = models.HeatPlate2D(elements=3, time_steps=5)
    s = sampling.draw_samples(plate.parameter_box, 5, seed=8)
    splu = scipy.sparse.linalg.splu
    calls = []

    def fourth_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise RuntimeError("Factor is exactly singular")
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", fourth_fails)
    with pytest.raises(sampling.ModelEvaluationError, match="exactly singular") as err:
        sampling.estimate_field_jacobians(plate, s)
    assert err.value.sample_index == 3
    assert np.array_equal(err.value.parameters, s.points[3])


@pytest.mark.parametrize("block_points", [1, 3, 5, 8])
def test_evaluate_samples_calls_the_model_once_per_block(block_points):
    model = CountingModel(models.HeatRod1D(elements=10, time_steps=5), block_points)
    points = sampling.draw_samples(model.parameter_box, 5, seed=1).points
    outputs, _ = sampling.evaluate_samples(model, points)
    assert model.blocks == [min(block_points, 5 - first) for first in range(0, 5, block_points)]
    assert np.array_equal(outputs, model.inner.evaluate_stacked(points)[0])


@pytest.mark.parametrize("model", [
    models.HeatRod1D(elements=10, time_steps=5),
    models.HeatPlate2D(elements=3, time_steps=5),
], ids=["rod", "per-sample"])
def test_evaluate_samples_restricts_to_design_rows(model):
    points = sampling.draw_samples(model.parameter_box, 5, seed=2).points
    field, jac = sampling.evaluate_samples(model, points, with_jacobian=True)
    rows, none = sampling.evaluate_samples(model, points, rows=(10, 0, 10))
    assert none is None
    assert np.array_equal(rows, field[:, [10, 0, 10]])
    assert jac.shape == (5, model.field_size, model.n_params)


def test_per_sample_batch_is_held_once():
    # Each sample is written into the preallocated batch arrays; collecting
    # the samples first and stacking them would peak near twice the batch.
    plate = models.HeatPlate2D(elements=21, time_steps=8)
    s = sampling.draw_samples(plate.parameter_box, 40, seed=0)
    tracemalloc.start()
    try:
        batch = sampling.estimate_field_jacobians(plate, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (batch.outputs.nbytes + batch.jacobians.nbytes)


# --- design-row assembly ------------------------------------------------------


@pytest.fixture(scope="module")
def rod_batch_small():
    rod = models.HeatRod1D()
    s = sampling.draw_samples(rod.parameter_box, 20, seed=17)
    return rod, sampling.estimate_field_jacobians(rod, s)


def test_assemble_selects_rows(rod_batch_small):
    # A design is scored on its rows of the field batch, and on nothing else.
    _, batch = rod_batch_small
    result = design.exhaustive_oed(design.DesignSpace(candidates=[[5]]), batch)
    rows = batch.jacobians[:, [5], :]
    scal, skew = geometry.ExtensionBase(rows[:, :0]).extend(rows)
    assert result.reports[0, 0] == scal[:, 0].mean()
    assert result.reports[0, 1] == skew[:, 0].mean()


def test_assemble_duplicate_rows_scores_infinite_skewness(rod_batch_small):
    _, batch = rod_batch_small
    for matrix in batch.jacobians[:, [5, 5], :]:
        assert geometry_oracles.local_skewness_svd(matrix).skewness == np.inf
    result = design.exhaustive_oed(design.DesignSpace(candidates=[[5, 5]]), batch)
    assert result.reports[0, 1] == 0.0
    assert result.reports[0, 4] == batch.count


def test_assemble_matches_restricted_model_fd(rod_batch_small):
    rod, batch = rod_batch_small
    p, q = 40, 0

    class Restricted(models.ForwardModel):
        model_id = "restricted"
        n_params = 2
        field_size = 2
        coordinates = np.array([0.0, 1.0])
        parameter_box = rod.parameter_box

        def evaluate_stacked(self, points, with_jacobian=False):
            U, J = rod.evaluate_stacked(points, with_jacobian)
            return U[:, [p, q]], J[:, [p, q]]

    restricted_batch = sampling.estimate_field_jacobians(Restricted(), batch.samples)
    # Same arithmetic on the same evaluations: identical, not merely close.
    assert np.array_equal(batch.jacobians[:, [p, q], :], restricted_batch.jacobians)


# --- persistence --------------------------------------------------------------


def test_batch_roundtrip(tmp_path, rod_batch_small):
    _, batch = rod_batch_small
    path = tmp_path / "batch.npz"
    sampling.save_batch(batch, path, "abc")
    loaded = sampling.load_batch(path, "abc")
    assert np.array_equal(loaded.outputs, batch.outputs)
    assert np.array_equal(loaded.jacobians, batch.jacobians)
    assert np.array_equal(loaded.samples.points, batch.samples.points)


def test_batch_is_stored_uncompressed_and_compressed_caches_load(tmp_path, rod_batch_small):
    _, batch = rod_batch_small
    path = tmp_path / "batch.npz"
    sampling.save_batch(batch, path, "abc")
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
    with np.load(path) as data:
        arrays = dict(data)
    compressed = tmp_path / "compressed.npz"
    np.savez_compressed(compressed, **arrays)  # how earlier versions wrote the cache
    with zipfile.ZipFile(compressed) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_DEFLATED}
    loaded = sampling.load_batch(compressed, "abc")
    assert sampling.BATCH_SCHEMA_VERSION == 6
    assert np.array_equal(loaded.samples.points, batch.samples.points)
    assert np.array_equal(loaded.outputs, batch.outputs)
    assert np.array_equal(loaded.jacobians, batch.jacobians)


def test_load_batch_rejects_stale_recipe_and_bad_arrays(tmp_path, rod_batch_small):
    _, batch = rod_batch_small
    path = tmp_path / "batch.npz"
    sampling.save_batch(batch, path, "abc")
    assert sampling.load_batch(path, "abc").count == batch.count
    with np.load(path) as data:
        arrays = dict(data)
    with pytest.raises(ValueError, match="another key"):
        sampling.load_batch(path, "def")

    bad = sampling.FieldJacobianBatch(batch.samples, batch.outputs, batch.jacobians.copy())
    bad.jacobians[0, 0, 0] = np.nan
    sampling.save_batch(bad, path, "abc")
    with pytest.raises(ValueError, match="non-finite"):
        sampling.load_batch(path, "abc")

    for name, array, match in (("points", arrays["points"][:-1], "shapes disagree"),
                               ("outputs", arrays["outputs"].astype(np.float32), "float64")):
        np.savez_compressed(path, **dict(arrays, **{name: array}))
        with pytest.raises(ValueError, match=match):
            sampling.load_batch(path, "abc")
