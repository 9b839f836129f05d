"""Sampling, field Jacobians, row assembly and persistence."""

import tracemalloc
import zipfile

import numpy as np
import pytest

import geometry_oracles
from svoed import design, geometry, models, sampling


class CountingModel(models.ForwardModel):
    """Wraps another model, exposing only ``evaluate`` so that field batches
    difference it, and counts its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.model_id = inner.model_id
        self.n_params = inner.n_params
        self.field_size = inner.field_size
        self.coordinates = inner.coordinates
        self.parameter_box = inner.parameter_box
        self.calls = 0

    def evaluate(self, lam):
        self.calls += 1
        return self.inner.evaluate(lam)


class FailingModel(models.ForwardModel):
    model_id = "failing"
    n_params = 2
    field_size = 1

    def __init__(self, fail_at):
        self.fail_at = np.asarray(fail_at, dtype=float)
        self.coordinates = np.zeros(1)
        self.parameter_box = sampling.ParameterBox([0, 0], [1, 1])

    def evaluate(self, lam):
        if np.allclose(lam, self.fail_at):
            raise RuntimeError("boom")
        return np.atleast_1d(np.sum(lam))


class ExactModel(FailingModel):
    """FailingModel with its own Jacobian, which is NaN at ``nan_at``."""

    def __init__(self, fail_at, nan_at=None):
        super().__init__(fail_at)
        self.nan_at = None if nan_at is None else np.asarray(nan_at, dtype=float)

    def evaluate_with_jacobian(self, lam):
        jac = np.ones((1, 2))
        if self.nan_at is not None and np.allclose(lam, self.nan_at):
            jac[0, 1] = np.nan
        return self.evaluate(lam), jac


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


# --- finite differences -------------------------------------------------------


def test_fd_exact_for_linear_maps():
    A = np.array([[2.0, -1.0], [0.5, 3.0], [1.0, 1.0]])
    model = CountingModel(models.linear_model(A))
    s = sampling.draw_samples(unit_box(), 5, seed=2)
    batch = sampling.estimate_field_jacobians(model, s, fd_step=1e-5)
    for i in range(5):
        assert np.allclose(batch.jacobians[i], A, atol=1e-9)


def test_fd_quadratic_against_analytic_jacobian():
    quad = models.quadratic_model()
    s = sampling.SampleSet(points=np.array([[1.0, 1.0]]), seed=0)
    batch = sampling.estimate_field_jacobians(CountingModel(quad), s, fd_step=1e-5)
    assert np.allclose(batch.jacobians[0], [[2.0, 0.0], [1.0, 1.0]], atol=1e-4)
    _, exact = quad.evaluate_with_jacobian([1.0, 1.0])
    assert np.allclose(batch.jacobians[0], exact, atol=1e-4)


def test_fd_call_count_is_n_plus_one_per_sample():
    model = CountingModel(models.quadratic_model())
    s = sampling.draw_samples(model.parameter_box, 7, seed=5)
    sampling.estimate_field_jacobians(model, s, fd_step=1e-6)
    assert model.calls == 7 * (model.n_params + 1)


def test_fd_error_is_first_order():
    # Forward differences on a smooth map: halving the step halves the
    # error, within a factor of 4 on a log-log fit.
    quad = models.quadratic_model()
    lam = np.array([[1.3, 0.8]])
    steps = [4e-4, 2e-4, 1e-4]
    errors = []
    for h in steps:
        batch = sampling.estimate_field_jacobians(
            CountingModel(quad), sampling.SampleSet(points=lam, seed=0), fd_step=h
        )
        errors.append(np.abs(batch.jacobians[0] - quad.evaluate_with_jacobian(lam[0])[1]).max())
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert 0.5 <= slope <= 2.0
    assert errors[2] < errors[0]


def test_fd_failure_reports_sample_and_parameters():
    box = unit_box()
    s = sampling.draw_samples(box, 5, seed=9)
    model = FailingModel(s.points[3])
    with pytest.raises(sampling.ModelEvaluationError) as err:
        sampling.estimate_field_jacobians(model, s, fd_step=1e-7)
    assert err.value.sample_index == 3
    assert np.allclose(err.value.parameters, s.points[3])


def test_exact_jacobian_failure_reports_sample_and_parameters():
    s = sampling.draw_samples(unit_box(), 5, seed=9)
    with pytest.raises(sampling.ModelEvaluationError) as err:
        sampling.estimate_field_jacobians(ExactModel(s.points[3]), s)
    assert err.value.sample_index == 3
    assert np.allclose(err.value.parameters, s.points[3])

    with pytest.raises(sampling.ModelEvaluationError, match="non-finite") as err:
        sampling.estimate_field_jacobians(ExactModel([2.0, 2.0], nan_at=s.points[1]), s)
    assert err.value.sample_index == 1


def test_bad_point_in_the_middle_of_a_rod_chunk_names_its_sample():
    rod = models.HeatRod1D(elements=10, time_steps=5)
    rod._chunk = 7
    s = sampling.draw_samples(rod.parameter_box, 20, seed=3)
    s.points[9] = [0.05, 0.0]
    for call in (lambda: sampling.estimate_field_jacobians(rod, s),
                 lambda: sampling.evaluate_samples(rod, s.points, rows=[0, 10])):
        with pytest.raises(sampling.ModelEvaluationError) as err:
            call()
        assert err.value.sample_index == 9
        assert np.array_equal(err.value.parameters, s.points[9])


@pytest.mark.parametrize("stacked", [True, False], ids=["rod", "per-sample"])
def test_evaluate_samples_restricts_to_design_rows(stacked):
    rod = models.HeatRod1D(elements=10, time_steps=5)
    model = rod if stacked else CountingModel(rod)
    points = sampling.draw_samples(rod.parameter_box, 5, seed=2).points
    field, jac = sampling.evaluate_samples(model, points, with_jacobian=True)
    rows, none = sampling.evaluate_samples(model, points, rows=(10, 0, 10))
    assert none is None
    assert np.array_equal(rows, field[:, [10, 0, 10]])
    assert jac.shape == (5, rod.field_size, 2)


def test_models_with_their_own_jacobian_skip_finite_differences():
    s = sampling.draw_samples(unit_box(), 4, seed=9)
    exact = sampling.estimate_field_jacobians(ExactModel([2.0, 2.0]), s)
    assert exact.fd_step is None
    assert np.array_equal(exact.jacobians, np.ones((4, 1, 2)))
    fd = sampling.estimate_field_jacobians(FailingModel([2.0, 2.0]), s)
    assert fd.fd_step == 1e-5


def test_exact_threaded_matches_serial():
    plate = models.HeatPlate2D(elements_per_axis=6, time_steps=5)
    s = sampling.draw_samples(plate.parameter_box, 6, seed=4)
    serial = sampling.estimate_field_jacobians(plate, s)
    threaded = sampling.estimate_field_jacobians(plate, s, workers=2)
    assert serial.fd_step is None
    assert np.array_equal(serial.jacobians, threaded.jacobians)
    assert np.array_equal(serial.outputs, threaded.outputs)


def test_fd_threaded_matches_serial():
    model = CountingModel(models.quadratic_model())
    s = sampling.draw_samples(model.parameter_box, 12, seed=4)
    serial = sampling.estimate_field_jacobians(model, s, fd_step=1e-5)
    threaded = sampling.estimate_field_jacobians(model, s, fd_step=1e-5, workers=4)
    assert np.array_equal(serial.jacobians, threaded.jacobians)
    assert np.array_equal(serial.outputs, threaded.outputs)


def test_per_sample_batch_is_held_once():
    # Each sample is written into the preallocated batch arrays; collecting
    # the samples first and stacking them would peak near twice the batch.
    plate = models.HeatPlate2D(elements_per_axis=21, time_steps=8)
    s = sampling.draw_samples(plate.parameter_box, 40, seed=0)
    tracemalloc.start()
    try:
        batch = sampling.estimate_field_jacobians(plate, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (batch.outputs.nbytes + batch.jacobians.nbytes)


def test_fd_rejects_nonpositive_step():
    model = models.quadratic_model()
    s = sampling.draw_samples(model.parameter_box, 1, seed=1)
    with pytest.raises(ValueError):
        sampling.estimate_field_jacobians(model, s, fd_step=0.0)


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
    scal, skew = geometry.batch_reciprocals(batch.jacobians[:, [5], :])
    assert result.reports[0, 0] == scal.mean()
    assert result.reports[0, 1] == skew.mean()


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

        def evaluate(self, lam):
            return rod.evaluate(lam)[[p, q]]

        def evaluate_with_jacobian(self, lam):
            u, jac = rod.evaluate_with_jacobian(lam)
            return u[[p, q]], jac[[p, q]]

    restricted_batch = sampling.estimate_field_jacobians(Restricted(), batch.samples)
    # Same arithmetic on the same evaluations: identical, not merely close.
    assert np.array_equal(batch.jacobians[:, [p, q], :], restricted_batch.jacobians)


# --- persistence --------------------------------------------------------------


def test_batch_roundtrip(tmp_path, rod_batch_small):
    _, batch = rod_batch_small
    path = tmp_path / "batch.npz"
    sampling.save_batch(batch, path)
    loaded = sampling.load_batch(path)
    assert loaded.model_id == batch.model_id
    assert loaded.fd_step is batch.fd_step is None
    assert loaded.samples.seed == batch.samples.seed
    assert loaded.samples.scheme == batch.samples.scheme
    assert np.array_equal(loaded.outputs, batch.outputs)
    assert np.array_equal(loaded.jacobians, batch.jacobians)
    assert np.array_equal(loaded.samples.points, batch.samples.points)


def test_batch_is_stored_uncompressed_and_compressed_caches_load(tmp_path, rod_batch_small):
    _, batch = rod_batch_small
    path = tmp_path / "batch.npz"
    sampling.save_batch(batch, path, recipe_sha256="abc")
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
    with np.load(path) as data:
        arrays = dict(data)
    compressed = tmp_path / "compressed.npz"
    np.savez_compressed(compressed, **arrays)  # how earlier versions wrote the cache
    with zipfile.ZipFile(compressed) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_DEFLATED}
    loaded = sampling.load_batch(compressed, recipe_sha256="abc")
    assert sampling.BATCH_SCHEMA_VERSION == 3
    assert loaded.model_id == batch.model_id
    assert loaded.fd_step is None
    assert np.array_equal(loaded.samples.points, batch.samples.points)
    assert np.array_equal(loaded.outputs, batch.outputs)
    assert np.array_equal(loaded.jacobians, batch.jacobians)


def test_load_batch_rejects_stale_recipe_and_bad_arrays(tmp_path, rod_batch_small):
    _, batch = rod_batch_small
    path = tmp_path / "batch.npz"
    sampling.save_batch(batch, path, recipe_sha256="abc")
    assert sampling.load_batch(path, recipe_sha256="abc").count == batch.count
    with pytest.raises(ValueError, match="different recipe"):
        sampling.load_batch(path, recipe_sha256="def")

    bad = sampling.FieldJacobianBatch(batch.samples, batch.outputs, batch.jacobians.copy(),
                                      batch.fd_step, batch.model_id)
    bad.jacobians[0, 0, 0] = np.nan
    sampling.save_batch(bad, path)
    with pytest.raises(ValueError, match="non-finite"):
        sampling.load_batch(path)

    with np.load(path) as data:
        arrays = dict(data)
    arrays["points"] = arrays["points"][:-1]
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match="shape"):
        sampling.load_batch(path)
