"""Harmonic-mean utilities and the Monte Carlo criterion reports."""

import numpy as np
import pytest

import criteria_oracles
import geometry_oracles
from svoed import criteria, models, sampling
from svoed.sampling import JacobianBatch


def constant_batch(J, count=50):
    J = np.asarray(J, dtype=float)
    return JacobianBatch(
        matrices=np.broadcast_to(J, (count,) + J.shape).copy(),
        row_indices=tuple(range(J.shape[0])),
    )


# --- harmonic mean -------------------------------------------------------------


def test_harmonic_mean_constant():
    assert criteria_oracles.harmonic_mean([3.0, 3.0, 3.0]) == pytest.approx(3.0)


def test_harmonic_mean_with_infinity():
    assert criteria_oracles.harmonic_mean([1.0, np.inf]) == pytest.approx(2.0)
    assert criteria_oracles.harmonic_mean([np.inf, np.inf]) == np.inf


def test_harmonic_mean_direct_arithmetic():
    # Reciprocals (1, 1/2, 1/4) have mean 7/12, so the harmonic mean is 12/7.
    assert criteria_oracles.harmonic_mean([1.0, 2.0, 4.0]) == pytest.approx(12.0 / 7.0)


def test_harmonic_mean_rejects_bad_values():
    with pytest.raises(ValueError):
        criteria_oracles.harmonic_mean([])
    with pytest.raises(ValueError):
        criteria_oracles.harmonic_mean([1.0, 0.0])
    with pytest.raises(ValueError):
        criteria_oracles.harmonic_mean([1.0, -2.0])


# --- expected criteria ----------------------------------------------------------


def test_identity_batch_scores_one():
    rep = criteria.expected_criteria(constant_batch(np.eye(2)))
    assert rep.ese_inverse == pytest.approx(1.0)
    assert rep.esk_inverse == pytest.approx(1.0)
    assert rep.infinite_count == 0
    assert rep.stderr_ese == pytest.approx(0.0)


def test_shear_batch_known_constants():
    rep = criteria.expected_criteria(constant_batch([[1.0, 0.0], [1.0, 1.0]]))
    assert rep.ese_inverse == pytest.approx(1.0, rel=1e-12)
    assert rep.esk_inverse == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_duplicate_row_batch_scores_zero():
    rep = criteria.expected_criteria(constant_batch([[1.0, 2.0], [2.0, 4.0]], count=30))
    assert rep.ese_inverse == 0.0
    assert rep.esk_inverse == 0.0
    assert rep.infinite_count == 30


def test_utility_equals_reciprocal_harmonic_mean():
    # The reported utility is the mean of reciprocals, which is algebraically
    # the reciprocal of the harmonic mean of the local values.
    rng = np.random.default_rng(5)
    mats = rng.uniform(-1.0, 1.0, size=(40, 2, 3))
    mats[7, 1] = 2.0 * mats[7, 0]  # one rank-deficient sample
    batch = JacobianBatch(matrices=mats, row_indices=(0, 1))
    rep = criteria.expected_criteria(batch)

    ses = np.array([geometry_oracles.cross_section_measure(m) for m in mats])
    sks = np.array([geometry_oracles.local_skewness_svd(m).skewness for m in mats])
    assert rep.ese_inverse == pytest.approx(1.0 / criteria_oracles.harmonic_mean(ses), rel=1e-12)
    assert rep.esk_inverse == pytest.approx(1.0 / criteria_oracles.harmonic_mean(sks), rel=1e-12)
    assert rep.infinite_count == 1


def test_esk_inverse_bounded_by_one():
    rng = np.random.default_rng(6)
    for _ in range(20):
        mats = rng.uniform(-2.0, 2.0, size=(25, 3, 4))
        rep = criteria.expected_criteria(JacobianBatch(matrices=mats, row_indices=(0, 1, 2)))
        assert 0.0 <= rep.esk_inverse <= 1.0 + 1e-12
        assert np.isfinite(rep.ese_inverse)
        assert rep.ese_inverse >= 0.0


def test_monte_carlo_stability_when_doubling_samples():
    # Doubling the sample count moves the estimate by less than three of its
    # estimated standard errors (same nonlinear model, disjoint seeds).
    quad = models.quadratic_model()
    reps = []
    for count, seed in ((500, 1), (1000, 2)):
        s = sampling.draw_samples(quad.parameter_box, count, seed=seed)
        b = sampling.estimate_field_jacobians(quad, s)
        reps.append(criteria.expected_criteria(sampling.assemble_design_jacobian(b, [0, 1])))
    gap = abs(reps[0].ese_inverse - reps[1].ese_inverse)
    joint = np.hypot(reps[0].stderr_ese, reps[1].stderr_ese)
    assert gap <= 3.0 * joint
    gap_k = abs(reps[0].esk_inverse - reps[1].esk_inverse)
    joint_k = np.hypot(reps[0].stderr_esk, reps[1].stderr_esk)
    assert gap_k <= 3.0 * joint_k


def test_nonfinite_samples_are_excluded_and_counted(caplog):
    mats = np.broadcast_to(np.eye(2), (10, 2, 2)).copy()
    mats[4, 0, 0] = np.nan
    batch = JacobianBatch(matrices=mats, row_indices=(0, 1))
    with caplog.at_level("WARNING", logger="svoed.criteria"):
        rep = criteria.expected_criteria(batch)
    assert rep.sample_count == 9
    assert rep.ese_inverse == pytest.approx(1.0)
    assert any("excluding 1 samples" in msg for msg in caplog.messages)


def test_rejects_unknown_measure():
    with pytest.raises(ValueError):
        criteria.expected_criteria(constant_batch(np.eye(2)), hm_measure="posterior")


# --- emission -------------------------------------------------------------------


def test_reports_csv_roundtrip(tmp_path):
    reps = [
        criteria.expected_criteria(constant_batch(np.eye(2)), design_id="a"),
        criteria.expected_criteria(constant_batch([[1.0, 0.0], [1.0, 1.0]]), design_id="b"),
    ]
    path = tmp_path / "reports.csv"
    criteria.reports_to_csv(path, reps, coordinates=[(0.0, 1.0), (0.5, 0.25)],
                            coordinate_labels=["x0", "x1"])
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("x0,x1,design_id,ese_inverse,esk_inverse")
    assert len(lines) == 3
    # determinism: identical call, identical bytes
    path2 = tmp_path / "reports2.csv"
    criteria.reports_to_csv(path2, reps, coordinates=[(0.0, 1.0), (0.5, 0.25)],
                            coordinate_labels=["x0", "x1"])
    assert path.read_bytes() == path2.read_bytes()


def test_reports_json(tmp_path):
    import json

    reps = [criteria.expected_criteria(constant_batch(np.eye(2)), design_id="a")]
    path = tmp_path / "reports.json"
    criteria.reports_to_json(path, reps)
    loaded = json.loads(path.read_text())
    assert loaded[0]["design_id"] == "a"
    assert loaded[0]["esk_inverse"] == pytest.approx(1.0)
