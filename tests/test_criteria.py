"""Harmonic-mean utilities and the Monte Carlo criterion statistics.

Statistics are made the one way the tool makes them: an exhaustive search
over a design space, here of a single candidate that observes every row.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import criteria_oracles
import geometry_oracles
import model_oracles
from svoed import cli, criteria, design, sampling


def report(batch):
    """The criteria.STATISTICS of the one design that observes every row,
    by column name."""
    space = design.DesignSpace(candidates=[list(range(batch.outputs.shape[1]))])
    row = design.exhaustive_oed(space, batch).reports[0]
    return SimpleNamespace(**dict(zip(criteria.STATISTICS, row)))


def stack_report(matrices):
    """The report of a design whose per-sample Jacobians are ``matrices``."""
    return report(criteria_oracles.stack_batch(np.asarray(matrices, dtype=float)))


def constant_report(J, count=50):
    J = np.asarray(J, dtype=float)
    return stack_report(np.broadcast_to(J, (count,) + J.shape).copy())


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
    rep = constant_report(np.eye(2))
    assert rep.ese_inverse == pytest.approx(1.0)
    assert rep.esk_inverse == pytest.approx(1.0)
    assert rep.infinite_count == 0
    assert rep.stderr_ese == pytest.approx(0.0)


def test_shear_batch_known_constants():
    rep = constant_report([[1.0, 0.0], [1.0, 1.0]])
    assert rep.ese_inverse == pytest.approx(1.0, rel=1e-12)
    assert rep.esk_inverse == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_duplicate_row_batch_scores_zero():
    rep = constant_report([[1.0, 2.0], [2.0, 4.0]], count=30)
    assert rep.ese_inverse == 0.0
    assert rep.esk_inverse == 0.0
    assert rep.infinite_count == 30


def test_infinite_count_is_scale_free():
    # 1/SE of a full-rank (2, 9) matrix with entries near 1e-170 is below
    # the smallest double, while 1/SK does not depend on the scale.
    rng = np.random.default_rng(8)
    mats = rng.normal(size=(50, 2, 9)) * 1e-170
    mats[:3, 1] = 2.0 * mats[:3, 0]  # three rank-deficient samples
    rep = stack_report(mats)
    assert rep.ese_inverse == 0.0
    assert rep.esk_inverse > 0.0
    assert rep.infinite_count == 3


def test_utility_equals_reciprocal_harmonic_mean():
    # The reported utility is the mean of reciprocals, which is algebraically
    # the reciprocal of the harmonic mean of the local values.
    rng = np.random.default_rng(5)
    mats = rng.uniform(-1.0, 1.0, size=(40, 2, 3))
    mats[7, 1] = 2.0 * mats[7, 0]  # one rank-deficient sample
    rep = stack_report(mats)

    ses = np.array([geometry_oracles.cross_section_measure(m) for m in mats])
    sks = np.array([geometry_oracles.local_skewness_svd(m).skewness for m in mats])
    assert rep.ese_inverse == pytest.approx(1.0 / criteria_oracles.harmonic_mean(ses), rel=1e-12)
    assert rep.esk_inverse == pytest.approx(1.0 / criteria_oracles.harmonic_mean(sks), rel=1e-12)
    assert rep.infinite_count == 1


def test_esk_inverse_bounded_by_one():
    rng = np.random.default_rng(6)
    for _ in range(20):
        mats = rng.uniform(-2.0, 2.0, size=(25, 3, 4))
        rep = stack_report(mats)
        assert 0.0 <= rep.esk_inverse <= 1.0 + 1e-12
        assert np.isfinite(rep.ese_inverse)
        assert rep.ese_inverse >= 0.0


def test_monte_carlo_stability_when_doubling_samples():
    # Doubling the sample count moves the estimate by less than three of its
    # estimated standard errors (same nonlinear model, disjoint seeds).
    quad = model_oracles.quadratic_model()
    reps = []
    for count, seed in ((500, 1), (1000, 2)):
        s = sampling.draw_samples(quad.parameter_box, count, seed=seed)
        b = sampling.estimate_field_jacobians(quad, s)
        reps.append(report(b))
    gap = abs(reps[0].ese_inverse - reps[1].ese_inverse)
    joint = np.hypot(reps[0].stderr_ese, reps[1].stderr_ese)
    assert gap <= 3.0 * joint
    gap_k = abs(reps[0].esk_inverse - reps[1].esk_inverse)
    joint_k = np.hypot(reps[0].stderr_esk, reps[1].stderr_esk)
    assert gap_k <= 3.0 * joint_k


def test_rejects_unknown_measure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sampling, "evaluate_samples", None)  # no solve may start
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "task": "sweep", "model": {"kind": "heat_rod_1d", "elements": 10, "time_steps": 5},
        "sampling": {"count": 5, "measure": "posterior"}, "output_dir": "out"}))
    assert cli.main(["sweep", "--config", str(config)]) == cli.EXIT_CONFIG
    assert "sampling.measure" in capsys.readouterr().err
