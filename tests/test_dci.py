"""Density machinery, ratio updates, rejection sampling and the solver.

SciPy's ``multivariate_normal`` and ``gaussian_kde`` are the oracles of the
numpy densities: same values to round-off, same draws from one generator.
"""

import warnings

import numpy as np
import pytest
import scipy.stats

import model_oracles
from svoed import dci, models, sampling


def unit_gaussian(dim=2):
    return dci.GaussianDensity(np.zeros(dim), np.eye(dim))


# --- densities ------------------------------------------------------------------


def test_gaussian_density_pdf_and_sampling():
    g = dci.GaussianDensity([1.0], 4.0)
    # Analytic normal pdf at the mean: 1 / sqrt(2 pi sigma^2).
    assert g.pdf([[1.0]])[0] == pytest.approx(1.0 / np.sqrt(8.0 * np.pi))
    rng = np.random.default_rng(0)
    draws = g.sample(rng, 20_000)
    assert abs(draws.mean() - 1.0) <= 3.0 * 2.0 / np.sqrt(20_000)


def test_gaussian_density_rejects_bad_covariance():
    with pytest.raises(ValueError):
        dci.GaussianDensity([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # not PSD
    with pytest.raises(ValueError, match="shape"):
        dci.GaussianDensity([0.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):  # Cholesky reads one triangle
        dci.GaussianDensity([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])


def test_uniform_box_density():
    box = sampling.ParameterBox([0.0, 0.0], [2.0, 1.0])
    u = dci.UniformBoxDensity(box)
    assert u.pdf([[1.0, 0.5]])[0] == pytest.approx(0.5)
    assert u.pdf([[3.0, 0.5]])[0] == 0.0
    rng = np.random.default_rng(1)
    assert np.all(box.contains(u.sample(rng, 100)))


def test_kde_matches_standard_normal_at_origin():
    rng = np.random.default_rng(2)
    kde = dci.KdeDensity(rng.standard_normal((10_000, 1)))
    assert kde.pdf([[0.0]])[0] == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), abs=0.05)


@pytest.mark.parametrize("cov", [0.3, [0.2, 0.5, 1.5], "full"], ids=["scalar", "diag", "full"])
def test_gaussian_density_pdf_matches_scipy(cov):
    rng = np.random.default_rng(20)
    mean = rng.normal(size=3)
    if cov == "full":
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.1 * np.eye(3)
    full = np.diag(np.broadcast_to(cov, 3)) if np.ndim(cov) < 2 else cov
    points = mean + rng.normal(size=(200, 3))
    expected = scipy.stats.multivariate_normal(mean, full).pdf(points)
    np.testing.assert_allclose(dci.GaussianDensity(mean, cov).pdf(points), expected, rtol=1e-12)


def kde_case(dim, weighted, offset, seed=21):
    """Correlated samples far from 0 when ``offset`` is large, optional
    weights, and query points: some samples and a few far in the tails."""
    rng = np.random.default_rng(seed + dim)
    samples = rng.normal(size=(300, dim)) @ rng.normal(size=(dim, dim)) + offset
    weights = rng.uniform(0.0, 2.0, size=300) if weighted else None
    # Five standard deviations out along a few directions of the samples.
    factor = np.linalg.cholesky(np.atleast_2d(np.cov(samples.T)))
    directions = np.array([[1.0] * dim, [-1.0] * dim, [1.0] + [-1.0] * (dim - 1)])
    tails = samples.mean(axis=0) + 5.0 / np.sqrt(dim) * directions @ factor.T
    return samples, weights, np.vstack([samples[:20], tails])


@pytest.mark.parametrize("rule", ["silverman", "scott"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("offset", [0.0, 100.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kde_pdf_and_sample_match_scipy(dim, offset, weighted, rule):
    samples, weights, queries = kde_case(dim, weighted, offset)
    kde = dci.KdeDensity(samples, bandwidth_rule=rule, weights=weights)
    oracle = scipy.stats.gaussian_kde(samples.T, bw_method=rule, weights=weights)
    expected = oracle(queries.T)
    assert expected.min() > 1e-100  # the tail points stay clear of underflow
    np.testing.assert_allclose(kde.pdf(queries), expected, rtol=1e-10)
    draws = kde.sample(np.random.default_rng(22), 50)
    assert np.allclose(draws, oracle.resample(50, seed=np.random.default_rng(22)).T)


def test_kde_blocks_do_not_change_the_values(monkeypatch):
    samples, weights, _ = kde_case(2, True, 0.0)
    queries = np.random.default_rng(23).normal(size=(50, 2))
    kde = dci.KdeDensity(samples, weights=weights)
    monkeypatch.setattr(sampling, "cpu_count", lambda: 1)  # one block of `rows` at a time
    values = []
    for rows in (1, 7, len(queries)):
        monkeypatch.setattr(sampling, "BLOCK_BYTES", rows * 16 * len(samples))
        values.append(kde.pdf(queries))
    assert all(np.array_equal(v, values[-1]) for v in values)


def test_kde_weights_do_not_depend_on_the_sample_layout():
    # The same outputs, row-major or column-major, give the same weights
    # to the last bit: the mean and covariance sum in one canonical order.
    samples, _, _ = kde_case(3, False, 100.0)
    observed = dci.GaussianDensity(samples.mean(axis=0), np.cov(samples.T))
    weights = [dci.update_weights(q, observed, dci.KdeDensity(q)).weights
               for q in (np.ascontiguousarray(samples), np.asfortranarray(samples))]
    assert weights[0].tobytes() == weights[1].tobytes()


@pytest.mark.parametrize("rule", [0.3, "foo", None])
def test_kde_rejects_a_bandwidth_other_than_the_two_rules(rule):
    with pytest.raises(ValueError, match="bandwidth"):
        dci.KdeDensity(np.random.default_rng(24).normal(size=(50, 2)), bandwidth_rule=rule)


def test_kde_rejects_degenerate_dimension():
    samples = np.column_stack([np.random.default_rng(3).normal(size=50), np.full(50, 7.0)])
    with pytest.raises(ValueError, match="dimension"):
        dci.KdeDensity(samples)
    with pytest.raises(ValueError):
        dci.KdeDensity(np.full((50, 1), 3.0))


def test_kde_box_mass_matches_linear_pushforward():
    # lam ~ U[0, 1] through q = 2 lam + 1 is U[1, 3]; the box [1.5, 2.5]
    # holds probability 1/2.  Oracle: exact pushforward + trapezoid over a
    # fine grid of the kde pdf.
    rng = np.random.default_rng(4)
    n = 10_000
    q = 2.0 * rng.uniform(size=(n, 1)) + 1.0
    kde = dci.KdeDensity(q)
    grid = np.linspace(1.5, 2.5, 2001)
    mass = np.trapezoid(kde.pdf(grid[:, None]), grid)
    stderr = np.sqrt(0.5 * 0.5 / n)
    assert abs(mass - 0.5) <= 3.0 * stderr + 0.01  # small allowance for kernel smearing


# --- weight updates -------------------------------------------------------------


def test_update_identity_gives_unit_weights():
    rng = np.random.default_rng(5)
    q = rng.normal(size=(500, 2))
    density = unit_gaussian()
    ens = dci.update_weights(q, observed=density, predicted=density)
    assert np.allclose(ens.weights, 1.0)
    assert ens.mean_ratio == pytest.approx(1.0)
    assert not ens.excluded.any()


def test_update_mean_ratio_near_one_inside_support():
    # Analytic densities, no KDE: E[obs/pred] over pred samples is exactly 1.
    rng = np.random.default_rng(6)
    q = rng.normal(size=(10_000, 2))
    observed = dci.GaussianDensity([0.2, 0.2], 0.09 * np.eye(2))
    ens = dci.update_weights(q, observed=observed, predicted=unit_gaussian())
    assert abs(ens.mean_ratio - 1.0) <= 3.0 * ens.stderr


def test_update_warns_on_unpredictable_observation():
    rng = np.random.default_rng(7)
    q = rng.normal(size=(2000, 2))
    observed = dci.GaussianDensity([30.0, 30.0], 0.01 * np.eye(2))
    with pytest.warns(dci.PredictabilityWarning):
        ens = dci.update_weights(q, observed=observed, predicted=unit_gaussian())
    assert ens.mean_ratio < 0.1


def test_update_excludes_predicted_underflow():
    q = np.array([[0.0, 0.0], [60.0, 60.0]])  # second point: pdf underflows
    observed = unit_gaussian()
    ens = dci.update_weights(q, observed=observed, predicted=unit_gaussian())
    assert ens.excluded.tolist() == [False, True]
    assert ens.weights[1] == 0.0
    # Diagnostics run over the retained samples only.
    assert ens.mean_ratio == pytest.approx(1.0)


# --- rejection sampling ----------------------------------------------------------


def test_rejection_accepts_everything_for_equal_weights():
    assert dci.rejection_sample(np.full(100, 0.7), seed=1).all()


def test_rejection_never_accepts_zero_weight():
    for seed in range(10):
        assert dci.rejection_sample(np.array([1.0, 0.0]), seed=seed).tolist() == [True, False]


def test_rejection_requires_positive_weight():
    with pytest.raises(ValueError):
        dci.rejection_sample(np.zeros(2), seed=0)


def test_rejection_recovers_updated_density_moments():
    # Identity map: the updated parameter density equals the observed
    # density, so accepted draws must match its mean and covariance.
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(20_000, 2))
    observed = dci.GaussianDensity([0.3, -0.2], 0.16 * np.eye(2))
    ens = dci.update_weights(pts, observed=observed, predicted=unit_gaussian())
    acc = pts[dci.rejection_sample(ens.weights, seed=9)]
    n_acc = acc.shape[0]
    se_mean = 0.4 / np.sqrt(n_acc)
    assert np.all(np.abs(acc.mean(axis=0) - [0.3, -0.2]) <= 3.0 * se_mean)
    cov = np.cov(acc.T)
    se_var = 0.16 * np.sqrt(2.0 / (n_acc - 1))
    assert np.all(np.abs(np.diag(cov) - 0.16) <= 3.0 * se_var)


# --- end-to-end solver ------------------------------------------------------------


def dci_solve(model, rows, init, observed, count, seed):
    """``count`` draws from ``init``, their weighted ensemble and the mask
    that rejection sampling on the next seed accepts, composed as
    ``svoed dci`` composes them."""
    points = init.sample(np.random.default_rng(seed), count)
    qoi, _ = sampling.evaluate_samples(model, points, rows=rows)
    ens = dci.update_weights(qoi, observed, dci.KdeDensity(qoi))
    return points, ens, dci.rejection_sample(ens.weights, seed + 1)


def test_dci_solve_identity_weights_near_one():
    ident = model_oracles.identity_model(2)
    init = unit_gaussian()
    observed = unit_gaussian()  # observed equals the exact pushforward
    _, ens, accepted = dci_solve(ident, (0, 1), init, observed, 4000, seed=10)
    # Weights are exact-density / kde-density, so they hover near one with
    # kernel-estimation error; the bulk must sit tight around unity.
    lo, hi = np.quantile(ens.weights, [0.25, 0.75])
    assert 0.9 <= lo <= hi <= 1.1
    assert ens.mean_ratio == pytest.approx(1.0, abs=0.05)
    assert accepted.shape == ens.weights.shape


def test_dci_solve_determinism():
    ident = model_oracles.identity_model(2)
    init = unit_gaussian()
    observed = dci.GaussianDensity([0.1, 0.1], 0.25 * np.eye(2))
    a_points, a, a_accepted = dci_solve(ident, (0, 1), init, observed, 500, seed=11)
    b_points, b, b_accepted = dci_solve(ident, (0, 1), init, observed, 500, seed=11)
    assert np.array_equal(a_points, b_points)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a_accepted, b_accepted)


def test_dci_solve_rod_concentrates_near_midpoint():
    rod = models.HeatRod1D()
    box = rod.parameter_box
    rows = (40, 0)
    observed = dci.GaussianDensity(rod.evaluate(box.midpoint)[list(rows)], 0.15 * np.eye(2))
    points, ens, accepted = dci_solve(rod, rows, dci.UniformBoxDensity(box), observed, 2000,
                                      seed=12)
    acc = points[accepted]
    assert acc.shape[0] > 20
    assert np.all(np.abs(acc.mean(axis=0) - box.midpoint) < 0.02)
    assert abs(ens.mean_ratio - 1.0) <= 3.0 * ens.stderr + 0.05


# --- updated-density grid ---------------------------------------------------------


def test_updated_density_grid_normalizes():
    rng = np.random.default_rng(13)
    box = sampling.ParameterBox([-4.0, -4.0], [4.0, 4.0])
    pts = rng.normal(size=(4000, 2))
    observed = dci.GaussianDensity([0.0, 0.0], 0.25 * np.eye(2))
    ens = dci.update_weights(pts, observed=observed, predicted=unit_gaussian())
    x, y, values = dci.updated_density_grid(pts, ens.weights, box, shape=(80, 80))
    mass = np.trapezoid(np.trapezoid(values, y, axis=1), x)
    assert mass == pytest.approx(1.0, abs=0.05)


def test_updated_density_grid_needs_two_dims():
    box = sampling.ParameterBox([0.0], [1.0])
    with pytest.raises(ValueError, match="2 parameters"):
        dci.updated_density_grid(np.zeros((10, 1)), np.ones(10), box)


def test_updated_density_grid_needs_a_positive_weight():
    box = sampling.ParameterBox([0.0, 0.0], [1.0, 1.0])
    points = np.random.default_rng(14).uniform(size=(10, 2))
    with pytest.raises(ValueError, match="all-zero weights"):
        dci.updated_density_grid(points, np.zeros(10), box)
