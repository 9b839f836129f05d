"""Geometry kernels against independent oracles and algebraic identities."""

import numpy as np
import pytest

import geometry_oracles as oracles
from geometry_oracles import local_skewness_oracle
from svoed import geometry as geo

# Golden ratio: the singular values of [[1,0],[1,1]] are (phi, phi - 1).
PHI = (1.0 + np.sqrt(5.0)) / 2.0


def random_jacobian(rng, m_max=4, n_max=8):
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(m, n_max + 1))
    return rng.uniform(-1.0, 1.0, size=(m, n))


# --- singular values ---------------------------------------------------------


def test_singular_values_identity():
    assert np.allclose(oracles.singular_values(np.eye(2)), [1.0, 1.0])


def test_singular_values_diagonal_permuted():
    J = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    assert np.allclose(oracles.singular_values(J), [3.0, 2.0])


def test_singular_values_shear_against_characteristic_polynomial():
    J = np.array([[1.0, 0.0], [1.0, 1.0]])
    # Oracle: eigenvalues of J J^T = [[1,1],[1,2]] from its characteristic
    # polynomial x^2 - 3x + 1, i.e. (3 +- sqrt 5)/2.
    eigs = np.sort(np.roots([1.0, -3.0, 1.0]))[::-1]
    expected = np.sqrt(eigs)
    got = oracles.singular_values(J)
    assert np.allclose(got, expected, rtol=1e-12)
    assert np.allclose(got, [PHI, PHI - 1.0], rtol=1e-12)


def test_singular_values_rejects_bad_input():
    with pytest.raises(ValueError):
        oracles.singular_values([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        oracles.singular_values(np.ones((3, 2)))  # m > n
    with pytest.raises(ValueError):
        oracles.singular_values(np.ones(4))  # not a matrix


# --- parallelepiped and cross-section measures -------------------------------


def test_parallelepiped_unit_cube():
    assert oracles.parallelepiped_measure(np.eye(3)) == pytest.approx(1.0)


def test_parallelepiped_shear_cofactor_oracle():
    J = np.array([[1.0, 0.0], [1.0, 1.0]])
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]  # cofactor expansion by hand
    assert oracles.parallelepiped_measure(J) == pytest.approx(abs(det), rel=1e-12)


def test_parallelepiped_gram_determinant_oracle():
    rng = np.random.default_rng(7)
    J = rng.uniform(-1.0, 1.0, size=(2, 4))
    gram = np.sqrt(np.linalg.det(J @ J.T))
    assert oracles.parallelepiped_measure(J) == pytest.approx(gram, rel=1e-10)


def test_cross_section_identity_and_diagonal():
    assert oracles.cross_section_measure(np.eye(2)) == pytest.approx(1.0)
    assert oracles.cross_section_measure(np.diag([2.0, 4.0])) == pytest.approx(0.125)


def test_cross_section_rank_deficient_is_infinite():
    assert oracles.cross_section_measure([[1.0, 2.0], [2.0, 4.0]]) == np.inf


# --- local scaling ------------------------------------------------------------


def test_local_scaling_simple_values():
    assert oracles.cross_section_measure(np.eye(2)) == pytest.approx(1.0)
    J = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert oracles.cross_section_measure(J) == pytest.approx(
        1.0 / abs(np.linalg.det(J)), rel=1e-12)


def test_local_scaling_predicts_preimage_volume():
    # For a square full-rank linear map, the volume of the pre-image of a
    # unit cube is SE times the cube's volume.  Oracle: Monte Carlo
    # hit-counting of the pre-image inside a bounding box.
    J = np.array([[2.0, 0.5], [0.0, 4.0]])
    se = oracles.cross_section_measure(J)
    rng = np.random.default_rng(123)
    box_lo, box_hi = -1.0, 2.0
    n = 200_000
    lam = rng.uniform(box_lo, box_hi, size=(n, 2))
    q = lam @ J.T
    hits = np.all((q >= 0.0) & (q <= 1.0), axis=1)
    p = hits.mean()
    volume = p * (box_hi - box_lo) ** 2
    stderr = (box_hi - box_lo) ** 2 * np.sqrt(p * (1 - p) / n)
    assert abs(volume - se) <= 3.0 * stderr


# --- local skewness: SVD route, projection oracle, scaling-ratio identity ----


def test_skewness_orthogonal_rows_is_one():
    crit = oracles.local_skewness_svd(np.eye(3))
    assert crit.skewness == pytest.approx(1.0)
    assert np.allclose(crit.skewness_vector, 1.0)
    assert not crit.rank_deficient


def test_skewness_shear_hand_value():
    # Gram-Schmidt by hand: j1 = (1,0) against j2 = (1,1) leaves
    # j1_perp = (0.5, -0.5), so ||j1|| / ||j1_perp|| = 1 / (1/sqrt 2) = sqrt 2;
    # symmetric for the other row.
    J = np.array([[1.0, 0.0], [1.0, 1.0]])
    crit = oracles.local_skewness_svd(J)
    assert np.allclose(crit.skewness_vector, np.sqrt(2.0), rtol=1e-12)
    assert crit.skewness == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_skewness_parallel_rows_is_infinite():
    crit = oracles.local_skewness_svd([[1.0, 0.0], [2.0, 0.0]])
    assert crit.skewness == np.inf
    assert crit.rank_deficient


def test_skewness_zero_row_is_infinite():
    crit = oracles.local_skewness_svd([[0.0, 0.0], [1.0, 1.0]])
    assert crit.skewness == np.inf
    assert crit.rank_deficient


def test_skewness_single_row_convention():
    crit = oracles.local_skewness_svd([[3.0, 4.0]])
    assert crit.skewness == pytest.approx(1.0)
    assert crit.scaling == pytest.approx(0.2)
    assert local_skewness_oracle([[3.0, 4.0]]).skewness == pytest.approx(1.0)


def test_skewness_oracle_identity_and_hand_case():
    assert np.allclose(local_skewness_oracle(np.eye(2)).skewness_vector, 1.0)
    J = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(
        local_skewness_oracle(J).skewness_vector, np.sqrt(2.0), rtol=1e-12
    )


def test_skewness_oracle_agrees_on_random_3x5():
    rng = np.random.default_rng(11)
    for _ in range(50):
        J = rng.uniform(-1.0, 1.0, size=(3, 5))
        svd = oracles.local_skewness_svd(J)
        orc = local_skewness_oracle(J)
        assert np.allclose(svd.skewness_vector, orc.skewness_vector, rtol=1e-8)


def test_scaling_ratio_simple_and_hand_case():
    assert oracles.skewness_as_scaling_ratio(np.eye(2)) == pytest.approx(1.0)
    J = np.array([[1.0, 0.0], [1.0, 1.0]])
    # SE(J) = 1; dropping a row leaves scalings 1/sqrt2 and 1; the larger
    # row-normalized change is sqrt 2, matching the SVD skewness.
    assert oracles.skewness_as_scaling_ratio(J) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert oracles.skewness_as_scaling_ratio(J) == pytest.approx(
        oracles.local_skewness_svd(J).skewness, rel=1e-12
    )


def test_scaling_ratio_identity_random_4x6():
    rng = np.random.default_rng(21)
    for _ in range(50):
        J = rng.uniform(-1.0, 1.0, size=(4, 6))
        assert oracles.skewness_as_scaling_ratio(J) == pytest.approx(
            oracles.local_skewness_svd(J).skewness, rel=1e-8
        )


def test_scaling_ratio_needs_two_rows():
    with pytest.raises(ValueError):
        oracles.skewness_as_scaling_ratio([[1.0, 2.0]])


# --- property suites over random matrices ------------------------------------


def test_property_volume_matches_gram_determinant():
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        J = random_jacobian(rng)
        gram = np.sqrt(max(np.linalg.det(J @ J.T), 0.0))
        assert oracles.parallelepiped_measure(J) == pytest.approx(gram, rel=1e-10)


def test_property_scaling_volume_reciprocity():
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        J = random_jacobian(rng)
        se = oracles.cross_section_measure(J)
        if np.isfinite(se):
            assert se * oracles.parallelepiped_measure(J) == pytest.approx(1.0, rel=1e-10)


def test_property_skewness_lower_bound_and_orthogonality():
    rng = np.random.default_rng(1003)
    for _ in range(300):
        J = random_jacobian(rng)
        crit = oracles.local_skewness_svd(J)
        finite = np.isfinite(crit.skewness_vector)
        assert np.all(crit.skewness_vector[finite] >= 1.0 - 1e-10)
    # Equality holds exactly when a row is orthogonal to all the others.
    J = np.array([[0.0, 0.0, 2.0], [1.0, 1.0, 0.0], [1.0, 2.0, 0.0]])
    vec = oracles.local_skewness_svd(J).skewness_vector
    assert vec[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(vec[1:] > 1.0 + 1e-6)


def test_property_row_scaling_invariance():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        J = random_jacobian(rng)
        if J.shape[0] < 2:
            continue
        D = np.diag(rng.uniform(0.1, 10.0, size=J.shape[0]))
        a = oracles.local_skewness_svd(J).skewness_vector
        b = oracles.local_skewness_svd(D @ J).skewness_vector
        assert np.allclose(a, b, rtol=1e-8)


def test_property_input_rotation_invariance():
    rng = np.random.default_rng(1005)
    for _ in range(100):
        J = random_jacobian(rng)
        n = J.shape[1]
        R, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = oracles.local_skewness_svd(J)
        b = oracles.local_skewness_svd(J @ R)
        assert np.allclose(a.singular_values, b.singular_values, rtol=1e-8, atol=1e-12)
        assert oracles.cross_section_measure(J @ R) == pytest.approx(a.scaling, rel=1e-8)
        assert b.skewness == pytest.approx(a.skewness, rel=1e-8)


def test_property_three_skewness_routes_agree():
    rng = np.random.default_rng(1006)
    for _ in range(300):
        J = random_jacobian(rng)
        svd = oracles.local_skewness_svd(J)
        orc = local_skewness_oracle(J)
        assert np.allclose(svd.skewness_vector, orc.skewness_vector, rtol=1e-8)
        if J.shape[0] >= 2:
            ratio = oracles.skewness_as_scaling_ratio(J)
            assert ratio == pytest.approx(svd.skewness, rel=1e-8)


def test_property_rank_deficiency_hits_both_criteria():
    rng = np.random.default_rng(1007)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m, 9))
        J = rng.uniform(-1.0, 1.0, size=(m, n))
        J[-1] = 2.0 * J[0] - 0.5 * J[1 % (m - 1)]  # force a dependent row
        sigma = oracles.singular_values(J)
        if sigma[-1] <= geo.RANK_TOL_DEFAULT * sigma[0]:
            crit = oracles.local_skewness_svd(J)
            assert oracles.cross_section_measure(J) == np.inf
            assert crit.skewness == np.inf
            assert crit.rank_deficient


# --- the criterion kernel -----------------------------------------------------


def test_batch_kernels_match_pointwise():
    rng = np.random.default_rng(31)
    stack = rng.uniform(-1.0, 1.0, size=(64, 3, 5))
    stack[5] = 0.0  # all-zero matrix
    stack[9, 2] = 3.0 * stack[9, 0]  # dependent row
    scal, skew = geo.ExtensionBase(stack[:, :2]).extend(stack[:, 2:])
    for i in range(stack.shape[0]):
        crit = oracles.local_skewness_svd(stack[i])
        want_scal = 0.0 if np.isinf(crit.scaling) else 1.0 / crit.scaling
        want_skew = 0.0 if np.isinf(crit.skewness) else 1.0 / crit.skewness
        assert scal[i, 0] == pytest.approx(want_scal, rel=1e-10, abs=1e-15)
        assert skew[i, 0] == pytest.approx(want_skew, rel=1e-10, abs=1e-15)


def test_batch_kernels_single_row_maps():
    rng = np.random.default_rng(32)
    stack = rng.uniform(-1.0, 1.0, size=(16, 1, 4))
    stack[3] = 0.0
    scal, skew = geo.ExtensionBase(stack[:, :0]).extend(stack)
    norms = np.linalg.norm(stack[:, 0, :], axis=1)
    assert np.allclose(scal[:, 0], norms)
    assert np.allclose(skew[:, 0], (norms > 0).astype(float))


def test_batch_kernels_reject_bad_shapes():
    with pytest.raises(ValueError):
        geo.ExtensionBase(np.ones((4, 3, 2)))  # m > n
    with pytest.raises(ValueError):
        geo.ExtensionBase(np.ones((4, 2, 2)))  # an extension would have m > n
    with pytest.raises(ValueError):
        geo.ExtensionBase(np.ones((3, 2)))
    with pytest.raises(ValueError):
        geo.ExtensionBase(np.ones((4, 1, 3))).extend(np.ones((4, 3)))


def test_empty_base_scores_a_row_by_its_norm():
    rng = np.random.default_rng(33)
    rows = rng.uniform(-1.0, 1.0, size=(40, 3, 6))
    rows[::7, 1] = 0.0
    scales = np.exp2(rng.integers(-600, 600, size=40))[:, None]
    norms = np.linalg.norm(rows, axis=2) * scales
    scal, skew = geo.ExtensionBase(rows[:, :0]).extend(rows * scales[:, :, None])
    zero = norms == 0.0
    assert zero.sum() == 6
    assert np.all(scal[zero] == 0.0) and np.all(skew[zero] == 0.0)
    assert np.allclose(scal[~zero], norms[~zero], rtol=1e-14, atol=0.0)
    assert np.all(skew[~zero] == 1.0)


@pytest.mark.parametrize("kind", ["zero row", "repeated row"])
def test_rank_deficient_base_scores_zero_with_every_extension(kind):
    rng = np.random.default_rng(34)
    base = rng.uniform(-1.0, 1.0, size=(8, 3, 5))
    if kind == "zero row":
        base[:, 1] = 0.0
    else:
        base[:, 2] = base[:, 0]
    rows = rng.uniform(-1.0, 1.0, size=(8, 4, 5))
    scal, skew = geo.ExtensionBase(base).extend(rows)
    assert np.all(scal == 0.0) and np.all(skew == 0.0)


def condition_bound(J):
    """||J||_F ||J^+||_F from the singular values; inf where one is zero."""
    sigma = np.linalg.svd(J, compute_uv=False)
    with np.errstate(divide="ignore"):
        return np.sqrt(np.sum(sigma**2, axis=-1) * np.sum(1.0 / sigma**2, axis=-1))


def test_svd_runs_only_where_the_condition_bound_fails(monkeypatch):
    rng = np.random.default_rng(35)
    base = rng.uniform(-1.0, 1.0, size=(6, 2, 4))
    base[0, 1] = 0.0  # rank deficient
    base[1, 1] = base[1, 0]  # rank deficient
    base[2, 1] = base[2, 0] + 1e-10 * rng.uniform(-1.0, 1.0, size=4)  # ill-conditioned
    rows = rng.uniform(-1.0, 1.0, size=(6, 3, 4))
    rows[:, 1] = base[:, 0] - base[:, 1] + 1e-10 * rng.uniform(-1.0, 1.0, size=(6, 4))
    rows[:, 2] = base[:, 0] + 0.5 * base[:, 1]  # in the base's row space
    extended = np.concatenate([np.repeat(base[:, None], 3, axis=1), rows[:, :, None]], axis=2)
    limit = geo._cond_limit(geo.RANK_TOL_DEFAULT)
    base_fails = ~(condition_bound(base) < limit)
    pair_fails = ~(condition_bound(extended) < limit)
    pair_fails[:2] = False  # a rank-deficient base scores zero without the SVD
    assert base_fails.tolist() == [True, True, True, False, False, False]
    assert pair_fails.sum(axis=0).tolist() == [1, 4, 4]
    want_scal, want_skew = geo._svd_reciprocals(extended.reshape(-1, 3, 4),
                                                geo.RANK_TOL_DEFAULT)

    shapes, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
    scal, skew = geo.ExtensionBase(base).extend(rows)
    # The SVD formula factors each stack it takes whole, then without each row.
    n_base, n_pairs = int(base_fails.sum()), int(pair_fails.sum())
    assert shapes == [(n_base, 2, 4)] + [(n_base, 1, 4)] * 2 + [(n_pairs, 3, 4)] + [
        (n_pairs, 2, 4)] * 3
    assert np.all(scal[:2] == 0.0) and np.all(skew[:2] == 0.0)
    assert np.array_equal(scal.ravel() == 0.0, want_scal == 0.0)
    assert np.array_equal(skew.ravel() == 0.0, want_skew == 0.0)
    assert np.allclose(scal.ravel(), want_scal, rtol=1e-6, atol=0.0)
    assert np.allclose(skew.ravel(), want_skew, rtol=1e-6, atol=0.0)
