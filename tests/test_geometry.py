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


# --- batched kernels ----------------------------------------------------------


def test_batch_kernels_match_pointwise():
    rng = np.random.default_rng(31)
    stack = rng.uniform(-1.0, 1.0, size=(64, 3, 5))
    stack[5] = 0.0  # all-zero matrix
    stack[9, 2] = 3.0 * stack[9, 0]  # dependent row
    scal, skew = geo.batch_reciprocals(stack)
    for i in range(stack.shape[0]):
        crit = oracles.local_skewness_svd(stack[i])
        want_scal = 0.0 if np.isinf(crit.scaling) else 1.0 / crit.scaling
        want_skew = 0.0 if np.isinf(crit.skewness) else 1.0 / crit.skewness
        assert scal[i] == pytest.approx(want_scal, rel=1e-10, abs=1e-15)
        assert skew[i] == pytest.approx(want_skew, rel=1e-10, abs=1e-15)


def test_batch_kernels_single_row_maps():
    rng = np.random.default_rng(32)
    stack = rng.uniform(-1.0, 1.0, size=(16, 1, 4))
    stack[3] = 0.0
    scal, skew = geo.batch_reciprocals(stack)
    norms = np.linalg.norm(stack[:, 0, :], axis=1)
    assert np.allclose(scal, norms)
    assert np.allclose(skew, (norms > 0).astype(float))


def test_batch_kernels_reject_bad_shapes():
    with pytest.raises(ValueError):
        geo.batch_reciprocals(np.ones((4, 3, 2)))  # m > n
    with pytest.raises(ValueError):
        geo.batch_reciprocals(np.ones((3, 2)))
