"""Heat-model physics sanity and the analytic oracle maps."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import geometry_oracles
import model_oracles
from svoed import models, sampling

CENTER_1D = 20  # node at x = 0.5 on the default 41-node mesh


@pytest.fixture(scope="module")
def rod():
    return models.HeatRod1D()


def total_heat(mass, u):
    """Discrete heat content: the integral of rho c u."""
    return float(np.sum(mass @ u))


def heat_supplied(model):
    """The source integral times the elapsed time."""
    return model.time_steps * model.dt * float(np.sum(model._load))


# --- 1-D rod --------------------------------------------------------------------


def test_rod_zero_source_stays_cold(monkeypatch):
    monkeypatch.setattr(models, "_SOURCE_AMPLITUDE", 0.0)
    silent = models.HeatRod1D()
    assert np.allclose(silent.evaluate([0.05, 0.05]), 0.0)


def test_rod_low_conductivity_peaks_at_center(rod):
    u = rod.evaluate([0.01, 0.01])
    assert np.argmax(u) == CENTER_1D
    assert u[CENTER_1D] > 10.0 * u[0]
    assert u[CENTER_1D] > 10.0 * u[-1]


def test_rod_high_vs_low_conductivity_contrast(rod):
    # High conductivity spreads the heat: the center cools to roughly 60% of
    # its low-conductivity value while the insulated endpoints end up an
    # order of magnitude hotter.
    u_low = rod.evaluate([0.01, 0.01])
    u_high = rod.evaluate([0.2, 0.2])
    center_ratio = u_high[CENTER_1D] / u_low[CENTER_1D]
    assert 0.45 <= center_ratio <= 0.7
    for end in (0, -1):
        end_ratio = u_high[end] / u_low[end]
        assert 8.0 <= end_ratio <= 15.0


def test_rod_mixed_conductivity_asymmetry(rod):
    u = rod.evaluate([0.01, 0.2])
    # Heat escapes to the right: the right endpoint runs much hotter.
    assert u[-1] > 5.0 * u[0]


def test_rod_temperature_variation_dips_near_030_and_070(rod):
    box = rod.parameter_box
    axes = np.linspace(box.lower, box.upper, 13).T
    lam_grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    fields = np.array([rod.evaluate(p) for p in lam_grid])
    spread = fields.max(axis=0) - fields.min(axis=0)
    interior_minima = [
        k for k in range(1, rod.field_size - 1)
        if spread[k] <= spread[k - 1] and spread[k] <= spread[k + 1]
    ]
    xs = rod.coordinates[interior_minima]
    assert np.any(np.abs(xs - 0.3) <= 0.05)
    assert np.any(np.abs(xs - 0.7) <= 0.05)


def test_rod_discrete_heat_balance(rod):
    # With insulated ends, total heat grows by dt * (source integral) per
    # step, exactly, because the stiffness matrix annihilates constants.
    lam = [0.07, 0.14]
    u = rod.evaluate(lam)
    mass, _, _ = model_oracles.rod_assembly_loop(rod.field_size - 1)
    assert total_heat(mass, u) == pytest.approx(heat_supplied(rod), rel=1e-10)


def test_rod_bounded_sensitivity_to_conductivity(rod):
    base = rod.evaluate([0.05, 0.05])
    bumped = rod.evaluate([0.05 + 1e-5, 0.05])
    assert np.abs(bumped - base).max() < 1.0


def test_rod_rejects_bad_parameters(rod):
    with pytest.raises(ValueError):
        rod.evaluate([0.05])
    with pytest.raises(ValueError):
        rod.evaluate([0.05, -0.01])
    with pytest.raises(ValueError):
        models.HeatRod1D(elements=41)  # no node on the weld


@pytest.mark.parametrize("elements", [2, 10, 40, 400])
def test_rod_assembly_equals_the_element_loop(elements):
    rod = models.HeatRod1D(elements=elements)
    mass, stiff, load = model_oracles.rod_assembly_loop(elements)

    def bands(matrix):
        return np.stack([np.diagonal(matrix), np.append(np.diagonal(matrix, 1), 0.0)])

    assert np.array_equal(rod._mass_bands, bands(mass))
    assert np.array_equal(rod._stiff_bands, np.stack([bands(K_r) for K_r in stiff]))
    assert np.array_equal(rod._load, load)


def test_rod_build_holds_no_dense_matrix():
    # Dense 2001 x 2001 mass and stiffness matrices would take 96 MB; the
    # bands take 64 kB.
    tracemalloc.start()
    try:
        models.HeatRod1D(elements=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- 2-D plate ------------------------------------------------------------------


def test_plate_zero_source_stays_cold(monkeypatch):
    monkeypatch.setattr(models, "_SOURCE_AMPLITUDE", 0.0)
    silent = models.HeatPlate2D(elements=6)
    assert np.allclose(silent.evaluate([0.05] * 9), 0.0)


def test_plate_symmetry_with_uniform_conductivity():
    plate = models.HeatPlate2D(elements=12)
    n = 13
    u = plate.evaluate([0.08] * 9).reshape(n, n)
    assert np.abs(u - u.T).max() < 1e-8          # x <-> y
    assert np.abs(u - u[::-1, :]).max() < 1e-8   # y-flip
    assert np.abs(u - u[:, ::-1]).max() < 1e-8   # x-flip


def test_plate_self_convergence_under_refinement():
    # No closed-form solution; compare the center temperature across three
    # nested meshes and require at least order 1.5 on a log-log fit.
    lam = [0.05, 0.12, 0.03, 0.18, 0.08, 0.02, 0.15, 0.06, 0.11]
    centers = []
    for elems in (12, 24, 48):
        plate = models.HeatPlate2D(elements=elems)
        u = plate.evaluate(lam)
        centers.append(u[plate.nearest_field_index([0.5, 0.5])])
    e1 = abs(centers[0] - centers[1])
    e2 = abs(centers[1] - centers[2])
    order = np.log2(e1 / e2)
    assert order >= 1.5
    assert e2 < e1


def test_plate_heat_balance():
    plate = models.HeatPlate2D(elements=9, time_steps=10)
    u = plate.evaluate([0.05] * 9)
    assert total_heat(plate._mass, u) == pytest.approx(heat_supplied(plate), rel=1e-10)


def test_plate_regions_align_with_seams():
    # A node inside one plate couples only through that plate's stiffness.
    plate = models.HeatPlate2D(elements=6)
    for point, region in (([0.0, 0.0], 0), ([0.5, 0.5], 4), ([1.0, 1.0], 8), ([1.0, 0.0], 2)):
        node = plate.nearest_field_index(point)
        coupled = [r for r, K in enumerate(plate._stiff_regions) if K[node, node] != 0.0]
        assert coupled == [region]
    with pytest.raises(ValueError):
        models.HeatPlate2D(elements=10)  # seams off the element grid


def test_plate_heating_strongest_at_center():
    plate = models.HeatPlate2D(elements=12)
    u = plate.evaluate([0.03] * 9)
    assert np.argmax(u) == plate.nearest_field_index([0.5, 0.5])


@pytest.mark.parametrize("elements", [3, 6, 9, 30])
def test_plate_assembly_equals_the_element_loop(elements):
    plate = models.HeatPlate2D(elements=elements)
    mass, stiff, load = model_oracles.plate_assembly_loop(elements)
    assert np.array_equal(plate._mass.toarray(), mass.toarray())
    assert len(plate._stiff_regions) == len(stiff) == 9
    for K_r, ref in zip(plate._stiff_regions, stiff):
        assert np.array_equal(K_r.toarray(), ref.toarray())
    assert np.array_equal(plate._load, load)


# --- tangent-linear Jacobians ---------------------------------------------------


def small_models():
    return [models.HeatRod1D(), models.HeatPlate2D(elements=6, time_steps=5)]


def sample_point(model, seed):
    box = model.parameter_box
    return np.random.default_rng(seed).uniform(box.lower, box.upper)


def exact_jacobian(model, lam):
    """Output and Jacobian at ``lam``, by the route every field batch takes."""
    u, J = sampling.evaluate_samples(model, lam[None], with_jacobian=True)
    return u[0], J[0]


def column_errors(J, ref):
    return np.linalg.norm(J - ref, axis=0) / np.linalg.norm(ref, axis=0)


@pytest.mark.parametrize("model", small_models(), ids=["rod", "plate-e6"])
def test_exact_jacobian_outputs_equal_evaluate(model):
    for seed in range(3):
        lam = sample_point(model, seed)
        u, J = exact_jacobian(model, lam)
        assert np.array_equal(u, model.evaluate(lam))
        assert J.shape == (model.field_size, model.n_params)


@pytest.mark.parametrize("model", small_models(), ids=["rod", "plate-e6"])
def test_exact_jacobian_matches_central_differences(model):
    lam = sample_point(model, 7)
    _, J = exact_jacobian(model, lam)
    h = 1e-5
    ref = np.empty_like(J)
    for j in range(model.n_params):
        up, down = lam.copy(), lam.copy()
        up[j] += h
        down[j] -= h
        ref[:, j] = (model.evaluate(up) - model.evaluate(down)) / (2.0 * h)
    assert column_errors(J, ref).max() <= 1e-6


@pytest.mark.parametrize("model", small_models(), ids=["rod", "plate-e6"])
def test_forward_differences_converge_to_exact_jacobian_at_first_order(model):
    lam = sample_point(model, 8)
    u, J = exact_jacobian(model, lam)
    steps = [1e-3, 1e-4, 1e-5]
    errors = []
    for h in steps:
        fd = np.empty_like(J)
        for j in range(model.n_params):
            bumped = lam.copy()
            bumped[j] += h
            fd[:, j] = (model.evaluate(bumped) - u) / h
        errors.append(column_errors(fd, J).max())
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert 0.9 <= slope <= 1.1
    assert errors[0] > errors[1] > errors[2]


def default_ordering_reference(plate, lam):
    """The plate march factored by SuperLU's default column ordering with
    partial pivoting; per step one state solve and one block solve."""
    K = sum(lam_r * K_r for lam_r, K_r in zip(lam, plate._stiff_regions))
    A = (plate._mass + 0.5 * plate.dt * K).tocsc()
    B = plate._mass - 0.5 * plate.dt * K
    lu = scipy.sparse.linalg.splu(A)
    u = np.zeros(plate.field_size)
    V = np.zeros((plate.field_size, plate.n_params))
    for _ in range(plate.time_steps):
        u_next = lu.solve(B @ u + plate.dt * plate._load)
        coupling = np.column_stack([K_j @ (u + u_next) for K_j in plate._stiff_regions])
        V = lu.solve(B @ V - 0.5 * plate.dt * coupling)
        u = u_next
    return u, V


@pytest.mark.parametrize("elements", [6, 12])
def test_plate_factorization_agrees_with_the_default_ordering(elements):
    plate = models.HeatPlate2D(elements=elements)
    box = plate.parameter_box
    alternating = np.where(np.arange(9) % 2, box.upper, box.lower)
    points = [box.lower, box.upper, alternating, box.midpoint, sample_point(plate, 4)]
    for lam in points:
        u, J = plate.evaluate_with_jacobian(lam)
        u_ref, J_ref = default_ordering_reference(plate, lam)
        assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
        assert column_errors(J, J_ref).max() <= 1e-12


# --- stacked rod march ----------------------------------------------------------


def cho_reference(rod, lam):
    """The rod's former march on the dense matrices of the element loop:
    one Cholesky factorization per point, then per step one solve for the
    state and one for both sensitivities."""
    mass, stiff, _ = model_oracles.rod_assembly_loop(rod.field_size - 1)
    K = lam[0] * stiff[0] + lam[1] * stiff[1]
    A = mass + 0.5 * rod.dt * K
    B = mass - 0.5 * rod.dt * K
    factor = scipy.linalg.cho_factor(A)
    u = np.zeros(rod.field_size)
    V = np.zeros((rod.field_size, 2))
    for _ in range(rod.time_steps):
        u_next = scipy.linalg.cho_solve(factor, B @ u + rod.dt * rod._load)
        coupling = np.column_stack([K_j @ (u + u_next) for K_j in stiff])
        V = scipy.linalg.cho_solve(factor, B @ V - 0.5 * rod.dt * coupling)
        u = u_next
    return u, V


@pytest.fixture(scope="module")
def rod_points(rod):
    box = rod.parameter_box
    return np.random.default_rng(5).uniform(box.lower, box.upper, size=(20, 2))


def test_rod_stack_is_bit_identical_across_chunk_sizes(rod, rod_points):
    # The box corners, the softest and the stiffest rod, share one chunk but at size 1.
    box = rod.parameter_box
    points = np.vstack([box.lower, box.upper, rod_points])
    assert rod._chunk >= len(points)  # one chunk of N
    U, J = rod.evaluate_stacked(points, with_jacobian=True)
    for size in (1, 7):
        chunked = models.HeatRod1D()
        chunked._chunk = size
        U_c, J_c = chunked.evaluate_stacked(points, with_jacobian=True)
        assert np.array_equal(U_c, U)
        assert np.array_equal(J_c, J)
    plain, none = rod.evaluate_stacked(points)
    assert none is None
    assert np.array_equal(plain, U)
    for lam, u, jac in zip(points, U, J):
        assert np.array_equal(rod.evaluate(lam), u)
        u_1, jac_1 = rod.evaluate_stacked(lam[None], True)
        assert np.array_equal(u_1[0], u)
        assert np.array_equal(jac_1[0], jac)


def test_rod_stack_agrees_with_the_cholesky_march(rod, rod_points):
    U, J = rod.evaluate_stacked(rod_points, with_jacobian=True)
    for lam, u, jac in zip(rod_points, U, J):
        u_ref, jac_ref = cho_reference(rod, lam)
        assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
        assert column_errors(jac, jac_ref).max() <= 1e-12


def test_rod_stack_memory_is_bounded_by_the_chunk_budget(rod):
    points = np.random.default_rng(6).uniform(rod.parameter_box.lower,
                                              rod.parameter_box.upper, size=(5000, 2))
    output_bytes = points.shape[0] * rod.field_size * (1 + rod.n_params) * 8
    tracemalloc.start()
    try:
        rod.evaluate_stacked(points, with_jacobian=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= output_bytes + 2 * sampling.BLOCK_BYTES


def test_rod_march_refuses_a_system_that_is_not_positive_definite(rod):
    # Admissible conductivities always give an SPD system; a negative one,
    # past the admissibility check, gives a negative pivot in the second point.
    lam = np.array([[0.1, 0.1], [-50.0, 0.1], [0.1, 0.1]])
    with pytest.raises(sampling.ModelEvaluationError, match="not positive definite") as err:
        rod._march(lam, False, first=10)
    assert err.value.sample_index == 11
    assert np.array_equal(err.value.parameters, lam[1])


def test_rod_stack_names_the_first_inadmissible_point(rod, rod_points):
    points = rod_points.copy()
    points[11, 1] = -0.01
    points[15, 0] = np.nan
    with pytest.raises(sampling.ModelEvaluationError, match="finite and positive") as err:
        rod.evaluate_stacked(points, with_jacobian=True)
    assert err.value.sample_index == 11
    assert np.array_equal(err.value.parameters, points[11])
    with pytest.raises(ValueError):
        rod.evaluate_stacked(points[:, :1])


# --- analytic oracle maps -------------------------------------------------------


def test_quadratic_jacobian_by_hand():
    quad = model_oracles.quadratic_model()
    assert np.allclose(quad.evaluate_with_jacobian([1.0, 1.0])[1], [[2.0, 0.0], [1.0, 1.0]])
    assert np.allclose(quad.evaluate([2.0, 3.0]), [4.0, 6.0])


def test_linear_model_jacobian_is_matrix():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    lin = model_oracles.linear_model(A)
    assert np.allclose(lin.evaluate_with_jacobian([0.3, 0.7])[1], A)
    assert np.allclose(lin.evaluate([1.0, 1.0]), A.sum(axis=1))


def test_rotation_family_leaves_criteria_unchanged():
    A = np.diag([2.0, 4.0])
    base = geometry_oracles.local_skewness_svd(A)
    for theta in (0.3, 1.1, 2.7):
        # Rotating the outputs preserves singular values, hence scaling.
        _, J_out = model_oracles.rotated_linear_model(theta, A).evaluate_with_jacobian([0.0, 0.0])
        assert np.allclose(geometry_oracles.singular_values(J_out), base.singular_values)
        assert geometry_oracles.cross_section_measure(J_out) == pytest.approx(
            base.scaling, rel=1e-10)
        # Rotating the inputs additionally preserves the row geometry, so
        # the skewness is unchanged too.
        J_in = A @ model_oracles.rotation_matrix(theta)
        crit = geometry_oracles.local_skewness_svd(J_in)
        assert crit.skewness == pytest.approx(base.skewness, rel=1e-10)
        assert geometry_oracles.cross_section_measure(J_in) == pytest.approx(
            base.scaling, rel=1e-10)
