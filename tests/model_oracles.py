"""Model oracles: an element-by-element reference for the vectorized plate
assembly in ``svoed.models.HeatPlate2D``, which tests require to agree
exactly, and small analytic maps whose exact Jacobians are known in closed
form."""

import numpy as np
import scipy.sparse

from svoed.models import _GAUSS_PTS, ForwardModel
from svoed.sampling import ParameterBox


def plate_assembly_loop(elements_per_axis, density=1.5, heat_capacity=1.5,
                        source_amplitude=50.0, source_width=0.05):
    """Mass matrix, the nine unit-conductivity region stiffness matrices
    (CSC) and the load vector of the welded plate, one element at a time."""
    n_axis = elements_per_axis + 1
    size = n_axis * n_axis
    h = 1.0 / elements_per_axis
    rho_c = density * heat_capacity
    # Bilinear square element, nodes counterclockwise (00, 10, 11, 01).
    k_local = (1.0 / 6.0) * np.array(
        [
            [4.0, -1.0, -2.0, -1.0],
            [-1.0, 4.0, -1.0, -2.0],
            [-2.0, -1.0, 4.0, -1.0],
            [-1.0, -2.0, -1.0, 4.0],
        ]
    )
    m_local = (rho_c * h * h / 36.0) * np.array(
        [
            [4.0, 2.0, 1.0, 2.0],
            [2.0, 4.0, 2.0, 1.0],
            [1.0, 2.0, 4.0, 2.0],
            [2.0, 1.0, 2.0, 4.0],
        ]
    )

    def source(x, y):
        return source_amplitude * np.exp(-((0.5 - x) ** 2 + (0.5 - y) ** 2) / source_width)

    n_elems = elements_per_axis * elements_per_axis
    rows = np.empty(16 * n_elems, dtype=np.int64)
    cols = np.empty_like(rows)
    mass_vals = np.empty(16 * n_elems)
    stiff_vals = np.empty(16 * n_elems)
    regions = np.empty(n_elems, dtype=np.int64)
    load = np.zeros(size)

    e = 0
    for ey in range(elements_per_axis):
        for ex in range(elements_per_axis):
            n00 = ey * n_axis + ex
            conn = np.array([n00, n00 + 1, n00 + n_axis + 1, n00 + n_axis])
            xc = (ex + 0.5) * h
            yc = (ey + 0.5) * h
            regions[e] = 3 * min(2, int(3 * yc)) + min(2, int(3 * xc))
            sl = slice(16 * e, 16 * (e + 1))
            rows[sl] = np.repeat(conn, 4)
            cols[sl] = np.tile(conn, 4)
            mass_vals[sl] = m_local.ravel()
            stiff_vals[sl] = k_local.ravel()
            for ta in _GAUSS_PTS:
                for tb in _GAUSS_PTS:
                    x = ex * h + ta * h
                    y = ey * h + tb * h
                    w = 0.25 * h * h
                    shapes = np.array(
                        [(1 - ta) * (1 - tb), ta * (1 - tb), ta * tb, (1 - ta) * tb]
                    )
                    load[conn] += w * source(x, y) * shapes
            e += 1

    shape = (size, size)
    mass = scipy.sparse.coo_matrix((mass_vals, (rows, cols)), shape=shape).tocsc()
    stiff = []
    for r in range(9):
        mask = np.repeat(regions == r, 16)
        stiff.append(scipy.sparse.coo_matrix(
            (stiff_vals[mask], (rows[mask], cols[mask])), shape=shape
        ).tocsc())
    return mass, stiff, load


class SyntheticModel(ForwardModel):
    """Analytic map carrying its exact Jacobian, for oracle tests."""

    def __init__(self, model_id, n_params, func, jacobian, box=None):
        self.model_id = model_id
        self.n_params = n_params
        self._func = func
        self._jacobian = jacobian
        self.parameter_box = box or ParameterBox([0.0] * n_params, [1.0] * n_params)
        probe = np.asarray(func(self.parameter_box.midpoint), dtype=float)
        self.field_size = probe.size
        self.coordinates = np.arange(self.field_size, dtype=float)

    def evaluate(self, lam) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if lam.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {lam.shape}")
        return np.asarray(self._func(lam), dtype=float)

    def evaluate_with_jacobian(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """Output and its exact (field_size, n_params) Jacobian."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        return self.evaluate(lam), np.asarray(self._jacobian(lam), dtype=float)


def linear_model(matrix, model_id: str = "linear", box=None) -> SyntheticModel:
    """Q(lam) = A lam; the Jacobian is A everywhere."""
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    return SyntheticModel(model_id, A.shape[1], lambda lam: A @ lam, lambda lam: A, box=box)


def identity_model(n: int = 2, box=None) -> SyntheticModel:
    return linear_model(np.eye(n), model_id=f"identity{n}", box=box)


def quadratic_model() -> SyntheticModel:
    """Q(lam) = (lam1^2, lam1 * lam2) with Jacobian [[2 lam1, 0], [lam2, lam1]]."""

    def func(lam):
        return np.array([lam[0] ** 2, lam[0] * lam[1]])

    def jac(lam):
        return np.array([[2.0 * lam[0], 0.0], [lam[1], lam[0]]])

    return SyntheticModel("quadratic", 2, func, jac, box=ParameterBox([0.5, 0.5], [2.0, 2.0]))


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotated_linear_model(theta: float, matrix, model_id: str | None = None) -> SyntheticModel:
    """Q(lam) = R(theta) A lam; criteria should not depend on theta."""
    A = rotation_matrix(theta) @ np.atleast_2d(np.asarray(matrix, dtype=float))
    return linear_model(A, model_id=model_id or f"rotated-linear-{theta:.3f}")
