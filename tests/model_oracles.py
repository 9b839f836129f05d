"""Model oracles: element-by-element references for the heat-model
assembly in ``svoed.models``, which tests require to agree exactly, and
small analytic maps whose exact Jacobians are known in closed form."""

import numpy as np
import scipy.sparse

from svoed import models
from svoed.models import _GAUSS_PTS, _RHO_C, ForwardModel
from svoed.sampling import ParameterBox


def source(squared_distance):
    """The heat source at points this squared distance from the centre."""
    return models._SOURCE_AMPLITUDE * np.exp(-squared_distance / models._SOURCE_WIDTH)


def rod_assembly_loop(elements):
    """Dense mass matrix, the two unit-conductivity half-rod stiffness
    matrices (2, P, P) and the load vector of the welded rod, one element
    at a time."""
    nodes = np.linspace(0.0, 1.0, elements + 1)
    size = nodes.size
    h = 1.0 / elements
    mass = np.zeros((size, size))
    stiff = np.zeros((2, size, size))
    load = np.zeros(size)
    m_local = _RHO_C * h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    k_local = 1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
    for e in range(elements):
        idx = [e, e + 1]
        region = 0 if 0.5 * (nodes[e] + nodes[e + 1]) < 0.5 else 1
        mass[np.ix_(idx, idx)] += m_local
        stiff[region][np.ix_(idx, idx)] += k_local
        for t in _GAUSS_PTS:
            x = nodes[e] + t * h
            w = 0.5 * h
            load[e] += w * source((0.5 - x) ** 2) * (1.0 - t)
            load[e + 1] += w * source((0.5 - x) ** 2) * t
    return mass, stiff, load


def plate_assembly_loop(elements):
    """Mass matrix, the nine unit-conductivity region stiffness matrices
    (CSC) and the load vector of the welded plate, one element at a time."""
    n_axis = elements + 1
    size = n_axis * n_axis
    h = 1.0 / elements
    # Bilinear square element, nodes counterclockwise (00, 10, 11, 01).
    k_local = (1.0 / 6.0) * np.array(
        [
            [4.0, -1.0, -2.0, -1.0],
            [-1.0, 4.0, -1.0, -2.0],
            [-2.0, -1.0, 4.0, -1.0],
            [-1.0, -2.0, -1.0, 4.0],
        ]
    )
    m_local = (_RHO_C * h * h / 36.0) * np.array(
        [
            [4.0, 2.0, 1.0, 2.0],
            [2.0, 4.0, 2.0, 1.0],
            [1.0, 2.0, 4.0, 2.0],
            [2.0, 1.0, 2.0, 4.0],
        ]
    )

    n_elems = elements * elements
    rows = np.empty(16 * n_elems, dtype=np.int64)
    cols = np.empty_like(rows)
    mass_vals = np.empty(16 * n_elems)
    stiff_vals = np.empty(16 * n_elems)
    regions = np.empty(n_elems, dtype=np.int64)
    load = np.zeros(size)

    e = 0
    for ey in range(elements):
        for ex in range(elements):
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
                    load[conn] += w * source((0.5 - x) ** 2 + (0.5 - y) ** 2) * shapes
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

    def evaluate_stacked(self, points, with_jacobian=False):
        """Outputs (B, field_size) and their exact (B, field_size, n_params)
        Jacobians, or None, at every row of ``points``."""
        outputs = np.array([self._func(p) for p in points], dtype=float)
        if not with_jacobian:
            return outputs, None
        return outputs, np.array([self._jacobian(p) for p in points], dtype=float)


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
