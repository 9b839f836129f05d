"""Forward models: welded-rod and welded-plate transient heat conduction,
plus analytic synthetic maps used as test fixtures.

Both heat models solve

    rho * c * du/dt = div(kappa * grad u) + S,   insulated boundary,
    u = 0 at t = 0,

with a fixed Gaussian source centred in the domain and a piecewise-constant
conductivity field whose pieces are the uncertain parameters.  ``evaluate``
returns the nodal temperatures at the final time; observation "sensors" are
mesh nodes, indexed by position through ``coordinates``.

Discretization: piecewise (bi)linear finite elements on a uniform mesh and
implicit-midpoint time stepping,

    (M + dt/2 K) u_next = (M - dt/2 K) u + dt b.

Material interfaces are aligned with element boundaries, so each element has
a single conductivity and the stiffness matrix splits as
K(lambda) = sum_r lambda_r * K_r with the unit-conductivity region matrices
K_r assembled once per mesh.  Only the factorization of (M + dt/2 K) depends
on lambda; M, K_r and the load vector are shared across evaluations, which
is what makes tens of thousands of solves per design study affordable.

``evaluate_with_jacobian`` also returns the exact derivative of the discrete
final state with respect to every conductivity (tangent-linear, or forward
sensitivity, time stepping).  Differentiating the step above by lambda_j
gives, for v_j = du/dlambda_j,

    (M + dt/2 K) v_j_next = (M - dt/2 K) v_j - dt/2 K_j (u + u_next),

the same two matrices, so the one factorization per parameter point serves
the state and all n sensitivities.  Each step solves once for u_next and
once for the n sensitivity columns together.

The plate's one factorization per sample is SuperLU's sparse LU of
A = M + dt/2 K in symmetric mode: one minimum-degree ordering of the
pattern of A + A^T for rows and columns alike, and diagonal pivots.  A is
symmetric positive definite (M is, each K_r is positive semidefinite and
every lambda_r > 0), so its diagonal pivots are stable without row
interchanges, and the symmetric ordering keeps the factors sparse: about
628k nonzeros at 99 x 99 elements, against 980k under the default column
ordering.

The rod is small (41 nodes by default) and is evaluated thousands of
times per study, so it marches many parameter points at once.  Its A is a
symmetric positive definite tridiagonal matrix, and
``HeatRod1D.evaluate_stacked`` treats a chunk of C points as one
block-diagonal tridiagonal system of C * P rows, with a zero off-diagonal
entry between two points.  LAPACK's tridiagonal LDL^T (``dpttrf``) factors
it once, ``dpttrs`` solves each step at O(P) cost per column and point,
and B and the couplings K_j w are three-band products.  A zero coupling
leaves each point's factor and solve as if the point were alone, and
``dpttrs`` solves every right-hand column on its own, so a point's result
depends neither on its chunk nor on the BLAS threads; ``evaluate`` is a
chunk of one.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from .sampling import ModelEvaluationError, ParameterBox

# Inverse-square-root of 3: offsets of the two-point Gauss rule on (0, 1).
_GAUSS_PTS = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))

# Bytes of rod bands and columns held per chunk: a chunk takes as many
# points as fit, so memory stays bounded whatever the point count.
_STACK_BYTES = 1 << 22

_BAD_CONDUCTIVITIES = "conductivities must be finite and positive"


class ForwardModel:
    """Deterministic map from parameters to an observable field.

    Subclasses set ``model_id``, ``n_params``, ``field_size`` and
    ``coordinates`` (one coordinate row per field value) and implement
    ``evaluate``.  A subclass that can differentiate itself also defines
    ``evaluate_with_jacobian(lam) -> (u, J)`` with J of shape
    (field_size, n_params); a field-Jacobian batch needs it (or
    ``evaluate_stacked``).  A subclass that can march many points at once
    also defines ``evaluate_stacked(points, with_jacobian) -> (U, J)``,
    U (N, field_size) and J (N, field_size, n_params) or None, raising
    ``ModelEvaluationError`` with the row of the first inadmissible point;
    :func:`sampling.evaluate_samples` then calls it once for all samples.
    Instances are immutable after construction and safe to evaluate
    concurrently at distinct parameter points.
    """

    model_id: str = "forward-model"
    n_params: int = 0
    field_size: int = 0
    coordinates: np.ndarray
    parameter_box: ParameterBox

    def evaluate(self, lam) -> np.ndarray:
        raise NotImplementedError

    def nearest_field_index(self, coordinate) -> int:
        """Index of the observable location closest to ``coordinate``;
        ValueError unless it has one finite number per coordinate axis."""
        coords = self.coordinates.reshape(self.field_size, -1)
        target = np.atleast_1d(np.asarray(coordinate, dtype=float))
        if target.shape != coords.shape[1:] or not np.all(np.isfinite(target)):
            raise ValueError(f"{coordinate!r}: expected one finite number per coordinate axis, "
                             f"of which the model has {coords.shape[1]}")
        return int(np.argmin(np.linalg.norm(coords - target, axis=1)))


def _implicit_midpoint(solve, apply_B, couple, forcing, V, time_steps, dt):
    """March (M + dt/2 K) u_next = B u + forcing from u = 0.

    ``solve`` applies the inverse of M + dt/2 K, ``apply_B`` applies
    B = M - dt/2 K, and ``couple(w)`` gives the block whose column j is
    K_j w, for the region matrices K_j.  ``V`` is the zero initial
    sensitivity block, or None to march the state alone.  Returns the
    final state and its derivative with respect to the conductivities
    (None without ``V``).  The state arithmetic does not depend on ``V``,
    so both calls return bit-identical states.
    """
    u = np.zeros_like(forcing)
    for _ in range(time_steps):
        u_next = solve(apply_B(u) + forcing)
        if V is not None:
            rhs = apply_B(V)
            rhs -= (0.5 * dt) * couple(u + u_next)
            V = solve(rhs)
        u = u_next
    return u, V


def _three_band_product(diag, upper, w):
    """The symmetric tridiagonal matrix with diagonal ``diag`` and
    superdiagonal ``upper`` applied to the columns of ``w``; both bands
    broadcast against the rows of ``w``."""
    out = diag * w
    out[1:] += upper * w[:-1]
    out[:-1] += upper * w[1:]
    return out


def _check_conductivities(lam, n_params):
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (n_params,):
        raise ValueError(f"expected {n_params} conductivities, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
        raise ValueError(_BAD_CONDUCTIVITIES)
    return lam


class HeatRod1D(ForwardModel):
    """Unit rod welded from two halves, heated at the middle.

    Parameters are the conductivities of the left (x < 0.5) and right
    (x >= 0.5) halves; the element count must be even so a node sits
    exactly on the weld.
    """

    def __init__(
        self,
        elements: int = 40,
        time_steps: int = 20,
        t_final: float = 1.0,
        density: float = 1.5,
        heat_capacity: float = 1.5,
        source_amplitude: float = 50.0,
        source_width: float = 0.05,
    ):
        if elements < 2 or elements % 2:
            raise ValueError("elements must be even and >= 2 so a node sits on the weld")
        if time_steps < 1 or t_final <= 0:
            raise ValueError("need time_steps >= 1 and t_final > 0")
        if density <= 0 or heat_capacity <= 0:
            raise ValueError("density and heat capacity must be positive")

        self.model_id = f"heat-rod-1d-e{elements}-s{time_steps}"
        self.n_params = 2
        self.time_steps = time_steps
        self.t_final = float(t_final)
        self.dt = self.t_final / time_steps
        self.parameter_box = ParameterBox([0.01, 0.01], [0.2, 0.2])

        nodes = np.linspace(0.0, 1.0, elements + 1)
        self.coordinates = nodes
        self.field_size = nodes.size
        h = 1.0 / elements

        rho_c = density * heat_capacity
        mass = np.zeros((self.field_size, self.field_size))
        stiff = [np.zeros_like(mass), np.zeros_like(mass)]
        load = np.zeros(self.field_size)

        m_local = rho_c * h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        k_local = 1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])

        def source(x):
            return source_amplitude * np.exp(-((0.5 - x) ** 2) / source_width)

        for e in range(elements):
            idx = [e, e + 1]
            region = 0 if 0.5 * (nodes[e] + nodes[e + 1]) < 0.5 else 1
            mass[np.ix_(idx, idx)] += m_local
            stiff[region][np.ix_(idx, idx)] += k_local
            for t in _GAUSS_PTS:
                x = nodes[e] + t * h
                w = 0.5 * h
                load[e] += w * source(x) * (1.0 - t)
                load[e + 1] += w * source(x) * t

        self._mass = mass
        self._stiff_regions = np.array(stiff)
        self._load = load

        def bands(matrix):
            # Diagonal, and superdiagonal ending in the zero entry that
            # couples a point to the next one in a stacked system.
            return np.stack([np.diagonal(matrix), np.append(np.diagonal(matrix, 1), 0.0)])

        self._mass_bands = bands(mass)
        self._stiff_bands = np.stack([bands(K_r) for K_r in stiff])
        # Per point, a chunk holds the bands of dt/2 K, A, B and the factor,
        # the n region bands of the couplings, the state and n sensitivity
        # columns and their step temporaries: about 30 columns of P floats.
        point_bytes = 32 * nodes.nbytes
        self._chunk = max(1, _STACK_BYTES // point_bytes)

    def evaluate(self, lam) -> np.ndarray:
        return self._march(_check_conductivities(lam, self.n_params)[None], False)[0][0]

    def evaluate_with_jacobian(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """Final temperatures and their exact (P, 2) conductivity Jacobian."""
        u, J = self._march(_check_conductivities(lam, self.n_params)[None], True)
        return u[0], J[0]

    def evaluate_stacked(self, points, with_jacobian=False):
        """Final temperatures (N, P) at every row of ``points`` (N, 2) and,
        with ``with_jacobian``, their exact (N, P, 2) Jacobians, else None.

        Points are marched in chunks of a fixed size, set by a byte budget;
        a point's result is bit-identical to its ``evaluate_with_jacobian``.
        The first point with a conductivity that is not finite and positive
        raises ModelEvaluationError naming its row, before any solve.
        """
        lam = np.asarray(points, dtype=float)
        if lam.ndim != 2 or lam.shape[1] != self.n_params:
            raise ValueError(f"expected points of shape (N, {self.n_params}), got {lam.shape}")
        admissible = np.all(np.isfinite(lam) & (lam > 0.0), axis=1)
        if not admissible.all():
            i = int(np.argmin(admissible))
            raise ModelEvaluationError(i, lam[i], _BAD_CONDUCTIVITIES)
        outputs = np.empty((lam.shape[0], self.field_size))
        jacobians = np.empty(outputs.shape + (self.n_params,)) if with_jacobian else None
        for start in range(0, lam.shape[0], self._chunk):
            part = slice(start, start + self._chunk)
            outputs[part], J = self._march(lam[part], with_jacobian, start)
            if with_jacobian:
                jacobians[part] = J
        return outputs, jacobians

    def _march(self, lam, with_jacobian, first=0):
        """March a chunk of admissible conductivities (C, 2) at once; row c
        is sample ``first + c`` of the caller's points.

        The chunk is one block-diagonal system of C * P rows whose off band
        is zero between two points.  It is factored once, and states are
        (C * P, 1) columns so that one three-band product and one ``dpttrs``
        call serve states and (C * P, n) sensitivity blocks alike.
        """
        size = lam.shape[0] * self.field_size
        half_dt_K = (0.5 * self.dt) * (lam[:, :, None, None] * self._stiff_bands).sum(axis=1)
        A = (self._mass_bands + half_dt_K).swapaxes(0, 1).reshape(2, size)
        B = (self._mass_bands - half_dt_K).swapaxes(0, 1).reshape(2, size, 1)
        factor_d, factor_e, info = scipy.linalg.lapack.dpttrf(A[0], A[1, :-1])
        if info:
            row = (info - 1) // self.field_size
            raise ModelEvaluationError(first + row, lam[row],
                                       f"M + dt/2 K is not positive definite (dpttrf info {info})")

        def solve(rhs):
            return scipy.linalg.lapack.dpttrs(factor_d, factor_e, rhs)[0]

        def apply_B(w):
            return _three_band_product(B[0], B[1, :-1], w)

        V = couple = None
        if with_jacobian:
            K = np.tile(self._stiff_bands.transpose(1, 2, 0), (1, lam.shape[0], 1))
            V = np.zeros((size, self.n_params))

            def couple(w):
                return _three_band_product(K[0], K[1, :-1], w)

        forcing = np.tile(self.dt * self._load, lam.shape[0])[:, None]
        u, V = _implicit_midpoint(solve, apply_B, couple, forcing, V, self.time_steps, self.dt)
        return (u.reshape(-1, self.field_size),
                None if V is None else V.reshape(-1, self.field_size, self.n_params))


class HeatPlate2D(ForwardModel):
    """Unit plate welded from nine square plates in a 3 x 3 layout.

    Parameters are the nine plate conductivities, numbered row-major from
    the bottom-left plate.  ``elements_per_axis`` must be a multiple of 3
    so the plate seams align with element boundaries.  Nodes are indexed
    row-major by y then x; ``coordinates`` is (P, 2).
    """

    def __init__(
        self,
        elements_per_axis: int = 30,
        time_steps: int = 40,
        t_final: float = 2.0,
        density: float = 1.5,
        heat_capacity: float = 1.5,
        source_amplitude: float = 50.0,
        source_width: float = 0.05,
    ):
        if elements_per_axis < 3 or elements_per_axis % 3:
            raise ValueError("elements_per_axis must be a positive multiple of 3")
        if time_steps < 1 or t_final <= 0:
            raise ValueError("need time_steps >= 1 and t_final > 0")
        if density <= 0 or heat_capacity <= 0:
            raise ValueError("density and heat capacity must be positive")

        self.model_id = f"heat-plate-2d-e{elements_per_axis}-s{time_steps}"
        self.n_params = 9
        self.time_steps = time_steps
        self.t_final = float(t_final)
        self.dt = self.t_final / time_steps
        self.parameter_box = ParameterBox([0.01] * 9, [0.2] * 9)

        n_axis = elements_per_axis + 1
        axis = np.linspace(0.0, 1.0, n_axis)
        xx, yy = np.meshgrid(axis, axis, indexing="xy")  # row-major by y
        self.coordinates = np.column_stack([xx.ravel(), yy.ravel()])
        self.field_size = n_axis * n_axis
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

        # Element e = ey * elements_per_axis + ex.  The (E, 16) triplets and
        # the (E, 2, 2, 4) load terms (element, Gauss point, node) are summed
        # into shared nodes in that order, as an element-by-element loop would.
        ey, ex = np.divmod(np.arange(elements_per_axis ** 2), elements_per_axis)
        n00 = ey * n_axis + ex
        conn = np.column_stack([n00, n00 + 1, n00 + n_axis + 1, n00 + n_axis])
        rows = np.repeat(conn, 4, axis=1).ravel()
        cols = np.tile(conn, (1, 4)).ravel()
        col, row = np.minimum(2, (3 * ((np.stack([ex, ey]) + 0.5) * h)).astype(int))
        regions = 3 * row + col

        ta, tb = np.meshgrid(_GAUSS_PTS, _GAUSS_PTS, indexing="ij", sparse=True)
        x = ex[:, None, None] * h + ta * h
        y = ey[:, None, None] * h + tb * h
        shapes = np.stack([(1 - ta) * (1 - tb), ta * (1 - tb), ta * tb, (1 - ta) * tb], axis=-1)
        terms = (0.25 * h * h * source(x, y))[..., None] * shapes
        load = np.zeros(self.field_size)
        np.add.at(load, np.broadcast_to(conn[:, None, None, :], terms.shape), terms)

        shape = (self.field_size, self.field_size)
        mass_vals = np.tile(m_local.ravel(), regions.size)
        stiff_vals = np.tile(k_local.ravel(), regions.size)
        self._mass = scipy.sparse.coo_matrix((mass_vals, (rows, cols)), shape=shape).tocsc()
        self._stiff_regions = []
        for r in range(9):
            mask = np.repeat(regions == r, 16)
            K_r = scipy.sparse.coo_matrix(
                (stiff_vals[mask], (rows[mask], cols[mask])), shape=shape
            ).tocsc()
            self._stiff_regions.append(K_r)
        # Built here, not on first use: instances are shared by worker threads.
        self._stiff_stack = scipy.sparse.vstack(self._stiff_regions).tocsr()
        self._load = load

    def evaluate(self, lam) -> np.ndarray:
        return self._march(lam, with_jacobian=False)[0]

    def evaluate_with_jacobian(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """Final temperatures and their exact (P, 9) conductivity Jacobian."""
        return self._march(lam, with_jacobian=True)

    def _march(self, lam, with_jacobian):
        lam = _check_conductivities(lam, self.n_params)
        K = lam[0] * self._stiff_regions[0]
        for r in range(1, 9):
            K = K + lam[r] * self._stiff_regions[r]
        A = (self._mass + 0.5 * self.dt * K).tocsc()
        B = (self._mass - 0.5 * self.dt * K).tocsr()
        # A is SPD: a symmetric fill-reducing ordering, diagonal pivots.
        lu = scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
        size, n_params = self.field_size, self.n_params
        V = np.zeros((size, n_params)) if with_jacobian else None

        def couple(w):
            return (self._stiff_stack @ w).reshape(n_params, size).T

        return _implicit_midpoint(lu.solve, B.__matmul__, couple, self.dt * self._load, V,
                                  self.time_steps, self.dt)


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


def synthetic_maps() -> dict:
    """Catalog of named analytic models usable from run configs."""
    return {
        "identity2": identity_model(2),
        "identity3": identity_model(3),
        "quadratic": quadratic_model(),
        "anisotropic": linear_model(np.diag([2.0, 4.0]), model_id="anisotropic"),
        "shear": linear_model([[1.0, 0.0], [1.0, 1.0]], model_id="shear"),
        "rotated-anisotropic": rotated_linear_model(np.pi / 6.0, np.diag([2.0, 4.0])),
    }
