"""Forward models: welded-rod and welded-plate transient heat conduction.

Both heat models solve

    rho * c * du/dt = div(kappa * grad u) + S,   insulated boundary,
    u = 0 at t = 0,

with a fixed Gaussian source S centred in the domain and a piecewise-constant
conductivity field whose pieces are the uncertain parameters.  The heat
capacity rho * c and the source are the same in every run, so they are
module constants; a model takes only its element count, its time step
count and its final time, the ``model.*`` keys of a run config.
Every model has one entry point, ``evaluate_stacked``, which gives the
nodal temperatures at the final time for a block of parameter points
(``evaluate`` is a block of one); observation "sensors" are mesh nodes,
indexed by position through ``coordinates``.

Discretization: piecewise (bi)linear finite elements on a uniform mesh and
implicit-midpoint time stepping,

    (M + dt/2 K) u_next = (M - dt/2 K) u + dt b.

Material interfaces are aligned with element boundaries, so each element has
a single conductivity and the stiffness matrix splits as
K(lambda) = sum_r lambda_r * K_r with the unit-conductivity region matrices
K_r assembled once per mesh.  Only the factorization of (M + dt/2 K) depends
on lambda; M, K_r and the load vector are shared across evaluations, which
is what makes tens of thousands of solves per design study affordable.

Asked for it, ``evaluate_stacked`` also returns the exact derivative of
the discrete final state with respect to every conductivity
(tangent-linear, or forward sensitivity, time stepping).  Differentiating
the step above by lambda_j gives, for v_j = du/dlambda_j,

    (M + dt/2 K) v_j_next = (M - dt/2 K) v_j - dt/2 K_j (u + u_next),

the same two matrices, so the one factorization per parameter point serves
the state and all n sensitivities.  Each step solves once for u_next and
once for the n sensitivity columns together.

The plate's one factorization per point is SuperLU's sparse LU of
A = M + dt/2 K in symmetric mode: one minimum-degree ordering of the
pattern of A + A^T for rows and columns alike, and diagonal pivots.  A is
symmetric positive definite (M is, each K_r is positive semidefinite and
every lambda_r > 0), so its diagonal pivots are stable without row
interchanges, and the symmetric ordering keeps the factors sparse: about
628k nonzeros at 99 x 99 elements, against 980k under the default column
ordering.

The rod is small (41 nodes by default) and is evaluated thousands of
times per study, so its blocks hold as many parameter points as fit in
``sampling.BLOCK_BYTES``.  Its M and K_r are assembled as bands straight
from the element loop, O(P) floats for P nodes, never as dense matrices.
Its A is a symmetric positive definite tridiagonal matrix, and
``HeatRod1D.evaluate_stacked`` treats a block of B points as one
block-diagonal tridiagonal system of B * P rows, with a zero off-diagonal
entry between two points.  LAPACK's tridiagonal LDL^T (``dpttrf``) factors
it once, ``dpttrs`` solves each step at O(P) cost per column and point,
and B and the couplings K_j w are three-band products.  A zero coupling
leaves each point's factor and solve as if the point were alone, and
``dpttrs`` solves every right-hand column on its own, so a point's result
depends neither on its block nor on the BLAS threads.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from .sampling import BLOCK_BYTES, ModelEvaluationError, ParameterBox

# Inverse-square-root of 3: offsets of the two-point Gauss rule on (0, 1).
_GAUSS_PTS = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))

_BAD_CONDUCTIVITIES = "conductivities must be finite and positive"

# Heat capacity per unit volume, rho * c = 1.5 * 1.5, and the
# amplitude and width of the Gaussian source, of both heat models.
_RHO_C = 2.25
_SOURCE_AMPLITUDE = 50.0
_SOURCE_WIDTH = 0.05


class ForwardModel:
    """Deterministic map from parameters to an observable field.

    Subclasses set ``model_id``, ``n_params``, ``field_size`` and
    ``coordinates`` (one coordinate row per field value) and implement the
    one entry point ``evaluate_stacked(points, with_jacobian) -> (U, J)``:
    at a block of at most ``block_points`` rows of ``points`` (B, n), the
    outputs U (B, field_size) and, with ``with_jacobian``, their exact
    Jacobians J (B, field_size, n), else None.  It may raise
    ``ModelEvaluationError`` naming a row of the block, which
    :func:`sampling.evaluate_samples` turns into the caller's sample.
    Instances are immutable after construction, and a forked worker
    process evaluates the copy it inherits, so no state is shared between
    the solves of distinct blocks.
    """

    model_id: str = "forward-model"
    n_params: int = 0
    field_size: int = 0
    block_points: int = 1
    coordinates: np.ndarray
    parameter_box: ParameterBox

    def evaluate_stacked(self, points, with_jacobian=False):
        raise NotImplementedError

    def evaluate(self, lam) -> np.ndarray:
        """The outputs at one point, as a block of one; ValueError for a
        point of the wrong shape or one the model refuses."""
        try:
            return self.evaluate_stacked(np.atleast_1d(np.asarray(lam, dtype=float))[None])[0][0]
        except ModelEvaluationError as exc:
            raise ValueError(exc.cause) from None

    def nearest_field_index(self, coordinate) -> int:
        """Index of the observable location closest to ``coordinate``; ValueError
        unless it is one finite number per axis, in the coordinates' bounding box."""
        coords = self.coordinates.reshape(self.field_size, -1)
        target = np.atleast_1d(np.asarray(coordinate, dtype=float))
        if target.shape != coords.shape[1:] or not np.all(np.isfinite(target)):
            raise ValueError(f"{coordinate!r}: expected one finite number per coordinate axis, "
                             f"of which the model has {coords.shape[1]}")
        lower, upper = coords.min(axis=0), coords.max(axis=0)
        if np.any((target < lower) | (target > upper)):
            raise ValueError(f"{coordinate!r}: outside the model's domain, "
                             f"{lower.tolist()} to {upper.tolist()}")
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


def _source(squared_distance):
    """The heat source at points this squared distance from the centre."""
    return _SOURCE_AMPLITUDE * np.exp(-squared_distance / _SOURCE_WIDTH)


class _HeatModel(ForwardModel):
    """What both heat models share: the id, the time grid, and a box of
    conductivities in [0.01, 0.2]."""

    def __init__(self, kind, elements, time_steps, t_final, n_params):
        if time_steps < 1 or t_final <= 0:
            raise ValueError("need time_steps >= 1 and t_final > 0")
        self.model_id = f"heat-{kind}-e{elements}-s{time_steps}"
        self.n_params = n_params
        self.time_steps = time_steps
        self.t_final = float(t_final)
        self.dt = self.t_final / time_steps
        self.parameter_box = ParameterBox([0.01] * n_params, [0.2] * n_params)

    def _conductivities(self, points):
        """``points`` as a float (B, n) array.  ValueError for another shape;
        ModelEvaluationError naming the first row whose conductivities are
        not all finite and positive, before any solve."""
        lam = np.asarray(points, dtype=float)
        if lam.ndim != 2 or lam.shape[1] != self.n_params:
            raise ValueError(f"expected points of shape (N, {self.n_params}), got {lam.shape}")
        admissible = np.all(np.isfinite(lam) & (lam > 0.0), axis=1)
        if not admissible.all():
            i = int(np.argmin(admissible))
            raise ModelEvaluationError(i, lam[i], _BAD_CONDUCTIVITIES)
        return lam


class HeatRod1D(_HeatModel):
    """Unit rod welded from two halves, heated at the middle.

    Parameters are the conductivities of the left (x < 0.5) and right
    (x >= 0.5) halves; the element count must be even so a node sits
    exactly on the weld.
    """

    def __init__(self, elements: int = 40, time_steps: int = 20, t_final: float = 1.0):
        if elements < 2 or elements % 2:
            raise ValueError("elements must be even and >= 2 so a node sits on the weld")
        super().__init__("rod-1d", elements, time_steps, t_final, n_params=2)

        nodes = np.linspace(0.0, 1.0, elements + 1)
        self.coordinates = nodes
        self.field_size = nodes.size
        h = 1.0 / elements

        # The (E, 2, 2) load terms (element, Gauss point, node), summed into
        # shared nodes in that order as an element loop would.  The squares
        # use libm's pow, as a scalar ``** 2`` does; an array's multiplies.
        # The temporaries are dropped before the bands, which set the peak.
        t = np.array(_GAUSS_PTS)
        offsets = (0.5 - (nodes[:-1, None] + t * h)).ravel()
        squares = np.fromiter(map(math.pow, offsets, itertools.repeat(2.0)), float, offsets.size)
        terms = (0.5 * h * _source(squares)).reshape(-1, 2, 1) * np.stack([1.0 - t, t], axis=-1)
        del offsets, squares
        node = np.broadcast_to(np.arange(elements)[:, None, None] + np.arange(2), terms.shape)
        self._load = np.zeros(self.field_size)
        np.add.at(self._load, node, terms)
        del terms, node

        m_local = _RHO_C * h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        k_local = 1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
        # The tridiagonal matrices as bands: the diagonal, and the
        # superdiagonal ending in the zero entry that couples a point to the
        # next one in a stacked system.  Element e joins nodes e and e + 1;
        # no node sums more than two element entries, so the order of the
        # sums does not matter.
        self._mass_bands = np.zeros((2, self.field_size))
        self._stiff_bands = np.zeros((2, 2, self.field_size))
        left = np.arange(elements // 2)
        for bands, local, e in ((self._mass_bands, m_local, np.arange(elements)),
                                (self._stiff_bands[0], k_local, left),
                                (self._stiff_bands[1], k_local, left + elements // 2)):
            bands[0, e] += local[0, 0]
            bands[0, e + 1] += local[1, 1]
            bands[1, e] = local[0, 1]

        # Per point, a block holds the bands of dt/2 K, A, B and the factor,
        # the n region bands of the couplings, the state and n sensitivity
        # columns and their step temporaries: about 30 columns of P floats.
        # A block takes as many points as fit in BLOCK_BYTES, so memory stays
        # bounded whatever the point count.
        self.block_points = max(1, BLOCK_BYTES // (32 * nodes.nbytes))

    def evaluate_stacked(self, points, with_jacobian=False):
        """Final temperatures (B, P) at every row of ``points`` (B, 2) and,
        with ``with_jacobian``, their exact (B, P, 2) Jacobians, else None.

        The block is one block-diagonal system of B * P rows whose off band
        is zero between two points, so a point's result is bit-identical to
        its result in a block of one.  It is factored once, and states are
        (B * P, 1) columns so that one three-band product and one ``dpttrs``
        call serve states and (B * P, n) sensitivity blocks alike.
        """
        lam = self._conductivities(points)
        size = lam.shape[0] * self.field_size
        half_dt_K = (0.5 * self.dt) * (lam[:, :, None, None] * self._stiff_bands).sum(axis=1)
        A = (self._mass_bands + half_dt_K).swapaxes(0, 1).reshape(2, size)
        B = (self._mass_bands - half_dt_K).swapaxes(0, 1).reshape(2, size, 1)
        factor_d, factor_e, info = scipy.linalg.lapack.dpttrf(A[0], A[1, :-1])
        if info:
            row = (info - 1) // self.field_size
            raise ModelEvaluationError(row, lam[row],
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


class HeatPlate2D(_HeatModel):
    """Unit plate welded from nine square plates in a 3 x 3 layout.

    Parameters are the nine plate conductivities, numbered row-major from
    the bottom-left plate.  ``elements``, the element count per axis, must
    be a multiple of 3
    so the plate seams align with element boundaries.  Nodes are indexed
    row-major by y then x; ``coordinates`` is (P, 2).
    """

    def __init__(self, elements: int = 30, time_steps: int = 40, t_final: float = 2.0):
        if elements < 3 or elements % 3:
            raise ValueError("elements must be a positive multiple of 3")
        super().__init__("plate-2d", elements, time_steps, t_final, n_params=9)

        n_axis = elements + 1
        axis = np.linspace(0.0, 1.0, n_axis)
        xx, yy = np.meshgrid(axis, axis, indexing="xy")  # row-major by y
        self.coordinates = np.column_stack([xx.ravel(), yy.ravel()])
        self.field_size = n_axis * n_axis
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

        # Element e = ey * elements + ex.  The (E, 16) triplets and the
        # (E, 2, 2, 4) load terms (element, Gauss point, node) are summed into
        # shared nodes in that order, as an element-by-element loop would.
        ey, ex = np.divmod(np.arange(elements ** 2), elements)
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
        terms = (0.25 * h * h * _source((0.5 - x) ** 2 + (0.5 - y) ** 2))[..., None] * shapes
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
        # Built here, not on first use, so forked workers inherit it rather
        # than each building its own.
        self._stiff_stack = scipy.sparse.vstack(self._stiff_regions).tocsr()
        self._load = load

    def evaluate_stacked(self, points, with_jacobian=False):
        """Final temperatures (B, P) at every row of ``points`` (B, 9) and,
        with ``with_jacobian``, their exact (B, P, 9) Jacobians, else None.
        Each point is factored and marched on its own."""
        size, n_params = self.field_size, self.n_params

        def couple(w):
            return (self._stiff_stack @ w).reshape(n_params, size).T

        states, sensitivities = [], []
        for lam in self._conductivities(points):
            K = lam[0] * self._stiff_regions[0]
            for r in range(1, 9):
                K = K + lam[r] * self._stiff_regions[r]
            A = (self._mass + 0.5 * self.dt * K).tocsc()
            B = (self._mass - 0.5 * self.dt * K).tocsr()
            # A is SPD: a symmetric fill-reducing ordering, diagonal pivots.
            lu = scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                          options={"SymmetricMode": True})
            V = np.zeros((size, n_params)) if with_jacobian else None
            u, V = _implicit_midpoint(lu.solve, B.__matmul__, couple, self.dt * self._load, V,
                                      self.time_steps, self.dt)
            states.append(u)
            sensitivities.append(V)
        return np.array(states), np.array(sensitivities) if with_jacobian else None
