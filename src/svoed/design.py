"""Design-space search: exhaustive ranking and greedy sequential selection.

A design space is a (C, m) array of observable-row indices into a shared
field Jacobian batch, one row per candidate design, so an entire space is
priced with array slicing and batched QR kernels: no model solves happen
here.

The greedy algorithm builds an m-component design one component per round.
The first component maximizes the expected-scaling utility over all scalar
candidates; every later round maximizes the expected-skewness utility of
the current design extended by one more scalar candidate, which rewards the
candidate adding the most non-redundant information.  It stops after m
rounds, or early when no candidate clears the skewness-utility tolerance.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .criteria import STATISTICS, reciprocal_statistics
from .geometry import RANK_TOL_DEFAULT, batch_extension_skewness, batch_reciprocals
from .sampling import FieldJacobianBatch

# The utilities a search can maximize: the first two statistics columns.
UTILITIES = STATISTICS[:2]

# Matrices per kernel call in the vectorized sweeps: a chunk holds
# about this many // N candidates, so peak memory stays near
# _CHUNK_MATRICES * m * n floats whatever the sample count.
_CHUNK_MATRICES = 1 << 14


@dataclass
class DesignSpace:
    """Candidate designs as a (C, m) array of observable-row indices.

    Row c holds the m field rows that design c observes.  ``coordinates``
    optionally carries the model's coordinates, one per field row (a
    vector, or one row per field value), for reporting.
    """

    candidates: np.ndarray
    coordinates: np.ndarray | None = None

    def __post_init__(self):
        self.candidates = np.asarray(self.candidates, dtype=np.int64)
        if self.candidates.ndim != 2 or self.candidates.size == 0:
            raise ValueError("need a non-empty (candidates, arity) index array")
        if self.coordinates is not None:
            self.coordinates = np.asarray(self.coordinates, dtype=float)

    def __len__(self) -> int:
        return self.candidates.shape[0]

    @property
    def arity(self) -> int:
        return self.candidates.shape[1]

    @property
    def index_geometry(self) -> np.ndarray | None:
        """(C, m * d) coordinates of each candidate's rows, or None."""
        if self.coordinates is None:
            return None
        return self.coordinates[self.candidates].reshape(len(self), -1)


def scalar_space(field_size: int, coordinates=None) -> DesignSpace:
    """All single-row designs over a field of ``field_size`` observables."""
    return DesignSpace(np.arange(field_size)[:, None], coordinates)


def pair_space(field_size: int, coordinates=None) -> DesignSpace:
    """All unordered pairs of distinct observables, canonicalized (i > j).

    Ordered pairs would score identically (swapping the two rows permutes
    the matrix rows, which changes no singular value), and the diagonal
    duplicates a row, so only the strict lower triangle is enumerated, row
    by row: field_size * (field_size - 1) / 2 candidates.
    """
    return DesignSpace(np.column_stack(np.tril_indices(field_size, -1)), coordinates)


def _chunks(n_items: int, n_samples: int):
    """Slices of at most _CHUNK_MATRICES // n_samples items (at least one)."""
    size = max(1, _CHUNK_MATRICES // n_samples)
    return (slice(start, start + size) for start in range(0, n_items, size))


def _candidate_statistics(batch: FieldJacobianBatch, candidates, rank_tol) -> np.ndarray:
    """Per-candidate :func:`criteria.reciprocal_statistics` rows.

    Each chunk of candidates is scored in one kernel call and reduced at
    once, so memory is O(candidates), not O(candidates * samples).
    """
    n_cand, arity = candidates.shape
    stats = np.empty((n_cand, 5))
    for part in _chunks(n_cand, batch.count):
        block = candidates[part]
        # (N, C, m, n) -> (C, N, m, n) so each candidate is contiguous.
        stack = batch.jacobians[:, block, :].transpose(1, 0, 2, 3)
        scal, skew = batch_reciprocals(stack.reshape(-1, arity, batch.n_params), rank_tol)
        shape = (block.shape[0], batch.count)
        stats[part] = reciprocal_statistics(scal.reshape(shape), skew.reshape(shape))
    return stats


@dataclass
class ExhaustiveResult:
    """Every candidate's statistics plus the utility ranking."""

    space: DesignSpace
    reports: np.ndarray  # (C, 5) criteria.STATISTICS rows, aligned with space.candidates
    order: np.ndarray  # candidate indices, best first
    utility: str

    @property
    def best_index(self) -> int:
        return int(self.order[0])

    @property
    def best_candidate(self) -> tuple[int, ...]:
        return tuple(self.space.candidates[self.best_index].tolist())


def _rank(values: np.ndarray) -> np.ndarray:
    # Descending by value; ties go to the lowest candidate index, which a
    # stable sort on the negated values provides.
    return np.argsort(-values, kind="stable")


def rank_designs(space: DesignSpace, stats: np.ndarray,
                 utility: str = "ese_inverse") -> ExhaustiveResult:
    """Rank the (C, 5) statistics rows of ``space`` by the chosen utility."""
    if utility not in UTILITIES:
        raise ValueError(f"utility must be one of {UTILITIES}")
    order = _rank(stats[:, UTILITIES.index(utility)])
    return ExhaustiveResult(space=space, reports=stats, order=order, utility=utility)


def exhaustive_oed(
    space: DesignSpace,
    batch: FieldJacobianBatch,
    utility: str = "ese_inverse",
    rank_tol: float = RANK_TOL_DEFAULT,
) -> ExhaustiveResult:
    """Score every candidate design and rank by the chosen utility."""
    return rank_designs(space, _candidate_statistics(batch, space.candidates, rank_tol),
                        utility)


_NEIGHBOR_OFFSETS = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                          if (di, dj) != (0, 0))


def local_maxima(grid) -> list[tuple[int, int]]:
    """Grid cells at least as large as every defined neighbor of the eight.

    NaN cells are treated as undefined: they are never reported and never
    suppress a neighbor.  On a constant field every defined cell qualifies
    (degenerate but consistent).  Results are sorted by value, descending;
    equal values keep row-major order.
    """
    G = np.asarray(grid, dtype=float)
    if G.ndim != 2:
        raise ValueError("expected a 2-D score grid")
    ni, nj = G.shape
    # A NaN border: comparisons with NaN are false, so it suppresses nothing.
    padded = np.pad(G, 1, constant_values=np.nan)
    peak = ~np.isnan(G)
    for di, dj in _NEIGHBOR_OFFSETS:
        peak &= ~(padded[1 + di : 1 + di + ni, 1 + dj : 1 + dj + nj] > G)
    found = np.argwhere(peak)
    order = np.argsort(-G[peak], kind="stable")
    return [(int(i), int(j)) for i, j in found[order]]


def pair_score_grid(space: DesignSpace, values, size: int) -> np.ndarray:
    """Symmetric (size, size) grid of pair-design scores, NaN where undefined.

    Mirrors each unordered pair across the diagonal; the diagonal itself
    (duplicated observables) stays NaN unless a candidate defines it.  A
    cell that several candidates set keeps the last candidate's value.
    """
    if space.arity != 2:
        raise ValueError("pair_score_grid needs an arity-2 design space")
    values = np.asarray(values, dtype=float)
    if values.shape != (len(space),):
        raise ValueError(f"need one value per candidate, got shape {values.shape}")
    pairs = space.candidates
    grid = np.full((size, size), np.nan)
    # Interleave (i, j) and (j, i) so later candidates overwrite both cells.
    grid[pairs.ravel(), pairs[:, ::-1].ravel()] = np.repeat(values, 2)
    return grid


@dataclass
class GreedyRound:
    """One round of the greedy search over the scalar candidate pool."""

    round_index: int  # 1-based dimension d of the candidate designs
    utility: str  # which utility was maximized this round
    scores: np.ndarray  # one score per scalar candidate
    chosen: int  # argmax candidate index (ties: lowest index)
    chosen_utility: float
    adopted: bool = True  # False for a final round that fell below tol


@dataclass
class GreedyTrace:
    rounds: list[GreedyRound] = field(default_factory=list)
    selected: tuple[int, ...] = ()
    stop_reason: str = ""
    tol: float = 0.0


def _extension_means(batch: FieldJacobianBatch, selected, rows, rank_tol) -> np.ndarray:
    """Mean 1/SK over samples of ``selected + (p,)`` for every row p.

    The selected rows are factored once per sample per chunk of candidate
    rows; each candidate is then a rank-one extension of that factor.
    """
    base = batch.jacobians[:, list(selected), :]
    means = np.empty(rows.size)
    for part in _chunks(rows.size, batch.count):
        skew = batch_extension_skewness(base, batch.jacobians[:, rows[part], :], rank_tol)
        means[part] = skew.mean(axis=0)
    return means


def greedy_oed(
    space: DesignSpace,
    batch: FieldJacobianBatch,
    m_target: int,
    tol: float = 1e-3,
    rank_tol: float = RANK_TOL_DEFAULT,
) -> GreedyTrace:
    """Greedy component-by-component design over a scalar candidate pool.

    The candidate pool is the full scalar space every round; already-chosen
    rows need not be removed because re-adding one duplicates a row and
    scores exactly zero.  A round whose best skewness utility falls below
    ``tol`` is recorded for inspection but its component is not adopted:
    nothing on offer adds enough non-redundant information.
    """
    if space.arity != 1:
        raise ValueError("greedy_oed needs a scalar (arity-1) design space")
    if m_target < 1:
        raise ValueError("m_target must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if m_target > batch.n_params:
        warnings.warn(
            f"m_target={m_target} exceeds the parameter dimension {batch.n_params}; "
            "every design beyond that dimension is rank deficient, so the run "
            "will stop early on the tolerance",
            stacklevel=2,
        )

    rows = space.candidates[:, 0]
    trace = GreedyTrace(tol=tol)
    selected: list[int] = []

    for d in range(1, m_target + 1):
        if d == 1:
            per_candidate = _candidate_statistics(batch, space.candidates, rank_tol)[:, 0]
            utility = "ese_inverse"
        elif d > batch.n_params:
            # More rows than parameters cannot be full rank; skip the kernels.
            per_candidate = np.zeros(rows.size)
            utility = "esk_inverse"
        else:
            per_candidate = _extension_means(batch, selected, rows, rank_tol)
            utility = "esk_inverse"
        best = int(_rank(per_candidate)[0])
        best_value = float(per_candidate[best])

        adopt = d == 1 or best_value >= tol
        trace.rounds.append(
            GreedyRound(
                round_index=d,
                utility=utility,
                scores=per_candidate,
                chosen=best,
                chosen_utility=best_value,
                adopted=adopt,
            )
        )
        if not adopt:
            trace.stop_reason = "below_tol"
            break
        selected.append(int(rows[best]))
        if d == m_target:
            trace.stop_reason = "reached_m"

    trace.selected = tuple(selected)
    return trace


def trace_to_json(trace: GreedyTrace, path, coordinates=None) -> None:
    """Full greedy record: per-round score tables, choices, stop cause.

    ``coordinates`` optionally maps scalar-candidate indices to geometric
    positions so the trace is plottable without the originating batch.
    """
    doc = {
        "schema_version": 1,
        "tol": trace.tol,
        "stop_reason": trace.stop_reason,
        "selected": list(trace.selected),
        "rounds": [
            {
                "round": r.round_index,
                "utility": r.utility,
                "chosen": r.chosen,
                "chosen_utility": r.chosen_utility,
                "adopted": r.adopted,
                "scores": [float(s) for s in r.scores],
            }
            for r in trace.rounds
        ],
    }
    if coordinates is not None:
        doc["candidate_coordinates"] = np.asarray(coordinates, dtype=float).tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
