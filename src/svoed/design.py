"""Design-space search: exhaustive ranking and greedy sequential selection.

A design space is a (C, m) array of observable-row indices into a shared
field Jacobian batch, one row per candidate design, so an entire space is
priced with array slicing and one batched kernel: no model solves happen
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
from .geometry import RANK_TOL_DEFAULT, ExtensionBase
from .sampling import FieldJacobianBatch, thread_map

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


def _chunks(start: int, stop: int, n_samples: int):
    """Slices of items start..stop, each of at most _CHUNK_MATRICES //
    n_samples items (at least one).

    Chunks bound the memory in flight.  Their boundaries move no bit of a
    result, since the kernel scores each matrix on its own.
    """
    size = max(1, _CHUNK_MATRICES // n_samples)
    return (slice(first, min(first + size, stop)) for first in range(start, stop, size))


def _extension_statistics(batch: FieldJacobianBatch, base: ExtensionBase, head, rows):
    """:func:`criteria.reciprocal_statistics` rows of ``base``, the factored
    field rows ``head``, extended by each field row in ``rows``.  A row of
    the head repeats a base row, so the kernel scores it zero outright."""
    repeats = np.flatnonzero(np.isin(rows, head))
    scal, skew = base.extend(batch.jacobians[:, rows, :], repeats)
    # extend returns transposes of contiguous (C, N) arrays, so each mean
    # sums its samples in the same order whatever the chunk's size.
    return reciprocal_statistics(scal.T, skew.T)


def _candidate_statistics(batch: FieldJacobianBatch, candidates, rank_tol) -> np.ndarray:
    """Per-candidate :func:`criteria.reciprocal_statistics` rows.

    Every design is its first m - 1 rows, its head, extended by its last.
    Consecutive candidates with one head form a run (in
    :func:`pair_space`, row i with every j < i).  Each task is a chunk of
    one run: it factors the head once and extends it by the chunk's last
    rows, so memory is O(candidates), not O(candidates * samples).  The
    tasks run on :func:`sampling.thread_map`'s threads.
    """
    heads, last = candidates[:, :-1], candidates[:, -1]
    starts = np.flatnonzero(np.any(heads[1:] != heads[:-1], axis=1)) + 1
    bounds = [0, *starts.tolist(), len(candidates)]
    stats = np.empty((len(candidates), 5))

    def score(part):
        head = heads[part.start]
        base = ExtensionBase(batch.jacobians[:, head, :], rank_tol)
        stats[part] = _extension_statistics(batch, base, head, last[part])

    thread_map(score, [part for start, stop in zip(bounds, bounds[1:])
                       for part in _chunks(start, stop, batch.count)])
    return stats


@dataclass
class ExhaustiveResult:
    """Every candidate's statistics plus the utility ranking."""

    space: DesignSpace
    reports: np.ndarray  # (C, 5) criteria.STATISTICS rows, aligned with space.candidates
    order: np.ndarray  # candidate indices, best first

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


def exhaustive_oed(
    space: DesignSpace,
    batch: FieldJacobianBatch,
    utility: str = "ese_inverse",
    rank_tol: float = RANK_TOL_DEFAULT,
) -> ExhaustiveResult:
    """Score every candidate design and rank by the chosen utility."""
    if utility not in UTILITIES:
        raise ValueError(f"utility must be one of {UTILITIES}")
    stats = _candidate_statistics(batch, space.candidates, rank_tol)
    order = _rank(stats[:, UTILITIES.index(utility)])
    return ExhaustiveResult(space=space, reports=stats, order=order)


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
        column = min(d, 2) - 1  # the scaling utility in round one, then the skewness
        utility = UTILITIES[column]
        per_candidate = np.zeros(rows.size)
        # More rows than parameters cannot be full rank; skip the kernel.
        if d <= batch.n_params:
            # The selected rows are factored once for the whole round, and
            # every chunk of candidate rows extends that one factor.
            base = ExtensionBase(batch.jacobians[:, selected, :], rank_tol)

            def score(part, base=base, out=per_candidate, column=column):
                out[part] = _extension_statistics(batch, base, selected, rows[part])[:, column]

            thread_map(score, _chunks(0, rows.size, batch.count))
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
