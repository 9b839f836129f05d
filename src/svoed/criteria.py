"""Monte Carlo design criteria: expected scaling and skewness utilities.

Both global criteria are harmonic means of the local quantities over the
parameter space, which damps the +inf contributions of rank-deficient
samples.  What gets *reported* is the utility form, i.e. the reciprocal of
the harmonic mean, because the reciprocal of a harmonic mean is just the
plain mean of reciprocals: it is always finite, it is what a design search
maximizes, and each rank-deficient sample simply contributes zero.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import RANK_TOL_DEFAULT, batch_reciprocals
from .sampling import JacobianBatch

logger = logging.getLogger(__name__)

HM_MEASURES = ("volume", "initial")


@dataclass
class CriterionReport:
    """Per-design Monte Carlo utilities with their sampling uncertainty.

    ``ese_inverse`` is the mean reciprocal local scaling (>= 0, unbounded
    above); ``esk_inverse`` is the mean reciprocal local skewness, which
    lives in [0, 1] because pointwise skewness is never below one.
    ``infinite_count`` is how many samples were rank deficient and scored
    +inf locally (contributing zero to both means).  ``hm_measure`` records
    which sampling measure the averages were taken under.
    """

    design_id: str
    ese_inverse: float
    esk_inverse: float
    stderr_ese: float
    stderr_esk: float
    sample_count: int
    infinite_count: int
    hm_measure: str = "volume"


def reciprocal_statistics(scaling: np.ndarray, skewness: np.ndarray) -> np.ndarray:
    """Reduce (C, N) per-sample reciprocals to per-design statistics.

    Row c of the (C, 5) result holds, for design c over its N samples: the
    mean 1/SE, the mean 1/SK, their standard errors (ddof=1; zero for a
    single sample) and the number of rank-deficient samples (1/SE == 0),
    in the order :func:`reports_from_statistics` reads them.
    """
    n = scaling.shape[1]
    stats = np.zeros((scaling.shape[0], 5))
    stats[:, 0] = scaling.mean(axis=1)
    stats[:, 1] = skewness.mean(axis=1)
    if n > 1:
        stats[:, 2] = scaling.std(axis=1, ddof=1) / np.sqrt(n)
        stats[:, 3] = skewness.std(axis=1, ddof=1) / np.sqrt(n)
    stats[:, 4] = np.count_nonzero(scaling == 0.0, axis=1)
    return stats


def reports_from_statistics(
    design_ids, stats: np.ndarray, sample_count: int, hm_measure: str = "volume"
) -> list[CriterionReport]:
    """One report per design from :func:`reciprocal_statistics` rows."""
    return [
        CriterionReport(design_id, ese, esk, se_ese, se_esk, sample_count, int(zeros), hm_measure)
        for design_id, (ese, esk, se_ese, se_esk, zeros) in zip(design_ids, stats.tolist())
    ]


def expected_criteria(
    batch: JacobianBatch,
    rank_tol: float = RANK_TOL_DEFAULT,
    design_id: str | None = None,
    hm_measure: str = "volume",
) -> CriterionReport:
    """Monte Carlo estimate of both utilities for one candidate design.

    Samples whose matrices contain non-finite entries cannot be scored;
    they are dropped from the averages and counted (and logged) rather
    than aborting the reduction.
    """
    if hm_measure not in HM_MEASURES:
        raise ValueError(f"hm_measure must be one of {HM_MEASURES}")
    matrices = np.asarray(batch.matrices, dtype=float)
    finite = np.all(np.isfinite(matrices), axis=(1, 2))
    excluded = int(np.sum(~finite))
    if excluded:
        logger.warning("excluding %d samples with non-finite Jacobians", excluded)
        matrices = matrices[finite]
    if matrices.shape[0] == 0:
        raise ValueError("no finite samples to average over")
    scal, skew = batch_reciprocals(matrices, rank_tol=rank_tol)
    if design_id is None:
        design_id = "-".join(str(r) for r in batch.row_indices)
    stats = reciprocal_statistics(scal[None, :], skew[None, :])
    return reports_from_statistics([design_id], stats, scal.size, hm_measure)[0]


_CSV_FIELDS = (
    "design_id",
    "ese_inverse",
    "esk_inverse",
    "stderr_ese",
    "stderr_esk",
    "sample_count",
    "infinite_count",
    "hm_measure",
)


def reports_to_csv(path, reports, coordinates=None, coordinate_labels=None) -> None:
    """One CSV row per design; optional design coordinates come first.

    ``coordinates`` is an optional sequence (one row per report) of the
    geometric design coordinates, labelled ``coordinate_labels`` or c0, c1,
    ...  Float formatting is fixed so identical inputs give identical files.
    """
    coord_rows = None
    labels: list[str] = []
    if coordinates is not None:
        coord_rows = [np.atleast_1d(np.asarray(c, dtype=float)) for c in coordinates]
        if len(coord_rows) != len(reports):
            raise ValueError("coordinates and reports must have equal length")
        width = coord_rows[0].size
        labels = list(coordinate_labels or (f"c{i}" for i in range(width)))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(labels) + list(_CSV_FIELDS))
        for i, rep in enumerate(reports):
            row = []
            if coord_rows is not None:
                row.extend(f"{v:.17g}" for v in coord_rows[i])
            row.append(rep.design_id)
            row.extend(
                f"{getattr(rep, f):.17g}"
                for f in ("ese_inverse", "esk_inverse", "stderr_ese", "stderr_esk")
            )
            row.extend([str(rep.sample_count), str(rep.infinite_count), rep.hm_measure])
            writer.writerow(row)


def reports_to_json(path, reports) -> None:
    with open(path, "w") as fh:
        json.dump([asdict(rep) for rep in reports], fh, indent=1)
        fh.write("\n")
