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
from dataclasses import dataclass

import numpy as np

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


def reports_to_csv(path, reports, coordinates=None) -> None:
    """One CSV row per design; optional design coordinates come first.

    ``coordinates`` is an optional (designs, k) array of the geometric
    design coordinates, labelled c0, c1, ...  Float formatting is fixed so
    identical inputs give identical files.
    """
    coords = np.zeros((len(reports), 0)) if coordinates is None else np.asarray(coordinates)
    if coords.shape[0] != len(reports):
        raise ValueError("coordinates and reports must have equal length")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{i}" for i in range(coords.shape[1])] + list(_CSV_FIELDS))
        for rep, coord in zip(reports, coords):
            row = [f"{v:.17g}" for v in coord]
            row.append(rep.design_id)
            row.extend(
                f"{getattr(rep, f):.17g}"
                for f in ("ese_inverse", "esk_inverse", "stderr_ese", "stderr_esk")
            )
            row.extend([str(rep.sample_count), str(rep.infinite_count), rep.hm_measure])
            writer.writerow(row)
