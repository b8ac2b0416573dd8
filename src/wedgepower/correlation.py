"""Correlation structure of clustered and longitudinal outcomes.

Maps a marginal description of the outcome (total variance, intracluster
correlation, cluster autocorrelation, subject autocorrelation) to random
effect variance components, gives the covariance a J + b I of a
cluster's cell means, and builds the block compound symmetric
covariance matrix of one cluster.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .distributions import is_real

if TYPE_CHECKING:
    from .designs import CellTable

__all__ = [
    "Family",
    "CorrelationParams",
    "VarianceComponents",
    "derive_components",
    "build_cluster_v",
    "vcorr",
    "MAX_MATRIX_ROWS",
]

# the most rows of a dense covariance; vmatrix prints them in any format in 1 GiB
MAX_MATRIX_ROWS = 2_000


class Family(str, enum.Enum):
    """Measurement structure of a cluster.

    SINGLE: one measurement occasion, one row per subject.
    CROSS_SECTIONAL: several occasions, fresh subjects at each one.
    COHORT: several occasions, the same subjects at each one.
    """

    SINGLE = "single"
    CROSS_SECTIONAL = "cross_sectional"
    COHORT = "cohort"


@dataclass(frozen=True)
class CorrelationParams:
    """Marginal correlation description of the outcome.

    Attributes:
        sigma_y_sq: total variance of a single measurement.
        icc: intracluster correlation, the share of variance attributable
            to clusters; in [0, 1).
        cac: cluster autocorrelation, the share of the cluster-level
            variance that persists across measurement times; in [0, 1].
        sac: subject autocorrelation, the share of the subject-level
            variance that persists across measurement times; in [0, 1].
    """

    sigma_y_sq: float
    icc: float
    cac: float = 0.0
    sac: float = 0.0

    def __post_init__(self) -> None:
        problems = []  # all of them, joined by "; "
        if not (is_real(self.sigma_y_sq) and self.sigma_y_sq > 0):
            problems.append(
                f"sigma_y_sq must be a finite positive number, got {self.sigma_y_sq!r}"
            )
        if not (is_real(self.icc) and 0.0 <= self.icc < 1.0):
            problems.append(f"icc must lie in [0, 1), got {self.icc!r}")
        for name, share in (("cac", self.cac), ("sac", self.sac)):
            if not (is_real(share) and 0.0 <= share <= 1.0):
                problems.append(f"{name} must lie in [0, 1], got {share!r}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class VarianceComponents:
    """Random effect variances that generate the outcome covariance.

    cluster: variance shared by all measurements in a cluster.
    cluster_by_time: variance shared within a cluster at one time only.
    subject: variance shared by all measurements on a subject.
    subject_by_time: variance unique to one measurement on a subject
        (plays the residual role in cohort structures).
    residual: measurement-level variance for structures where no subject
        is measured twice.
    """

    cluster: float
    cluster_by_time: float
    subject: float
    subject_by_time: float
    residual: float

    @property
    def total(self) -> float:
        return (
            self.cluster
            + self.cluster_by_time
            + self.subject
            + self.subject_by_time
            + self.residual
        )

    def cell_variances(self, sizes) -> tuple[np.ndarray, np.ndarray]:
        """a and b of S = a J + b I, the covariance of a cluster's cell means.

        With m = sizes subjects per cell, a = cluster + subject / m and
        b = cluster_by_time + (subject_by_time + residual) / m.

        Raises:
            ValueError: if the subject-level covariance is singular: its
                periods are collinear (b <= 0), or several subjects share
                a cell with no measurement-level variance between them.
        """
        within = self.subject_by_time + self.residual
        b = self.cluster_by_time + within / sizes
        if np.count_nonzero(b <= 0.0) or (within <= 0.0 and np.any(sizes > 1)):
            raise ValueError(
                "cluster covariance is singular; the correlation parameters "
                "leave no measurement-level variation"
            )
        return self.cluster + self.subject / sizes, b


def derive_components(params: CorrelationParams, family: Family) -> VarianceComponents:
    """Split the marginal variance into random effect components.

    The cluster share icc * sigma_y_sq splits into a persistent part
    (weight cac) and a time-specific part; one occasion cannot tell the
    two apart, so the single-occasion family reports the whole share as
    cluster.  Only cohorts measure a subject twice, so only they split
    the subject share (1 - icc) * sigma_y_sq the same way, with weight
    sac, and the other families need sac = 0.

    Args:
        params: marginal correlation description.
        family: measurement structure the components must generate.

    Returns:
        VarianceComponents summing to sigma_y_sq.
    """
    if not isinstance(family, Family):
        raise ValueError(f"unknown family {family!r}")
    single, cohort = family is Family.SINGLE, family is Family.COHORT
    if not cohort and params.sac != 0.0:
        occasions = (
            "for single-measurement structures"
            if single
            else "when no subject is measured twice"
        )
        raise ValueError(f"sac must be 0 {occasions} (got sac={params.sac!r})")
    s2 = params.sigma_y_sq
    cluster_share = params.icc * s2
    subject_share = (1.0 - params.icc) * s2
    # literal zeros, as a product with a -0.0 icc or sac would be -0.0
    cac, sac = params.cac, params.sac
    return VarianceComponents(
        cluster=cluster_share if single else cac * cluster_share,
        cluster_by_time=0.0 if single else (1.0 - cac) * cluster_share,
        subject=sac * subject_share if cohort else 0.0,
        subject_by_time=(1.0 - sac) * subject_share if cohort else 0.0,
        residual=0.0 if cohort else subject_share,
    )


def build_cluster_v(
    cells: "CellTable", comps: VarianceComponents, cluster_index: int = 0
) -> np.ndarray:
    """Covariance matrix of one cluster of a design, in dataset row order.

    Cohort clusters list all periods of subject 1, then subject 2, ...;
    every other cluster lists its fresh subjects period by period.  Two
    measurements share the cluster variance, the cluster-by-time
    variance too when they share a period, and the subject variance when
    they share a subject.  The matrix is the one array built: the
    cluster variance, then its same-period blocks, a cohort's
    same-subject blocks and its diagonal written in place.

    Args:
        cells: the design's cell table; its family, periods and the
            cluster's subjects per cell fix the matrix layout.
        comps: variance components from derive_components.
        cluster_index: which cluster, 0-based in dataset order; sizes
            can differ when the design carries a per-cluster size list.

    Returns:
        The (n_subjects * n_times) square covariance of that cluster.
    """
    n_clusters = cells.n_clusters
    if not (0 <= cluster_index < n_clusters):
        raise ValueError(
            f"cluster_index must lie in [0, {n_clusters - 1}], got {cluster_index}"
        )
    n_subjects = int(cells.m[np.cumsum(cells.count).searchsorted(cluster_index, "right")])
    n_times = cells.exposed.shape[1]
    size = n_subjects * n_times
    if size > MAX_MATRIX_ROWS:
        raise ValueError(
            f"cluster covariance would have {size} rows; limit is {MAX_MATRIX_ROWS}"
        )
    matrix = np.full((size, size), comps.cluster)
    # axes (row subject, row time, column subject, column time) in a
    # cohort, else (row time, row subject, column time, column subject)
    if cells.family is Family.COHORT:
        blocks = matrix.reshape(n_subjects, n_times, n_subjects, n_times)
        same_time = blocks.transpose(1, 3, 0, 2)
        subjects = np.arange(n_subjects)
        blocks.transpose(0, 2, 1, 3)[subjects, subjects] = comps.cluster + comps.subject
    else:
        blocks = matrix.reshape(n_times, n_subjects, n_times, n_subjects)
        same_time = blocks.transpose(0, 2, 1, 3)
    times = np.arange(n_times)
    same_time[times, times] = comps.cluster + comps.cluster_by_time
    np.fill_diagonal(matrix, comps.total)
    return matrix


def vcorr(v: np.ndarray) -> np.ndarray:
    """Correlation matrix corresponding to a covariance matrix."""
    matrix = np.asarray(v, dtype=float)
    diag = np.diag(matrix)
    if np.any(diag <= 0):
        raise ValueError("covariance matrix has nonpositive diagonal entries")
    scale = 1.0 / np.sqrt(diag)
    out = matrix * scale[:, None]
    out *= scale[None, :]
    return out
