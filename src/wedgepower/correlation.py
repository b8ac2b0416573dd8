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

# guard against accidentally huge dense covariance matrices
MAX_MATRIX_ROWS = 10_000


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
        if np.less_equal(b, 0.0).any() or (within <= 0.0 and np.any(sizes > 1)):
            raise ValueError(
                "cluster covariance is singular; the correlation parameters "
                "leave no measurement-level variation"
            )
        return self.cluster + self.subject / sizes, b


def derive_components(params: CorrelationParams, family: Family) -> VarianceComponents:
    """Split the marginal variance into random effect components.

    The cluster share icc * sigma_y_sq splits into a persistent part
    (weight cac) and a time-specific part; for cohort structures the
    subject share (1 - icc) * sigma_y_sq splits the same way with
    weight sac.

    Args:
        params: marginal correlation description.
        family: measurement structure the components must generate.

    Returns:
        VarianceComponents summing to sigma_y_sq.
    """
    s2 = params.sigma_y_sq
    cluster_share = params.icc * s2
    subject_share = (1.0 - params.icc) * s2

    if family is Family.SINGLE:
        # one occasion: persistent and time-specific cluster variance are
        # indistinguishable, so the whole share is reported as cluster
        if params.sac != 0.0:
            raise ValueError(
                "sac must be 0 for single-measurement structures "
                f"(got sac={params.sac!r})"
            )
        return VarianceComponents(
            cluster=cluster_share,
            cluster_by_time=0.0,
            subject=0.0,
            subject_by_time=0.0,
            residual=subject_share,
        )

    if family is Family.CROSS_SECTIONAL:
        if params.sac != 0.0:
            raise ValueError(
                "sac must be 0 when no subject is measured twice "
                f"(got sac={params.sac!r})"
            )
        return VarianceComponents(
            cluster=params.cac * cluster_share,
            cluster_by_time=(1.0 - params.cac) * cluster_share,
            subject=0.0,
            subject_by_time=0.0,
            residual=subject_share,
        )

    if family is Family.COHORT:
        return VarianceComponents(
            cluster=params.cac * cluster_share,
            cluster_by_time=(1.0 - params.cac) * cluster_share,
            subject=params.sac * subject_share,
            subject_by_time=(1.0 - params.sac) * subject_share,
            residual=0.0,
        )

    raise ValueError(f"unknown family {family!r}")


def build_cluster_v(
    cells: "CellTable", comps: VarianceComponents, cluster_index: int = 0
) -> np.ndarray:
    """Covariance matrix of one cluster of a design, in dataset row order.

    Cohort clusters list all periods of subject 1, then subject 2, ...;
    every other cluster lists its fresh subjects period by period.  Two
    measurements share the cluster variance, the cluster-by-time
    variance too when they share a period, and the subject variance when
    they share a subject.

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
    n_times = cells.time.shape[1]
    size = n_subjects * n_times
    if size > MAX_MATRIX_ROWS:
        raise ValueError(
            f"cluster covariance would have {size} rows; limit is {MAX_MATRIX_ROWS}"
        )
    if cells.family is Family.COHORT:
        subject = np.repeat(np.arange(n_subjects), n_times)
        time = np.tile(np.arange(n_times), n_subjects)
    else:
        # fresh subjects at every time: globally distinct subject labels
        subject = np.arange(size)
        time = np.repeat(np.arange(n_times), n_subjects)

    same_subject = subject[:, None] == subject[None, :]
    same_time = time[:, None] == time[None, :]
    matrix = np.where(
        same_subject & same_time,
        comps.total,
        np.where(
            same_subject,
            comps.cluster + comps.subject,
            np.where(same_time, comps.cluster + comps.cluster_by_time, comps.cluster),
        ),
    )
    return matrix.astype(float, copy=False)


def vcorr(v: np.ndarray) -> np.ndarray:
    """Correlation matrix corresponding to a covariance matrix."""
    matrix = np.asarray(v, dtype=float)
    diag = np.diag(matrix)
    if np.any(diag <= 0):
        raise ValueError("covariance matrix has nonpositive diagonal entries")
    scale = 1.0 / np.sqrt(diag)
    return matrix * scale[:, None] * scale[None, :]
