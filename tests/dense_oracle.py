"""Subject-level GLS and sampling: the dense reference for the cell routes.

The engine fits, and the Monte Carlo check draws, cell means of cluster
patterns, and the package builds the exemplary dataset from the same
cluster-by-period cell table.  This module keeps the direct routes they
replaced: emit the exemplary dataset one row per measurement in a branch
per design kind, build its design matrix, solve each cluster's full
covariance block against [X y], take the denominator degrees of freedom
from ranks of the subject-level design matrix, and project subject-level
draws through each cluster's dense Cholesky factor.  Each block is
filled entry by entry from the subject and time labels of the cluster's
dataset rows, and the row extents are counted from the dataset's
cluster ids, apart from the package's builder.  The design columns,
their flags, the tested column and each kind's cluster-level
measurement family are spelled out here per kind, apart from the
package's cell table, and so is the table the package built before
it kept runs of clusters: every cluster listed, then regrouped into
distinct patterns.  The (K, T, p) design array of a cell table, which
the package stopped building when its wedge fit began to read the
exposure alone, is built here from the table's times, groups and
exposure, with the information it gives.  The dataset's CSV and table text are
also written here one row at a time, as the package's column-wise
writers must reproduce them.  Tests compare the routes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from wedgepower import correlation, designs
from wedgepower.correlation import CorrelationParams, Family, VarianceComponents
from wedgepower.designs import CSV_HEADER, DesignKind, DesignSpec, ExemplaryDataset
from wedgepower.engine import DDF_POLICIES

# relative tolerance for the exemplary-mean reproduction check
FIT_RTOL = 1e-8

POST_ONLY = (DesignKind.RCT_POST, DesignKind.CRT_POST)
PREPOST = (
    DesignKind.RCT_PREPOST,
    DesignKind.CRT_PREPOST_XSEC,
    DesignKind.CRT_PREPOST_COHORT,
)
RCT_KINDS = (DesignKind.RCT_POST, DesignKind.RCT_PREPOST)
ARM_CLUSTER_KINDS = (
    DesignKind.CRT_POST,
    DesignKind.CRT_PREPOST_XSEC,
    DesignKind.CRT_PREPOST_COHORT,
)
SWD_KINDS = (DesignKind.SWD_XSEC, DesignKind.SWD_COHORT)

# the ddf policy each kind gets by default
DEFAULT_DDF_POLICY = {
    DesignKind.RCT_POST: "residual",
    DesignKind.CRT_POST: "containment",
    DesignKind.RCT_PREPOST: "residual",
    DesignKind.CRT_PREPOST_XSEC: "between_within",
    DesignKind.CRT_PREPOST_COHORT: "between_within",
    DesignKind.SWD_XSEC: "between_within",
    DesignKind.SWD_COHORT: "between_within",
}

# the closed-form design effect of each kind with a common cluster size
# (a cohort wedge needs exactly three measurement times)
DESIGN_EFFECT_FORMULA = {
    DesignKind.RCT_POST: "unclustered",
    DesignKind.CRT_POST: "simple",
    DesignKind.RCT_PREPOST: "unclustered",
    DesignKind.CRT_PREPOST_XSEC: "ancova_prepost",
    DesignKind.CRT_PREPOST_COHORT: "ancova_prepost",
    DesignKind.SWD_XSEC: "stepped_wedge",
    DesignKind.SWD_COHORT: "three_measurement",
}

# the cells a kind's cell_means must map: (arm, time), or (phase, 0)
MEAN_KEYS = {
    DesignKind.RCT_POST: [(1, 1), (2, 1)],
    DesignKind.CRT_POST: [(1, 1), (2, 1)],
    DesignKind.RCT_PREPOST: [(1, 1), (1, 2), (2, 1), (2, 2)],
    DesignKind.CRT_PREPOST_XSEC: [(1, 1), (1, 2), (2, 1), (2, 2)],
    DesignKind.CRT_PREPOST_COHORT: [(1, 1), (1, 2), (2, 1), (2, 2)],
    DesignKind.SWD_XSEC: [(0, 0), (1, 0)],
    DesignKind.SWD_COHORT: [(0, 0), (1, 0)],
}

# how one cluster is measured: individually randomized subjects are
# clusters measured once, rct_prepost's second-period subjects included
FAMILY = {
    DesignKind.RCT_POST: Family.SINGLE,
    DesignKind.CRT_POST: Family.SINGLE,
    DesignKind.RCT_PREPOST: Family.SINGLE,
    DesignKind.CRT_PREPOST_XSEC: Family.CROSS_SECTIONAL,
    DesignKind.CRT_PREPOST_COHORT: Family.COHORT,
    DesignKind.SWD_XSEC: Family.CROSS_SECTIONAL,
    DesignKind.SWD_COHORT: Family.COHORT,
}


def period_count(spec: DesignSpec) -> int:
    """Measurement times of the design: one or two, or b + k t for a wedge."""
    if spec.kind in POST_ONLY:
        return 1
    if spec.kind in PREPOST:
        return 2
    return spec.baseline_b + spec.steps_k * spec.per_step_t


def times(spec: DesignSpec) -> range:
    """Measurement times 1..period_count."""
    return range(1, period_count(spec) + 1)


def switch_threshold(spec: DesignSpec, step: int) -> int:
    """Last control time of the clusters that switch at the given step (1-based)."""
    return spec.baseline_b + (step - 1) * spec.per_step_t


def columns(spec: DesignSpec) -> list[tuple[str, bool, bool]]:
    """(name, cluster_constant, involves_cluster_constant) of each design column."""
    if spec.kind in POST_ONLY:
        return [("intercept", True, True), ("treated", True, True)]
    if spec.kind in PREPOST:
        return [
            ("intercept", True, True),
            ("treated", True, True),
            ("post", False, False),
            ("treated_post", False, True),
        ]
    periods = [(f"time_{t}", False, False) for t in times(spec)[1:]]
    return [("intercept", True, True), *periods, ("intervene", False, False)]


def contrast_column(spec: DesignSpec) -> int:
    """Index of the design column that the primary hypothesis tests."""
    if spec.kind in POST_ONLY:
        target = "treated"
    elif spec.kind in PREPOST:
        target = "treated_post"
    else:
        target = "intervene"
    return [name for name, _, _ in columns(spec)].index(target)


def reference_dataset(spec: DesignSpec) -> ExemplaryDataset:
    """The exemplary dataset, emitted one row at a time per design kind.

    Rows are emitted cluster by cluster.  Within a cluster,
    cross-sectional kinds nest subjects inside times and cohort kinds
    nest times inside subjects, matching the covariance layout used for
    that kind.
    """
    designs.ensure_valid(spec)
    kind = spec.kind
    arm_col: list[int] = []
    cluster_col: list[int] = []
    subject_col: list[int] = []
    time_col: list[int] = []
    intervene_col: list[int] = []
    mean_col: list[float] = []

    next_subject = 1

    def emit(group: int, cluster: int, subject: int, time: int, flag: int, mean: float):
        arm_col.append(group)
        cluster_col.append(cluster)
        subject_col.append(subject)
        time_col.append(time)
        intervene_col.append(flag)
        mean_col.append(mean)

    if kind in RCT_KINDS:
        study_times = times(spec)
        for arm in (1, 2):
            for time in study_times:
                for _ in range(spec.per_group_n):
                    prepost = len(study_times) > 1
                    flag = 1 if (arm == 2 and time == study_times[-1] and prepost) else 0
                    if kind == DesignKind.RCT_POST:
                        flag = 1 if arm == 2 else 0
                    emit(
                        arm,
                        next_subject,
                        next_subject,
                        time,
                        flag,
                        float(spec.cell_means[(arm, time)]),
                    )
                    next_subject += 1
    elif kind == DesignKind.CRT_POST:
        sizes = spec.cluster_subject_counts()
        cluster = 0
        for arm, count in zip((1, 2), spec.clusters_per_arm):
            for _ in range(count):
                size = sizes[cluster]
                cluster += 1
                for _ in range(size):
                    emit(
                        arm,
                        cluster,
                        next_subject,
                        1,
                        1 if arm == 2 else 0,
                        float(spec.cell_means[(arm, 1)]),
                    )
                    next_subject += 1
    elif kind == DesignKind.CRT_PREPOST_XSEC:
        sizes = spec.cluster_subject_counts()
        cluster = 0
        for arm, count in zip((1, 2), spec.clusters_per_arm):
            for _ in range(count):
                size = sizes[cluster]
                cluster += 1
                for time in (1, 2):
                    flag = 1 if (arm == 2 and time == 2) else 0
                    for _ in range(size):
                        emit(
                            arm,
                            cluster,
                            next_subject,
                            time,
                            flag,
                            float(spec.cell_means[(arm, time)]),
                        )
                        next_subject += 1
    elif kind == DesignKind.CRT_PREPOST_COHORT:
        sizes = spec.cluster_subject_counts()
        cluster = 0
        for arm, count in zip((1, 2), spec.clusters_per_arm):
            for _ in range(count):
                size = sizes[cluster]
                cluster += 1
                for _ in range(size):
                    subject = next_subject
                    next_subject += 1
                    for time in (1, 2):
                        flag = 1 if (arm == 2 and time == 2) else 0
                        emit(
                            arm,
                            cluster,
                            subject,
                            time,
                            flag,
                            float(spec.cell_means[(arm, time)]),
                        )
    elif kind == DesignKind.SWD_XSEC:
        sizes = spec.cluster_subject_counts()
        cluster = 0
        for step, count in enumerate(spec.clusters_per_step, start=1):
            threshold = switch_threshold(spec, step)
            for _ in range(count):
                size = sizes[cluster]
                cluster += 1
                for time in times(spec):
                    flag = 0 if time <= threshold else 1
                    for _ in range(size):
                        emit(
                            step,
                            cluster,
                            next_subject,
                            time,
                            flag,
                            float(spec.cell_means[(flag, 0)]),
                        )
                        next_subject += 1
    elif kind == DesignKind.SWD_COHORT:
        sizes = spec.cluster_subject_counts()
        cluster = 0
        for step, count in enumerate(spec.clusters_per_step, start=1):
            threshold = switch_threshold(spec, step)
            for _ in range(count):
                size = sizes[cluster]
                cluster += 1
                for _ in range(size):
                    subject = next_subject
                    next_subject += 1
                    for time in times(spec):
                        flag = 0 if time <= threshold else 1
                        mean = float(spec.cell_means[(flag, 0)])
                        emit(step, cluster, subject, time, flag, mean)
    else:
        raise ValueError(f"unknown design kind {kind!r}")

    return ExemplaryDataset(
        kind=kind.value,
        arm=np.asarray(arm_col, dtype=np.int64),
        cluster_id=np.asarray(cluster_col, dtype=np.int64),
        subject_id=np.asarray(subject_col, dtype=np.int64),
        time=np.asarray(time_col, dtype=np.int64),
        intervene=np.asarray(intervene_col, dtype=np.int64),
        mean=np.asarray(mean_col, dtype=float),
    )


def design_matrix(spec: DesignSpec, dataset: ExemplaryDataset | None = None) -> np.ndarray:
    """Fixed effect design matrix, one row per dataset row.

    Parallel kinds use an intercept, a treated-arm indicator, and for
    two-period kinds a post-period indicator plus their product.
    Stepped wedge kinds use an intercept, indicators for every time
    after the first, and the intervention exposure flag.

    Raises:
        ValueError: if the matrix is rank deficient, which signals a
            degenerate schedule (for example a single-step wedge whose
            exposure flag duplicates a time indicator).
    """
    if dataset is None:
        dataset = reference_dataset(spec)
    ones = np.ones(dataset.n_rows)
    treated = (dataset.arm == 2).astype(float)
    if spec.kind in POST_ONLY:
        x = np.column_stack([ones, treated])
    elif spec.kind in PREPOST:
        post = (dataset.time == 2).astype(float)
        x = np.column_stack([ones, treated, post, treated * post])
    else:
        periods = [(dataset.time == t).astype(float) for t in times(spec)[1:]]
        x = np.column_stack([ones, *periods, dataset.intervene.astype(float)])
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise ValueError(
            "design matrix is rank deficient; the schedule does not separate "
            "the modeled effects (degenerate step layout)"
        )
    return x


@dataclass(frozen=True)
class ClusterBlock:
    """Row extent of one cluster within the exemplary dataset."""

    index: int
    cluster_id: int
    group: int
    row_start: int
    n_rows: int


def cluster_structure(
    spec: DesignSpec, dataset: ExemplaryDataset | None = None
) -> list[ClusterBlock]:
    """Per-cluster row layout, in dataset order, counted from the cluster ids."""
    if dataset is None:
        dataset = reference_dataset(spec)
    rows = np.bincount(dataset.cluster_id)[1:].tolist()
    starts = np.cumsum([0, *rows[:-1]]).tolist()
    groups = _cluster_groups(spec)
    return [
        ClusterBlock(
            index=i, cluster_id=i + 1, group=group, row_start=start, n_rows=n_rows
        )
        for i, (group, start, n_rows) in enumerate(zip(groups, starts, rows))
    ]


def _cluster_groups(spec: DesignSpec) -> list[int]:
    if spec.kind == DesignKind.RCT_POST:
        return [1] * spec.per_group_n + [2] * spec.per_group_n
    if spec.kind == DesignKind.RCT_PREPOST:
        # arm 1 rows come first (both times), then arm 2
        return [1] * (2 * spec.per_group_n) + [2] * (2 * spec.per_group_n)
    if spec.kind in ARM_CLUSTER_KINDS:
        c1, c2 = spec.clusters_per_arm
        return [1] * c1 + [2] * c2
    groups = []
    for step, count in enumerate(spec.clusters_per_step, start=1):
        groups.extend([step] * count)
    return groups


def regrouped_cells(spec: DesignSpec) -> designs.CellTable:
    """The cell table as built by listing every cluster and regrouping.

    Each cluster's (randomized group, subjects per cell) pair is keyed
    and regrouped with np.unique, so the patterns are the distinct pairs
    sorted by group, then size, wherever their clusters sit in dataset
    order.  A pattern's cells are its first cluster's dataset rows, one
    per time.  Cluster sizes must give a full-rank design matrix.
    """
    dataset = reference_dataset(spec)
    x = design_matrix(spec, dataset)
    blocks = cluster_structure(spec, dataset)
    groups = np.array([block.group for block in blocks])
    sizes = np.array(spec.cluster_subject_counts())
    _, first, count = np.unique(
        groups * (sizes.max() + 1) + sizes, return_index=True, return_counts=True
    )
    cell_rows = []
    for index in first:
        block = blocks[index]
        rows = np.arange(block.row_start, block.row_start + block.n_rows)
        _, at_time = np.unique(dataset.time[rows], return_index=True)
        cell_rows.append(rows[at_time])
    cell_rows = np.array(cell_rows)
    return designs.CellTable(
        kind=spec.kind,
        group=groups[first],
        m=sizes[first],
        count=count,
        first=dataset.time[cell_rows[:, 0]],
        exposed=x[cell_rows][..., contrast_column(spec)] == 1.0,
        mean=dataset.mean[cell_rows],
    )


def cell_times(cells: designs.CellTable) -> np.ndarray:
    """(K, T) measurement period of each cell: pattern k's first plus t."""
    return cells.first[:, None] + np.arange(cells.exposed.shape[1])


def cell_design(cells: designs.CellTable) -> tuple[tuple[str, ...], np.ndarray]:
    """(names, x) of the design columns of a cell table's cells, tested last.

    Parallel kinds have an intercept, a treated-arm indicator, and for
    two-period kinds a post-period indicator plus their product.
    Stepped wedge kinds have an intercept, indicators for every time
    after the first, and the intervention exposure flag.  This is the
    (K, T, p) array the package's cell table held before its fit read
    the exposure alone.
    """
    time = cell_times(cells)
    if cells.kind in SWD_KINDS:
        names = ("intercept", *(f"time_{t}" for t in time[0, 1:]), "intervene")
        x = np.empty((*time.shape, len(names)))
        x[..., 0] = 1.0
        x[..., 1:-1] = time[..., None] == time[0, 1:]
    else:
        prepost = cells.kind in PREPOST
        names = ("intercept", "treated", "post", "treated_post")[: 4 if prepost else 2]
        x = np.empty((*time.shape, len(names)))
        x[..., 0] = 1.0
        x[..., 1] = cells.group[:, None] == 2
        if prepost:
            x[..., 2] = time == 2
    x[..., -1] = cells.exposed
    return names, x


def cell_information(cells: designs.CellTable, comps: VarianceComponents) -> np.ndarray:
    """sum_k count_k X_k' S_k^-1 X_k over cell_design's rows, S_k = a_k J + b_k I."""
    _, x = cell_design(cells)
    a, b = comps.cell_variances(cells.m)
    information = np.zeros((x.shape[2],) * 2)
    for count, rows, a_k, b_k in zip(cells.count, x, a, b):
        covariance = a_k + b_k * np.eye(rows.shape[0])
        information += count * rows.T @ np.linalg.solve(covariance, rows)
    return information


def label_covariance(
    subject: np.ndarray, time: np.ndarray, comps: VarianceComponents
) -> np.ndarray:
    """Covariance of measurements with these subject and time labels, entry by entry.

    Two measurements of one cluster share the cluster variance; they
    share the cluster-by-time variance too when taken at one time, the
    subject variance when taken on one subject, and every component when
    they are the same measurement.
    """
    n = len(subject)
    matrix = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            same_subject = subject[i] == subject[j]
            same_time = time[i] == time[j]
            if same_subject and same_time:
                matrix[i, j] = comps.total
            elif same_subject:
                matrix[i, j] = comps.cluster + comps.subject
            elif same_time:
                matrix[i, j] = comps.cluster + comps.cluster_by_time
            else:
                matrix[i, j] = comps.cluster
    return matrix


def cluster_v(
    spec: DesignSpec,
    comps: VarianceComponents,
    index: int,
    dataset: ExemplaryDataset | None = None,
) -> np.ndarray:
    """Dense covariance of cluster index (0-based), from its dataset rows' labels."""
    if dataset is None:
        dataset = reference_dataset(spec)
    rows = dataset.cluster_id == index + 1
    return label_covariance(dataset.subject_id[rows], dataset.time[rows], comps)


def study_blocks(
    spec: DesignSpec, comps: VarianceComponents
) -> list[np.ndarray]:
    """Per-cluster covariance matrices, in dataset row order.

    Clusters with as many rows share one matrix: their labels differ by
    offsets alone.
    """
    dataset = reference_dataset(spec)
    by_rows: dict[int, np.ndarray] = {}
    blocks = []
    for cb in cluster_structure(spec, dataset):
        if cb.n_rows not in by_rows:
            by_rows[cb.n_rows] = cluster_v(spec, comps, cb.index, dataset)
        blocks.append(by_rows[cb.n_rows])
    return blocks


@dataclass(frozen=True)
class DenseFit:
    """A GLS fit with its whole information matrix and its inverse."""

    beta: np.ndarray
    cov: np.ndarray
    information: np.ndarray


def gls_estimate(
    x: np.ndarray, v_blocks: Sequence[np.ndarray], y: np.ndarray
) -> DenseFit:
    """Fit y = x beta + error with block-diagonal error covariance.

    The blocks partition the rows in order; each cluster contributes
    X_c' V_c^{-1} X_c and X_c' V_c^{-1} y_c through a linear solve, so
    the study covariance is never formed or inverted as a whole.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    total = sum(b.shape[0] for b in v_blocks)
    if total != n:
        raise ValueError(f"covariance blocks cover {total} rows, design has {n}")

    information = np.zeros((p, p))
    score = np.zeros(p)
    at = 0
    for block in v_blocks:
        k = block.shape[0]
        rows = slice(at, at + k)
        at += k
        rhs = np.concatenate([x[rows], y[rows, None]], axis=1)
        try:
            solved = np.linalg.solve(block, rhs)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "cluster covariance is singular; the correlation parameters "
                "leave no measurement-level variation"
            ) from exc
        information += x[rows].T @ solved[:, :p]
        score += x[rows].T @ solved[:, p]

    try:
        beta = np.linalg.solve(information, score)
        cov = np.linalg.solve(information, np.eye(p))
    except np.linalg.LinAlgError as exc:
        raise ValueError("information matrix is singular") from exc
    return DenseFit(beta=beta, cov=cov, information=information)


def exemplary_fit(
    x: np.ndarray, v_blocks: Sequence[np.ndarray], y: np.ndarray
) -> DenseFit:
    """gls_estimate, refusing means the fixed effects do not reproduce."""
    fit = gls_estimate(x, v_blocks, y)
    scale = max(1.0, float(np.linalg.norm(y)))
    misfit = float(np.linalg.norm(x @ fit.beta - y))
    if misfit > FIT_RTOL * scale:
        raise ValueError(
            "exemplary means are not reproduced by the fixed effects "
            f"(residual norm {misfit:.3e}); the cell means are inconsistent "
            "with the design model"
        )
    return fit


def fit_design(spec: DesignSpec, params: CorrelationParams):
    """(components, design matrix, dataset, fit) of a design's subject rows."""
    comps = correlation.derive_components(params, FAMILY[spec.kind])
    dataset = reference_dataset(spec)
    x = design_matrix(spec, dataset)
    fit = exemplary_fit(x, study_blocks(spec, comps), dataset.mean)
    return comps, x, dataset, fit


def resolve_ddf(spec: DesignSpec, policy: str) -> int:
    """Denominator degrees of freedom from ranks of the subject rows."""
    if policy not in DDF_POLICIES:
        raise ValueError(f"unknown ddf policy {policy!r}; choose from {DDF_POLICIES}")
    dataset = reference_dataset(spec)
    x = design_matrix(spec, dataset)
    n = x.shape[0]
    rank_x = int(np.linalg.matrix_rank(x))

    if policy == "residual":
        ddf = n - rank_x
    else:
        if spec.kind in RCT_KINDS:
            raise ValueError(
                f"ddf policy {policy!r} needs a clustered design; use 'residual' "
                f"for {spec.kind.value}"
            )
        n_clusters = len(cluster_structure(spec, dataset))
        if policy == "containment":
            ddf = n - n_clusters
        else:
            flags = columns(spec)
            structure = cluster_structure(spec, dataset)
            const_idx = [j for j, (_, constant, _) in enumerate(flags) if constant]
            cluster_level = np.array([x[cb.row_start, const_idx] for cb in structure])
            between = n_clusters - int(np.linalg.matrix_rank(cluster_level))
            within = (n - rank_x) - between
            uses_between = flags[contrast_column(spec)][2]
            ddf = between if uses_between else within

    if ddf < 1:
        raise ValueError(
            f"ddf policy {policy!r} leaves {ddf} denominator degrees of freedom "
            "for this design"
        )
    return int(ddf)


def contrast_weights(spec: DesignSpec, params: CorrelationParams) -> np.ndarray:
    """Subject-row weights l' (X'V^-1X)^-1 X'V^-1 of the tested contrast."""
    comps, x, _, fit = fit_design(spec, params)
    xtvi = np.zeros((x.shape[1], x.shape[0]))
    at = 0
    for block in study_blocks(spec, comps):
        k = block.shape[0]
        xtvi[:, at : at + k] = np.linalg.solve(block, x[at : at + k]).T
        at += k
    return fit.cov[contrast_column(spec)] @ xtvi


def cell_averaging(time: np.ndarray) -> np.ndarray:
    """A with A y the cell means of a cluster's measurements y at these times."""
    indicator = (np.unique(time)[:, None] == time[None, :]).astype(float)
    return indicator / indicator.sum(axis=1, keepdims=True)


def cell_covariances(
    spec: DesignSpec, comps: VarianceComponents, cells: designs.CellTable
) -> np.ndarray:
    """(K, T, T) A V A' of the first cluster of each pattern, from its dense block."""
    dataset = reference_dataset(spec)
    out = []
    for pattern in range(cells.m.size):
        index = int(np.flatnonzero(cells.cluster_pattern == pattern)[0])
        average = cell_averaging(dataset.time[dataset.cluster_id == index + 1])
        out.append(average @ cluster_v(spec, comps, index, dataset) @ average.T)
    return np.array(out)


class StudySampler:
    """Mean vector and per-cluster Cholesky factors of one design's subject rows."""

    def __init__(self, spec: DesignSpec, comps: VarianceComponents):
        dataset = reference_dataset(spec)
        self.mu = dataset.mean
        self.n = dataset.n_rows
        self.cluster = dataset.cluster_id - 1
        self.time = dataset.time
        self.slices: list[slice] = []
        self.chol: list[np.ndarray] = []
        for cb in cluster_structure(spec, dataset):
            self.slices.append(slice(cb.row_start, cb.row_start + cb.n_rows))
            block = cluster_v(spec, comps, cb.index, dataset)
            self.chol.append(np.linalg.cholesky(block))

    def row_weights(self, cells: designs.CellTable, cell_weights: np.ndarray) -> np.ndarray:
        """Spread each cluster's cell weights over its subject rows, by their times."""
        pattern = cells.cluster_pattern[self.cluster]
        period = np.argmax(cell_times(cells)[pattern] == self.time[:, None], axis=1)
        return cell_weights[pattern, period] / cells.m[pattern]

    def project(self, weights: np.ndarray) -> np.ndarray:
        """u with z . u = weights . (L z) for a standard normal draw z."""
        u = np.empty(self.n)
        for sl, factor in zip(self.slices, self.chol):
            u[sl] = weights[sl] @ factor
        return u


def assert_same_dataset(actual: ExemplaryDataset, expected: ExemplaryDataset) -> None:
    """Both datasets carry the same label and every column, dtype included."""
    assert actual.kind == expected.kind
    for name in ("arm", "cluster_id", "subject_id", "time", "intervene", "mean"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def dataset_from_csv(text: str) -> ExemplaryDataset:
    """Parse a dataset serialized by dataset_to_csv."""
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    kinds: set[str] = set()
    cols: list[list] = [[], [], [], [], [], []]
    for row in reader:
        if not row:
            continue
        kinds.add(row[0])
        for j in range(5):
            cols[j].append(int(row[j + 1]))
        cols[5].append(float(row[6]))
    if len(kinds) != 1:
        raise ValueError(f"dataset rows carry {len(kinds)} design labels, expected 1")
    return ExemplaryDataset(
        kind=kinds.pop(),
        arm=np.asarray(cols[0], dtype=np.int64),
        cluster_id=np.asarray(cols[1], dtype=np.int64),
        subject_id=np.asarray(cols[2], dtype=np.int64),
        time=np.asarray(cols[3], dtype=np.int64),
        intervene=np.asarray(cols[4], dtype=np.int64),
        mean=np.asarray(cols[5], dtype=float),
    )


def reference_csv(dataset: ExemplaryDataset) -> str:
    """dataset_to_csv's output, written one row at a time with csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for i in range(dataset.n_rows):
        writer.writerow(
            [
                dataset.kind,
                int(dataset.arm[i]),
                int(dataset.cluster_id[i]),
                int(dataset.subject_id[i]),
                int(dataset.time[i]),
                int(dataset.intervene[i]),
                f"{float(dataset.mean[i]):.17g}",
            ]
        )
    return buf.getvalue()


def reference_table(dataset: ExemplaryDataset) -> str:
    """dataset_to_table's output, formatted one row at a time."""
    lines = ["%-18s %4s %10s %10s %5s %9s %8s" % CSV_HEADER]
    for i in range(dataset.n_rows):
        lines.append(
            "%-18s %4d %10d %10d %5d %9d %8.3f"
            % (
                dataset.kind,
                dataset.arm[i],
                dataset.cluster_id[i],
                dataset.subject_id[i],
                dataset.time[i],
                dataset.intervene[i],
                dataset.mean[i],
            )
        )
    return "\n".join(lines) + "\n"
