"""Design descriptions, exemplary datasets, and cluster-period cells.

A DesignSpec fixes the structure of a two-arm parallel or stepped wedge
trial: who is randomized, how many clusters and subjects there are, when
measurements happen, and the cell means under the alternative.  One
cluster-by-period schedule of randomized group, time, exposure and mean
underlies everything this module builds from it: the exemplary dataset
(one row per measurement whose outcome column holds the modeled mean),
its cluster-period cell table (the distinct clusters' cells, which the
engine fits), and the single-row contrast that carries the hypothesis of
interest.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .correlation import CorrelationParams

__all__ = [
    "DesignKind",
    "DesignSpec",
    "SpecValidationError",
    "ExemplaryDataset",
    "CellTable",
    "ColumnInfo",
    "Contrast",
    "validate_spec",
    "ensure_valid",
    "exemplary_dataset",
    "design_columns",
    "hypothesis_contrast",
    "cell_table",
    "dataset_to_csv",
    "dataset_from_csv",
    "decode_spec_document",
    "PRESETS",
    "get_preset",
]

CSV_HEADER = ("design", "arm", "cluster_id", "subject_id", "time", "intervene", "mean")


class DesignKind(str, enum.Enum):
    """Structural family of a trial design."""

    RCT_POST = "rct_post"
    CRT_POST = "crt_post"
    RCT_PREPOST = "rct_prepost"
    CRT_PREPOST_XSEC = "crt_prepost_xsec"
    CRT_PREPOST_COHORT = "crt_prepost_cohort"
    SWD_XSEC = "swd_xsec"
    SWD_COHORT = "swd_cohort"


RCT_KINDS = frozenset({DesignKind.RCT_POST, DesignKind.RCT_PREPOST})
ARM_CLUSTER_KINDS = frozenset(
    {DesignKind.CRT_POST, DesignKind.CRT_PREPOST_XSEC, DesignKind.CRT_PREPOST_COHORT}
)
SWD_KINDS = frozenset({DesignKind.SWD_XSEC, DesignKind.SWD_COHORT})
PREPOST_KINDS = frozenset(
    {DesignKind.RCT_PREPOST, DesignKind.CRT_PREPOST_XSEC, DesignKind.CRT_PREPOST_COHORT}
)
COHORT_KINDS = frozenset({DesignKind.CRT_PREPOST_COHORT, DesignKind.SWD_COHORT})


class SpecValidationError(ValueError):
    """Raised when a design description violates its structural rules."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class DesignSpec:
    """Structural description of one trial design.

    Attributes:
        kind: structural family.
        per_group_n: subjects per arm (rct_post) or per arm-time cell
            (rct_prepost); individually randomized kinds only.
        clusters_per_arm: cluster counts for the two arms; parallel
            cluster randomized kinds only.
        cluster_size: subjects per cluster, either one count for all
            clusters or a per-cluster tuple (arm 1 clusters first, or
            step 1 clusters first).  For cross-sectional repeated
            designs this is the count recruited at each time; for cohort
            designs it is the cohort size followed across all times.
        steps_k: number of switch steps; stepped wedge only.
        baseline_b: measurement times before the first switch.
        per_step_t: measurement times between consecutive switches.
        clusters_per_step: cluster counts per step, length steps_k.
        cell_means: modeled means under the alternative.  Parallel kinds
            key on (arm, time) with arms 1..2 and times 1..n_times.
            Stepped wedge kinds key on (phase, 0) where phase is 0 for
            control and 1 for intervention exposure.
        alpha: type I error rate for power evaluation.
    """

    kind: DesignKind
    per_group_n: int | None = None
    clusters_per_arm: tuple[int, int] | None = None
    cluster_size: int | tuple[int, ...] | None = None
    steps_k: int | None = None
    baseline_b: int | None = None
    per_step_t: int | None = None
    clusters_per_step: tuple[int, ...] | None = None
    cell_means: Mapping[tuple[int, int], float] = field(default_factory=dict)
    alpha: float = 0.05

    @property
    def n_times(self) -> int:
        if self.kind in (DesignKind.RCT_POST, DesignKind.CRT_POST):
            return 1
        if self.kind in PREPOST_KINDS:
            return 2
        return int(self.baseline_b) + int(self.steps_k) * int(self.per_step_t)

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_times + 1))

    @property
    def n_clusters(self) -> int:
        """Number of randomized units (for rct kinds, each subject)."""
        if self.kind == DesignKind.RCT_POST:
            return 2 * int(self.per_group_n)
        if self.kind == DesignKind.RCT_PREPOST:
            return 4 * int(self.per_group_n)
        if self.kind in ARM_CLUSTER_KINDS:
            return int(sum(self.clusters_per_arm))
        return int(sum(self.clusters_per_step))

    def cluster_subject_counts(self) -> tuple[int, ...]:
        """Subjects per cluster (per time for cross-sectional kinds)."""
        if self.kind in RCT_KINDS:
            return (1,) * self.n_clusters
        n_clusters = self.n_clusters
        if isinstance(self.cluster_size, (tuple, list)):
            return tuple(int(v) for v in self.cluster_size)
        return (int(self.cluster_size),) * n_clusters

    def rows_per_cluster(self) -> tuple[int, ...]:
        mult = 1 if self.kind in RCT_KINDS else self.n_times
        return tuple(n * mult for n in self.cluster_subject_counts())

    @property
    def n_observations(self) -> int:
        return int(sum(self.rows_per_cluster()))

    def switch_threshold(self, step: int) -> int:
        """Last control time for clusters switching at the given step (1-based)."""
        return int(self.baseline_b) + (step - 1) * int(self.per_step_t)

    def mean_for_cell(self, arm: int, time: int) -> float:
        return float(self.cell_means[(arm, time)])

    def phase_mean(self, intervene: int) -> float:
        return float(self.cell_means[(int(intervene), 0)])


def _check_count(errors: list[str], path: str, value, minimum: int = 1) -> bool:
    if value is None:
        errors.append(f"{path}: required for this design kind")
        return False
    try:
        integral = not isinstance(value, bool) and float(value).is_integer()
    except (TypeError, ValueError):
        integral = False
    if not integral:
        errors.append(f"{path}: must be an integer, got {value!r}")
        return False
    if value < minimum:
        errors.append(f"{path}: must be >= {minimum}, got {value!r}")
        return False
    return True


def _expected_mean_keys(spec: DesignSpec) -> set[tuple[int, int]]:
    if spec.kind in SWD_KINDS:
        return {(0, 0), (1, 0)}
    if spec.kind in (DesignKind.RCT_POST, DesignKind.CRT_POST):
        return {(1, 1), (2, 1)}
    return {(arm, time) for arm in (1, 2) for time in (1, 2)}


def validate_spec(spec: DesignSpec) -> list[str]:
    """Check a design description and return every violation found.

    Each message starts with the path of the offending field, so callers
    can surface all problems at once rather than the first one.
    """
    errors: list[str] = []

    if not isinstance(spec.kind, DesignKind):
        errors.append(f"design.kind: unknown kind {spec.kind!r}")
        return errors

    if spec.kind in RCT_KINDS:
        _check_count(errors, "design.per_group_n", spec.per_group_n)
    elif spec.kind in ARM_CLUSTER_KINDS:
        cpa = spec.clusters_per_arm
        if cpa is None or len(cpa) != 2:
            errors.append(
                "design.clusters_per_arm: exactly two cluster counts required, "
                f"got {cpa!r}"
            )
        else:
            _check_count(errors, "design.clusters_per_arm[0]", cpa[0])
            _check_count(errors, "design.clusters_per_arm[1]", cpa[1])
    else:
        have_steps = _check_count(errors, "design.steps_k", spec.steps_k)
        _check_count(errors, "design.baseline_b", spec.baseline_b)
        _check_count(errors, "design.per_step_t", spec.per_step_t)
        cps = spec.clusters_per_step
        if cps is None:
            errors.append("design.clusters_per_step: required for stepped wedge kinds")
        else:
            if have_steps and len(cps) != spec.steps_k:
                errors.append(
                    f"design.clusters_per_step: length {len(cps)} does not match "
                    f"steps_k={spec.steps_k}"
                )
            for i, count in enumerate(cps):
                _check_count(errors, f"design.clusters_per_step[{i}]", count)

    if spec.kind not in RCT_KINDS and not errors:
        size = spec.cluster_size
        if size is None:
            errors.append("design.cluster_size: required for clustered kinds")
        elif isinstance(size, (tuple, list)):
            if len(size) != spec.n_clusters:
                errors.append(
                    f"design.cluster_size: {len(size)} entries for "
                    f"{spec.n_clusters} clusters"
                )
            for i, n in enumerate(size):
                _check_count(errors, f"design.cluster_size[{i}]", n)
        else:
            _check_count(errors, "design.cluster_size", size)

    expected = _expected_mean_keys(spec) if not errors else None
    if expected is not None:
        got = set(spec.cell_means)
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        if missing:
            errors.append(f"design.means: missing cells {missing}")
        if extra:
            errors.append(f"design.means: unexpected cells {extra}")
        for key, value in spec.cell_means.items():
            if not math.isfinite(float(value)):
                errors.append(f"design.means[{key}]: must be finite, got {value!r}")

    if not (0.0 < spec.alpha < 1.0):
        errors.append(f"analysis.alpha: must lie in (0, 1), got {spec.alpha!r}")

    return errors


def ensure_valid(spec: DesignSpec) -> DesignSpec:
    errors = validate_spec(spec)
    if errors:
        raise SpecValidationError(errors)
    return spec


@dataclass(eq=False)
class ExemplaryDataset:
    """One row per measurement, with the modeled mean as the outcome.

    arm holds the randomized group: the arm for parallel kinds, the
    switch step group for stepped wedge kinds.  Ids are 1-based and
    globally unique across the study.
    """

    kind: str
    arm: np.ndarray
    cluster_id: np.ndarray
    subject_id: np.ndarray
    time: np.ndarray
    intervene: np.ndarray
    mean: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.mean.shape[0])


def _schedule(spec: DesignSpec):
    """The cluster-by-period schedule of a design.

    Returns (arm, time, intervene, mean, layout).  The first four are
    (L, T) arrays holding the randomized group, time, exposure flag and
    modeled mean of each of L cluster layouts in each of its T periods;
    layout is the (n_clusters,) layout index of every cluster, in
    dataset order.
    """
    ensure_valid(spec)
    kind = spec.kind
    if kind == DesignKind.RCT_PREPOST:
        # subjects are measured once: one single-period layout per arm-time cell
        arm = np.array([[1], [1], [2], [2]])
        time = np.array([[1], [2], [1], [2]])
        clusters_per_layout = (spec.per_group_n,) * 4
    elif kind in SWD_KINDS:
        arm = np.repeat(np.arange(1, spec.steps_k + 1)[:, None], spec.n_times, axis=1)
        time = np.tile(np.asarray(spec.times), (spec.steps_k, 1))
        clusters_per_layout = spec.clusters_per_step
    else:
        arm = np.repeat(np.array([[1], [2]]), spec.n_times, axis=1)
        time = np.tile(np.asarray(spec.times), (2, 1))
        if kind == DesignKind.RCT_POST:
            clusters_per_layout = (spec.per_group_n,) * 2
        else:
            clusters_per_layout = spec.clusters_per_arm

    if kind in SWD_KINDS:
        thresholds = spec.baseline_b + (arm - 1) * spec.per_step_t
        intervene = (time > thresholds).astype(np.int64)
        mean = np.where(intervene == 1, spec.phase_mean(1), spec.phase_mean(0))
    else:
        last = 2 if kind in PREPOST_KINDS else 1
        intervene = ((arm == 2) & (time == last)).astype(np.int64)
        mean = np.array(
            [
                [spec.mean_for_cell(a, t) for a, t in zip(ar, tr)]
                for ar, tr in zip(arm.tolist(), time.tolist())
            ]
        )
    layout = np.repeat(np.arange(arm.shape[0]), clusters_per_layout)
    return arm, time, intervene, mean, layout


def exemplary_dataset(spec: DesignSpec) -> ExemplaryDataset:
    """Build the dataset whose outcome column is the modeled cell mean.

    Rows run cluster by cluster.  Within a cluster, cohort kinds nest
    times inside subjects, who keep their id across periods; every other
    kind nests fresh subjects inside times.  This matches the covariance
    layout used for that kind.
    """
    arm, time, intervene, mean, layout = _schedule(spec)
    n_periods = arm.shape[1]
    sizes = np.asarray(spec.cluster_subject_counts(), dtype=np.int64)
    if spec.kind in COHORT_KINDS:
        subject_cluster = np.repeat(np.arange(sizes.size), sizes)
        cluster = np.repeat(subject_cluster, n_periods)
        period = np.tile(np.arange(n_periods), subject_cluster.size)
        subject = np.repeat(np.arange(1, subject_cluster.size + 1), n_periods)
    else:
        cell = np.repeat(np.arange(sizes.size * n_periods), np.repeat(sizes, n_periods))
        cluster, period = np.divmod(cell, n_periods)
        subject = np.arange(1, cell.size + 1)
    cells = (layout[cluster], period)
    return ExemplaryDataset(
        kind=spec.kind.value,
        arm=arm[cells],
        cluster_id=cluster + 1,
        subject_id=subject,
        time=time[cells],
        intervene=intervene[cells],
        mean=mean[cells],
    )


@dataclass(frozen=True)
class ColumnInfo:
    """Metadata of one design matrix column.

    cluster_constant: the column never varies within a cluster.
    involves_cluster_constant: some factor entering the column is itself
        constant within clusters (an interaction with a randomized group
        qualifies even though the product varies within a cluster).
    """

    name: str
    cluster_constant: bool
    involves_cluster_constant: bool


def design_columns(spec: DesignSpec) -> tuple[ColumnInfo, ...]:
    """Column metadata of the fixed effect design rows, in column order."""
    kind = spec.kind
    if kind in (DesignKind.RCT_POST, DesignKind.CRT_POST):
        return (
            ColumnInfo("intercept", True, True),
            ColumnInfo("treated", True, True),
        )
    if kind in PREPOST_KINDS:
        return (
            ColumnInfo("intercept", True, True),
            ColumnInfo("treated", True, True),
            ColumnInfo("post", False, False),
            ColumnInfo("treated_post", False, True),
        )
    cols = [ColumnInfo("intercept", True, True)]
    for time in spec.times[1:]:
        cols.append(ColumnInfo(f"time_{time}", False, False))
    cols.append(ColumnInfo("intervene", False, False))
    return tuple(cols)


def _design_rows(
    spec: DesignSpec, arm: np.ndarray, time: np.ndarray, intervene: np.ndarray
) -> np.ndarray:
    n = arm.shape[0]
    kind = spec.kind
    if kind in (DesignKind.RCT_POST, DesignKind.CRT_POST):
        return np.column_stack([np.ones(n), (arm == 2).astype(float)])
    if kind in PREPOST_KINDS:
        treated = (arm == 2).astype(float)
        post = (time == 2).astype(float)
        return np.column_stack([np.ones(n), treated, post, treated * post])
    cols = [np.ones(n)]
    for t in spec.times[1:]:
        cols.append((time == t).astype(float))
    cols.append(intervene.astype(float))
    return np.column_stack(cols)


@dataclass(frozen=True)
class CellTable:
    """The design on cluster-period cells, one entry per cluster pattern.

    Every fixed effect is constant within a cluster-period cell, so the
    clusters that share a randomized group and a cell size are
    interchangeable for the analysis.  Pattern k stands for count[k]
    such clusters.  Its T cells are the periods such a cluster is
    measured in: one for post-only kinds, and one for individually
    randomized kinds, where every randomized unit is one measurement.

    Attributes:
        group: (K,) randomized group, as in ExemplaryDataset.arm.
        m: (K,) subjects per cell.
        count: (K,) clusters that share the pattern.
        x: (K, T, p) design matrix rows of the cells.
        mean: (K, T) modeled cell means.
        cluster_pattern: (n_clusters,) pattern of each cluster, in
            dataset order.
    """

    group: np.ndarray
    m: np.ndarray
    count: np.ndarray
    x: np.ndarray
    mean: np.ndarray
    cluster_pattern: np.ndarray


def cell_table(spec: DesignSpec) -> CellTable:
    """Cluster-period cells of the exemplary dataset, grouped by pattern.

    Parallel kinds have an intercept, a treated-arm indicator, and for
    two-period kinds a post-period indicator plus their product.
    Stepped wedge kinds have an intercept, indicators for every time
    after the first, and the intervention exposure flag.

    Raises:
        ValueError: if the design rows of the cells are rank deficient,
            which signals a degenerate schedule (for example a
            single-step wedge whose exposure flag duplicates a time
            indicator); the cells hold every distinct row of the
            subject-level design matrix.
    """
    arm, time, intervene, mean, layout = _schedule(spec)
    n_layouts, n_periods = arm.shape
    x = _design_rows(spec, arm.ravel(), time.ravel(), intervene.ravel())
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise ValueError(
            "design matrix is rank deficient; the schedule does not separate "
            "the modeled effects (degenerate step layout)"
        )
    x = x.reshape(n_layouts, n_periods, -1)

    sizes = np.asarray(spec.cluster_subject_counts(), dtype=np.int64)
    _, first, pattern, count = np.unique(
        layout * (int(sizes.max()) + 1) + sizes,
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    chosen = layout[first]
    return CellTable(
        group=arm[chosen, 0],
        m=sizes[first],
        count=count,
        x=x[chosen],
        mean=mean[chosen],
        cluster_pattern=pattern,
    )


@dataclass(frozen=True)
class Contrast:
    """Single-row contrast selecting the effect under test."""

    matrix: np.ndarray
    name: str

    @property
    def ndf(self) -> int:
        return int(self.matrix.shape[0])


def hypothesis_contrast(spec: DesignSpec) -> Contrast:
    """The one-row contrast for the design's primary hypothesis.

    Post-only kinds test the treated-arm coefficient, two-period kinds
    the treated-by-post interaction, stepped wedge kinds the exposure
    coefficient.
    """
    columns = design_columns(spec)
    if spec.kind in (DesignKind.RCT_POST, DesignKind.CRT_POST):
        target = "treated"
    elif spec.kind in PREPOST_KINDS:
        target = "treated_post"
    else:
        target = "intervene"
    row = np.zeros((1, len(columns)))
    for j, col in enumerate(columns):
        if col.name == target:
            row[0, j] = 1.0
            return Contrast(matrix=row, name=target)
    raise ValueError(f"column {target!r} not present")


def dataset_to_csv(dataset: ExemplaryDataset) -> str:
    """Serialize a dataset with full-precision means."""
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


# ---------------------------------------------------------------------------
# document decoding


def decode_spec_document(doc: Mapping) -> tuple[DesignSpec, CorrelationParams, str | None]:
    """Decode a JSON-style document into a spec, correlation, and policy.

    All problems are collected and raised together as a
    SpecValidationError whose messages carry field paths.
    """
    from .engine import DDF_POLICIES

    errors: list[str] = []
    if not isinstance(doc, Mapping):
        raise SpecValidationError(["document: must be a JSON object"])

    design = doc.get("design")
    corr = doc.get("correlation")
    analysis = doc.get("analysis", {})
    if not isinstance(design, Mapping):
        errors.append("design: required object")
        design = {}
    if not isinstance(corr, Mapping):
        errors.append("correlation: required object")
        corr = {}
    if not isinstance(analysis, Mapping):
        errors.append("analysis: must be an object")
        analysis = {}

    kind_raw = design.get("kind")
    kind: DesignKind | None = None
    try:
        kind = DesignKind(kind_raw)
    except ValueError:
        errors.append(
            f"design.kind: must be one of "
            f"{sorted(k.value for k in DesignKind)}, got {kind_raw!r}"
        )

    def _int_or_none(obj: Mapping, key: str, path: str):
        value = obj.get(key)
        if value is None:
            return None
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or float(value) != int(value)
        ):
            errors.append(f"{path}: must be an integer, got {value!r}")
            return None
        return int(value)

    per_group_n = _int_or_none(design, "per_group_n", "design.per_group_n")
    steps_k = _int_or_none(design, "steps_k", "design.steps_k")
    baseline_b = _int_or_none(design, "baseline_b", "design.baseline_b")
    per_step_t = _int_or_none(design, "per_step_t", "design.per_step_t")

    def _int_tuple(value, path: str):
        try:
            return tuple(int(v) for v in value)
        except (TypeError, ValueError):
            errors.append(f"{path}: must be a list of integers, got {value!r}")
            return None

    clusters_per_arm = design.get("clusters_per_arm")
    if clusters_per_arm is not None:
        if (
            not isinstance(clusters_per_arm, Sequence)
            or isinstance(clusters_per_arm, str)
            or len(clusters_per_arm) != 2
        ):
            errors.append(
                f"design.clusters_per_arm: must be a pair, got {clusters_per_arm!r}"
            )
            clusters_per_arm = None
        else:
            clusters_per_arm = _int_tuple(clusters_per_arm, "design.clusters_per_arm")

    clusters_per_step = design.get("clusters_per_step")
    if clusters_per_step is not None:
        if not isinstance(clusters_per_step, Sequence) or isinstance(
            clusters_per_step, str
        ):
            errors.append(
                f"design.clusters_per_step: must be a list, got {clusters_per_step!r}"
            )
            clusters_per_step = None
        else:
            clusters_per_step = _int_tuple(
                clusters_per_step, "design.clusters_per_step"
            )

    cluster_size = design.get("cluster_size")
    if isinstance(cluster_size, Sequence) and not isinstance(cluster_size, str):
        cluster_size = _int_tuple(cluster_size, "design.cluster_size")
    elif cluster_size is not None:
        try:
            cluster_size = int(cluster_size)
        except (TypeError, ValueError):
            errors.append(f"design.cluster_size: must be an integer, got {cluster_size!r}")
            cluster_size = None

    alpha = analysis.get("alpha", 0.05)
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
        errors.append(f"analysis.alpha: must be a number, got {alpha!r}")
        alpha = 0.05

    ddf_policy = analysis.get("ddf_policy")
    if ddf_policy is not None and ddf_policy not in DDF_POLICIES:
        errors.append(
            f"analysis.ddf_policy: must be one of {list(DDF_POLICIES)}, "
            f"got {ddf_policy!r}"
        )
        ddf_policy = None

    cell_means: dict[tuple[int, int], float] = {}
    means = design.get("means")
    if kind is not None:
        if kind in SWD_KINDS:
            if (
                isinstance(means, Sequence)
                and len(means) == 2
                and all(isinstance(v, (int, float)) for v in means)
            ):
                cell_means = {(0, 0): float(means[0]), (1, 0): float(means[1])}
            else:
                errors.append(
                    "design.means: stepped wedge kinds take [control, intervention], "
                    f"got {means!r}"
                )
        else:
            n_times = 1 if kind in (DesignKind.RCT_POST, DesignKind.CRT_POST) else 2
            ok = (
                isinstance(means, Sequence)
                and len(means) == 2
                and all(
                    isinstance(row, Sequence)
                    and not isinstance(row, str)
                    and len(row) == n_times
                    and all(isinstance(v, (int, float)) for v in row)
                    for row in means
                )
            )
            if ok:
                for arm_index, row in enumerate(means, start=1):
                    for time_index, value in enumerate(row, start=1):
                        cell_means[(arm_index, time_index)] = float(value)
            else:
                errors.append(
                    "design.means: parallel kinds take two per-arm lists of "
                    f"{n_times} mean(s), got {means!r}"
                )

    sigma_y_sq = corr.get("sigma_y_sq")
    icc = corr.get("icc")
    cac = corr.get("cac", 0.0)
    sac = corr.get("sac", 0.0)
    for path, value, required in (
        ("correlation.sigma_y_sq", sigma_y_sq, True),
        ("correlation.icc", icc, True),
        ("correlation.cac", cac, False),
        ("correlation.sac", sac, False),
    ):
        if value is None and required:
            errors.append(f"{path}: required")
        elif value is not None and (
            isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            errors.append(f"{path}: must be a number, got {value!r}")

    params: CorrelationParams | None = None
    if not errors:
        try:
            params = CorrelationParams(
                sigma_y_sq=float(sigma_y_sq),
                icc=float(icc),
                cac=float(cac),
                sac=float(sac),
            )
        except ValueError as exc:
            errors.append(f"correlation: {exc}")

    spec: DesignSpec | None = None
    if kind is not None:
        spec = DesignSpec(
            kind=kind,
            per_group_n=per_group_n,
            clusters_per_arm=clusters_per_arm,
            cluster_size=cluster_size,
            steps_k=steps_k,
            baseline_b=baseline_b,
            per_step_t=per_step_t,
            clusters_per_step=clusters_per_step,
            cell_means=cell_means,
            alpha=float(alpha),
        )
        errors.extend(validate_spec(spec))

    if errors or spec is None or params is None:
        raise SpecValidationError(errors or ["document: could not be decoded"])
    return spec, params, ddf_policy


# ---------------------------------------------------------------------------
# built-in presets


def _preset_pairs() -> dict[str, tuple[DesignSpec, CorrelationParams]]:
    two_arm_post = {(1, 1): 59.0, (2, 1): 54.0}
    prepost = {(1, 1): 54.0, (1, 2): 56.0, (2, 1): 54.0, (2, 2): 61.0}
    wedge = {(0, 0): 54.0, (1, 0): 59.0}

    return {
        "example1": (
            DesignSpec(kind=DesignKind.RCT_POST, per_group_n=17, cell_means=two_arm_post),
            CorrelationParams(sigma_y_sq=25.0, icc=0.0),
        ),
        "example2": (
            DesignSpec(
                kind=DesignKind.CRT_POST,
                clusters_per_arm=(5, 4),
                cluster_size=6,
                cell_means=two_arm_post,
            ),
            CorrelationParams(sigma_y_sq=25.0, icc=0.1),
        ),
        "example2_48": (
            DesignSpec(
                kind=DesignKind.CRT_POST,
                clusters_per_arm=(4, 4),
                cluster_size=6,
                cell_means=two_arm_post,
            ),
            CorrelationParams(sigma_y_sq=25.0, icc=0.1),
        ),
        "example2_51": (
            DesignSpec(
                kind=DesignKind.CRT_POST,
                clusters_per_arm=(4, 4),
                cluster_size=(7, 7, 6, 6, 7, 6, 6, 6),
                cell_means=two_arm_post,
            ),
            CorrelationParams(sigma_y_sq=25.0, icc=0.1),
        ),
        "example3": (
            DesignSpec(kind=DesignKind.RCT_PREPOST, per_group_n=32, cell_means=prepost),
            CorrelationParams(sigma_y_sq=25.0, icc=0.0),
        ),
        "example3_124": (
            DesignSpec(kind=DesignKind.RCT_PREPOST, per_group_n=31, cell_means=prepost),
            CorrelationParams(sigma_y_sq=25.0, icc=0.0),
        ),
        "example4": (
            DesignSpec(
                kind=DesignKind.CRT_PREPOST_XSEC,
                clusters_per_arm=(6, 6),
                cluster_size=10,
                cell_means=prepost,
            ),
            CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=0.4),
        ),
        "example5": (
            DesignSpec(
                kind=DesignKind.CRT_PREPOST_COHORT,
                clusters_per_arm=(5, 4),
                cluster_size=10,
                cell_means=prepost,
            ),
            CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=0.4, sac=0.6),
        ),
        "example6": (
            DesignSpec(
                kind=DesignKind.SWD_XSEC,
                steps_k=2,
                baseline_b=1,
                per_step_t=1,
                clusters_per_step=(4, 4),
                cluster_size=5,
                cell_means=wedge,
            ),
            CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=1.0),
        ),
        "example7": (
            DesignSpec(
                kind=DesignKind.SWD_COHORT,
                steps_k=2,
                baseline_b=1,
                per_step_t=1,
                clusters_per_step=(3, 3),
                cluster_size=5,
                cell_means=wedge,
            ),
            CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=0.4, sac=0.6),
        ),
    }


PRESETS: dict[str, tuple[DesignSpec, CorrelationParams]] = _preset_pairs()


def get_preset(name: str) -> tuple[DesignSpec, CorrelationParams]:
    """Look up a built-in scenario by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
