"""Design descriptions, exemplary datasets, and cluster-period cells.

A DesignSpec fixes the structure of a two-arm parallel or stepped wedge
trial: who is randomized, how many clusters and subjects there are, when
measurements happen, and the cell means under the alternative.
cell_table turns it into the design's one cluster-by-period schedule:
randomized group, first period, exposure to the tested effect and cell
means of each run of interchangeable clusters.  It holds no design
matrix: the engine fits the table from its exposure, and
exemplary_dataset expands it into one row per measurement whose outcome
column holds the modeled mean.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .correlation import CorrelationParams, Family
from .distributions import is_real, is_whole

__all__ = [
    "DesignKind",
    "DesignSpec",
    "SpecValidationError",
    "ExemplaryDataset",
    "CellTable",
    "validate_spec",
    "ensure_valid",
    "exemplary_dataset",
    "MAX_DATASET_ROWS",
    "cell_table",
    "dataset_to_csv",
    "dataset_to_table",
    "decode_spec_document",
    "PRESETS",
    "get_preset",
]

# the most rows exemplary_dataset builds
MAX_DATASET_ROWS = 1_000_000
# the most patterns x periods cells of a cell table; an evaluation or a
# simulation holds about 33 to 49 bytes per cell of a wedge and 93 to
# 113 of a parallel kind, so neither peaks above 290 MB
_MAX_CELLS = 2_500_000
# rows the dataset writers format at once
_TEXT_BLOCK_ROWS = 65_536
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


class KindTraits(NamedTuple):
    """The structural facts a design kind fixes."""

    counts: tuple[str, ...]  # the count fields the kind is built from
    periods: str  # "post" (one period), "prepost" (two) or "wedge"
    clustered: bool  # clusters are randomized; else subjects are
    family: Family  # of one cluster; SINGLE if measured in one period
    mean_keys: frozenset[tuple[int, int]]  # the cells cell_means maps


_RCT = ("per_group_n",)
_ARM = ("clusters_per_arm", "cluster_size")
_WEDGE = ("steps_k", "baseline_b", "per_step_t", "clusters_per_step", "cluster_size")
_POST = frozenset({(1, 1), (2, 1)})  # (arm, time)
_PREPOST = frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
_PHASES = frozenset({(0, 0), (1, 0)})  # (phase, 0): control, intervention
_SINGLE, _XSEC, _COHORT = Family.SINGLE, Family.CROSS_SECTIONAL, Family.COHORT
# a row per kind: count fields, period model, clustered, family, mean keys
_CATALOG = {
    DesignKind.RCT_POST: KindTraits(_RCT, "post", False, _SINGLE, _POST),
    DesignKind.CRT_POST: KindTraits(_ARM, "post", True, _SINGLE, _POST),
    DesignKind.RCT_PREPOST: KindTraits(_RCT, "prepost", False, _SINGLE, _PREPOST),
    DesignKind.CRT_PREPOST_XSEC: KindTraits(_ARM, "prepost", True, _XSEC, _PREPOST),
    DesignKind.CRT_PREPOST_COHORT: KindTraits(_ARM, "prepost", True, _COHORT, _PREPOST),
    DesignKind.SWD_XSEC: KindTraits(_WEDGE, "wedge", True, _XSEC, _PHASES),
    DesignKind.SWD_COHORT: KindTraits(_WEDGE, "wedge", True, _COHORT, _PHASES),
}
RCT_KINDS = frozenset(kind for kind, row in _CATALOG.items() if not row.clustered)


def kind_traits(kind: DesignKind | str) -> KindTraits:
    """The catalog row of a design kind or its value; every kind decision reads it."""
    return _CATALOG[kind]


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
        layout = _checked(*_layout_errors(self))
        return max(layout.first) + layout.n_periods - 1

    @property
    def family(self) -> Family:
        """Measurement family of one cluster, read off the kind catalog."""
        return _CATALOG[self.kind].family

    def cluster_subject_counts(self) -> tuple[int, ...]:
        """One entry per cluster: its subjects (per time if cross-sectional)."""
        layout = _checked(*_layout_errors(self))
        if isinstance(layout.size, (tuple, list)):
            return tuple(int(v) for v in layout.size)
        return (int(layout.size),) * sum(layout.clusters)

    @property
    def n_observations(self) -> int:
        layout = _checked(*_layout_errors(self))
        return _n_observations(layout, _exact_ints(layout.size))


class _Layout(NamedTuple):
    """A design's one schedule, a row per randomized group, as counts."""

    group: tuple[int, ...]  # as in ExemplaryDataset.arm
    clusters: tuple[int, ...]  # clusters the row stands for
    first: tuple[int, ...]  # the first of the row's T consecutive periods
    switch: tuple[int, ...]  # the row's first exposed period of its T, from 0; T if none
    n_periods: int  # T, the periods each cluster is measured in
    size: int | tuple[int, ...]  # subjects per cluster-period


def _layout(spec: DesignSpec) -> _Layout:
    """The one place a kind's count fields become groups, clusters and periods.

    The count check builds it and returns it, so its callers read no
    count field.  Individually randomized kinds make every subject a
    cluster of one measured once: a single-period row per arm-time cell.
    A wedge's step s switches after b + (s - 1) t periods, a parallel
    kind's arm 2 in its last.  Reads no means; holds no list of periods,
    so its cost follows the groups however many there are.
    """
    row = _CATALOG[spec.kind]
    size = spec.cluster_size if row.clustered else 1
    if row.periods == "wedge":
        k, b, t = int(spec.steps_k), int(spec.baseline_b), int(spec.per_step_t)
        group, switch = tuple(range(1, k + 1)), tuple(range(b, b + k * t, t))
        clusters = tuple(map(int, spec.clusters_per_step))
        return _Layout(group, clusters, (1,) * k, switch, b + k * t, size)
    last = 2 if row.periods == "prepost" else 1
    if row.clustered:
        group, first, n_periods = (1, 2), (1, 1), last
        clusters = tuple(map(int, spec.clusters_per_arm))
    else:
        periods = range(1, last + 1)
        group = tuple(arm for arm in (1, 2) for _ in periods)
        clusters = (int(spec.per_group_n),) * len(group)
        first, n_periods = tuple(periods) * 2, 1
    switch = tuple(last - f if g == 2 else n_periods for g, f in zip(group, first))
    return _Layout(group, clusters, first, switch, n_periods, size)


def _exact_ints(values) -> bool:
    # the fast paths for a count list: exact ints, no bools or numpy ints
    return isinstance(values, (list, tuple)) and set(map(type, values)) <= {int}


def _n_observations(layout: _Layout, exact: bool) -> int:
    # no per-cluster tuple: validate_spec reads this to refuse huge designs;
    # exact is _exact_ints of the size, which a size list sums as it stands
    size = layout.size
    if isinstance(size, (tuple, list)):
        total = sum(size) if exact else sum(map(int, size))
        return total * layout.n_periods
    return int(size) * sum(layout.clusters) * layout.n_periods


# the count fields that may hold one count per entry, and all seven
_LISTED = ("clusters_per_arm", "clusters_per_step", "cluster_size")
_COUNT_FIELDS = ("per_group_n", "steps_k", "baseline_b", "per_step_t", *_LISTED)
# the count fields that may hold a single count
_SINGLE = ("per_group_n", "steps_k", "baseline_b", "per_step_t", "cluster_size")
_MISSING = {
    "clusters_per_arm": "exactly two cluster counts required, got None",
    "clusters_per_step": "required for stepped wedge kinds",
    "cluster_size": "required for clustered kinds",
}


def _check_count_field(errors: list[str], name: str, value, used: bool) -> bool:
    """Check one count field, as validate_spec describes; True if usable."""
    path = f"design.{name}"
    if value is None:
        if used:
            missing = _MISSING.get(name, "required for this design kind")
            errors.append(f"{path}: {missing}")
        return False
    listed = name in _LISTED and isinstance(value, (list, tuple))
    if name == "clusters_per_arm" and not (listed and len(value) == 2):
        errors.append(f"{path}: exactly two cluster counts required, got {value!r}")
        return False
    if name == "clusters_per_step" and not listed:
        errors.append(f"{path}: must be a list, got {value!r}")
        return False
    before = len(errors)
    for i, count in enumerate(value if listed else (value,)):
        whole = is_whole(count)
        if whole and (not used or count >= 1):
            continue
        # an entry's path is formatted only when it is refused
        where = f"{path}[{i}]" if listed else path
        problem = "must be >= 1" if whole else "must be an integer"
        errors.append(f"{where}: {problem}, got {count!r}")
    return len(errors) == before


def _count_errors(spec: DesignSpec) -> tuple[list[str], _Layout | None]:
    """validate_spec's kind and count messages, and the layout (set if none)."""
    errors, layout = _layout_errors(spec)
    n = _n_observations(layout, _exact_ints(layout.size)) if not errors else 0
    if n > 2**53:
        errors.append(f"design: {n} observations, more than floats count exactly (2**53)")
    return errors, layout


def _layout_errors(spec: DesignSpec) -> tuple[list[str], _Layout | None]:
    # _count_errors less its bound on the observations: the count properties
    errors: list[str] = []
    known = isinstance(spec.kind, DesignKind)
    if not known:
        errors.append(
            f"design.kind: must be one of {sorted(k.value for k in DesignKind)}, "
            f"got {spec.kind!r}"
        )
    used = _CATALOG[spec.kind].counts if known else ()
    refused = set()  # the used fields that are missing or malformed
    for name in _COUNT_FIELDS:
        value = getattr(spec, name)
        # the common cases take no message check: None in a field the kind
        # does not use, and in one it uses an exact int >= 1 where a single
        # count may stand or a list of them (a pair for clusters_per_arm)
        if value is None if name not in used else (
            type(value) is int and value >= 1 and name in _SINGLE
            or name in _LISTED
            and _exact_ints(value)
            and (name != "clusters_per_arm" or len(value) == 2)
            and min(value, default=1) >= 1
        ):
            continue
        if not _check_count_field(errors, name, value, name in used) and name in used:
            refused.add(name)

    if "steps_k" in used and not refused & {"steps_k", "clusters_per_step"}:
        cps = spec.clusters_per_step
        if len(cps) != spec.steps_k:
            errors.append(
                f"design.clusters_per_step: length {len(cps)} does not match "
                f"steps_k={spec.steps_k}"
            )
            refused.add("clusters_per_step")
    counted = known and refused <= {"cluster_size"}
    layout = _layout(spec) if counted else None
    size = spec.cluster_size
    if "cluster_size" in used and counted and isinstance(size, (list, tuple)):
        n_clusters = sum(layout.clusters)
        if len(size) != n_clusters:
            errors.append(
                f"design.cluster_size: {len(size)} entries for {n_clusters} clusters"
            )
    return errors, layout


def _checked(errors: list[str], layout: _Layout | None) -> _Layout:
    if errors:
        raise SpecValidationError(errors)
    return layout


def ensure_counts(spec: DesignSpec) -> _Layout:
    """Raise validate_spec's kind and count errors; return the layout built."""
    return _checked(*_count_errors(spec))


def validate_spec(spec: DesignSpec) -> list[str]:
    """Check a design description and return every violation found.

    This is the one check of a spec's kind, counts, means and alpha.  It
    takes any value in these fields and reports each problem once, never
    raising.  A count field that is set must be well formed even when
    the kind does not use it: a whole number (a real, not a bool, with no
    fraction, so numeric strings are refused), a pair of them for
    clusters_per_arm, a list for clusters_per_step, or either for
    cluster_size.  A field the kind uses must be set, each count at
    least 1.  Cell means must map the kind's cells to finite reals, and
    alpha must be a real in (0, 1); bools and strings are refused there
    too.  Each message starts with the path of the offending field,
    so callers can surface all problems at once rather than the first.
    """
    return _spec_errors(spec)[0]


def _spec_errors(spec: DesignSpec) -> tuple[list[str], _Layout | None]:
    # validate_spec's messages, with the layout of its count check
    errors, layout = _count_errors(spec)
    means = spec.cell_means
    # the common case, a dict of the kind's cells to floats in range and a
    # float alpha in (0, 1), takes no set, sort or is_real call
    if type(means) is not dict and not isinstance(means, Mapping):
        errors.append(f"design.means: must map cells to means, got {means!r}")
        means = {}
    elif not errors and means.keys() != _CATALOG[spec.kind].mean_keys:
        got = set(means)
        expected = _CATALOG[spec.kind].mean_keys
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        if missing:
            errors.append(f"design.means: missing cells {missing}")
        if extra:
            errors.append(f"design.means: unexpected cells {extra}")
    for key, value in means.items():
        if not (isinstance(value, float) and math.isfinite(value) or is_real(value)):
            errors.append(
                f"design.means[{key}]: must be a finite real number, got {value!r}"
            )

    alpha = spec.alpha
    if not (type(alpha) is float or is_real(alpha)) or not 0.0 < alpha < 1.0:
        errors.append(
            f"analysis.alpha: must be a real number in (0, 1), got {spec.alpha!r}"
        )
    return errors, layout


def ensure_valid(spec: DesignSpec) -> _Layout:
    """Raise validate_spec's errors; return the layout its count check built."""
    return _checked(*_spec_errors(spec))


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


@dataclass(frozen=True)
class CellTable:
    """The design's cluster-by-period schedule, one entry per run of clusters.

    Every fixed effect is constant within a cluster-period cell, so the
    clusters that share a randomized group and a cell size are
    interchangeable for the analysis.  Pattern k is a run of count[k]
    such clusters that neighbour in dataset order; two runs may match,
    and a common cluster size makes each randomized group one run.  Its
    T cells, T = exposed.shape[1], are the periods from first[k] on that
    such a cluster is measured in: one for post-only kinds, and one for
    individually randomized kinds, where every randomized unit is one
    measurement.  The exposure flags are
    the values of the tested effect's design column; the kind fixes the
    other columns.

    Attributes:
        kind: the design kind, whose catalog row fixes the design columns.
        group: (K,) randomized group, as in ExemplaryDataset.arm.
        m: (K,) subjects per cell.
        count: (K,) clusters in the run.
        first: (K,) first period: 2 for rct_prepost's post units, else 1.
        exposed: (K, T) whether the tested effect applies in each cell.
        mean: (K, T) modeled cell means.
    """

    kind: DesignKind
    group: np.ndarray
    m: np.ndarray
    count: np.ndarray
    first: np.ndarray
    exposed: np.ndarray
    mean: np.ndarray

    @property
    def family(self) -> Family:
        """Measurement structure of one cluster, read off the kind catalog."""
        return _CATALOG[self.kind].family

    @property
    def n_clusters(self) -> int:
        """Number of randomized units (for rct kinds, each subject)."""
        return int(self.count.sum())

    @property
    def n_observations(self) -> int:
        """Number of measurements, the rows of the exemplary dataset."""
        return int(self.count @ self.m) * self.exposed.shape[1]

    @property
    def cluster_pattern(self) -> np.ndarray:
        """(n_clusters,) pattern of each cluster, in dataset order."""
        return np.repeat(np.arange(self.count.size), self.count)


def cell_table(spec: DesignSpec) -> CellTable:
    """The design's one cluster-by-period schedule, in runs of clusters.

    The rows of the layout its validation builds become arrays, with
    first periods, exposure (from each row's switch on) and means: the
    engine fits the table, correlation sizes covariance blocks from it
    and exemplary_dataset expands it.
    Splits each group's slice of a cluster size list where the size
    changes, which costs the length of the user's list.  The table is
    built for any valid spec, a degenerate step layout included; the
    engine refuses that when it fits.  A table of more than _MAX_CELLS
    patterns x periods cells is refused, from the counts, before any
    array is built.
    """
    return _cell_table(spec, ensure_valid(spec))


def _cell_table(spec: DesignSpec, layout: _Layout) -> CellTable:
    # cell_table of a valid spec, from the layout its validation built; the
    # group rows are chosen before any (K, T) array is built
    group, first, switch = map(np.array, (layout.group, layout.first, layout.switch))
    if isinstance(layout.size, (tuple, list)):
        row = np.repeat(np.arange(group.size), layout.clusters)
        sizes = np.asarray(layout.size, dtype=np.int64)
        # a run ends where the group or the size changes, and at the end
        edge = np.empty(sizes.size + 1, dtype=bool)
        edge[0] = edge[-1] = True
        edge[1:-1] = (row[1:] != row[:-1]) | (sizes[1:] != sizes[:-1])
        edges = edge.nonzero()[0]
        starts = edges[:-1]
        chosen, m, count = row[starts], sizes[starts], edges[1:] - starts
        group, first, switch = group[chosen], first[chosen], switch[chosen]
    else:
        chosen, count = slice(None), np.array(layout.clusters, np.int64)
        m = np.full(group.size, int(layout.size), np.int64)
    if m.size * layout.n_periods > _MAX_CELLS:
        raise ValueError(
            f"cell table of {m.size} patterns x {layout.n_periods} periods exceeds "
            f"the limit of {_MAX_CELLS} cells"
        )
    exposed = np.arange(layout.n_periods) >= switch[:, None]
    means = spec.cell_means
    if _CATALOG[spec.kind].periods == "wedge":
        mean = np.where(exposed, float(means[(1, 0)]), float(means[(0, 0)]))
    else:
        rows, periods = zip(layout.group, layout.first), range(layout.n_periods)
        mean = np.array([[float(means[(a, f + t)]) for t in periods] for a, f in rows])
        mean = mean[chosen]
    return CellTable(spec.kind, group, m, count, first, exposed, mean)


def exemplary_dataset(spec: DesignSpec) -> ExemplaryDataset:
    """Build the dataset whose outcome column is the modeled cell mean.

    Rows expand the cell table cluster by cluster.  Within a cluster,
    cohort designs nest times inside subjects, who keep their id across
    periods; every other design nests fresh subjects inside times.  This
    matches the covariance layout used for that kind.  Designs over
    MAX_DATASET_ROWS rows are refused from counts before any array is
    built.
    """
    layout = ensure_valid(spec)
    n_rows = _n_observations(layout, _exact_ints(layout.size))
    if n_rows > MAX_DATASET_ROWS:
        raise ValueError(
            f"exemplary dataset would have {n_rows} rows; limit is {MAX_DATASET_ROWS}"
        )
    cells = _cell_table(spec, layout)
    n_periods = cells.exposed.shape[1]
    sizes = np.repeat(cells.m, cells.count)
    if cells.family is Family.COHORT:
        subject_cluster = np.repeat(np.arange(sizes.size), sizes)
        cluster = np.repeat(subject_cluster, n_periods)
        period = np.tile(np.arange(n_periods), subject_cluster.size)
        subject = np.repeat(np.arange(1, subject_cluster.size + 1), n_periods)
    else:
        cell = np.repeat(np.arange(sizes.size * n_periods), np.repeat(sizes, n_periods))
        cluster, period = np.divmod(cell, n_periods)
        subject = np.arange(1, cell.size + 1)
    pattern = cells.cluster_pattern[cluster]
    return ExemplaryDataset(
        kind=spec.kind.value,
        arm=cells.group[pattern],
        cluster_id=cluster + 1,
        subject_id=subject,
        time=cells.first[pattern] + period,
        intervene=cells.exposed.astype(np.int64)[pattern, period],
        mean=cells.mean[pattern, period],
    )


def _column_text(values: np.ndarray, fmt: str) -> list[str]:
    """fmt % value for every entry, formatting each distinct bit pattern once."""
    values = np.ascontiguousarray(values)
    bits = values.view(f"u{values.itemsize}")
    _, first, index = np.unique(bits, return_index=True, return_inverse=True)
    text = np.array([fmt % value for value in values[first].tolist()])
    return text[index].tolist()


def _dataset_text(
    dataset: ExemplaryDataset, header: str, kind: str, formats: Sequence[str], sep: str
) -> str:
    # one line per row: the kind, then each CSV_HEADER column in its format;
    # a block of rows at a time, so only one block's line strings are alive
    arrays = [getattr(dataset, name) for name in CSV_HEADER[1:]]
    blocks = [header + "\n"]
    for start in range(0, dataset.n_rows, _TEXT_BLOCK_ROWS):
        stop = start + _TEXT_BLOCK_ROWS
        columns = [_column_text(a[start:stop], fmt) for a, fmt in zip(arrays, formats)]
        rows = (sep.join(row) for row in zip(*columns))
        blocks.append("".join(f"{kind}{sep}{row}\n" for row in rows))
    return "".join(blocks)


def dataset_to_csv(dataset: ExemplaryDataset) -> str:
    """Serialize a dataset with full-precision means."""
    formats = ("%d",) * 5 + ("%.17g",)
    return _dataset_text(dataset, ",".join(CSV_HEADER), dataset.kind, formats, ",")


def dataset_to_table(dataset: ExemplaryDataset) -> str:
    """Render a dataset as fixed-width text with means to three decimals."""
    header = "%-18s %4s %10s %10s %5s %9s %8s" % CSV_HEADER
    formats = ("%4d", "%10d", "%10d", "%5d", "%9d", "%8.3f")
    return _dataset_text(dataset, header, "%-18s" % dataset.kind, formats, " ")


# ---------------------------------------------------------------------------
# document decoding


def _is_number(value) -> bool:
    """A JSON number: int or float, but not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real(value):
    """A real value as a float; any other value as it is, for its check to name."""
    return float(value) if is_real(value) else value


def decode_spec_document(
    doc: Mapping,
) -> tuple[DesignSpec, CorrelationParams, str | None]:
    """Decode a JSON-style document into a spec, correlation, and policy.

    The decoder checks only what nothing else can: the document's
    shape, the shape of the means, the ddf policy's name and that
    sigma_y_sq and icc are given.  The counts, means and alpha go to
    validate_spec and the correlation values to CorrelationParams, their
    one checks, with whole counts as ints, lists as tuples and real
    values as floats, so each problem is reported once, in the check's
    words.  All problems are collected and raised together as a
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

    kind = design.get("kind")
    try:
        kind = DesignKind(kind)
    except ValueError:
        pass  # validate_spec names the kinds

    def count(value):
        if isinstance(value, list):
            return tuple(map(count, value))
        return int(value) if is_whole(value) else value

    counts = {name: count(design.get(name)) for name in _COUNT_FIELDS}

    ddf_policy = analysis.get("ddf_policy")
    if ddf_policy is not None and ddf_policy not in DDF_POLICIES:
        errors.append(
            f"analysis.ddf_policy: must be one of {list(DDF_POLICIES)}, "
            f"got {ddf_policy!r}"
        )
        ddf_policy = None

    cell_means: dict[tuple[int, int], float] = {}
    means = design.get("means")
    means_ok = True
    if isinstance(kind, DesignKind):
        keys = sorted(_CATALOG[kind].mean_keys)
        if _CATALOG[kind].periods == "wedge":
            values, shape = means, "stepped wedge kinds take [control, intervention]"
        else:
            n_times = len(keys) // 2
            # a malformed arm row drops out, so the count check below fails
            arms = means if isinstance(means, Sequence) and len(means) == 2 else ()
            values = [
                value
                for row in arms
                if isinstance(row, Sequence)
                and not isinstance(row, str)
                and len(row) == n_times
                for value in row
            ]
            shape = f"parallel kinds take two per-arm lists of {n_times} mean(s)"
        means_ok = (
            isinstance(values, Sequence)
            and len(values) == len(keys)
            and all(_is_number(v) for v in values)
        )
        if means_ok:
            cell_means = {key: _real(value) for key, value in zip(keys, values)}
        else:
            errors.append(f"design.means: {shape}, got {means!r}")

    required = [name for name in ("sigma_y_sq", "icc") if corr.get(name) is None]
    errors.extend(f"correlation.{name}: required" for name in required)
    params: CorrelationParams | None = None
    if not required:
        values = (corr.get(name, 0.0) for name in ("sigma_y_sq", "icc", "cac", "sac"))
        try:
            params = CorrelationParams(*map(_real, values))
        except ValueError as exc:
            errors.append(f"correlation: {exc}")

    alpha = analysis.get("alpha", 0.05)  # validate_spec checks it
    spec = DesignSpec(kind=kind, cell_means=cell_means, alpha=alpha, **counts)
    # validate_spec would call malformed means missing cells; they were reported above
    errors.extend(
        e for e in validate_spec(spec) if means_ok or not e.startswith("design.means")
    )
    if errors:
        raise SpecValidationError(errors)
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
