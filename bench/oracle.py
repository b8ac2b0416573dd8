"""Independent noncentrality oracle for the benchmark's output checks.

Every fixed effect of every design kind is constant within a
cluster-period cell, so the GLS information of the subject-level model
equals the information of the cluster-period means (Hussey & Hughes 2007,
Contemp Clin Trials; Hooper et al. 2016, Stat Med):

    I = sum_c X_c' S_c^-1 X_c,
    S_c = (sc2 + ss2/m) J + (sct2 + (sst2 + se2)/m) I,

with X_c one row per period the cluster is measured in and m the subjects
per cluster-period.  The noncentrality of the one-row contrast is then
theta^2 / (I^-1)_jj.  The variance components are split from the marginal
parameters here, not by the package, so the check is independent of
``correlation.derive_components`` and of the dense per-cluster solve.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from wedgepower.designs import DesignKind, DesignSpec
from wedgepower.correlation import CorrelationParams

POST_ONLY = frozenset({DesignKind.RCT_POST, DesignKind.CRT_POST})
PREPOST = frozenset(
    {DesignKind.RCT_PREPOST, DesignKind.CRT_PREPOST_XSEC, DesignKind.CRT_PREPOST_COHORT}
)
WEDGE = frozenset({DesignKind.SWD_XSEC, DesignKind.SWD_COHORT})
COHORT = frozenset({DesignKind.CRT_PREPOST_COHORT, DesignKind.SWD_COHORT})


def components(kind: DesignKind, params: CorrelationParams) -> tuple[float, ...]:
    """(sc2, sct2, ss2, sst2, se2) for one design kind."""
    s2, icc, cac, sac = params.sigma_y_sq, params.icc, params.cac, params.sac
    cluster, subject = icc * s2, (1.0 - icc) * s2
    if kind in POST_ONLY:
        return cluster, 0.0, 0.0, 0.0, subject
    if kind in COHORT:
        return cac * cluster, (1.0 - cac) * cluster, sac * subject, (1.0 - sac) * subject, 0.0
    return cac * cluster, (1.0 - cac) * cluster, 0.0, 0.0, subject


def _cluster_rows(spec: DesignSpec) -> Counter:
    """Multiset of (periods, period rows as a tuple, subjects per period)."""
    kind = spec.kind
    cells: Counter = Counter()
    if kind == DesignKind.RCT_POST:
        for arm in (1, 2):
            cells[(((1.0, float(arm == 2)),), 1)] += spec.per_group_n
        return cells
    if kind == DesignKind.RCT_PREPOST:
        for arm in (1, 2):
            for time in (1, 2):
                row = (1.0, float(arm == 2), float(time == 2), float(arm == 2 and time == 2))
                cells[((row,), 1)] += spec.per_group_n
        return cells

    sizes = spec.cluster_subject_counts()
    if kind in POST_ONLY | PREPOST:
        groups = [1] * spec.clusters_per_arm[0] + [2] * spec.clusters_per_arm[1]
    else:
        groups = [s for s, n in enumerate(spec.clusters_per_step, start=1) for _ in range(n)]
    n_times = spec.n_times
    for group, size in zip(groups, sizes):
        if kind in POST_ONLY:
            rows = ((1.0, float(group == 2)),)
        elif kind in PREPOST:
            treated = float(group == 2)
            rows = ((1.0, treated, 0.0, 0.0), (1.0, treated, 1.0, treated))
        else:
            threshold = spec.baseline_b + (group - 1) * spec.per_step_t
            rows = tuple(
                (1.0, *(float(t == s) for s in range(2, n_times + 1)), float(t > threshold))
                for t in range(1, n_times + 1)
            )
        cells[(rows, size)] += 1
    return cells


def contrast_column(spec: DesignSpec) -> int:
    """Column of the tested coefficient in the cluster-period design."""
    if spec.kind in POST_ONLY:
        return 1
    if spec.kind in PREPOST:
        return 3
    return spec.n_times


def effect(spec: DesignSpec) -> float:
    """The tested contrast of the modeled cell means."""
    m = spec.cell_means
    if spec.kind in POST_ONLY:
        return m[(2, 1)] - m[(1, 1)]
    if spec.kind in PREPOST:
        return (m[(2, 2)] - m[(2, 1)]) - (m[(1, 2)] - m[(1, 1)])
    return m[(1, 0)] - m[(0, 0)]


def information(spec: DesignSpec, params: CorrelationParams) -> np.ndarray:
    """Cluster-period GLS information matrix of the design."""
    sc2, sct2, ss2, sst2, se2 = components(spec.kind, params)
    total = None
    for (rows, m), count in _cluster_rows(spec).items():
        x = np.array(rows)
        t = x.shape[0]
        cov = (sc2 + ss2 / m) * np.ones((t, t)) + (sct2 + (sst2 + se2) / m) * np.eye(t)
        term = count * (x.T @ np.linalg.solve(cov, x))
        total = term if total is None else total + term
    return total


def unit_noncentrality(spec: DesignSpec, params: CorrelationParams) -> float:
    """Noncentrality per unit squared effect, 1 / (I^-1)_jj."""
    j = contrast_column(spec)
    return 1.0 / float(np.linalg.inv(information(spec, params))[j, j])


def noncentrality(spec: DesignSpec, params: CorrelationParams) -> float:
    """Noncentrality of the design's primary contrast."""
    return effect(spec) ** 2 * unit_noncentrality(spec, params)
