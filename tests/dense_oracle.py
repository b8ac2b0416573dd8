"""Subject-level GLS: the dense reference for the cluster-period engine.

The engine fits cell means of cluster patterns.  This module keeps the
direct route it replaced: build the exemplary dataset one row per
measurement, solve each cluster's full covariance block against
[X y], and take the denominator degrees of freedom from ranks of the
subject-level design matrix.  Tests compare the two routes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from wedgepower import correlation, designs
from wedgepower.correlation import CorrelationParams, VarianceComponents
from wedgepower.designs import DesignSpec
from wedgepower.engine import DDF_POLICIES, GlsEstimate

# relative tolerance for the exemplary-mean reproduction check
FIT_RTOL = 1e-8


def study_blocks(
    spec: DesignSpec, comps: VarianceComponents
) -> list[np.ndarray]:
    """Per-cluster covariance matrices, in dataset row order."""
    structure = designs.cluster_structure(spec)
    by_size: dict[int, np.ndarray] = {}
    blocks = []
    for cb in structure:
        if cb.n_subjects not in by_size:
            by_size[cb.n_subjects] = correlation.build_cluster_v(
                spec, comps, cluster_index=cb.index
            ).matrix
        blocks.append(by_size[cb.n_subjects])
    return blocks


def gls_estimate(
    x: np.ndarray, v_blocks: Sequence[np.ndarray], y: np.ndarray
) -> GlsEstimate:
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
    return GlsEstimate(beta=beta, cov=cov, information=information)


def exemplary_fit(
    x: np.ndarray, v_blocks: Sequence[np.ndarray], y: np.ndarray
) -> GlsEstimate:
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
    comps = correlation.derive_components(params, correlation.family_for_kind(spec.kind))
    dataset = designs.exemplary_dataset(spec)
    x = designs.design_matrix(spec, dataset)
    fit = exemplary_fit(x, study_blocks(spec, comps), dataset.mean)
    return comps, x, dataset, fit


def resolve_ddf(spec: DesignSpec, policy: str) -> int:
    """Denominator degrees of freedom from ranks of the subject rows."""
    if policy not in DDF_POLICIES:
        raise ValueError(f"unknown ddf policy {policy!r}; choose from {DDF_POLICIES}")
    dataset = designs.exemplary_dataset(spec)
    x = designs.design_matrix(spec, dataset)
    n = x.shape[0]
    rank_x = int(np.linalg.matrix_rank(x))

    if policy == "residual":
        ddf = n - rank_x
    else:
        if spec.kind in designs.RCT_KINDS:
            raise ValueError(
                f"ddf policy {policy!r} needs a clustered design; use 'residual' "
                f"for {spec.kind.value}"
            )
        if policy == "containment":
            ddf = n - spec.n_clusters
        else:
            columns = designs.design_columns(spec)
            structure = designs.cluster_structure(spec)
            const_idx = [j for j, c in enumerate(columns) if c.cluster_constant]
            cluster_level = np.array([x[cb.row_start, const_idx] for cb in structure])
            between = spec.n_clusters - int(np.linalg.matrix_rank(cluster_level))
            within = (n - rank_x) - between
            contrast = designs.hypothesis_contrast(spec)
            selected = np.flatnonzero(contrast.matrix[0])
            uses_between = any(columns[j].involves_cluster_constant for j in selected)
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
    return (designs.hypothesis_contrast(spec).matrix @ fit.cov @ xtvi)[0]
