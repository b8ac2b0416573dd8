"""Direct power evaluation on exemplary datasets.

The analytic route: take the dataset whose outcome is the modeled mean,
fit it by generalized least squares under the true covariance, and read
the noncentrality of the contrast of interest straight off the fit.  The
power is then a noncentral F tail with a denominator degrees of freedom
chosen by a named policy.

Every fixed effect is constant within a cluster-period cell and the
covariance is exchangeable within one, so the fit runs on the cell
means of each distinct cluster pattern (Hussey & Hughes 2007; Hooper et
al. 2016): its cost follows clusters times periods, not subjects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import correlation, designs, distributions
from .correlation import CorrelationParams, VarianceComponents
from .designs import DesignSpec
from .distributions import PowerResult

__all__ = [
    "DDF_POLICIES",
    "GlsEstimate",
    "PowerAudit",
    "Evaluation",
    "default_ddf_policy",
    "fit_cells",
    "wald_f",
    "resolve_ddf",
    "evaluate",
    "analytic_power",
    "power_audit",
]

DDF_POLICIES = ("residual", "containment", "between_within")

# relative tolerance for the exemplary-mean reproduction check
_FIT_RTOL = 1e-8


@dataclass(frozen=True)
class GlsEstimate:
    """Generalized least squares fit under a known covariance.

    Attributes:
        beta: coefficient estimates.
        cov: their covariance, the inverse of the information matrix.
        information: X' V^{-1} X accumulated over clusters.
    """

    beta: np.ndarray
    cov: np.ndarray
    information: np.ndarray


@dataclass(frozen=True)
class Evaluation:
    """One analytic evaluation of a design: the fit and the power it gives."""

    result: PowerResult
    fit: GlsEstimate
    cells: designs.CellTable
    components: VarianceComponents
    contrast: designs.Contrast

    def cell_weights(self) -> np.ndarray:
        """(K, T) weights of the cell means in the contrast estimate.

        Row k is l' I^-1 X_k' S_k^-1 for a cluster of pattern k; a
        subject row's weight is its cell's entry divided by the cell's
        subject count.
        """
        lcov = self.contrast.matrix[0] @ self.fit.cov
        return _precision_x(self.cells, self.components) @ lcov


@dataclass(frozen=True)
class PowerAudit:
    """Everything that went into one analytic power figure."""

    result: PowerResult
    kind: str
    n_observations: int
    n_clusters: int
    n_times: int
    contrast: str
    beta: tuple[float, ...]
    components: VarianceComponents
    ddf_policy: str


def default_ddf_policy(kind: designs.DesignKind) -> str:
    """Policy used when the caller does not pick one.

    Individually randomized kinds use the residual rule; post-only
    cluster designs the containment rule; repeated-measures cluster
    designs the between-within rule.
    """
    if kind in designs.RCT_KINDS:
        return "residual"
    if kind == designs.DesignKind.CRT_POST:
        return "containment"
    return "between_within"


def _require_clustered(spec: DesignSpec, policy: str) -> None:
    if spec.kind in designs.RCT_KINDS:
        raise ValueError(
            f"ddf policy {policy!r} needs a clustered design; use 'residual' "
            f"for {spec.kind.value}"
        )


def _validate_params_for_kind(spec: DesignSpec, params: CorrelationParams) -> None:
    if spec.kind in designs.RCT_KINDS and params.icc != 0.0:
        raise ValueError(
            "individually randomized kinds model independent subjects; "
            f"icc must be 0, got {params.icc!r}"
        )


def _precision_x(cells: designs.CellTable, comps: VarianceComponents) -> np.ndarray:
    """S_k^-1 X_k for every pattern, S_k the covariance of its cell means.

    S_k = a J + b I with a = cluster + subject / m and
    b = cluster_by_time + (subject_by_time + residual) / m, whose inverse
    is (I - a / (b + T a) J) / b.
    """
    n_periods = cells.x.shape[1]
    within = comps.subject_by_time + comps.residual
    a = comps.cluster + comps.subject / cells.m
    b = comps.cluster_by_time + within / cells.m
    # the subject-level covariance is singular exactly when a cell's
    # periods are collinear or several subjects share a cell with no
    # measurement-level variance between them
    if np.any(b <= 0.0) or (within <= 0.0 and np.any(cells.m > 1)):
        raise ValueError(
            "cluster covariance is singular; the correlation parameters "
            "leave no measurement-level variation"
        )
    gamma = a / (b + n_periods * a)
    column_sums = cells.x.sum(axis=1)
    return (cells.x - (gamma[:, None] * column_sums)[:, None, :]) / b[:, None, None]


def fit_cells(cells: designs.CellTable, comps: VarianceComponents) -> GlsEstimate:
    """GLS fit of the cell means under the subject-level covariance.

    Each cluster contributes X_k' S_k^-1 X_k to the information and
    X_k' S_k^-1 ybar_k to the score, where S_k is the covariance of its
    cell means; this equals the fit of the subject rows because every
    fixed effect is constant within a cell.  The modeled means must be
    exactly representable by the fixed effects.

    Raises:
        ValueError: if the covariance or the information is singular, or
            the fixed effects do not reproduce the cell means.
    """
    sx = _precision_x(cells, comps)
    information = np.einsum("k,ktp,ktq->pq", cells.count, cells.x, sx)
    score = np.einsum("k,ktp,kt->p", cells.count, sx, cells.mean)
    p = information.shape[0]
    try:
        beta = np.linalg.solve(information, score)
        cov = np.linalg.solve(information, np.eye(p))
    except np.linalg.LinAlgError as exc:
        raise ValueError("information matrix is singular") from exc

    # residual and outcome norms over the subject rows, cell by cell
    rows = (cells.count * cells.m)[:, None]
    y_norm = math.sqrt(float(np.sum(rows * cells.mean**2)))
    misfit = math.sqrt(float(np.sum(rows * (cells.x @ beta - cells.mean) ** 2)))
    if misfit > _FIT_RTOL * max(1.0, y_norm):
        raise ValueError(
            "exemplary means are not reproduced by the fixed effects "
            f"(residual norm {misfit:.3e}); the cell means are inconsistent "
            "with the design model"
        )
    return GlsEstimate(beta=beta, cov=cov, information=information)


def wald_f(
    beta: np.ndarray, cov: np.ndarray, contrast: np.ndarray
) -> tuple[float, int]:
    """F statistic of a linear hypothesis about fitted coefficients.

    Returns the statistic and its numerator degrees of freedom (the
    number of contrast rows).
    """
    contrast = np.atleast_2d(np.asarray(contrast, dtype=float))
    q = contrast.shape[0]
    estimate = contrast @ beta
    middle = contrast @ cov @ contrast.T
    try:
        solved = np.linalg.solve(middle, estimate)
    except np.linalg.LinAlgError as exc:
        raise ValueError("contrast covariance is singular") from exc
    fvalue = float(estimate @ solved) / q
    return fvalue, q


def resolve_ddf(spec: DesignSpec, policy: str) -> int:
    """Denominator degrees of freedom under a named policy.

    residual: observations minus the design matrix rank.
    containment: observations minus the number of clusters.
    between_within: the residual degrees of freedom are split into a
        between-cluster stratum (clusters minus the rank of the
        cluster-constant columns) and a within-cluster remainder; the
        tested effect takes the between stratum when it involves a
        cluster-constant factor and the within stratum otherwise.
    """
    return _ddf_from_cells(spec, policy, designs.cell_table(spec))


def _ddf_from_cells(spec: DesignSpec, policy: str, cells: designs.CellTable) -> int:
    if policy not in DDF_POLICIES:
        raise ValueError(f"unknown ddf policy {policy!r}; choose from {DDF_POLICIES}")
    n = spec.n_observations
    # cell_table refuses rank-deficient designs
    rank_x = cells.x.shape[2]

    if policy == "residual":
        ddf = n - rank_x
    elif policy == "containment":
        _require_clustered(spec, policy)
        ddf = n - spec.n_clusters
    else:
        _require_clustered(spec, policy)
        columns = designs.design_columns(spec)
        const_idx = [j for j, c in enumerate(columns) if c.cluster_constant]
        cluster_level = cells.x[:, 0, const_idx]
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


def evaluate(
    spec: DesignSpec,
    params: CorrelationParams,
    *,
    ddf_policy: str | None = None,
    alpha: float | None = None,
) -> Evaluation:
    """Fit the exemplary cell means and turn the fit into a power figure.

    The one pipeline behind analytic_power, power_audit and the Monte
    Carlo check.  Its cost follows clusters times periods, never the
    number of subjects.

    Args:
        spec: design description.
        params: marginal correlation description.
        ddf_policy: one of DDF_POLICIES; defaults per design kind.
        alpha: type I error rate; defaults to spec.alpha.
    """
    _validate_params_for_kind(spec, params)
    policy = ddf_policy or default_ddf_policy(spec.kind)
    comps = correlation.derive_components(params, correlation.family_for_kind(spec.kind))
    cells = designs.cell_table(spec)
    fit = fit_cells(cells, comps)
    contrast = designs.hypothesis_contrast(spec)
    fvalue, ndf = wald_f(fit.beta, fit.cov, contrast.matrix)
    ddf = _ddf_from_cells(spec, policy, cells)
    result = distributions.power_from_f(
        fvalue, ndf, ddf, spec.alpha if alpha is None else alpha, ddf_policy=policy
    )
    return Evaluation(
        result=result, fit=fit, cells=cells, components=comps, contrast=contrast
    )


def analytic_power(
    spec: DesignSpec,
    params: CorrelationParams,
    *,
    ddf_policy: str | None = None,
    alpha: float | None = None,
) -> PowerResult:
    """Power of the design's primary hypothesis test by direct evaluation.

    Fits the exemplary dataset by GLS under the covariance implied by
    params, turns the contrast into a noncentrality, resolves the
    denominator degrees of freedom by policy, and evaluates the
    noncentral F tail.

    Args:
        spec: design description.
        params: marginal correlation description.
        ddf_policy: one of DDF_POLICIES; defaults per design kind.
        alpha: type I error rate; defaults to spec.alpha.

    Returns:
        PowerResult; its ddf_policy field records the policy used.
    """
    return evaluate(spec, params, ddf_policy=ddf_policy, alpha=alpha).result


def power_audit(
    spec: DesignSpec,
    params: CorrelationParams,
    *,
    ddf_policy: str | None = None,
    alpha: float | None = None,
) -> PowerAudit:
    """analytic_power plus the intermediate quantities that produced it."""
    run = evaluate(spec, params, ddf_policy=ddf_policy, alpha=alpha)
    return PowerAudit(
        result=run.result,
        kind=spec.kind.value,
        n_observations=spec.n_observations,
        n_clusters=spec.n_clusters,
        n_times=spec.n_times,
        contrast=run.contrast.name,
        beta=tuple(float(b) for b in run.fit.beta),
        components=run.components,
        ddf_policy=run.result.ddf_policy,
    )
