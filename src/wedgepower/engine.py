"""Direct power evaluation on exemplary datasets.

The analytic route: take the dataset whose outcome is the modeled mean,
fit it by generalized least squares under the true covariance, and read
the noncentrality of the contrast of interest straight off the fit.  The
power is then a noncentral F tail with a denominator degrees of freedom
chosen by a named policy.

Every fixed effect is constant within a cluster-period cell and the
covariance is exchangeable within one, so the fit runs on the cell
means of each run of interchangeable clusters (Hussey & Hughes 2007;
Hooper et al. 2016): its cost follows runs times periods, not subjects.
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
    "Evaluation",
    "default_ddf_policy",
    "fit_cells",
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
    """One analytic evaluation of a design: the fit and the power it gives.

    contrast names the tested effect, the last design column.
    """

    result: PowerResult
    fit: GlsEstimate
    cells: designs.CellTable
    components: VarianceComponents
    contrast: str

    def cell_weights(self) -> np.ndarray:
        """(K, T) weights of the cell means in the tested coefficient.

        Row k is the last row of I^-1 times X_k' S_k^-1 for a cluster of
        pattern k; a subject row's weight is its cell's entry divided by
        the cell's subject count.
        """
        return _precision_x(self.cells, self.components) @ self.fit.cov[-1]


def default_ddf_policy(kind: str) -> str:
    """Policy used when the caller does not pick one for a design kind or its value.

    Individually randomized kinds use the residual rule; post-only
    cluster designs the containment rule; repeated-measures cluster
    designs the between-within rule.
    """
    traits = designs.kind_traits(kind)
    if not traits.clustered:
        return "residual"
    return "containment" if traits.periods == "post" else "between_within"


def _require_clustered(spec: DesignSpec, policy: str) -> None:
    if not designs.kind_traits(spec.kind).clustered:
        raise ValueError(
            f"ddf policy {policy!r} needs a clustered design; use 'residual' "
            f"for {spec.kind.value}"
        )


def variance_components(
    spec: DesignSpec, params: CorrelationParams
) -> VarianceComponents:
    """derive_components for the measurement family of the design's clusters.

    Raises:
        ValueError: if an individually randomized kind has a nonzero
            icc, or derive_components refuses params for the family.
    """
    if not designs.kind_traits(spec.kind).clustered and params.icc != 0.0:
        raise ValueError(
            "individually randomized kinds model independent subjects; "
            f"icc must be 0, got {params.icc!r}"
        )
    return correlation.derive_components(params, spec.family)


def _precision_x(cells: designs.CellTable, comps: VarianceComponents) -> np.ndarray:
    """S_k^-1 X_k for every pattern, S_k the covariance of its cell means.

    S_k = a J + b I has inverse (I - a / (b + T a) J) / b.
    """
    n_periods = cells.x.shape[1]
    a, b = comps.cell_variances(cells.m)
    gamma = a / (b + n_periods * a)
    column_sums = cells.x.sum(axis=1)
    return (cells.x - (gamma[:, None] * column_sums)[:, None, :]) / b[:, None, None]


def _require_full_rank(cells: designs.CellTable) -> None:
    """Refuse cells whose design rows are rank deficient.

    The cells hold every distinct row of the subject-level design
    matrix, so this is its rank, read off the tested column without an
    SVD.  A wedge's other columns, the intercept and an indicator for
    every period after the first, span every function of the period,
    so its rank is full exactly when exposure is not one: when two
    patterns differ in exposure in some period.  A parallel or
    individually randomized kind has both arms, so its 2 or 4 columns
    have full rank and its tested column differs between the arms.  A
    deficient rank signals a degenerate schedule, for example a
    single-step wedge whose exposure flag duplicates a time indicator.
    """
    tested = cells.x[:, :, -1]
    if np.all(tested == tested[0]):
        raise ValueError(
            "design matrix is rank deficient; the schedule does not separate "
            "the modeled effects (degenerate step layout)"
        )


def _normal_equations(
    cells: designs.CellTable, comps: VarianceComponents
) -> tuple[np.ndarray, np.ndarray]:
    """Information and score, sum_k count_k X_k' S_k^-1 [X_k, ybar_k].

    The count-weighted S_k^-1 X_k of all patterns form one (p, K T)
    matrix, so each sum is one matrix product over the cell rows.
    """
    p = cells.x.shape[2]
    weighted = (_precision_x(cells, comps) * cells.count[:, None, None]).reshape(-1, p).T
    return weighted @ cells.x.reshape(-1, p), weighted @ cells.mean.reshape(-1)


def fit_cells(cells: designs.CellTable, comps: VarianceComponents) -> GlsEstimate:
    """GLS fit of the cell means under the subject-level covariance.

    Each cluster contributes X_k' S_k^-1 X_k to the information and
    X_k' S_k^-1 ybar_k to the score, where S_k is the covariance of its
    cell means; this equals the fit of the subject rows because every
    fixed effect is constant within a cell.  The modeled means must be
    exactly representable by the fixed effects.

    Raises:
        ValueError: if the design rows are rank deficient (a degenerate
            step layout), the covariance or the information is singular,
            or the fixed effects do not reproduce the cell means.
    """
    _require_full_rank(cells)
    information, score = _normal_equations(cells, comps)
    try:
        cov = np.linalg.inv(information)
    except np.linalg.LinAlgError as exc:
        raise ValueError("information matrix is singular") from exc
    beta = cov @ score

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


def _ddf_from_cells(spec: DesignSpec, policy: str, cells: designs.CellTable) -> int:
    """Denominator degrees of freedom under a named policy.

    residual: observations minus the design matrix rank.
    containment: observations minus the number of clusters.
    between_within: the residual degrees of freedom are split into a
        between-cluster stratum (clusters minus the rank of the
        cluster-constant columns) and a within-cluster remainder; the
        tested effect of a parallel design is the randomized group's
        and takes the between stratum, a wedge's exposure varies within
        clusters and takes the within stratum.

    The cells' design rows must have full rank, as fit_cells checks, so
    the rank of the cluster-constant columns is their number.

    Raises:
        ValueError: if the policy is unknown, does not apply to the
            design, or leaves no degrees of freedom.
    """
    if policy not in DDF_POLICIES:
        raise ValueError(f"unknown ddf policy {policy!r}; choose from {DDF_POLICIES}")
    n = cells.n_observations
    rank_x = cells.x.shape[2]

    if policy == "residual":
        ddf = n - rank_x
    elif policy == "containment":
        _require_clustered(spec, policy)
        ddf = n - cells.n_clusters
    else:
        _require_clustered(spec, policy)
        x = cells.x
        constant = int(np.count_nonzero(np.all(x == x[:, :1], axis=(0, 1))))
        between = cells.n_clusters - constant
        within = (n - rank_x) - between
        wedge = designs.kind_traits(spec.kind).periods == "wedge"
        ddf = within if wedge else between

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
    Carlo check.  Its cost follows the cell table's runs times periods,
    never the number of clusters or subjects.

    Args:
        spec: design description.
        params: marginal correlation description.
        ddf_policy: one of DDF_POLICIES; defaults per design kind.
        alpha: type I error rate; defaults to spec.alpha.
    """
    cells = designs.cell_table(spec)
    policy = ddf_policy or default_ddf_policy(spec.kind)
    comps = variance_components(spec, params)
    fit = fit_cells(cells, comps)
    # the tested effect is the last design column: a one-row Wald F
    b = fit.beta[-1]
    fvalue = float(b * (b / fit.cov[-1, -1]))
    ddf = _ddf_from_cells(spec, policy, cells)
    result = distributions.power_from_f(
        fvalue, 1, ddf, spec.alpha if alpha is None else alpha, ddf_policy=policy
    )
    return Evaluation(
        result=result, fit=fit, cells=cells, components=comps, contrast=cells.columns[-1]
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


# the audit of a power figure is the Evaluation that produced it
power_audit = evaluate
