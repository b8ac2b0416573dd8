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
Every kind is one longitudinal model: T free period means plus q <= 3
columns they do not span, the exposure last.  The period means are
absorbed in closed form and only the q x q information is inverted, so
the fit costs O(runs x periods).  It gives the estimates, the tested
coefficient's variance and its weights on the cell means, which the
Monte Carlo check draws its contrast from.
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
# the tested design column of each period model, the last column
_CONTRAST = {"post": "treated", "prepost": "treated_post", "wedge": "intervene"}


@dataclass(frozen=True)
class GlsEstimate:
    """Generalized least squares fit under a known covariance.

    Attributes:
        beta: the first period's mean, the other columns' effects but
            the tested one, each later period's difference from the
            first, and the tested effect; for a parallel kind, its
            intercept, arm, post indicator and exposure.
        variance: the tested coefficient's variance, the last diagonal
            entry of the inverse information.
        weights: (K, T) weights of the cell means in the tested
            coefficient, sum_k count_k weights[k] . ybar_k: row k is
            fit_cells' C_k times the inverse's last column.  A subject
            row's weight is its cell's entry over its subject count.
    """

    beta: np.ndarray
    variance: float
    weights: np.ndarray


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


def _require_full_rank(cells: designs.CellTable) -> None:
    """Refuse cells whose design rows are rank deficient.

    The cells hold every distinct row of the subject-level design
    matrix, so this is its rank, read off the exposure without an SVD:
    the period means span every function of the period and the arms
    separate a parallel kind's other columns, so the rank is full
    exactly when two patterns differ in exposure in some period.  A
    deficient rank signals a degenerate schedule, for example a
    single-step wedge whose exposure flag duplicates a time indicator.
    """
    exposed = cells.exposed
    if (exposed == exposed[0]).all():
        raise ValueError(
            "design matrix is rank deficient; the schedule does not separate "
            "the modeled effects (degenerate step layout)"
        )


def _require_positive(value: float) -> None:
    # NaN and infinity come from a covariance too small to invert
    if not 0.0 < value < math.inf:
        raise ValueError("information matrix is singular")


def _design_rows(cells: designs.CellTable, shift: float) -> np.ndarray:
    """(q + 1, K, T): the 0/1 columns the period means do not span, then the means.

    Exposure last of the q; a pre-post kind's arm indicator first and,
    for single measurements (T = 1), its post indicator next.  The
    means are taken less shift.
    """
    exposed = cells.exposed
    prepost = designs.kind_traits(cells.kind).periods == "prepost"
    single = prepost and exposed.shape[1] == 1
    rows = np.empty((2 + prepost + single, *exposed.shape))
    if prepost:
        rows[0] = (cells.group == 2)[:, None]
    if single:
        rows[1] = cells.time == 2
    rows[-2] = exposed
    np.subtract(cells.mean, shift, out=rows[-1])
    return rows


def fit_cells(cells: designs.CellTable, comps: VarianceComponents) -> GlsEstimate:
    """GLS fit of the cell means under the subject-level covariance.

    A cluster of pattern k adds X_k' S_k^-1 [X_k, ybar_k] to the
    information and score, S_k = a_k J + b_k I the covariance of its
    cell means: the fit of the subject rows, as every fixed effect is
    constant within a cell.  The T period means are absorbed: S_k^-1
    is 1 / b_k on a cluster's deviations from its own mean and
    1 / (b_k + T a_k) on that mean, and A = sum_k count_k S_k^-1
    inverts in the same two parts, so nothing cancels as T a_k outgrows
    b_k.  With B the cross block of the q other columns X, the
    contrasts C_k = S_k^-1 (X_k - A^-1 B) give the q x q information
    sum_k count_k C_k' X_k, the score sum_k count_k C_k' ybar_k and the
    cell weights, C_k times the inverse's last column.  The means are
    less the first cell's, and S_k is scaled by the power of two that
    brings the least b_k into [1/2, 1), so no sum overflows.

    Raises:
        ValueError: if the design rows are rank deficient (a degenerate
            step layout), the covariance or the information is singular,
            or the fixed effects do not reproduce the cell means.
    """
    _require_full_rank(cells)
    a, b = comps.cell_variances(cells.m)
    n_periods = cells.exposed.shape[1]
    count = cells.count.astype(float)
    least = float(b.min())
    # no entry of the information exceeds clusters x periods / b, so a
    # covariance too small for that bound to be finite is refused here
    _require_positive(float(np.add.reduce(count)) * n_periods / least)
    scale = math.ldexp(1.0, -math.frexp(least)[1])
    # count_k / b_k and count_k / (b_k + T a_k) and their shares of their
    # sums, the within and mean parts of count_k S_k^-1 and A^-1
    inner = b * scale
    precision = np.divide(count, (inner, inner + (n_periods * scale) * a))
    del a, b, inner
    shares = precision / np.add.reduce(precision, 1)[:, None]
    shift = float(cells.mean[0, 0])
    rows = _design_rows(cells, shift)
    q = rows.shape[0] - 1
    x, means = rows[:q], rows[q]
    # count_k C_k: each column's deviations from its pattern's mean less
    # their within-share average, times count_k / b_k, plus its pattern
    # means less their mean-share average, times count_k / (b_k + T a_k)
    level = np.add.reduce(x, 2)
    if n_periods > 1:
        level /= n_periods
        contrast = x - level[..., None]
        contrast -= (shares[0] @ contrast)[:, None]
        contrast *= precision[0][:, None]
    level -= np.dot(level, shares[1])[:, None]
    level *= precision[1]
    if n_periods > 1:
        contrast += level[..., None]
    else:
        # a single period is its pattern's mean, with no deviation from it
        contrast = level[..., None]
    del level, precision
    flat = contrast.reshape(q, -1)
    # X' C and C' ybar in one product with the long side second: a row
    # over 10^4 cells or more wakes a BLAS thread that slows what follows
    products = np.dot(rows.reshape(q + 1, -1), flat.T)
    try:
        cov = np.linalg.inv(products[:q].T)
    except np.linalg.LinAlgError as exc:
        raise ValueError("information matrix is singular") from exc
    variance = float(cov[-1, -1]) / scale
    _require_positive(variance)
    theta = np.dot(cov, products[q])
    # the period means of the means less the effects, then the residuals
    x *= theta[:, None, None]
    for i in range(q):
        means -= x[i]
    del x, rows
    parts = np.dot(shares, means)
    if n_periods > 1:
        deviation, mean = np.add.reduce(parts, 1).tolist()
        mu = parts[0] + (mean - deviation) / n_periods
    else:
        mu = parts[1]
    means -= mu
    # residual and outcome norms over the subject rows; the outcome's
    # matters only once the residual's exceeds _FIT_RTOL
    subjects = cells.count * cells.m
    means *= means
    misfit = math.sqrt(float(np.add.reduce(np.dot(subjects, means))))
    del means
    if misfit > _FIT_RTOL and misfit > _FIT_RTOL * math.sqrt(
        float(np.add.reduce(np.dot(subjects, np.square(cells.mean))))
    ):
        raise ValueError(
            "exemplary means are not reproduced by the fixed effects "
            f"(residual norm {misfit:.3e}); the cell means are inconsistent "
            "with the design model"
        )
    # C_k times g, the inverse's last column, over count_k
    weights = (cov[-1:] @ flat).reshape(contrast.shape[1:])
    weights /= count[:, None]
    beta = np.concatenate(((mu[0] + shift,), theta[:-1], mu[1:] - mu[0], theta[-1:]))
    return GlsEstimate(beta=beta, variance=variance, weights=weights)


def _ddf_from_cells(
    spec: DesignSpec, policy: str, cells: designs.CellTable, rank_x: int
) -> int:
    """Denominator degrees of freedom under a named policy.

    residual: observations minus the design matrix rank.
    containment: observations minus the number of clusters.
    between_within: the residual degrees of freedom are split into a
        between-cluster stratum (clusters minus the rank of the
        cluster-constant columns) and a within-cluster remainder; the
        tested effect of a parallel design is the randomized group's
        and takes the between stratum, a wedge's exposure varies within
        clusters and takes the within stratum.

    rank_x is the design matrix rank, the fit's number of coefficients:
    fit_cells refuses rows without full rank.  The rank of the
    cluster-constant columns is their number, read without a design
    matrix.

    Raises:
        ValueError: if the policy is unknown, does not apply to the
            design, or leaves no degrees of freedom.
    """
    if policy not in DDF_POLICIES:
        raise ValueError(f"unknown ddf policy {policy!r}; choose from {DDF_POLICIES}")
    n = cells.n_observations
    periods = designs.kind_traits(spec.kind).periods
    wedge = periods == "wedge"

    if policy == "residual":
        ddf = n - rank_x
    elif policy == "containment":
        _require_clustered(spec, policy)
        ddf = n - cells.n_clusters
    else:
        _require_clustered(spec, policy)
        # the intercept and a two-period arm indicator are constant within
        # every cluster, and period indicators are not: a clustered kind
        # measures each cluster in every period.  The tested column is
        # constant when no cluster changes exposure.
        exposed = cells.exposed
        constant = 1 + int(periods == "prepost") + int((exposed == exposed[:, :1]).all())
        between = cells.n_clusters - constant
        within = (n - rank_x) - between
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
    # the tested effect is the last design column: a one-row Wald F, in
    # Python floats, which overflow to an infinite F without a warning
    effect = float(fit.beta[-1])
    fvalue = effect * (effect / fit.variance)
    ddf = _ddf_from_cells(spec, policy, cells, fit.beta.size)
    result = distributions.power_from_f(
        fvalue, 1, ddf, spec.alpha if alpha is None else alpha, ddf_policy=policy
    )
    return Evaluation(
        result=result,
        fit=fit,
        cells=cells,
        components=comps,
        contrast=_CONTRAST[designs.kind_traits(spec.kind).periods],
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
