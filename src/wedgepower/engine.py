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
A parallel kind's 2 or 4 design columns are fitted as a dense p x p
system.  A stepped wedge's intercept and period indicators span the
same space as T free period means, whose block of the information is
a multiple of I minus a multiple of J; that block is absorbed in
closed form, so a wedge's fit costs O(runs x periods) and holds no
array with a column per period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
# design columns of the parallel period models; a wedge has T + 1
_PARALLEL_COLUMNS = {"post": 2, "prepost": 4}


@dataclass(frozen=True)
class GlsEstimate:
    """Generalized least squares fit under a known covariance.

    Attributes:
        beta: coefficient estimates of the design columns.  A parallel
            kind's are its intercept, treated-arm indicator and, with two
            periods, post-period indicator and their product; a wedge's
            are its first period's mean, each later period's difference
            from it, and the exposure effect.  The tested one is last.
        variance: the tested coefficient's variance, the last diagonal
            entry of the inverse information.
    """

    beta: np.ndarray
    variance: float


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
        cells, comps = self.cells, self.components
        if _is_wedge(cells):
            return _wedge_weights(cells, _absorb_periods(cells, comps))
        _, precision_x, information, _ = _parallel_terms(cells, comps)
        return precision_x @ np.linalg.inv(information)[-1]


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


def _is_wedge(cells: designs.CellTable) -> bool:
    return designs.kind_traits(cells.kind).periods == "wedge"


def _require_full_rank(cells: designs.CellTable) -> None:
    """Refuse cells whose design rows are rank deficient.

    The cells hold every distinct row of the subject-level design
    matrix, so this is its rank, read off the exposure without an SVD.
    A wedge's other columns, the intercept and an indicator for every
    period after the first, span every function of the period, so its
    rank is full exactly when exposure is not one: when two patterns
    differ in exposure in some period.  A parallel or individually
    randomized kind has both arms, so its 2 or 4 columns have full rank
    and its exposure differs between the arms.  A deficient rank signals
    a degenerate schedule, for example a single-step wedge whose
    exposure flag duplicates a time indicator.
    """
    exposed = cells.exposed
    if (exposed == exposed[0]).all():
        raise ValueError(
            "design matrix is rank deficient; the schedule does not separate "
            "the modeled effects (degenerate step layout)"
        )


def _require_positive(value: float) -> None:
    # a pivot or a variance of a positive definite information; NaN and
    # infinity come from a covariance too small to invert
    if not 0.0 < value < math.inf:
        raise ValueError("information matrix is singular")


def _parallel_terms(
    cells: designs.CellTable, comps: VarianceComponents
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(X, S^-1 X, information, score) of a parallel kind's cells.

    X holds an intercept, a treated-arm indicator and, for two-period
    kinds, a post-period indicator plus their product, the exposure.
    S_k = a J + b I has inverse (I - a / (b + T a) J) / b.  The
    count-weighted S_k^-1 X_k of all patterns form one (p, K T) matrix,
    so the information and the score, sum_k count_k X_k' S_k^-1
    [X_k, ybar_k], are one matrix product each over the cell rows.
    """
    p = _PARALLEL_COLUMNS[designs.kind_traits(cells.kind).periods]
    x = np.empty((*cells.time.shape, p))
    x[..., 0] = 1.0
    x[..., 1] = cells.group[:, None] == 2
    if p == 4:
        x[..., 2] = cells.time == 2
    x[..., -1] = cells.exposed
    a, b = comps.cell_variances(cells.m)
    gamma = a / (b + cells.time.shape[1] * a)
    column_sums = x.sum(axis=1)
    precision_x = (x - (gamma[:, None] * column_sums)[:, None, :]) / b[:, None, None]
    weighted = (precision_x * cells.count[:, None, None]).reshape(-1, p).T
    information = weighted @ x.reshape(-1, p)
    return x, precision_x, information, weighted @ cells.mean.reshape(-1)


def _fit_parallel(
    cells: designs.CellTable, comps: VarianceComponents
) -> tuple[GlsEstimate, np.ndarray]:
    """The fit of a parallel kind's cells and its (K, T) fitted less modeled means."""
    x, _, information, score = _parallel_terms(cells, comps)
    try:
        cov = np.linalg.inv(information)
    except np.linalg.LinAlgError as exc:
        raise ValueError("information matrix is singular") from exc
    variance = float(cov[-1, -1])
    _require_positive(variance)
    beta = cov @ score
    return GlsEstimate(beta=beta, variance=variance), x @ beta - cells.mean


class _PeriodBlock(NamedTuple):
    """A wedge's information with its T period means absorbed.

    With S_k^-1 = (I - gamma_k J) / b_k, the period block is
    A = diagonal I - shared J and the cross block is B; solved is
    A^-1 B and variance is 1 / (D - B' A^-1 B), D the exposure entry.
    """

    gamma: np.ndarray  # (K,)
    scale: np.ndarray  # (K,) count_k / b_k
    shrunk: np.ndarray  # (K,) count_k gamma_k / b_k
    n_exposed: np.ndarray  # (K,) exposed periods 1'e_k
    diagonal: float  # sum_k count_k / b_k
    shared: float  # sum_k count_k gamma_k / b_k
    solved: np.ndarray  # (T,)
    variance: float


def _solve_periods(vector: np.ndarray, diagonal: float, shared: float) -> np.ndarray:
    """A^-1 vector for A = diagonal I - shared J, by Sherman-Morrison."""
    pivot = diagonal - vector.size * shared
    return (vector + shared * float(vector.sum()) / pivot) / diagonal


def _absorb_periods(cells: designs.CellTable, comps: VarianceComponents) -> _PeriodBlock:
    """The period block of a wedge's information, solved in O(K T).

    Raises:
        ValueError: if the covariance or the information is singular:
            A's smallest eigenvalue, diagonal - T shared, or the Schur
            complement D - B' A^-1 B is not positive and finite.
    """
    a, b = comps.cell_variances(cells.m)
    exposed = cells.exposed
    n_periods = exposed.shape[1]
    gamma = a / (b + n_periods * a)
    scale = cells.count / b
    shrunk = scale * gamma
    n_exposed = exposed.sum(axis=1)
    diagonal, shared = float(scale.sum()), float(shrunk.sum())
    _require_positive(diagonal - n_periods * shared)
    # B = sum_k count_k S_k^-1 e_k, and D = sum_k count_k e_k' S_k^-1 e_k
    cross = scale @ exposed - float(shrunk @ n_exposed)
    solved = _solve_periods(cross, diagonal, shared)
    exposure = float((scale - shrunk * n_exposed) @ n_exposed)
    schur = exposure - float(cross @ solved)
    _require_positive(schur)
    return _PeriodBlock(
        gamma, scale, shrunk, n_exposed, diagonal, shared, solved, 1.0 / schur
    )


def _fit_wedge(
    cells: designs.CellTable, comps: VarianceComponents
) -> tuple[GlsEstimate, np.ndarray]:
    """The fit of a wedge's cells and its (K, T) fitted less modeled means.

    The exposure effect is the cell weights' sum over the cell means,
    theta = sum_k count_k w_k' ybar_k, and the period means are
    A^-1 (s - B theta), s their score.  The period means absorb a
    constant, so both are taken of the means less the first cell's,
    which keeps a large common mean from cancelling; and s - B theta is
    the score of the means less the exposure effect, formed from those
    means, in which nothing large cancels.
    """
    block = _absorb_periods(cells, comps)
    shift = float(cells.mean[0, 0])
    means = cells.mean - shift
    products = (_contrast(cells, block) * means).sum(axis=1)
    theta = float(block.scale @ products) * block.variance
    means -= theta * cells.exposed
    score = block.scale @ means - float(block.shrunk @ means.sum(axis=1))
    mu = _solve_periods(score, block.diagonal, block.shared)
    # the first period's mean, each later period's difference from it
    beta = np.empty(mu.size + 1)
    beta[:-1] = mu - mu[0]
    beta[0] = mu[0] + shift
    beta[-1] = theta
    return GlsEstimate(beta=beta, variance=block.variance), mu - means


def _contrast(cells: designs.CellTable, block: _PeriodBlock) -> np.ndarray:
    """(K, T) rows b_k S_k^-1 (e_k - A^-1 B), the weights over variance / b_k."""
    free = block.n_exposed - float(block.solved.sum())
    return (cells.exposed - block.solved) - (block.gamma * free)[:, None]


def _wedge_weights(cells: designs.CellTable, block: _PeriodBlock) -> np.ndarray:
    """(K, T) rows variance S_k^-1 (e_k - A^-1 B) of the exposure effect."""
    scale = block.variance * block.scale / cells.count
    return _contrast(cells, block) * scale[:, None]


def fit_cells(cells: designs.CellTable, comps: VarianceComponents) -> GlsEstimate:
    """GLS fit of the cell means under the subject-level covariance.

    Each cluster contributes X_k' S_k^-1 X_k to the information and
    X_k' S_k^-1 ybar_k to the score, where S_k is the covariance of its
    cell means; this equals the fit of the subject rows because every
    fixed effect is constant within a cell.  A wedge's period block is
    absorbed in closed form, a parallel kind's p x p information is
    inverted.  The modeled means must be exactly representable by the
    fixed effects.

    Raises:
        ValueError: if the design rows are rank deficient (a degenerate
            step layout), the covariance or the information is singular,
            or the fixed effects do not reproduce the cell means.
    """
    _require_full_rank(cells)
    fit, residual = (_fit_wedge if _is_wedge(cells) else _fit_parallel)(cells, comps)

    # residual and outcome norms over the subject rows, cell by cell
    rows = cells.count * cells.m
    y_norm = math.sqrt(float(rows @ (cells.mean * cells.mean).sum(axis=1)))
    misfit = math.sqrt(float(rows @ (residual * residual).sum(axis=1)))
    if misfit > _FIT_RTOL * max(1.0, y_norm):
        raise ValueError(
            "exemplary means are not reproduced by the fixed effects "
            f"(residual norm {misfit:.3e}); the cell means are inconsistent "
            "with the design model"
        )
    return fit


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
    the rank is the kind's number of design columns and the rank of the
    cluster-constant columns is their number, both read without a
    design matrix.

    Raises:
        ValueError: if the policy is unknown, does not apply to the
            design, or leaves no degrees of freedom.
    """
    if policy not in DDF_POLICIES:
        raise ValueError(f"unknown ddf policy {policy!r}; choose from {DDF_POLICIES}")
    n = cells.n_observations
    periods = designs.kind_traits(spec.kind).periods
    wedge = periods == "wedge"
    rank_x = cells.time.shape[1] + 1 if wedge else _PARALLEL_COLUMNS[periods]

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
    # the tested effect is the last design column: a one-row Wald F
    b = fit.beta[-1]
    fvalue = float(b * (b / fit.variance))
    ddf = _ddf_from_cells(spec, policy, cells)
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
