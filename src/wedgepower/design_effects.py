"""Closed-form design effects and sample size inflation.

A design effect is the multiplier that converts the sample size of an
individually randomized post-only trial into the size a clustered or
repeated-measures design needs for the same power.  This module carries
the standard multipliers for parallel cluster designs, baseline-adjusted
pre-post cluster designs, stepped wedge designs (the named formulas
and the exact Hussey & Hughes variance), plus a helper to turn a
multiplier into a sample size plan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import designs, engine
from .correlation import CorrelationParams, Family, derive_components
from .distributions import is_real, is_whole

__all__ = [
    "DesignEffectResult",
    "SamplePlan",
    "de_simple",
    "cluster_mean_correlation",
    "de_ancova_prepost",
    "de_stepped_wedge",
    "de_three_measurement",
    "inflate_sample_size",
    "design_effect_for",
    "PER_PERIOD_FORMULAS",
]


@dataclass(frozen=True)
class DesignEffectResult:
    """A design effect with its multiplicative decomposition.

    Attributes:
        value: the design effect itself.
        factors: named multiplicative pieces; their product equals value.
        baseline_r: correlation between baseline and follow-up summaries
            used by baseline-adjusted formulas, when one is involved.
        formula: identifier of the formula that produced the value.
    """

    value: float
    factors: dict[str, float]
    baseline_r: float | None
    formula: str


@dataclass(frozen=True)
class SamplePlan:
    """Sample size plan produced by inflating an unclustered total.

    observations_raw holds the exact inflated measurement count and
    participants_raw the matching participant count; the integer fields
    round them up to whole units.
    """

    n_unclustered: int
    design_effect: float
    observations_raw: float
    observations: int
    participants_raw: float
    participants: int


def _check_cluster_size(n: int) -> int:
    if not is_whole(n) or n < 1:
        raise ValueError(f"cluster size must be a positive integer, got {n!r}")
    return int(n)


def de_simple(cluster_size: int, icc: float) -> DesignEffectResult:
    """Variance inflation of a post-only parallel cluster design.

    1 + (cluster_size - 1) * icc: the factor by which clustering inflates
    the variance of a difference of means relative to an individually
    randomized trial with the same total size.
    """
    n = _check_cluster_size(cluster_size)
    # CorrelationParams checks icc; a design effect has no variance scale: 1 serves
    rho = float(CorrelationParams(1.0, icc).icc)
    value = 1.0 + (n - 1) * rho
    return DesignEffectResult(
        value=value,
        factors={"clustering": value},
        baseline_r=None,
        formula="simple",
    )


def cluster_mean_correlation(
    cluster_size: int, icc: float, cac: float, sac: float
) -> float:
    """Correlation between baseline and follow-up cluster summaries.

    Weighs the cluster autocorrelation by the cluster-level share of the
    summary's variance and the subject autocorrelation by the
    subject-level share:

        r = (n * icc * cac + (1 - icc) * sac) / (1 + (n - 1) * icc)

    For cross-sectional designs pass sac = 0; the subject share then
    drops out because follow-up subjects are new draws.
    """
    n = _check_cluster_size(cluster_size)
    CorrelationParams(1.0, icc, cac, sac)
    rho, rho_c, rho_s = float(icc), float(cac), float(sac)
    vif = 1.0 + (n - 1) * rho
    r = (n * rho * rho_c + (1.0 - rho) * rho_s) / vif
    # r is a weighted mean of cac and sac; rounding must not escape it
    return min(max(r, min(rho_c, rho_s)), max(rho_c, rho_s))


def _require_regular(
    cluster_size: int, icc: float, cac: float, sac: float
) -> tuple[float, float]:
    """Refuse the correlations whose cluster covariance power refuses.

    Returns a and b of the cell means' covariance a J + b I at
    sigma_y_sq = 1, as a design effect has no scale.  A cohort's a and b
    serve fresh subjects at each time too: at sac = 0 they are theirs.
    """
    n = _check_cluster_size(cluster_size)
    comps = derive_components(CorrelationParams(1.0, icc, cac, sac), Family.COHORT)
    return comps.cell_variances(n)


def de_ancova_prepost(
    cluster_size: int, icc: float, cac: float, sac: float = 0.0
) -> DesignEffectResult:
    """Design effect of a baseline-adjusted two-period cluster design.

    The clustering factor 1 + (n - 1) * icc is discounted by 1 - r**2,
    the variance reduction from regressing follow-up summaries on
    baseline summaries with correlation r.

    Raises:
        ValueError: for the inputs power refuses, a singular cluster
            covariance included.
    """
    _require_regular(cluster_size, icc, cac, sac)
    r = cluster_mean_correlation(cluster_size, icc, cac, sac)
    n, rho = int(cluster_size), float(icc)
    clustering = 1.0 + (n - 1) * rho
    adjustment = 1.0 - r * r
    return DesignEffectResult(
        value=clustering * adjustment,
        factors={"clustering": clustering, "baseline_adjustment": adjustment},
        baseline_r=r,
        formula="ancova_prepost",
    )


_ONE_STEP = (
    "stepped wedge design effect needs at least 2 steps; a single "
    "step leaves exposure confounded with time"
)
# the wedge formulas, which count one comparison per cluster-period
PER_PERIOD_FORMULAS = ("stepped_wedge", "three_measurement", "hussey_hughes")


def de_stepped_wedge(
    steps_k: int, baseline_b: int, per_step_t: int, cluster_size: int, icc: float
) -> DesignEffectResult:
    """Design effect of a cross-sectional stepped wedge design.

    Relative to a post-only individually randomized trial, the design
    pays a clustering penalty on all k*t*n + b*n measurements per
    cluster and earns back efficiency from within-cluster crossover:

        [1 + icc*(k*t*n + b*n - 1)] / [1 + icc*(k*t*n/2 + b*n - 1)]
            * 3*(1 - icc) / [2*t*(k - 1/k)]

    The multiplier counts one comparison per cluster-period, so a plan
    needs n_unclustered * DE * T observations over the T = b + k*t
    periods: inflate_sample_size with observation_multiplier = T.
    """
    counts = {"steps_k": steps_k, "baseline_b": baseline_b, "per_step_t": per_step_t}
    for name, value in counts.items():
        if not is_whole(value) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if steps_k < 2:
        raise ValueError(_ONE_STEP)
    n = _check_cluster_size(cluster_size)
    rho = float(CorrelationParams(1.0, icc).icc)
    k, b, t = int(steps_k), int(baseline_b), int(per_step_t)

    ktn = k * t * n
    bn = b * n
    cluster_adjustment = (1.0 + rho * (ktn + bn - 1)) / (
        1.0 + rho * (0.5 * ktn + bn - 1)
    )
    efficiency = 3.0 * (1.0 - rho) / (2.0 * t * (k - 1.0 / k))
    return DesignEffectResult(
        value=cluster_adjustment * efficiency,
        factors={
            "cluster_adjustment": cluster_adjustment,
            "crossover_efficiency": efficiency,
        },
        baseline_r=None,
        formula="stepped_wedge",
    )


def de_three_measurement(
    cluster_size: int, icc: float, cac: float, sac: float
) -> DesignEffectResult:
    """Design effect of a three-measurement cohort design.

    One baseline and two follow-up summaries per cluster, analyzed with
    baseline adjustment; the two follow-ups share correlation r with the
    baseline and with each other, giving

        [1 + (n - 1) * icc] * [1 - 2*r**2 / (1 + r)]

    With cac = 1 and sac = 0 this coincides with the two-step,
    one-baseline stepped wedge multiplier for the same cluster size.
    Like the stepped wedge multiplier it counts one comparison per
    cluster-period, so a plan needs n_unclustered * DE * T observations
    over the T = 3 periods (observation_multiplier = T).

    Raises:
        ValueError: for the inputs power refuses, a singular cluster
            covariance included.
    """
    _require_regular(cluster_size, icc, cac, sac)
    r = cluster_mean_correlation(cluster_size, icc, cac, sac)
    n, rho = int(cluster_size), float(icc)
    clustering = 1.0 + (n - 1) * rho
    adjustment = 1.0 - 2.0 * r * r / (1.0 + r)
    return DesignEffectResult(
        value=clustering * adjustment,
        factors={"clustering": clustering, "repeated_adjustment": adjustment},
        baseline_r=r,
        formula="three_measurement",
    )


def inflate_sample_size(
    n_unclustered: int,
    design_effect: float,
    *,
    observation_multiplier: float = 1.0,
    measurements_per_participant: int = 1,
) -> SamplePlan:
    """Convert an unclustered total into a clustered sample size plan.

    Args:
        n_unclustered: total size of the reference individually
            randomized trial.
        design_effect: multiplier from one of the de_* functions.
        observation_multiplier: factor on n_unclustered * design_effect.
            The PER_PERIOD_FORMULAS, design_effect_for's included, count
            one comparison per cluster-period, so their observations
            are n_unclustered * DE * T: pass the number of periods T.
            The other multipliers count measurements and keep 1.
        measurements_per_participant: how many of the resulting
            measurements each participant contributes; cohort designs
            divide the measurement total by this to count people.

    Returns:
        SamplePlan with raw and rounded-up observation and participant
        totals.

    Raises:
        ValueError: if an argument is out of range, or the plan's
            observations are past the float range.
    """
    if not is_whole(n_unclustered):
        raise ValueError(f"n_unclustered must be an integer, got {n_unclustered!r}")
    if n_unclustered < 1:
        raise ValueError(f"n_unclustered must be >= 1, got {n_unclustered!r}")
    if not (is_real(design_effect) and design_effect > 0):
        raise ValueError(
            f"design_effect must be a positive real number, got {design_effect!r}"
        )
    if not (is_real(observation_multiplier) and observation_multiplier > 0):
        raise ValueError(
            "observation_multiplier must be a positive real number, "
            f"got {observation_multiplier!r}"
        )
    if not is_whole(measurements_per_participant) or measurements_per_participant < 1:
        raise ValueError(
            "measurements_per_participant must be a positive integer, "
            f"got {measurements_per_participant!r}"
        )

    try:
        observations_raw = (
            float(n_unclustered) * float(design_effect) * float(observation_multiplier)
        )
    except OverflowError:  # an int past the float range
        observations_raw = math.inf
    if observations_raw == math.inf:
        raise ValueError(
            "n_unclustered is too large: n_unclustered * design_effect * "
            "observation_multiplier is past the float range"
        )
    participants_raw = observations_raw / measurements_per_participant
    # tolerate float fuzz just below an integer before rounding up
    observations = math.ceil(observations_raw - 1e-9)
    participants = math.ceil(participants_raw - 1e-9)
    return SamplePlan(
        n_unclustered=int(n_unclustered),
        design_effect=design_effect,
        observations_raw=observations_raw,
        observations=observations,
        participants_raw=participants_raw,
        participants=participants,
    )


def _hussey_hughes(layout, a: float, b: float, n: int) -> DesignEffectResult:
    """Exact GLS design effect of an equal-size wedge (Hussey & Hughes 2007).

    Cluster-period means have covariance a*J + b*I, Hussey & Hughes's
    tau2 and sigma2: _require_regular's at cluster size n.  Group s has
    c_s clusters, exposed from period x_s on: e_s = T - x_s periods.
    With I = sum c_s, U = sum c_s*e_s, V = sum c_s*e_s**2 and
    W = sum (c_1 + ... + c_s)**2 * (x_{s+1} - x_s), x_{k+1} = T,

        Var = I*b*(b + T*a) / ((I*U - W)*b + (U**2 + I*T*U - T*W - I*V)*a)

    and DE = Var*I*n/4 counts one comparison per cluster-period.
    """
    counts, switch, n_times = layout.clusters, layout.switch, layout.n_periods
    i = sum(counts)
    u = sum(c * (n_times - x) for c, x in zip(counts, switch))
    v = sum(c * (n_times - x) ** 2 for c, x in zip(counts, switch))
    spans = (after - x for x, after in zip(switch, (*switch[1:], n_times)))
    w = sum(total**2 * span for total, span in zip(itertools.accumulate(counts), spans))
    between = (u * u + i * n_times * u - n_times * w - i * v) * a
    variance = i * b * (b + n_times * a) / ((i * u - w) * b + between)
    value = variance * i * n / 4.0
    return DesignEffectResult(value, {"gls_variance": value}, None, "hussey_hughes")


def design_effect_for(spec, params) -> DesignEffectResult:
    """Closed-form design effect matching a design description.

    Individually randomized kinds have no inflation.  Post-only and
    pre-post cluster kinds map to the simple and baseline-adjusted
    formulas.  A wedge with equal steps keeps the paper's formula where
    it is exact (stepped wedge when cross-sectional with cac = 1,
    three-measurement for a cohort at T = 3); every other wedge takes
    the exact Hussey & Hughes variance.  Single-step wedges, unequal
    cluster sizes, and the counts and correlation inputs that power
    refuses at every variance are refused, the latter with its messages.
    A size list or a single step is named before a singular covariance.
    Reads the layout the count check returns, not the count fields or means.
    """
    layout = designs.ensure_counts(spec)
    # sac is 0 unless a cluster is a cohort: variance_components refuses it
    engine.variance_components(spec, params)
    traits = designs.kind_traits(spec.kind)
    if not traits.clustered:
        return DesignEffectResult(
            value=1.0, factors={}, baseline_r=None, formula="unclustered"
        )
    size = layout.size
    sizes = set(map(int, size)) if isinstance(size, (tuple, list)) else {int(size)}
    if len(sizes) != 1:
        raise ValueError(
            "closed-form design effects need a common cluster size; "
            f"got sizes {sorted(sizes)}"
        )
    n = sizes.pop()
    if traits.periods == "post":
        return de_simple(n, params.icc)
    if traits.periods == "prepost":
        return de_ancova_prepost(n, params.icc, params.cac, params.sac)
    k, b = len(layout.switch), layout.switch[0]
    if k < 2:
        raise ValueError(_ONE_STEP)
    equal = len(set(layout.clusters)) == 1
    cohort = traits.family is Family.COHORT
    if equal and cohort and layout.n_periods == 3:
        return de_three_measurement(n, params.icc, params.cac, params.sac)
    if equal and not cohort and params.cac == 1.0:
        return de_stepped_wedge(k, b, layout.switch[1] - b, n, params.icc)
    a, b = _require_regular(n, params.icc, params.cac, params.sac)
    return _hussey_hughes(layout, a, b, n)
