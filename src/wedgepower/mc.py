"""Monte Carlo check of the analytic power route.

Every cluster's T cell means have the exact covariance S_k = a_k J +
b_k I, the cell average of the subject-level covariance (Hussey &
Hughes 2007), and every fixed effect is constant within a cell.  So
the contrast estimate under the known-covariance GLS weights w_k of
the analytic route's fit is normal with variance the sum over clusters
of w_k' S_k w_k = a_k (1'w_k)^2 + b_k |w_k|^2, which needs no factor of
S_k: each replicate draws one standard normal, scaled by the spread,
the root of that sum, and costs the same however large the design.
The statistic divides by the fit's own contrast variance s2, so a
spread that disagrees with the fit shows in every run's z-score.  The
replicate F statistic divides the Wald numerator by an independent
mean-one chi-square draw with the policy's denominator degrees of
freedom: that is the estimation noise the F(ndf, ddf) reference
distribution assumes, so under null means the rejection rate is
exactly alpha in expectation.

A run draws from one Philox stream keyed by (seed, 0) (Salmon et al.
2011).  Replicates run in fixed chunks of _CHUNK: a chunk draws its
normals, then its chi-square denominators, so the estimate depends
only on the seed and the replicate count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .correlation import CorrelationParams
from .designs import DesignSpec
from .distributions import is_whole

__all__ = [
    "SimulationPlan",
    "EmpiricalPower",
    "empirical_power",
]

_CHUNK = 1024
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SimulationPlan:
    """What to simulate and how many times.

    The test runs at the design's alpha; ddf_policy defaults to the
    design kind's default policy.
    """

    spec: DesignSpec
    params: CorrelationParams
    replicates: int
    seed: int
    ddf_policy: str | None = None

    def __post_init__(self) -> None:
        reps = self.replicates
        if not is_whole(reps) or reps < 1:
            raise ValueError(f"replicates must be an integer >= 1, got {reps!r}")
        if not is_whole(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.seed >= 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed!r}")
        # numpy scalars and whole floats are reported as plain ints
        object.__setattr__(self, "replicates", int(reps))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class EmpiricalPower:
    """Rejection rate over simulated replicates, with its Monte Carlo error.

    ci_low and ci_high bound the Wilson score interval at 95%; analytic
    is the analytic power of the fit the simulation draws its weights,
    ddf and fcrit from; z is estimate minus analytic in binomial standard
    errors of the analytic power, or 0.0 when that error is 0.
    """

    estimate: float
    replicates: int
    rejections: int
    stderr: float
    ci_low: float
    ci_high: float
    alpha: float
    seed: int
    ddf: int
    fcrit: float
    analytic: float
    z: float


def _contrast_projection(run: engine.Evaluation) -> tuple[float, float, float]:
    """center, spread and s2 of the contrast estimate, N(center, spread**2).

    A cluster of pattern k adds w_k . ybar_k to the contrast estimate,
    w_k its row of cell weights and ybar_k its cell means, with mean
    w_k . mean_k and variance w_k' S_k w_k = a_k (1'w_k)^2 + b_k |w_k|^2
    under the cell-mean covariance S_k = a_k J + b_k I.  spread is the
    root of that variance summed per pattern, count_k times, so no
    cluster is visited.  s2 is the fit's variance of the tested
    coefficient, the last diagonal entry of (X'V^-1X)^-1, which equals
    spread**2.
    """
    cells, weights = run.cells, run.fit.weights
    a, b = run.components.cell_variances(cells.m)
    center = float(cells.count @ np.sum(weights * cells.mean, axis=1))
    variance = a * weights.sum(axis=1) ** 2 + b * np.sum(weights * weights, axis=1)
    spread = math.sqrt(cells.count @ variance)
    s2 = run.fit.variance
    return center, spread, s2


def empirical_power(plan: SimulationPlan) -> EmpiricalPower:
    """Rejection rate of the primary test over simulated replicates.

    Each replicate draws one standard normal, scaled by the spread of
    the cell means' contrast estimate under the known-covariance GLS
    weights of the analytic route's fit, forms the F statistic (Wald
    numerator over a mean-one chi-square denominator with the policy's
    degrees of freedom, drawn from the same stream), and rejects when
    it exceeds the analytic route's critical value.  No subject rows or
    cell draws are made, and the spread is summed over cluster patterns
    rather than clusters, so the design may be of any size.
    """
    run = engine.evaluate(plan.spec, plan.params, ddf_policy=plan.ddf_policy)
    alpha, ddf, fcrit = run.result.alpha, run.result.ddf, run.result.fcrit
    center, spread, s2 = _contrast_projection(run)

    key = np.array([plan.seed, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    rejections = 0
    for start in range(0, plan.replicates, _CHUNK):
        count = min(_CHUNK, plan.replicates - start)
        effects = center + spread * rng.standard_normal(count)
        denominator = rng.chisquare(ddf, count) / ddf
        fstats = effects * effects / s2
        rejections += int(np.count_nonzero(fstats > fcrit * denominator))

    n = plan.replicates
    estimate = rejections / n
    stderr = math.sqrt(estimate * (1.0 - estimate) / n)
    # Wilson score interval; rounding may leave an end a hair inside the estimate
    z2 = _Z95 * _Z95
    middle = (estimate + z2 / (2 * n)) / (1.0 + z2 / n)
    root = math.sqrt(estimate * (1.0 - estimate) / n + z2 / (4 * n * n))
    half = _Z95 * root / (1.0 + z2 / n)
    analytic = run.result.power
    analytic_se = math.sqrt(analytic * (1.0 - analytic) / n)
    return EmpiricalPower(
        estimate=estimate,
        replicates=n,
        rejections=rejections,
        stderr=stderr,
        ci_low=max(0.0, min(estimate, middle - half)),
        ci_high=min(1.0, max(estimate, middle + half)),
        alpha=alpha,
        seed=plan.seed,
        ddf=ddf,
        fcrit=fcrit,
        analytic=analytic,
        z=(estimate - analytic) / analytic_se if analytic_se > 0.0 else 0.0,
    )
