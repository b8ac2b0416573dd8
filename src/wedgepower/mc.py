"""Monte Carlo check of the analytic power route.

Simulates the exemplary design end to end: draw outcomes from the exact
study covariance, refit each replicate by the same GLS the analytic
route uses, and count rejections of the primary hypothesis.  The
replicate F statistic divides the contrast's Wald numerator by an
independent mean-one chi-square draw with the policy's denominator
degrees of freedom: that is the estimation noise the F(ndf, ddf)
reference distribution assumes, so under null means the statistic is
exactly central F and the rejection rate is exactly alpha in
expectation.  Replicates are keyed to counter-based substreams, so the
estimate depends only on the seed and replicate count, never on
chunking or thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import correlation, designs, engine
from .correlation import CorrelationParams, VarianceComponents
from .designs import DesignSpec

__all__ = [
    "SimulationPlan",
    "EmpiricalPower",
    "replicate_stream",
    "sample_replicate",
    "empirical_power",
    "THREADS_ENV_VAR",
]

THREADS_ENV_VAR = "WEDGEPOWER_THREADS"

_CHUNK = 1024
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SimulationPlan:
    """What to simulate and how many times.

    alpha defaults to the design's alpha and ddf_policy to the design
    kind's default policy.
    """

    spec: DesignSpec
    params: CorrelationParams
    replicates: int
    seed: int
    alpha: float | None = None
    ddf_policy: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.replicates, bool) or self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates!r}")
        if isinstance(self.seed, bool) or not float(self.seed).is_integer():
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed!r}")


@dataclass(frozen=True)
class EmpiricalPower:
    """Rejection rate over simulated replicates, with its Monte Carlo error.

    ci_low and ci_high bound the Wilson score interval at 95%; analytic
    is the analytic power of the fit the simulation draws its weights,
    ddf and fcrit from.
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


def replicate_stream(seed: int, index: int) -> np.random.Generator:
    """Independent random stream for one replicate of one simulation."""
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _StudySampler:
    """Mean vector and per-cluster Cholesky factors of one design."""

    def __init__(self, spec: DesignSpec, comps: VarianceComponents):
        dataset = designs.exemplary_dataset(spec)
        self.mu = dataset.mean.copy()
        self.n = dataset.n_rows
        self.slices: list[slice] = []
        self.chol: list[np.ndarray] = []
        self.layout = ""
        factor_by_size: dict[int, np.ndarray] = {}
        for cb in designs.cluster_structure(spec):
            self.slices.append(slice(cb.row_start, cb.row_start + cb.n_rows))
            if cb.n_subjects not in factor_by_size:
                block = correlation.build_cluster_v(spec, comps, cluster_index=cb.index)
                self.layout = block.layout
                try:
                    factor_by_size[cb.n_subjects] = np.linalg.cholesky(block.matrix)
                except np.linalg.LinAlgError as exc:
                    raise ValueError(
                        "cluster covariance is not positive definite; the "
                        "correlation parameters leave no replicate-level noise"
                    ) from exc
            self.chol.append(factor_by_size[cb.n_subjects])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(self.n)
        y = self.mu.copy()
        for sl, factor in zip(self.slices, self.chol):
            y[sl] += factor @ z[sl]
        return y

    def row_weights(self, cells: designs.CellTable, cell_weights: np.ndarray) -> np.ndarray:
        """Spread each cluster's cell weights over its subject rows."""
        expand = np.tile if self.layout == "subject_major" else np.repeat
        per_pattern = [
            expand(w / m, m) for w, m in zip(cell_weights, cells.m.tolist())
        ]
        return np.concatenate([per_pattern[k] for k in cells.cluster_pattern.tolist()])

    def project(self, weights: np.ndarray) -> np.ndarray:
        """u with z . u = weights . (L z) for a standard normal draw z."""
        u = np.empty(self.n)
        for sl, factor in zip(self.slices, self.chol):
            u[sl] = weights[sl] @ factor
        return u


def sample_replicate(
    spec: DesignSpec, comps: VarianceComponents, stream: np.random.Generator
) -> np.ndarray:
    """Draw one outcome vector for the design from its exact covariance."""
    return _StudySampler(spec, comps).sample(stream)


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(
            f"{THREADS_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    return max(1, count)


def empirical_power(plan: SimulationPlan) -> EmpiricalPower:
    """Rejection rate of the primary test over simulated replicates.

    Each replicate draws outcomes from the exact study covariance, takes
    the contrast estimate with the known-covariance GLS weights of the
    analytic route's fit, forms the F statistic (Wald numerator over a
    mean-one chi-square denominator with the policy's degrees of freedom,
    drawn from the same replicate stream), and rejects when it exceeds
    the analytic route's critical value.

    Thread count is capped by the WEDGEPOWER_THREADS environment
    variable (default 1); the estimate is identical for any cap.
    """
    spec, params = plan.spec, plan.params
    engine._validate_params_for_kind(spec, params)
    alpha = spec.alpha if plan.alpha is None else plan.alpha
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")

    comps = correlation.derive_components(params, correlation.family_for_kind(spec.kind))
    sampler = _StudySampler(spec, comps)
    run = engine.evaluate(spec, params, ddf_policy=plan.ddf_policy, alpha=alpha)
    ddf, fcrit = run.result.ddf, run.result.fcrit

    # a draw mu + L z has contrast estimate mu . w + z . (L' w), with w
    # the GLS weights l' (X'V^-1X)^-1 X'V^-1 of the subject rows
    weights = sampler.row_weights(run.cells, run.cell_weights())
    center = float(sampler.mu @ weights)
    u = sampler.project(weights)
    s2 = float((run.contrast.matrix @ run.fit.cov @ run.contrast.matrix.T)[0, 0])

    def run_chunk(bounds: tuple[int, int]) -> int:
        start, stop = bounds
        count = stop - start
        effects = np.empty(count)
        denominator = np.empty(count)
        for i in range(count):
            rng = replicate_stream(plan.seed, start + i)
            effects[i] = rng.standard_normal(sampler.n) @ u
            denominator[i] = rng.chisquare(ddf) / ddf
        effects += center
        fstats = effects * effects / s2
        return int(np.count_nonzero(fstats > fcrit * denominator))

    chunks = [
        (start, min(start + _CHUNK, plan.replicates))
        for start in range(0, plan.replicates, _CHUNK)
    ]
    workers = _worker_count()
    if workers == 1 or len(chunks) == 1:
        rejections = sum(run_chunk(c) for c in chunks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rejections = sum(pool.map(run_chunk, chunks))

    n = plan.replicates
    estimate = rejections / n
    stderr = math.sqrt(estimate * (1.0 - estimate) / n)
    # Wilson score interval; rounding may leave an end a hair inside the estimate
    z2 = _Z95 * _Z95
    middle = (estimate + z2 / (2 * n)) / (1.0 + z2 / n)
    half = _Z95 * math.sqrt(estimate * (1.0 - estimate) / n + z2 / (4 * n * n)) / (1.0 + z2 / n)
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
        analytic=run.result.power,
    )
