"""Tests for the simulation oracle.

Every assertion about randomness runs under a fixed seed, so the suite
is deterministic; statistical tolerances are set at three to four Monte
Carlo standard errors of the quantity being checked.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from wedgepower import mc
from wedgepower.correlation import CorrelationParams
from wedgepower.designs import PRESETS, DesignKind, DesignSpec, get_preset
from wedgepower.distributions import central_f_quantile
from wedgepower.engine import analytic_power, evaluate
from wedgepower.mc import EmpiricalPower, SimulationPlan, empirical_power

import dense_oracle
from test_acceptance import null_spec
from test_cells import cell_covariance


def preset_plan(
    name: str, replicates: int, seed: int = 1, alpha: float | None = None, **kwargs
) -> SimulationPlan:
    spec, params = get_preset(name)
    if alpha is not None:
        spec = dataclasses.replace(spec, alpha=alpha)
    return SimulationPlan(
        spec=spec, params=params, replicates=replicates, seed=seed, **kwargs
    )


class TestSimulationPlan:
    def test_replicates_validated(self):
        spec, params = get_preset("example1")
        with pytest.raises(ValueError):
            SimulationPlan(spec=spec, params=params, replicates=0, seed=1)
        with pytest.raises(ValueError, match="replicates"):
            SimulationPlan(spec=spec, params=params, replicates=2.5, seed=1)

    def test_seed_validated(self):
        spec, params = get_preset("example1")
        with pytest.raises(ValueError):
            SimulationPlan(spec=spec, params=params, replicates=10, seed=-1)
        with pytest.raises(ValueError):
            SimulationPlan(spec=spec, params=params, replicates=10, seed=2**64)
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimulationPlan(spec=spec, params=params, replicates=10, seed="1")

    def test_seed_range_messages(self):
        spec, params = get_preset("example1")
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SimulationPlan(spec=spec, params=params, replicates=10, seed=-1)
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            SimulationPlan(spec=spec, params=params, replicates=10, seed=2**64)

    @pytest.mark.parametrize(
        "replicates,seed",
        [(np.int64(100), np.uint64(3)), (100, 3.0), (100, np.float64(3)), (100.0, 3)],
    )
    def test_counts_are_reported_as_plain_ints(self, replicates, seed):
        spec, params = get_preset("example1")
        plan = SimulationPlan(spec=spec, params=params, replicates=replicates, seed=seed)
        result = empirical_power(plan)
        assert type(result.replicates) is int and type(result.seed) is int
        assert (result.replicates, result.seed) == (100, 3)
        assert json.loads(json.dumps(dataclasses.asdict(result)))["seed"] == 3


def run_stream(seed: int) -> np.random.Generator:
    """The one random stream a simulation with this seed draws from."""
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


class TestRunStream:
    @pytest.mark.parametrize("replicates", [1, 1024, 1025, 20_000])
    def test_one_generator_per_run(self, monkeypatch, replicates):
        keys = []
        philox = np.random.Philox

        def counted(key):
            keys.append(tuple(int(k) for k in key))
            return philox(key=key)

        monkeypatch.setattr(np.random, "Philox", counted)
        empirical_power(preset_plan("example1", replicates, seed=5))
        assert keys == [(5, 0)]

    def test_same_seed_same_count(self):
        plan = preset_plan("example5", 1500, seed=7)
        assert empirical_power(plan).rejections == empirical_power(plan).rejections

    def test_seed_changes_count(self):
        counts = {
            empirical_power(preset_plan("example5", 1500, seed=seed)).rejections
            for seed in range(1, 5)
        }
        assert len(counts) > 1

    @pytest.mark.parametrize(
        "name,replicates,seed,rejections",
        [
            ("example1", 1000, 1, 794),
            ("example1", 1024, 3, 813),
            ("example5", 1000, 1, 828),
            ("example5", 1024, 3, 849),
            ("example7", 1000, 1, 840),
            ("example7", 1024, 3, 849),
        ],
    )
    def test_runs_of_one_chunk_keep_their_counts(self, name, replicates, seed, rejections):
        # frozen counts of reference_rejections: one chunk is the whole
        # run, drawn from the stream keyed (seed, 0)
        plan = preset_plan(name, replicates, seed=seed)
        assert empirical_power(plan).rejections == rejections

    @pytest.mark.parametrize(
        "name,replicates,seed,rejections",
        [
            ("example1", 1000, 1, 795),
            ("example1", 1024, 3, 834),
            ("example5", 1000, 1, 839),
            ("example5", 1024, 3, 862),
            ("example7", 1000, 1, 824),
            ("example7", 1024, 3, 851),
        ],
    )
    def test_cell_oracle_keeps_the_per_cell_counts(self, name, replicates, seed, rejections):
        # frozen counts of the simulator when it drew one normal per
        # cluster-period cell: the oracle is that scheme, draw for draw
        plan = preset_plan(name, replicates, seed=seed)
        assert cell_draw_rejections(plan) == rejections


class TestContrastProjection:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_projected_variance_is_contrast_variance(self, name):
        # the cell draws' u . u must be the subject draws' w'Vw, with V
        # from build_cluster_v, and the engine's l'(X'V^-1X)^-1 l, or the
        # simulated F would not be the analytic F
        spec, params = get_preset(name)
        run = evaluate(spec, params)
        center, spread, s2 = mc._contrast_projection(run)
        u = stacked_projection(run)
        assert u.size == spec.n_clusters * run.cells.time.shape[1]
        # the per-pattern sum is the stacked u's norm to rounding
        assert spread == pytest.approx(math.sqrt(u @ u), rel=1e-15)
        sampler = dense_oracle.StudySampler(spec, run.components)
        weights = sampler.row_weights(run.cells, run.fit.weights)
        dense_u = sampler.project(weights)
        assert spread**2 == pytest.approx(dense_u @ dense_u, rel=1e-10)
        assert spread**2 == pytest.approx(s2, rel=1e-10)
        assert s2 == run.fit.variance
        assert center == pytest.approx(sampler.mu @ weights, rel=1e-12)


def stacked_projection(run) -> np.ndarray:
    """u: L_k' w_k stacked over the clusters in dataset order."""
    factors = np.linalg.cholesky(cell_covariance(run))
    per_pattern = np.einsum("kts,kt->ks", factors, run.fit.weights)
    return per_pattern[run.cells.cluster_pattern].ravel()


def reference_rejections(plan: SimulationPlan) -> int:
    """Rejection count drawn one replicate's normal at a time, chunk by chunk."""
    run = evaluate(plan.spec, plan.params, ddf_policy=plan.ddf_policy)
    center, spread, s2 = mc._contrast_projection(run)
    ddf, fcrit = run.result.ddf, run.result.fcrit
    rng = run_stream(plan.seed)
    rejections = 0
    for start in range(0, plan.replicates, 1024):
        count = min(1024, plan.replicates - start)
        effects = np.array([center + spread * rng.standard_normal() for _ in range(count)])
        denominator = rng.chisquare(ddf, count) / ddf
        fstats = effects**2 / s2
        rejections += int(np.count_nonzero(fstats > fcrit * denominator))
    return rejections


def cell_draw_rejections(plan: SimulationPlan) -> int:
    """Rejection count from one normal per cluster-period cell of every replicate.

    Each replicate's contrast estimate is center + z . u with z drawn
    over all the design's cells, projected by a matrix product; a chunk
    draws its cell normals, then its chi-square denominators.
    """
    run = evaluate(plan.spec, plan.params, ddf_policy=plan.ddf_policy)
    center, _, s2 = mc._contrast_projection(run)
    u = stacked_projection(run)
    ddf, fcrit = run.result.ddf, run.result.fcrit
    rng = run_stream(plan.seed)
    rejections = 0
    for start in range(0, plan.replicates, 1024):
        count = min(1024, plan.replicates - start)
        effects = center + rng.standard_normal((count, u.size)) @ u
        denominator = rng.chisquare(ddf, count) / ddf
        fstats = effects**2 / s2
        rejections += int(np.count_nonzero(fstats > fcrit * denominator))
    return rejections


def wide_wedge(clusters_per_step: int) -> DesignSpec:
    """swd_xsec with 12 steps of two periods after one baseline (25 periods)."""
    return DesignSpec(
        kind=DesignKind.SWD_XSEC,
        steps_k=12,
        baseline_b=1,
        per_step_t=2,
        clusters_per_step=(clusters_per_step,) * 12,
        cluster_size=20,
        cell_means={(0, 0): 54.0, (1, 0): 55.0},
    )


def count_normals(monkeypatch) -> list[int]:
    """Sizes of the standard_normal draws of every generator made from now on."""
    drawn = []

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size):
            drawn.append(int(np.prod(size)))
            return self.rng.standard_normal(size)

        def chisquare(self, df, size):
            return self.rng.chisquare(df, size)

    generator = np.random.Generator
    monkeypatch.setattr(np.random, "Generator", lambda bits: Counted(generator(bits)))
    return drawn


class TestChunks:
    @pytest.mark.parametrize("name", ["example3", "example5", "example2_51", "example7"])
    def test_draws_one_normal_per_replicate(self, monkeypatch, name):
        drawn = count_normals(monkeypatch)
        empirical_power(preset_plan(name, 1025, seed=3))
        assert sum(drawn) == 1025

    @pytest.mark.parametrize("name", ["example1", "example5", "example7"])
    def test_matches_row_by_row_reference(self, name):
        plan = preset_plan(name, 1025, seed=2)
        assert empirical_power(plan).rejections == reference_rejections(plan)

    def test_peak_memory_stays_below_a_chunk_buffer(self):
        # 12,000 subject rows: a whole chunk of draws would take 94 MB
        spec = wide_wedge(2)
        assert spec.n_observations == 12_000
        _, params = get_preset("example6")
        plan = SimulationPlan(spec=spec, params=params, replicates=2048, seed=1)
        tracemalloc.start()
        try:
            empirical_power(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_cost_follows_replicates_not_the_design(self, monkeypatch):
        # 6,000 clusters by 25 periods: one normal per cell would be
        # 307M normals for this run
        spec = wide_wedge(500)
        assert spec.n_clusters == 6_000
        _, params = get_preset("example6")
        plan = SimulationPlan(spec=spec, params=params, replicates=2048, seed=1)
        drawn = count_normals(monkeypatch)
        tracemalloc.start()
        try:
            empirical_power(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(drawn) == 2048
        # about 0.45 MB; stacking u over the clusters alone took 1.14 MB
        assert peak < 2**20


class TestCellOracle:
    @pytest.mark.parametrize("flat", [False, True], ids=["own_means", "flat_means"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_agrees_with_per_cell_draws(self, name, flat):
        # one scaled normal per replicate and one normal per cell draw the
        # same contrast distribution: rejection rates agree to sampling
        # error.  The oracle draws from its own seed, so the two runs are
        # independent and the two-sample z applies.
        spec, params = get_preset(name)
        if flat:
            spec = null_spec(spec)
        n = 20_000
        ours = empirical_power(SimulationPlan(spec=spec, params=params, replicates=n, seed=1))
        theirs = cell_draw_rejections(
            SimulationPlan(spec=spec, params=params, replicates=n, seed=2)
        )
        pooled = (ours.rejections + theirs) / (2 * n)
        se = math.sqrt(pooled * (1.0 - pooled) * 2 / n)
        assert se > 0.0
        assert abs(ours.rejections - theirs) / n <= 4.0 * se


class TestEmpiricalPower:
    def test_deterministic_for_fixed_seed(self):
        first = empirical_power(preset_plan("example2", 2000, seed=9))
        second = empirical_power(preset_plan("example2", 2000, seed=9))
        assert first.rejections == second.rejections
        assert first.estimate == second.estimate

    def test_seed_matters(self):
        a = empirical_power(preset_plan("example2", 2000, seed=1))
        b = empirical_power(preset_plan("example2", 2000, seed=2))
        assert a.rejections != b.rejections

    def test_result_fields_consistent(self):
        result = empirical_power(preset_plan("example5", 1500, seed=2))
        assert isinstance(result, EmpiricalPower)
        assert result.replicates == 1500
        assert result.estimate == pytest.approx(result.rejections / 1500, rel=1e-15)
        expected_se = np.sqrt(result.estimate * (1 - result.estimate) / 1500)
        assert result.stderr == pytest.approx(expected_se, rel=1e-12)
        assert 0.0 <= result.ci_low <= result.estimate <= result.ci_high <= 1.0
        spec, _ = get_preset("example5")
        assert result.ddf == dense_oracle.resolve_ddf(spec, "between_within")
        assert result.fcrit == pytest.approx(
            central_f_quantile(0.95, 1, result.ddf), rel=1e-12
        )
        assert result.alpha == 0.05
        assert result.seed == 2

    def test_agrees_with_analytic_route(self):
        for name in ("example1", "example5"):
            spec, params = get_preset(name)
            target = analytic_power(spec, params).power
            result = empirical_power(preset_plan(name, 4000, seed=1))
            band = 4.0 * np.sqrt(target * (1 - target) / 4000)
            assert abs(result.estimate - target) <= band, name

    def test_null_rate_matches_alpha(self):
        from dataclasses import replace

        spec, params = get_preset("example2")
        flat = replace(spec, cell_means={key: 54.0 for key in spec.cell_means})
        plan = SimulationPlan(spec=flat, params=params, replicates=4000, seed=1)
        result = empirical_power(plan)
        band = 4.0 * np.sqrt(0.05 * 0.95 / 4000)
        assert abs(result.estimate - 0.05) <= band

    def test_alpha_override(self):
        strict = empirical_power(preset_plan("example2", 1000, alpha=0.01))
        loose = empirical_power(preset_plan("example2", 1000, alpha=0.2))
        assert strict.fcrit > loose.fcrit
        assert strict.rejections <= loose.rejections

    def test_ddf_policy_override(self):
        result = empirical_power(
            preset_plan("example2", 500, ddf_policy="residual")
        )
        assert result.ddf == 52

    def test_single_replicate(self):
        result = empirical_power(preset_plan("example1", 1, seed=0))
        assert result.estimate in (0.0, 1.0)

    def test_reports_analytic_power_of_same_fit(self):
        result = empirical_power(
            preset_plan("example4", 10, alpha=0.01, ddf_policy="containment")
        )
        spec, params = get_preset("example4")
        reference = analytic_power(spec, params, ddf_policy="containment", alpha=0.01)
        assert result.analytic == reference.power
        assert (result.ddf, result.fcrit) == (reference.ddf, reference.fcrit)

    def test_z_against_analytic_power(self):
        result = empirical_power(preset_plan("example2", 2000, seed=1))
        spec, params = get_preset("example2")
        analytic = analytic_power(spec, params).power
        se = (analytic * (1.0 - analytic) / 2000) ** 0.5
        assert result.z == pytest.approx((result.rejections / 2000 - analytic) / se, rel=1e-12)
        assert abs(result.z) < 4.0

    def test_z_is_zero_without_analytic_spread(self):
        from dataclasses import replace

        spec, params = get_preset("example1")
        strong = replace(spec, cell_means={(1, 1): 1e6, (2, 1): 0.0})
        result = empirical_power(SimulationPlan(spec=strong, params=params, replicates=50, seed=1))
        assert result.analytic == 1.0
        assert result.z == 0.0

    def test_icc_rejected_for_individual_randomization(self):
        spec, _ = get_preset("example1")
        plan = SimulationPlan(
            spec=spec,
            params=CorrelationParams(sigma_y_sq=25.0, icc=0.1),
            replicates=10,
            seed=1,
        )
        with pytest.raises(ValueError, match="icc"):
            empirical_power(plan)


Z2 = 1.959963984540054**2


class TestWilsonInterval:
    def test_single_replicate_is_not_a_point(self):
        result = empirical_power(preset_plan("example1", 1, seed=0))
        if result.estimate == 0.0:
            expected = (0.0, Z2 / (1.0 + Z2))
        else:
            expected = (1.0 / (1.0 + Z2), 1.0)
        assert (result.ci_low, result.ci_high) == pytest.approx(expected, rel=1e-12)
        assert result.ci_high - result.ci_low > 0.7

    def test_all_reject_run(self):
        from dataclasses import replace

        spec, params = get_preset("example1")
        strong = replace(spec, cell_means={(1, 1): 59.0, (2, 1): 40.0})
        plan = SimulationPlan(spec=strong, params=params, replicates=200, seed=1)
        result = empirical_power(plan)
        assert result.rejections == 200
        assert result.ci_high == 1.0
        assert result.ci_low == pytest.approx(200 / (200 + Z2), rel=1e-12)

    def test_interior_estimate(self):
        result = empirical_power(preset_plan("example5", 1500, seed=2))
        p, n = result.estimate, 1500
        middle = (p + Z2 / (2 * n)) / (1 + Z2 / n)
        half = np.sqrt(Z2 * p * (1 - p) / n + Z2 * Z2 / (4 * n * n)) / (1 + Z2 / n)
        assert result.ci_low == pytest.approx(middle - half, rel=1e-12)
        assert result.ci_high == pytest.approx(middle + half, rel=1e-12)
