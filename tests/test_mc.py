"""Tests for the simulation oracle.

Every assertion about randomness runs under a fixed seed, so the suite
is deterministic; statistical tolerances are set at three to four Monte
Carlo standard errors of the quantity being checked.
"""

import numpy as np
import pytest

from wedgepower.correlation import (
    CorrelationParams,
    derive_components,
    family_for_kind,
)
from wedgepower.designs import get_preset
from wedgepower.distributions import central_f_quantile
from wedgepower.engine import analytic_power, resolve_ddf
from wedgepower.mc import (
    THREADS_ENV_VAR,
    EmpiricalPower,
    SimulationPlan,
    empirical_power,
    replicate_stream,
    sample_replicate,
)


def preset_plan(name: str, replicates: int, seed: int = 1, **kwargs) -> SimulationPlan:
    spec, params = get_preset(name)
    return SimulationPlan(
        spec=spec, params=params, replicates=replicates, seed=seed, **kwargs
    )


def preset_comps(name: str):
    spec, params = get_preset(name)
    return spec, derive_components(params, family_for_kind(spec.kind))


class TestSimulationPlan:
    def test_replicates_validated(self):
        spec, params = get_preset("example1")
        with pytest.raises(ValueError):
            SimulationPlan(spec=spec, params=params, replicates=0, seed=1)

    def test_seed_validated(self):
        spec, params = get_preset("example1")
        with pytest.raises(ValueError):
            SimulationPlan(spec=spec, params=params, replicates=10, seed=-1)
        with pytest.raises(ValueError):
            SimulationPlan(spec=spec, params=params, replicates=10, seed=2**64)


class TestReplicateStream:
    def test_same_key_same_draws(self):
        a = replicate_stream(7, 123).standard_normal(8)
        b = replicate_stream(7, 123).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_index_changes_stream(self):
        a = replicate_stream(7, 123).standard_normal(8)
        b = replicate_stream(7, 124).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = replicate_stream(7, 123).standard_normal(8)
        b = replicate_stream(8, 123).standard_normal(8)
        assert not np.array_equal(a, b)


class TestSampleReplicate:
    def test_shape_and_determinism(self):
        spec, comps = preset_comps("example5")
        y1 = sample_replicate(spec, comps, replicate_stream(3, 0))
        y2 = sample_replicate(spec, comps, replicate_stream(3, 0))
        assert y1.shape == (180,)
        np.testing.assert_array_equal(y1, y2)

    def test_centered_on_modeled_means(self):
        spec, comps = preset_comps("example2")
        draws = np.array(
            [
                sample_replicate(spec, comps, replicate_stream(11, i))
                for i in range(2000)
            ]
        )
        # each column is Normal(mu, 25): the mean of 2000 draws has
        # standard error 0.112, so 4 of those is 0.45
        np.testing.assert_allclose(draws.mean(axis=0)[:6], 59.0, atol=0.45)
        np.testing.assert_allclose(draws.mean(axis=0)[-6:], 54.0, atol=0.45)

    def test_reproduces_cluster_covariance(self):
        spec, comps = preset_comps("example2")
        replicates = 20_000
        draws = np.array(
            [
                sample_replicate(spec, comps, replicate_stream(5, i))
                for i in range(replicates)
            ]
        )
        sample_cov = np.cov(draws[:, :6].T)
        # variance of one sample covariance entry is roughly
        # (v_ii v_jj + v_ij^2) / R: se 0.25 on the diagonal, 0.18 off it
        np.testing.assert_allclose(np.diag(sample_cov), 25.0, atol=0.75)
        off = sample_cov[~np.eye(6, dtype=bool)]
        np.testing.assert_allclose(off, 2.5, atol=0.53)
        # across clusters the draws are independent
        cross = np.cov(draws[:, 0], draws[:, 6])[0, 1]
        assert abs(cross) <= 0.53

    def test_repeated_measurement_covariance(self):
        spec, comps = preset_comps("example7")
        replicates = 20_000
        draws = np.array(
            [
                sample_replicate(spec, comps, replicate_stream(5, i))
                for i in range(replicates)
            ]
        )
        sample_cov = np.cov(draws[:, :15].T)
        assert abs(sample_cov[0, 1] - 14.5) <= 0.60   # same subject
        assert abs(sample_cov[0, 3] - 2.5) <= 0.53    # same time
        assert abs(sample_cov[0, 4] - 1.0) <= 0.53    # neither


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

    def test_thread_count_does_not_change_estimate(self, monkeypatch):
        plan = preset_plan("example4", 3000, seed=4)
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        sequential = empirical_power(plan)
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        threaded = empirical_power(plan)
        assert sequential.rejections == threaded.rejections

    def test_bad_thread_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "many")
        with pytest.raises(ValueError, match=THREADS_ENV_VAR):
            empirical_power(preset_plan("example1", 10))

    def test_result_fields_consistent(self):
        result = empirical_power(preset_plan("example5", 1500, seed=2))
        assert isinstance(result, EmpiricalPower)
        assert result.replicates == 1500
        assert result.estimate == pytest.approx(result.rejections / 1500, rel=1e-15)
        expected_se = np.sqrt(result.estimate * (1 - result.estimate) / 1500)
        assert result.stderr == pytest.approx(expected_se, rel=1e-12)
        assert 0.0 <= result.ci_low <= result.estimate <= result.ci_high <= 1.0
        spec, _ = get_preset("example5")
        assert result.ddf == resolve_ddf(spec, "between_within")
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

    def test_chunk_boundary(self, monkeypatch):
        # one more replicate than a chunk holds, sequential vs threaded
        plan = preset_plan("example1", 1025, seed=3)
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        a = empirical_power(plan)
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        b = empirical_power(plan)
        assert a.rejections == b.rejections

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
