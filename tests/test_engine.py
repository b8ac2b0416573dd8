"""Tests for the GLS power engine.

The frozen noncentralities are exact rationals obtained by closed-form
variance algebra on the cluster summaries (cluster-mean variances and
their GLS weights); the frozen powers come from evaluating the
noncentral F tail at those rationals with the series oracle in
test_distributions.  Both routes were cross-checked independently.
"""

import numpy as np
import pytest

from wedgepower.correlation import (
    CorrelationParams,
    assemble_study_v,
    derive_components,
    family_for_kind,
)
from wedgepower.designs import (
    DesignKind,
    DesignSpec,
    design_matrix,
    exemplary_dataset,
    get_preset,
    hypothesis_contrast,
)
from wedgepower.engine import (
    analytic_power,
    default_ddf_policy,
    power_audit,
    resolve_ddf,
    wald_f,
)

from dense_oracle import gls_estimate, study_blocks

LAMBDA_TOL = 1e-9
POWER_REL = 1e-10
COEF_TOL = 1e-10

# (noncentrality, ddf, power) per preset under the default ddf policy
FROZEN = {
    "example1": (8.5, 32, 0.8070367151472021),
    "example2": (80.0 / 9.0, 45, 0.830786060282071),
    "example2_48": (8.0, 40, 0.7881382464264752),
    "example2_51": (219425.0 / 26500.0, 43, 0.8031053769178293),
    "example3": (8.0, 124, 0.8013620710135009),
    "example3_124": (7.75, 120, 0.7886014316252568),
    "example4": (10.0, 10, 0.812806843799831),
    "example5": (25.0 / 2.16, 7, 0.8296162516783059),
    "example6": (475.0 / 54.0, 109, 0.8363740734567244),
    "example7": (13375.0 / 1584.0, 81, 0.8189174030094872),
}

DEFAULT_POLICIES = {
    "example1": "residual",
    "example2": "containment",
    "example3": "residual",
    "example4": "between_within",
    "example5": "between_within",
    "example6": "between_within",
    "example7": "between_within",
}


def fit_preset(name):
    spec, params = get_preset(name)
    comps = derive_components(params, family_for_kind(spec.kind))
    dataset = exemplary_dataset(spec)
    x = design_matrix(spec, dataset)
    return spec, params, comps, x, dataset, gls_estimate(
        x, study_blocks(spec, comps), dataset.mean
    )


class TestGlsEstimate:
    def test_two_arm_coefficients(self):
        _, _, _, _, _, fit = fit_preset("example1")
        np.testing.assert_allclose(fit.beta, [59.0, -5.0], atol=COEF_TOL)

    def test_prepost_coefficients(self):
        _, _, _, _, _, fit = fit_preset("example5")
        np.testing.assert_allclose(fit.beta, [54.0, 0.0, 2.0, 5.0], atol=COEF_TOL)

    def test_cov_inverts_information(self):
        _, _, _, _, _, fit = fit_preset("example7")
        p = fit.information.shape[0]
        np.testing.assert_allclose(
            fit.information @ fit.cov, np.eye(p), atol=1e-10
        )

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_blockwise_matches_dense_gls(self, name):
        spec, params, comps, x, dataset, fit = fit_preset(name)
        from wedgepower.correlation import build_cluster_v

        study_v = assemble_study_v(spec, build_cluster_v(spec, comps))
        vinv_x = np.linalg.solve(study_v, x)
        info = x.T @ vinv_x
        beta = np.linalg.solve(info, vinv_x.T @ dataset.mean)
        np.testing.assert_allclose(fit.beta, beta, atol=1e-10)
        np.testing.assert_allclose(fit.cov, np.linalg.inv(info), rtol=1e-9, atol=1e-12)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            gls_estimate(np.ones((4, 1)), [np.eye(3)], np.zeros(4))

    def test_singular_block_reported(self):
        spec, _ = get_preset("example5")
        params = CorrelationParams(sigma_y_sq=25.0, icc=0.0, cac=0.0, sac=1.0)
        with pytest.raises(ValueError, match="singular"):
            analytic_power(spec, params)

    def test_block_cache_reuses_matrices(self):
        spec, params = get_preset("example2_51")
        comps = derive_components(params, family_for_kind(spec.kind))
        blocks = study_blocks(spec, comps)
        assert [b.shape[0] for b in blocks] == [7, 7, 6, 6, 7, 6, 6, 6]
        assert blocks[0] is blocks[1]
        assert blocks[2] is blocks[3]


class TestWaldF:
    def test_two_arm_f(self):
        # difference -5 with variance 25 * (2/17): F = 25 / (50/17) = 8.5
        _, _, _, _, _, fit = fit_preset("example1")
        fvalue, ndf = wald_f(fit.beta, fit.cov, np.array([[0.0, 1.0]]))
        assert ndf == 1
        assert fvalue == pytest.approx(8.5, abs=LAMBDA_TOL)

    def test_scales_inversely_with_cov(self):
        _, _, _, _, _, fit = fit_preset("example1")
        base, _ = wald_f(fit.beta, fit.cov, np.array([[0.0, 1.0]]))
        scaled, _ = wald_f(fit.beta, 4.0 * fit.cov, np.array([[0.0, 1.0]]))
        assert scaled == pytest.approx(base / 4.0, rel=1e-12)

    def test_multi_row_contrast(self):
        _, _, _, _, _, fit = fit_preset("example5")
        rows = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        fvalue, ndf = wald_f(fit.beta, fit.cov, rows)
        assert ndf == 2
        assert np.isfinite(fvalue) and fvalue > 0

    def test_singular_contrast_covariance(self):
        _, _, _, _, _, fit = fit_preset("example5")
        rows = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="singular"):
            wald_f(fit.beta, fit.cov, rows)


class TestResolveDdf:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_default_policy_values(self, name):
        spec, _ = get_preset(name)
        policy = default_ddf_policy(spec.kind)
        assert resolve_ddf(spec, policy) == FROZEN[name][1]

    def test_policy_defaults(self):
        for name, policy in DEFAULT_POLICIES.items():
            spec, _ = get_preset(name)
            assert default_ddf_policy(spec.kind) == policy

    def test_residual_rule(self):
        spec, _ = get_preset("example2")
        assert resolve_ddf(spec, "residual") == 54 - 2

    def test_containment_rule(self):
        spec, _ = get_preset("example4")
        assert resolve_ddf(spec, "containment") == 240 - 12

    def test_between_within_strata(self):
        # example6: 8 clusters, one cluster-constant column (intercept),
        # so 7 between; the exposure effect varies within clusters and
        # takes the remainder 116 - 7 = 109
        spec, _ = get_preset("example6")
        assert resolve_ddf(spec, "between_within") == 109
        # example4: the treated-by-post product involves the randomized
        # arm, so it takes the between stratum 12 - 2 = 10
        spec, _ = get_preset("example4")
        assert resolve_ddf(spec, "between_within") == 10

    def test_cluster_policies_rejected_for_individual_randomization(self):
        spec, _ = get_preset("example1")
        for policy in ("containment", "between_within"):
            with pytest.raises(ValueError, match="residual"):
                resolve_ddf(spec, policy)

    def test_unknown_policy(self):
        spec, _ = get_preset("example2")
        with pytest.raises(ValueError, match="policy"):
            resolve_ddf(spec, "satterthwaite")

    def test_exhausted_ddf(self):
        spec = DesignSpec(
            kind=DesignKind.CRT_POST,
            clusters_per_arm=(1, 1),
            cluster_size=1,
            cell_means={(1, 1): 59.0, (2, 1): 54.0},
        )
        with pytest.raises(ValueError, match="degrees of freedom"):
            resolve_ddf(spec, "containment")


class TestAnalyticPower:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_values(self, name):
        spec, params = get_preset(name)
        lam, ddf, power = FROZEN[name]
        result = analytic_power(spec, params)
        assert result.noncentrality == pytest.approx(lam, abs=LAMBDA_TOL)
        assert result.ddf == ddf
        assert result.ndf == 1
        assert result.power == pytest.approx(power, rel=POWER_REL)

    def test_policy_override(self):
        spec, params = get_preset("example2")
        result = analytic_power(spec, params, ddf_policy="residual")
        assert result.ddf == 52
        assert result.ddf_policy == "residual"
        # same noncentrality, more denominator information, more power
        assert result.power > FROZEN["example2"][2]

    def test_alpha_override(self):
        spec, params = get_preset("example2")
        strict = analytic_power(spec, params, alpha=0.01)
        assert strict.alpha == 0.01
        assert strict.power < FROZEN["example2"][2]

    def test_null_means_recover_alpha(self):
        from dataclasses import replace

        for name in sorted(FROZEN):
            spec, params = get_preset(name)
            flat = {key: 54.0 for key in spec.cell_means}
            result = analytic_power(replace(spec, cell_means=flat), params)
            assert abs(result.power - 0.05) <= 1e-9, name

    def test_icc_must_be_zero_for_individual_randomization(self):
        spec, _ = get_preset("example1")
        with pytest.raises(ValueError, match="icc"):
            analytic_power(spec, CorrelationParams(sigma_y_sq=25.0, icc=0.1))

    def test_arm_swap_leaves_f_invariant(self):
        from dataclasses import replace

        cases = {
            "example2": {(1, 1): 54.0, (2, 1): 59.0},
            "example4": {(1, 1): 54.0, (1, 2): 61.0, (2, 1): 54.0, (2, 2): 56.0},
            "example5": {(1, 1): 54.0, (1, 2): 61.0, (2, 1): 54.0, (2, 2): 56.0},
        }
        for name, swapped_means in cases.items():
            spec, params = get_preset(name)
            swapped = replace(
                spec,
                clusters_per_arm=tuple(reversed(spec.clusters_per_arm)),
                cluster_size=spec.cluster_size,
                cell_means=swapped_means,
            )
            base = analytic_power(spec, params)
            flipped = analytic_power(swapped, params)
            assert flipped.fvalue == pytest.approx(base.fvalue, abs=1e-10), name
            assert flipped.power == pytest.approx(base.power, abs=1e-10), name

    def test_phase_swap_leaves_f_invariant(self):
        from dataclasses import replace

        for name in ("example6", "example7"):
            spec, params = get_preset(name)
            swapped = replace(spec, cell_means={(0, 0): 59.0, (1, 0): 54.0})
            base = analytic_power(spec, params)
            flipped = analytic_power(swapped, params)
            assert flipped.fvalue == pytest.approx(base.fvalue, abs=1e-10), name

    def test_power_monotone_in_cluster_count(self):
        powers = []
        for count in range(2, 22):
            spec = DesignSpec(
                kind=DesignKind.CRT_POST,
                clusters_per_arm=(count, count),
                cluster_size=5,
                cell_means={(1, 1): 59.0, (2, 1): 54.0},
            )
            params = CorrelationParams(sigma_y_sq=25.0, icc=0.05)
            powers.append(analytic_power(spec, params).power)
        assert len(powers) == 20
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_cohort_without_subject_persistence_matches_cross_sectional(self):
        wedge = dict(
            steps_k=2,
            baseline_b=1,
            per_step_t=1,
            clusters_per_step=(4, 4),
            cluster_size=5,
            cell_means={(0, 0): 54.0, (1, 0): 59.0},
        )
        cohort = analytic_power(
            DesignSpec(kind=DesignKind.SWD_COHORT, **wedge),
            CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=1.0, sac=0.0),
        )
        xsec = analytic_power(
            DesignSpec(kind=DesignKind.SWD_XSEC, **wedge),
            CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=1.0),
        )
        assert cohort.fvalue == pytest.approx(xsec.fvalue, abs=1e-12)
        assert cohort.ddf == xsec.ddf
        assert cohort.power == pytest.approx(xsec.power, abs=1e-12)

    def test_unequal_allocation_brackets(self):
        # 48 observations in 8 clusters < 51 in 8 clusters < 54 in 9
        p48 = FROZEN["example2_48"][2]
        p51 = FROZEN["example2_51"][2]
        p54 = FROZEN["example2"][2]
        assert p48 < p51 < p54


class TestPowerAudit:
    def test_fields(self):
        spec, params = get_preset("example7")
        audit = power_audit(spec, params)
        assert audit.kind == "swd_cohort"
        assert audit.n_observations == 90
        assert audit.n_clusters == 6
        assert audit.n_times == 3
        assert audit.contrast == "intervene"
        assert audit.ddf_policy == "between_within"
        assert audit.result.power == pytest.approx(
            FROZEN["example7"][2], rel=POWER_REL
        )
        assert audit.components.total == pytest.approx(25.0, rel=1e-12)

    def test_beta_recovers_cell_means(self):
        spec, params = get_preset("example3")
        audit = power_audit(spec, params)
        np.testing.assert_allclose(audit.beta, [54.0, 0.0, 2.0, 5.0], atol=COEF_TOL)

    def test_contrast_effect_size(self):
        spec, params = get_preset("example6")
        audit = power_audit(spec, params)
        contrast = hypothesis_contrast(spec)
        effect = float((contrast.matrix @ np.asarray(audit.beta))[0])
        assert effect == pytest.approx(5.0, abs=1e-9)
