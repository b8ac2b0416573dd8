"""Tests for the GLS power engine.

The frozen noncentralities are exact rationals obtained by closed-form
variance algebra on the cluster summaries (cluster-mean variances and
their GLS weights); the frozen powers come from evaluating the
noncentral F tail at those rationals with the series oracle in
test_distributions.  Both routes were cross-checked independently.
"""

import dataclasses
import time

import numpy as np
import pytest

from scipy.linalg import block_diag

from wedgepower import mc
from wedgepower.correlation import CorrelationParams, derive_components
from wedgepower.designs import (
    PRESETS,
    DesignKind,
    DesignSpec,
    get_preset,
)
from wedgepower.engine import (
    DDF_POLICIES,
    analytic_power,
    default_ddf_policy,
    evaluate,
    power_audit,
)

import eval_corpus
import f_oracle
from dense_oracle import (
    FAMILY,
    cell_times,
    design_matrix,
    gls_estimate,
    reference_dataset,
    study_blocks,
)

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
    comps = derive_components(params, FAMILY[spec.kind])
    dataset = reference_dataset(spec)
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
        study_v = block_diag(*study_blocks(spec, comps))
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
        comps = derive_components(params, FAMILY[spec.kind])
        blocks = study_blocks(spec, comps)
        assert [b.shape[0] for b in blocks] == [7, 7, 6, 6, 7, 6, 6, 6]
        assert blocks[0] is blocks[1]
        assert blocks[2] is blocks[3]


class TestWaldF:
    def test_two_arm_f(self):
        # difference -5 with variance 25 * (2/17): F = 25 / (50/17) = 8.5
        result = evaluate(*get_preset("example1")).result
        assert result.ndf == 1
        assert result.fvalue == pytest.approx(8.5, abs=LAMBDA_TOL)


def preset_ddf(name, policy, spec=None):
    """ddf of the preset's evaluation under a policy, on spec if given."""
    preset, params = get_preset(name)
    run = evaluate(spec or preset, params, ddf_policy=policy)
    return run.result.ddf


class TestDdfPolicies:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_default_policy_values(self, name):
        spec, _ = get_preset(name)
        policy = default_ddf_policy(spec.kind)
        assert preset_ddf(name, policy) == FROZEN[name][1]

    def test_policy_defaults(self):
        for name, policy in DEFAULT_POLICIES.items():
            spec, _ = get_preset(name)
            assert default_ddf_policy(spec.kind) == policy

    def test_residual_rule(self):
        assert preset_ddf("example2", "residual") == 54 - 2

    def test_containment_rule(self):
        assert preset_ddf("example4", "containment") == 240 - 12

    def test_between_within_strata(self):
        # example6: 8 clusters, one cluster-constant column (intercept),
        # so 7 between; the exposure effect varies within clusters and
        # takes the remainder 116 - 7 = 109
        assert preset_ddf("example6", "between_within") == 109
        # example4: the treated-by-post product involves the randomized
        # arm, so it takes the between stratum 12 - 2 = 10
        assert preset_ddf("example4", "between_within") == 10

    @pytest.mark.parametrize(
        "name",
        ["example2", "example2_51", "example4", "example5", "example6", "example7"],
    )
    def test_one_rank_solve_per_evaluation(self, monkeypatch, name):
        # full rank is read off the tested column, and it fixes the rank
        # of the cluster-constant columns at their number, so an
        # evaluation runs no SVD at all
        calls = []

        def counting(attribute):
            original = getattr(np.linalg, attribute)

            def counted(*args, **kwargs):
                calls.append(attribute)
                return original(*args, **kwargs)

            return counted

        for attribute in ("matrix_rank", "svd"):
            monkeypatch.setattr(np.linalg, attribute, counting(attribute))
        spec, params = get_preset(name)
        evaluate(spec, params, ddf_policy="between_within")
        assert calls == []

    def test_cluster_policies_rejected_for_individual_randomization(self):
        for policy in ("containment", "between_within"):
            with pytest.raises(ValueError, match="residual"):
                preset_ddf("example1", policy)

    @pytest.mark.parametrize("policy", ["satterthwaite", ""])
    def test_unknown_policy(self, policy):
        # an empty name is refused by name too, not taken for the default
        message = f"unknown ddf policy {policy!r}; choose from"
        with pytest.raises(ValueError, match=message):
            preset_ddf("example2", policy)
        spec, params = get_preset("example2")
        with pytest.raises(ValueError, match=message):
            analytic_power(spec, params, ddf_policy=policy)

    def test_exhausted_ddf(self):
        spec = DesignSpec(
            kind=DesignKind.CRT_POST,
            clusters_per_arm=(1, 1),
            cluster_size=1,
            cell_means={(1, 1): 59.0, (2, 1): 54.0},
        )
        with pytest.raises(ValueError, match="degrees of freedom"):
            preset_ddf("example2", "containment", spec)


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


@pytest.mark.parametrize("name", ["example2", "example5", "example6", "example7"])
def test_information_too_large_to_invert_is_refused(name):
    # a subnormal variance makes 1 / b overflow: both the dense inverse
    # and the absorbed period block refuse it by name, not with a NaN
    spec, params = get_preset(name)
    tiny = dataclasses.replace(params, sigma_y_sq=1e-310)
    with pytest.raises(ValueError, match="^information matrix is singular$"):
        analytic_power(spec, tiny)


# the refusals a tiny sigma_y_sq may meet: an F or noncentrality too
# large for the tail, or a covariance too small to invert
TINY_VARIANCE_REFUSALS = (
    "noncentrality must be finite",
    "fvalue must be finite",
    "information matrix is singular",
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_tiny_variance_answers_or_is_refused_by_name(name):
    # sigma_y_sq = 10**-k for k up to 308: the fit's sums stay finite, so
    # each call answers or refuses in one ValueError, with no numpy warning
    spec, params = get_preset(name)
    answered = []
    for k in range(1, 309):
        tiny = dataclasses.replace(params, sigma_y_sq=10.0**-k)
        for call in (
            lambda: evaluate(spec, tiny),
            lambda: mc.empirical_power(mc.SimulationPlan(spec, tiny, replicates=200, seed=1)),
        ):
            try:
                call()
            except ValueError as exc:
                assert str(exc).startswith(TINY_VARIANCE_REFUSALS), (k, str(exc))
            else:
                answered.append(k)
    assert answered[:2] == [1, 1]


class TestPowerAudit:
    def test_fields(self):
        # the audit of a power figure is its Evaluation
        assert power_audit is evaluate
        spec, params = get_preset("example7")
        run = power_audit(spec, params)
        assert run.cells.n_observations == 90
        assert run.cells.n_clusters == 6
        assert cell_times(run.cells).max() == 3
        assert run.contrast == "intervene"
        assert run.result.ddf_policy == "between_within"
        assert run.result.power == pytest.approx(FROZEN["example7"][2], rel=POWER_REL)
        assert run.components.total == pytest.approx(25.0, rel=1e-12)

    def test_beta_recovers_cell_means(self):
        spec, params = get_preset("example3")
        run = power_audit(spec, params)
        np.testing.assert_allclose(run.fit.beta, [54.0, 0.0, 2.0, 5.0], atol=COEF_TOL)

    def test_contrast_effect_size(self):
        spec, params = get_preset("example6")
        run = power_audit(spec, params)
        assert run.contrast == "intervene"
        assert run.fit.beta[-1] == pytest.approx(5.0, abs=1e-9)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_power_matches_lower_tail_oracle(name):
    # the upper-tail solve and mixture against bracketed Newton at 1 - alpha
    # and 1 - noncentral_f_cdf, under every policy the design accepts
    spec, params = get_preset(name)
    checked = 0
    for policy in DDF_POLICIES:
        for alpha in (spec.alpha, 0.01):
            try:
                result = analytic_power(spec, params, ddf_policy=policy, alpha=alpha)
            except ValueError as exc:
                assert "needs a clustered design" in str(exc)
                continue
            fcrit, power = f_oracle.power_from_f(result.fvalue, 1, result.ddf, alpha)
            assert result.fcrit == pytest.approx(fcrit, rel=1e-12)
            assert result.power == pytest.approx(power, abs=1e-12)
            checked += 1
    assert checked >= 2


def test_evaluation_corpus_ends_every_case_in_a_value_or_a_refusal():
    # eval_corpus.py digests these cases to compare two checkouts; it
    # covers every kind, ddf policy and size shape, and each case
    # answers or refuses with a ValueError, in good time, never raises
    cases = list(eval_corpus.cases())
    assert len(cases) == 592
    assert {case.spec.kind for case in cases} == set(DesignKind)
    assert {case.policy for case in cases} == {None, *DDF_POLICIES}
    assert {case.alpha for case in cases} == {0.05, 1e-6}

    def shape(size):
        if isinstance(size, int):
            return "common"
        return "equal" if len(set(size)) == 1 else "mixed"

    shapes = {
        (case.spec.kind, shape(case.spec.cluster_size))
        for case in cases
        if case.spec.cluster_size is not None
    }
    clustered = {kind for kind, _ in shapes}
    assert clustered == set(DesignKind) - {DesignKind.RCT_POST, DesignKind.RCT_PREPOST}
    assert len(shapes) == 3 * len(clustered)
    for case in cases:
        start = time.perf_counter()
        eval_corpus.record(case)
        assert time.perf_counter() - start < 5.0, case.label
