"""Tests for closed-form design effects and sample size plans.

Frozen decimals below are exact evaluations of the formulas in rational
arithmetic (fractions.Fraction), so they hold to full float precision.
"""

import dataclasses
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wedgepower import engine
from wedgepower.correlation import CorrelationParams, VarianceComponents

from wedgepower.design_effects import (
    cluster_mean_correlation,
    de_ancova_prepost,
    de_simple,
    de_stepped_wedge,
    de_three_measurement,
    design_effect_for,
    inflate_sample_size,
)
from wedgepower.designs import (
    DesignKind,
    DesignSpec,
    SpecValidationError,
    cell_table,
    get_preset,
    validate_spec,
)

REL = 1e-12
EXACT_MATCH_TOL = 1e-12


def assert_gls_variance(spec, params, value):
    """A wedge design effect times the per-comparison variance is GLS's."""
    n_clusters = cell_table(spec).n_clusters
    unclustered = 4.0 * params.sigma_y_sq / (n_clusters * spec.cluster_size)
    gls = engine.evaluate(spec, params).fit.variance
    assert value * unclustered == pytest.approx(gls, rel=EXACT_MATCH_TOL)


def hussey_hughes_from_counts(spec, params, n):
    """Hussey & Hughes's design effect of a wedge, from its count fields.

    The oracle for design_effect_for's reading of the layout's switches:
    step s of k (s from 0) has c_s clusters exposed in (k - s)*t of the
    T = b + k*t periods, and W = t * sum (c_1 + ... + c_s)**2.
    """
    k, t = int(spec.steps_k), int(spec.per_step_t)
    counts = list(map(int, spec.clusters_per_step))
    i, n_times = sum(counts), int(spec.baseline_b) + k * t
    u = sum(c * (k - s) * t for s, c in enumerate(counts))
    v = sum(c * ((k - s) * t) ** 2 for s, c in enumerate(counts))
    w = t * sum(total * total for total in itertools.accumulate(counts))
    rho, cac, sac = float(params.icc), float(params.cac), float(params.sac)
    tau2 = cac * rho + sac * (1.0 - rho) / n
    sigma2 = (1.0 - cac) * rho + (1.0 - sac) * (1.0 - rho) / n
    between = (u * u + i * n_times * u - n_times * w - i * v) * tau2
    variance = i * sigma2 * (sigma2 + n_times * tau2) / ((i * u - w) * sigma2 + between)
    return variance * i * n / 4.0


class TestDeSimple:
    def test_reference_values(self):
        assert de_simple(6, 0.1).value == pytest.approx(1.5, rel=REL)
        assert de_simple(10, 0.1).value == pytest.approx(1.9, rel=REL)

    def test_no_clustering(self):
        assert de_simple(1, 0.5).value == 1.0
        assert de_simple(100, 0.0).value == 1.0

    def test_factor_decomposition(self):
        result = de_simple(6, 0.1)
        assert result.factors == {"clustering": result.value}
        assert result.baseline_r is None
        assert result.formula == "simple"

    def test_validation(self):
        with pytest.raises(ValueError):
            de_simple(0, 0.1)
        with pytest.raises(ValueError):
            de_simple(6, 1.0)
        with pytest.raises(ValueError, match="cluster size must be a positive integer"):
            de_simple("6", 0.1)

    @given(n=st.integers(1, 500), icc=st.floats(0.0, 0.99))
    def test_monotone_in_size_and_icc(self, n, icc):
        base = de_simple(n, icc).value
        assert de_simple(n + 1, icc).value >= base
        assert base >= 1.0


class TestClusterMeanCorrelation:
    def test_reference_values(self):
        assert cluster_mean_correlation(10, 0.1, 0.4, 0.0) == pytest.approx(
            0.21052631578947367, rel=REL
        )
        assert cluster_mean_correlation(10, 0.1, 0.4, 0.6) == pytest.approx(
            0.49473684210526314, rel=REL
        )
        assert cluster_mean_correlation(5, 0.1, 0.4, 0.6) == pytest.approx(
            0.5285714285714286, rel=REL
        )

    def test_perfect_persistence(self):
        # cac = sac = 1 makes the summaries identical across periods
        assert cluster_mean_correlation(7, 0.3, 1.0, 1.0) == pytest.approx(1.0, rel=REL)

    def test_no_persistence(self):
        assert cluster_mean_correlation(7, 0.3, 0.0, 0.0) == 0.0

    @given(
        n=st.integers(1, 200),
        icc=st.floats(0.0, 0.99),
        cac=st.floats(0.0, 1.0),
        sac=st.floats(0.0, 1.0),
    )
    def test_is_convex_combination(self, n, icc, cac, sac):
        # the weights on cac and sac sum to one, so r lies between them
        r = cluster_mean_correlation(n, icc, cac, sac)
        assert min(cac, sac) - 1e-12 <= r <= max(cac, sac) + 1e-12


class TestDeAncovaPrepost:
    def test_reference_values(self):
        assert de_ancova_prepost(10, 0.1, 0.4, 0.0).value == pytest.approx(
            1.8157894736842106, rel=REL
        )
        assert de_ancova_prepost(10, 0.1, 1.0, 0.0).value == pytest.approx(
            1.3736842105263158, rel=REL
        )
        result = de_ancova_prepost(10, 0.1, 0.4, 0.6)
        assert result.value == pytest.approx(1.4349473684210525, rel=REL)
        assert result.baseline_r == pytest.approx(0.49473684210526314, rel=REL)
        assert round(result.baseline_r, 3) == 0.495

    def test_factors_multiply(self):
        result = de_ancova_prepost(10, 0.1, 0.4, 0.6)
        product = result.factors["clustering"] * result.factors["baseline_adjustment"]
        assert product == pytest.approx(result.value, rel=REL)
        assert result.factors["clustering"] == pytest.approx(1.9, rel=REL)

    @given(
        n=st.integers(1, 200),
        icc=st.floats(0.0, 0.99),
        cac=st.floats(0.0, 1.0),
        sac=st.floats(0.0, 1.0),
    )
    def test_adjustment_never_hurts(self, n, icc, cac, sac):
        # sac > 0 describes a cohort: with no measurement-level variance
        # left, power refuses the covariance and so does the closed form
        within = (1.0 - sac) * (1.0 - icc)
        if (1.0 - cac) * icc + within / n <= 0.0 or (within <= 0.0 and n > 1):
            with pytest.raises(ValueError, match="cluster covariance is singular"):
                de_ancova_prepost(n, icc, cac, sac)
            return
        adjusted = de_ancova_prepost(n, icc, cac, sac).value
        assert adjusted <= de_simple(n, icc).value + 1e-12
        assert adjusted >= 0.0


class TestDeSteppedWedge:
    def test_reference_value(self):
        result = de_stepped_wedge(2, 1, 1, 5, 0.1)
        assert result.value == pytest.approx(1.1368421052631579, rel=REL)  # 108/95
        assert round(result.value, 3) == 1.137

    def test_factors_multiply(self):
        result = de_stepped_wedge(3, 2, 2, 8, 0.05)
        product = (
            result.factors["cluster_adjustment"]
            * result.factors["crossover_efficiency"]
        )
        assert product == pytest.approx(result.value, rel=REL)

    def test_independent_case(self):
        # two steps, one baseline, one time per step, no clustering:
        # the crossover gain exactly cancels the repeated measurement cost
        assert de_stepped_wedge(2, 1, 1, 5, 0.0).value == pytest.approx(1.0, rel=REL)

    def test_single_step_rejected(self):
        with pytest.raises(ValueError, match="at least 2 steps"):
            de_stepped_wedge(1, 1, 1, 5, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            de_stepped_wedge(2, 0, 1, 5, 0.1)
        with pytest.raises(ValueError):
            de_stepped_wedge(2, 1, 1, 5, -0.1)
        with pytest.raises(ValueError, match="steps_k must be a positive integer"):
            de_stepped_wedge("2", 1, 1, 5, 0.1)


class TestDeThreeMeasurement:
    def test_reference_value(self):
        result = de_three_measurement(5, 0.1, 0.4, 0.6)
        assert result.value == pytest.approx(0.8882242990654206, rel=REL)  # 2376/2675
        assert round(result.value, 3) == 0.888
        assert result.baseline_r == pytest.approx(0.5285714285714286, rel=REL)
        assert round(result.baseline_r, 3) == 0.529

    def test_factors_multiply(self):
        result = de_three_measurement(5, 0.1, 0.4, 0.6)
        product = result.factors["clustering"] * result.factors["repeated_adjustment"]
        assert product == pytest.approx(result.value, rel=REL)

    @given(n=st.integers(1, 300), icc=st.floats(0.0, 0.99))
    def test_matches_two_step_wedge_at_full_cluster_persistence(self, n, icc):
        # a followed cohort with cac=1, sac=0 behaves like fresh
        # cross-sections of a fully persistent cluster effect, which is
        # the two-step one-baseline wedge
        cohort = de_three_measurement(n, icc, 1.0, 0.0).value
        wedge = de_stepped_wedge(2, 1, 1, n, icc).value
        assert abs(cohort - wedge) <= EXACT_MATCH_TOL * max(1.0, wedge)


class TestClosedFormsRefuseSingularCovariance:
    # the public closed forms run the covariance check power runs, on the
    # family their arguments imply: a cohort when sac > 0
    @pytest.mark.parametrize(
        "preset,formula,args",
        [
            ("example7", de_three_measurement, (5, 0.1, 1.0, 1.0)),
            ("example5", de_ancova_prepost, (5, 0.1, 1.0, 1.0)),
            ("example5", de_ancova_prepost, (5, 0.1, 0.0, 1.0)),
        ],
    )
    def test_refused_as_power_refuses(self, preset, formula, args):
        n, icc, cac, sac = args
        spec = dataclasses.replace(get_preset(preset)[0], cluster_size=n)
        params = CorrelationParams(1.0, icc, cac, sac)
        with pytest.raises(ValueError) as power:
            engine.evaluate(spec, params)
        with pytest.raises(ValueError) as closed_form:
            formula(*args)
        assert str(closed_form.value) == str(power.value)
        assert "cluster covariance is singular" in str(power.value)

    def test_valid_inputs_keep_their_values(self):
        # the values of these calls before the check was added
        assert de_ancova_prepost(5, 0.1, 0.5, 0.3).value == 1.2068571428571429
        assert de_three_measurement(5, 0.1, 0.5, 0.3).value == 1.1183333333333332

    @pytest.mark.parametrize("preset", ["example5", "example7"])
    def test_design_effect_for_checks_once(self, monkeypatch, preset):
        calls = []
        check = VarianceComponents.cell_variances

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(VarianceComponents, "cell_variances", counted)
        design_effect_for(*get_preset(preset))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "fault,message",
        [
            ({"cluster_size": (5, 6, 5, 6, 5, 6)}, "need a common cluster size"),
            ({"steps_k": 1, "clusters_per_step": (6,)}, "needs at least 2 steps"),
        ],
    )
    def test_structure_is_named_before_a_singular_covariance(self, fault, message):
        # sac = 1 leaves cells of 5 subjects no measurement-level variance;
        # a spec that also has a size list or a single step is refused for
        # its structure, which no correlation would mend
        spec, _ = get_preset("example7")
        params = CorrelationParams(1.0, 0.1, 0.4, 1.0)
        with pytest.raises(ValueError, match="cluster covariance is singular"):
            design_effect_for(spec, params)
        with pytest.raises(ValueError, match=message):
            design_effect_for(dataclasses.replace(spec, **fault), params)


class TestInflateSampleSize:
    def test_post_only_plan(self):
        plan = inflate_sample_size(34, de_simple(6, 0.1).value)
        assert plan.observations_raw == pytest.approx(51.0, rel=REL)
        assert plan.observations == 51
        assert plan.participants == 51

    def test_prepost_plans(self):
        plan = inflate_sample_size(128, de_ancova_prepost(10, 0.1, 0.4, 0.0).value)
        assert plan.observations_raw == pytest.approx(232.42105263157896, rel=REL)
        assert plan.observations == 233

        plan = inflate_sample_size(128, de_ancova_prepost(10, 0.1, 0.4, 0.6).value)
        assert plan.observations_raw == pytest.approx(183.67326315789472, rel=REL)
        assert plan.observations == 184

    def test_wedge_plan_counts_measurements(self):
        de = de_stepped_wedge(2, 1, 1, 5, 0.1).value
        plan = inflate_sample_size(34, de, observation_multiplier=3)
        assert plan.observations_raw == pytest.approx(115.9578947368421, rel=REL)
        assert plan.observations == 116
        assert plan.participants == 116  # fresh subjects each time

    def test_cohort_wedge_plan_counts_participants(self):
        de = de_three_measurement(5, 0.1, 0.4, 0.6).value
        plan = inflate_sample_size(
            34, de, observation_multiplier=3, measurements_per_participant=3
        )
        assert plan.observations_raw == pytest.approx(90.5988785046729, rel=REL)
        assert plan.observations == 91
        assert plan.participants_raw == pytest.approx(30.1996261682243, rel=REL)
        assert plan.participants == 31

    def test_exact_integer_not_rounded_up(self):
        plan = inflate_sample_size(34, 1.5)
        assert plan.observations == 51

    def test_validation(self):
        with pytest.raises(ValueError):
            inflate_sample_size(0, 1.5)
        with pytest.raises(ValueError):
            inflate_sample_size(34, 0.0)
        with pytest.raises(ValueError):
            inflate_sample_size(34, 1.5, measurements_per_participant=0)
        with pytest.raises(ValueError, match="n_unclustered must be an integer"):
            inflate_sample_size("34", 1.2)
        with pytest.raises(ValueError, match="measurements_per_participant"):
            inflate_sample_size(34, 1.2, measurements_per_participant=1.5)

    @pytest.mark.parametrize(
        "n_unclustered,multiplier",
        [(10**400, 1), (10**308, 5)],
        ids=["int_past_floats", "product_past_floats"],
    )
    def test_plan_past_the_float_range_is_refused(self, n_unclustered, multiplier):
        # an int no float holds, and a finite one whose plan overflows
        with pytest.raises(ValueError, match="n_unclustered is too large"):
            inflate_sample_size(n_unclustered, 1.5, observation_multiplier=multiplier)

    @pytest.mark.parametrize("value", ["1.2", None, True, float("nan"), float("inf")])
    def test_non_real_inputs_name_the_argument(self, value):
        with pytest.raises(ValueError, match="design_effect must be a positive real"):
            inflate_sample_size(34, value)
        with pytest.raises(ValueError, match="observation_multiplier must be a positive"):
            inflate_sample_size(34, 1.2, observation_multiplier=value)
        with pytest.raises(ValueError, match="icc must lie"):
            de_simple(6, value)


class TestDesignEffectFor:
    @pytest.mark.parametrize(
        "name,expected,formula",
        [
            ("example1", 1.0, "unclustered"),
            ("example3", 1.0, "unclustered"),
            ("example2", 1.5, "simple"),
            ("example4", 1.8157894736842106, "ancova_prepost"),
            ("example5", 1.4349473684210525, "ancova_prepost"),
            ("example6", 1.1368421052631579, "stepped_wedge"),
            ("example7", 0.8882242990654206, "three_measurement"),
        ],
    )
    def test_preset_mapping(self, name, expected, formula):
        spec, params = get_preset(name)
        result = design_effect_for(spec, params)
        assert result.value == pytest.approx(expected, rel=REL)
        assert result.formula == formula

    def test_unequal_sizes_rejected(self):
        spec, params = get_preset("example2_51")
        with pytest.raises(ValueError, match="common cluster size"):
            design_effect_for(spec, params)

    def test_cohort_wedge_at_four_times_matches_gls(self):
        # no named formula covers a cohort wedge with T = 4
        spec = dataclasses.replace(
            get_preset("example7")[0], steps_k=3, clusters_per_step=(2, 2, 2)
        )
        _, params = get_preset("example7")
        assert spec.n_times == 4
        result = design_effect_for(spec, params)
        assert result.formula == "hussey_hughes"
        assert_gls_variance(spec, params, result.value)

    @pytest.mark.parametrize(
        "preset,cac,clusters_per_step,expected",
        [
            # exact: 437/330, 1728/665 and 21384/13375 in rationals
            ("example6", 0.5, (4, 4), 437 / 330),
            ("example6", 1.0, (1, 7), 1728 / 665),
            ("example7", 0.4, (1, 5), 21384 / 13375),
        ],
    )
    def test_wedges_the_named_formulas_miss(
        self, preset, cac, clusters_per_step, expected
    ):
        spec, params = get_preset(preset)
        spec = dataclasses.replace(spec, clusters_per_step=clusters_per_step)
        params = dataclasses.replace(params, cac=cac)
        result = design_effect_for(spec, params)
        assert result.value == pytest.approx(expected, rel=REL)
        assert result.formula == "hussey_hughes"
        assert result.factors == {"gls_variance": result.value}
        assert result.baseline_r is None
        assert_gls_variance(spec, params, result.value)

    @pytest.mark.parametrize("sigma_y_sq", [5e-324, 1e-310, 1.0, 1e300])
    def test_hussey_hughes_does_not_depend_on_the_variance_scale(self, sigma_y_sq):
        # a variance whose a and b underflow at its own scale is not refused
        spec, params = get_preset("example6")
        params = CorrelationParams(sigma_y_sq, params.icc, 0.5)
        result = design_effect_for(spec, params)
        assert result.formula == "hussey_hughes"
        assert result.value == 1.3242424242424242

    @pytest.mark.parametrize("preset", ["example6", "example7"])
    def test_single_step_wedge_rejected(self, preset):
        spec, params = get_preset(preset)
        spec = dataclasses.replace(
            spec, steps_k=1, per_step_t=2, clusters_per_step=(6,)
        )
        with pytest.raises(ValueError, match="at least 2 steps"):
            design_effect_for(spec, params)

    @pytest.mark.parametrize("preset", ["example5", "example7"])
    @pytest.mark.parametrize("cac", [0.0, 1.0])
    def test_singular_covariance_refused_as_power_refuses(self, preset, cac):
        # sac = 1 leaves a cohort no measurement-level variance at any cac
        spec, params = get_preset(preset)
        params = dataclasses.replace(params, cac=cac, sac=1.0)
        with pytest.raises(ValueError) as power:
            engine.evaluate(spec, params)
        with pytest.raises(ValueError) as closed_form:
            design_effect_for(spec, params)
        assert str(closed_form.value) == str(power.value)
        assert "cluster covariance is singular" in str(power.value)

    @settings(max_examples=200, deadline=None)
    @given(
        cohort=st.booleans(),
        steps=st.integers(2, 5),
        baseline=st.integers(1, 3),
        per_step=st.integers(1, 3),
        clusters=st.integers(1, 4),
        size=st.integers(1, 20),
        icc=st.floats(0.0, 0.99),
        cac=st.floats(0.0, 1.0),
        sac=st.floats(0.0, 0.99),
    )
    def test_equal_size_wedges_match_gls(
        self, cohort, steps, baseline, per_step, clusters, size, icc, cac, sac
    ):
        # cac = sac = 1 leaves a cohort no measurement-level variance,
        # and power refuses that singular covariance
        spec = DesignSpec(
            kind=DesignKind.SWD_COHORT if cohort else DesignKind.SWD_XSEC,
            steps_k=steps,
            baseline_b=baseline,
            per_step_t=per_step,
            clusters_per_step=(clusters,) * steps,
            cluster_size=size,
            cell_means={(0, 0): 54.0, (1, 0): 59.0},
        )
        params = CorrelationParams(2.0, icc, cac, sac if cohort else 0.0)
        assert_gls_variance(spec, params, design_effect_for(spec, params).value)

    @settings(max_examples=300, deadline=None)
    @given(
        cohort=st.booleans(),
        baseline=st.integers(1, 3),
        per_step=st.integers(1, 3),
        clusters=st.lists(st.integers(1, 4), min_size=2, max_size=5),
        size=st.integers(1, 10**6),
        sigma_y_sq=st.sampled_from([5e-324, 1e-310, 2.0, 1e300]),
        icc=st.floats(0.0, 0.999),
        cac=st.floats(0.0, 1.0),
        sac=st.floats(0.0, 0.99),
    )
    def test_hussey_hughes_matches_the_count_formula_bit_for_bit(
        self, cohort, baseline, per_step, clusters, size, sigma_y_sq, icc, cac, sac
    ):
        # the covariance is taken at unit variance, so no scale of the
        # variance, a subnormal one included, moves or refuses the value
        spec = DesignSpec(
            kind=DesignKind.SWD_COHORT if cohort else DesignKind.SWD_XSEC,
            steps_k=len(clusters),
            baseline_b=baseline,
            per_step_t=per_step,
            clusters_per_step=tuple(clusters),
            cluster_size=size,
        )
        params = CorrelationParams(sigma_y_sq, icc, cac, sac if cohort else 0.0)
        result = design_effect_for(spec, params)
        # equal steps keep the named formulas at T = 3 or cac = 1
        assume(result.formula == "hussey_hughes")
        expected = hussey_hughes_from_counts(spec, params, size)
        assert result.value.hex() == expected.hex()
        assert result.factors == {"gls_variance": result.value}

    @pytest.mark.parametrize(
        "name,changes,message",
        [
            (
                "example6",
                {"clusters_per_step": (2,)},
                "design.clusters_per_step: length 1 does not match steps_k=2",
            ),
            (
                "example2",
                {"cluster_size": None},
                "design.cluster_size: required for clustered kinds",
            ),
        ],
    )
    def test_counts_refused_as_power_refuses(self, name, changes, message):
        spec, params = get_preset(name)
        spec = dataclasses.replace(spec, **changes)
        assert validate_spec(spec) == [message]
        with pytest.raises(SpecValidationError) as caught:
            design_effect_for(spec, params)
        assert caught.value.errors == [message]

    def test_means_not_required(self):
        spec, params = get_preset("example2")
        result = design_effect_for(dataclasses.replace(spec, cell_means={}), params)
        assert result.value == pytest.approx(1.5, rel=REL)
