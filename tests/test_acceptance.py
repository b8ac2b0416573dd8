"""Acceptance suite: one test per published acceptance criterion.

Each test prints a single PASS line (run with -s or -v to see them);
a failure reports exactly which quantity fell outside its tolerance.
The Monte Carlo criteria run 20,000 replicates per scenario under a
fixed seed, so the whole suite is deterministic.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from wedgepower.correlation import (
    CorrelationParams,
    Family,
    build_cluster_v,
    derive_components,
    vcorr,
)
from wedgepower.design_effects import (
    de_ancova_prepost,
    de_simple,
    de_stepped_wedge,
    de_three_measurement,
    inflate_sample_size,
)
from wedgepower.designs import DesignKind, DesignSpec, PRESETS, cell_table, get_preset
from wedgepower.distributions import (
    central_f_cdf,
    central_f_quantile,
    noncentral_f_cdf,
)
from wedgepower.engine import analytic_power
from wedgepower.mc import SimulationPlan, empirical_power

MC_REPLICATES = 20_000
MC_SEED = 1

SEVEN_PRESETS = (
    "example1",
    "example2",
    "example3",
    "example4",
    "example5",
    "example6",
    "example7",
)


def announce(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def cs_matrix(size: int, diag: float, off: float) -> np.ndarray:
    return np.full((size, size), off) + np.eye(size) * (diag - off)


def null_spec(spec: DesignSpec) -> DesignSpec:
    return replace(spec, cell_means={key: 54.0 for key in spec.cell_means})


def test_criterion_1_design_effect_values():
    """Closed-form design effects match published values to 0.001 after rounding."""
    started = time.perf_counter()
    checks = [
        ("de_simple(6, 0.1)", de_simple(6, 0.1).value, 1.500),
        ("de_simple(10, 0.1)", de_simple(10, 0.1).value, 1.900),
        (
            "de_ancova_prepost(10, 0.1, 0.4, 0)",
            de_ancova_prepost(10, 0.1, 0.4, 0.0).value,
            1.816,
        ),
        (
            "de_ancova_prepost(10, 0.1, 1, 0)",
            de_ancova_prepost(10, 0.1, 1.0, 0.0).value,
            1.373,
        ),
        (
            "de_ancova_prepost(10, 0.1, 0.4, 0.6)",
            de_ancova_prepost(10, 0.1, 0.4, 0.6).value,
            1.435,
        ),
        (
            "de_stepped_wedge(2, 1, 1, 5, 0.1)",
            de_stepped_wedge(2, 1, 1, 5, 0.1).value,
            1.137,
        ),
        (
            "de_three_measurement(5, 0.1, 0.4, 0.6)",
            de_three_measurement(5, 0.1, 0.4, 0.6).value,
            0.888,
        ),
    ]
    # compare in integer thousandths so the 0.001 tolerance is exact
    for label, value, target in checks:
        assert abs(round(value * 1000) - round(target * 1000)) <= 1, (
            f"{label} = {value:.6f}, expected {target} within 0.001 after rounding"
        )

    r_mixed = de_ancova_prepost(10, 0.1, 0.4, 0.6).baseline_r
    assert abs(round(r_mixed * 1000) - 495) <= 1, f"baseline r = {r_mixed:.6f}"
    r_cohort = de_three_measurement(5, 0.1, 0.4, 0.6).baseline_r
    assert abs(round(r_cohort * 1000) - 529) <= 1, f"baseline r = {r_cohort:.6f}"

    elapsed = time.perf_counter() - started
    assert elapsed < 0.5, f"closed forms took {elapsed:.3f}s"
    announce("criterion 1", f"7 design effects and 2 correlations ({elapsed*1e3:.1f} ms)")


def test_criterion_2_sample_size_plans():
    """Inflated sample sizes match published plans to 0.05 before rounding."""
    plan = inflate_sample_size(34, de_simple(6, 0.1).value)
    assert abs(plan.observations_raw - 51.0) <= 0.05
    assert plan.observations == 51

    plan = inflate_sample_size(128, de_ancova_prepost(10, 0.1, 0.4, 0.0).value)
    assert abs(plan.observations_raw - 232.4) <= 0.05, plan.observations_raw

    plan = inflate_sample_size(128, de_ancova_prepost(10, 0.1, 0.4, 0.6).value)
    assert abs(plan.observations_raw - 183.67) <= 0.05, plan.observations_raw

    plan = inflate_sample_size(
        34, de_stepped_wedge(2, 1, 1, 5, 0.1).value, observation_multiplier=3
    )
    assert plan.observations == 116, plan.observations_raw

    plan = inflate_sample_size(
        34,
        de_three_measurement(5, 0.1, 0.4, 0.6).value,
        observation_multiplier=3,
        measurements_per_participant=3,
    )
    assert abs(plan.observations_raw - 90.6) <= 0.05, plan.observations_raw

    announce("criterion 2", "5 sample size plans (51, 232.4, 183.67, 116, 90.6)")


def test_criterion_3_covariance_reproduction():
    """Cluster covariance matrices reproduce the published displays exactly."""

    def block(name):
        spec, params = get_preset(name)
        cells = cell_table(spec)
        return build_cluster_v(cells, derive_components(params, cells.family))

    # post-only cluster: 6x6 exchangeable, and its correlation matrix
    v2 = block("example2")
    np.testing.assert_array_equal(np.round(v2, 1), cs_matrix(6, 25.0, 2.5))
    np.testing.assert_array_equal(np.round(vcorr(v2), 1), cs_matrix(6, 1.0, 0.1))

    # cross-sectional pre-post: within-time and across-time blocks
    v4 = block("example4")
    np.testing.assert_array_equal(np.round(v4[:10, :10], 1), cs_matrix(10, 25.0, 2.5))
    np.testing.assert_array_equal(np.round(v4[:10, 10:], 1), np.full((10, 10), 1.0))

    # followed cohort pre-post: the four distinct entry values
    v5 = block("example5")
    lead = np.round(v5[:4, :4], 1)
    expected = np.array(
        [
            [25.0, 14.5, 2.5, 1.0],
            [14.5, 25.0, 1.0, 2.5],
            [2.5, 1.0, 25.0, 14.5],
            [1.0, 2.5, 14.5, 25.0],
        ]
    )
    np.testing.assert_array_equal(lead, expected)
    assert set(np.round(v5, 1).ravel()) == {25.0, 14.5, 2.5, 1.0}

    # cohort wedge: leading 9x9 excerpt (3 subjects, 3 times each)
    v7 = block("example7")
    same_subject = cs_matrix(3, 25.0, 14.5)
    cross_subject = cs_matrix(3, 2.5, 1.0)
    excerpt = np.kron(np.eye(3), same_subject) + np.kron(
        np.ones((3, 3)) - np.eye(3), cross_subject
    )
    np.testing.assert_array_equal(np.round(v7[:9, :9], 1), excerpt)

    announce("criterion 3", "4 covariance displays reproduced to 1 decimal")


def test_criterion_4_analytic_power():
    """Direct GLS power matches published figures to 0.005."""
    targets = {
        "example1": 0.807,
        "example2": 0.831,
        "example2_48": 0.788,
        "example2_51": 0.803,
        "example3": 0.801,
        "example3_124": 0.789,
        "example4": 0.813,
        "example5": 0.830,
        "example6": 0.836,
        "example7": 0.819,
    }
    for name, target in targets.items():
        spec, params = get_preset(name)
        result = analytic_power(spec, params)
        assert abs(result.power - target) <= 0.005, (
            f"{name}: power {result.power:.4f}, expected {target} within 0.005"
        )
    announce("criterion 4", f"{len(targets)} analytic power figures within 0.005")


def test_criterion_5_null_calibration():
    """With equal cell means the test size equals alpha, both routes."""
    band = 3.0 * math.sqrt(0.05 * 0.95 / MC_REPLICATES)
    for name in sorted(PRESETS):
        spec, params = get_preset(name)
        flat = null_spec(spec)

        analytic = analytic_power(flat, params).power
        assert abs(analytic - 0.05) <= 1e-9, (
            f"{name}: analytic size {analytic!r} differs from alpha"
        )

        plan = SimulationPlan(
            spec=flat, params=params, replicates=MC_REPLICATES, seed=MC_SEED
        )
        empirical = empirical_power(plan).estimate
        assert abs(empirical - 0.05) <= band, (
            f"{name}: empirical size {empirical:.4f} outside "
            f"0.05 +/- {band:.4f} at {MC_REPLICATES} replicates"
        )
    announce(
        "criterion 5",
        f"size = alpha for all {len(PRESETS)} presets "
        f"(analytic to 1e-9, simulation within {band:.4f})",
    )


def test_criterion_6_monte_carlo_agreement():
    """Simulated power agrees with the analytic route on all seven designs."""
    worst = 0.0
    for name in SEVEN_PRESETS:
        spec, params = get_preset(name)
        p = analytic_power(spec, params).power
        band = 3.0 * math.sqrt(p * (1.0 - p) / MC_REPLICATES)
        plan = SimulationPlan(
            spec=spec, params=params, replicates=MC_REPLICATES, seed=MC_SEED
        )
        estimate = empirical_power(plan).estimate
        assert abs(estimate - p) <= band, (
            f"{name}: simulated {estimate:.4f} vs analytic {p:.4f}, "
            f"band {band:.4f} at {MC_REPLICATES} replicates"
        )
        worst = max(worst, abs(estimate - p) / band)
    announce(
        "criterion 6",
        f"7 designs within 3 MC standard errors (worst at {worst:.2f} of band)",
    )


def test_criterion_7_property_suite():
    """Structural identities hold at tight tolerances over deterministic grids."""
    # quantile/cdf round trips
    for p in (0.01, 0.05, 0.25, 0.5, 0.8, 0.95, 0.99):
        for ndf, ddf in ((1, 7), (1, 45), (2, 10), (5, 200)):
            x = central_f_quantile(p, ndf, ddf)
            assert abs(central_f_cdf(x, ndf, ddf) - p) <= 1e-9

    # zero noncentrality reduces to the central distribution
    for x in (0.3, 1.0, 2.5, 6.0):
        for ndf, ddf in ((1, 7), (3, 40), (2, 150)):
            assert (
                abs(noncentral_f_cdf(x, ndf, ddf, 0.0) - central_f_cdf(x, ndf, ddf))
                <= 1e-10
            )

    # variance components sum back to the marginal variance and recover
    # their defining ratios
    for icc in (0.0, 0.05, 0.1, 0.5, 0.9):
        for cac in (0.0, 0.4, 1.0):
            for sac in (0.0, 0.6, 1.0):
                params = CorrelationParams(
                    sigma_y_sq=25.0, icc=icc, cac=cac, sac=sac
                )
                comps = derive_components(params, Family.COHORT)
                assert abs(comps.total - 25.0) <= 25.0 * 1e-12
                cluster_share = comps.cluster + comps.cluster_by_time
                assert abs(cluster_share - icc * 25.0) <= 25.0 * 1e-12
                if icc > 0:
                    assert abs(comps.cluster / cluster_share - cac) <= 1e-12

    # every preset's cluster covariance is positive semidefinite
    for name in sorted(PRESETS):
        spec, params = get_preset(name)
        cells = cell_table(spec)
        matrix = build_cluster_v(cells, derive_components(params, cells.family))
        assert np.linalg.eigvalsh(matrix).min() >= -1e-10, name

    # relabeling arms or phases leaves the F statistic unchanged
    swaps = {
        "example2": {(1, 1): 54.0, (2, 1): 59.0},
        "example4": {(1, 1): 54.0, (1, 2): 61.0, (2, 1): 54.0, (2, 2): 56.0},
        "example5": {(1, 1): 54.0, (1, 2): 61.0, (2, 1): 54.0, (2, 2): 56.0},
    }
    for name, means in swaps.items():
        spec, params = get_preset(name)
        swapped = replace(
            spec,
            clusters_per_arm=tuple(reversed(spec.clusters_per_arm)),
            cell_means=means,
        )
        assert (
            abs(analytic_power(spec, params).fvalue
                - analytic_power(swapped, params).fvalue)
            <= 1e-10
        ), name
    for name in ("example6", "example7"):
        spec, params = get_preset(name)
        swapped = replace(spec, cell_means={(0, 0): 59.0, (1, 0): 54.0})
        assert (
            abs(analytic_power(spec, params).fvalue
                - analytic_power(swapped, params).fvalue)
            <= 1e-10
        ), name

    # the three-measurement cohort multiplier equals the two-step wedge
    # multiplier when the cluster effect fully persists
    for n in (2, 5, 10, 30, 100):
        for icc in (0.0, 0.01, 0.1, 0.5, 0.9):
            cohort = de_three_measurement(n, icc, 1.0, 0.0).value
            wedge = de_stepped_wedge(2, 1, 1, n, icc).value
            assert abs(cohort - wedge) <= 1e-12 * max(1.0, wedge)

    # power grows strictly with the number of clusters
    powers = []
    for count in range(2, 22):
        spec = DesignSpec(
            kind=DesignKind.CRT_POST,
            clusters_per_arm=(count, count),
            cluster_size=5,
            cell_means={(1, 1): 59.0, (2, 1): 54.0},
        )
        powers.append(
            analytic_power(
                spec, CorrelationParams(sigma_y_sq=25.0, icc=0.05)
            ).power
        )
    assert all(b > a for a, b in zip(powers, powers[1:]))

    announce(
        "criterion 7",
        "round trips, reductions, component identities, PSD, relabeling "
        "invariance, multiplier equivalence, monotonicity",
    )
