"""The cluster-period engine against the dense subject-level oracle.

The engine fits the cell means of cluster patterns; dense_oracle keeps
the subject-level GLS it replaced.  Both must give the same information,
coefficients, degrees of freedom and errors, and the cell route must
match the Hussey & Hughes closed-form variance of the exposure effect.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wedgepower import correlation, designs, engine, mc
from wedgepower.correlation import MAX_MATRIX_ROWS, CorrelationParams
from wedgepower.designs import (
    PRESETS,
    RCT_KINDS,
    SWD_KINDS,
    DesignKind,
    DesignSpec,
    cell_table,
    get_preset,
)

import dense_oracle

INFO_RTOL = 1e-12


def _outcome(fn):
    """fn's value, or the type and text of the ValueError it raised."""
    try:
        return fn()
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def _components(spec, params):
    return correlation.derive_components(params, correlation.family_for_kind(spec.kind))


def _policies(kind):
    return ("residual",) if kind in RCT_KINDS else engine.DDF_POLICIES


@st.composite
def specs_and_params(draw):
    """Small designs of every kind, a third with unequal cluster sizes."""
    kind = draw(st.sampled_from(list(DesignKind)))
    count = st.integers(1, 3)
    mean = st.floats(-100.0, 100.0, allow_nan=False)
    if kind in SWD_KINDS:
        steps = draw(st.integers(1, 3))
        shape = dict(
            steps_k=steps,
            baseline_b=draw(st.integers(1, 2)),
            per_step_t=draw(st.integers(1, 2)),
            clusters_per_step=tuple(draw(count) for _ in range(steps)),
        )
        means = {(0, 0): draw(mean), (1, 0): draw(mean)}
    else:
        times = (1,) if kind in (DesignKind.RCT_POST, DesignKind.CRT_POST) else (1, 2)
        means = {(arm, t): draw(mean) for arm in (1, 2) for t in times}
        if kind in RCT_KINDS:
            shape = dict(per_group_n=draw(st.integers(1, 6)))
        else:
            shape = dict(clusters_per_arm=(draw(count), draw(count)))
    spec = DesignSpec(kind=kind, cell_means=means, **shape)
    if kind not in RCT_KINDS:
        n_clusters = spec.n_clusters
        size = st.integers(1, 4)
        if draw(st.booleans()):
            sizes = tuple(draw(size) for _ in range(n_clusters))
        else:
            sizes = draw(size)
        spec = dataclasses.replace(spec, cluster_size=sizes)

    sigma = draw(st.floats(1.0, 50.0))
    if kind in RCT_KINDS:
        return spec, CorrelationParams(sigma_y_sq=sigma, icc=0.0)
    cohort = correlation.family_for_kind(kind) is correlation.Family.COHORT
    params = CorrelationParams(
        sigma_y_sq=sigma,
        icc=draw(st.floats(0.0, 0.6)),
        cac=draw(st.floats(0.0, 1.0)),
        # sac = 1 makes the subject-level blocks singular, which the
        # dense solve does not reliably detect
        sac=draw(st.floats(0.0, 0.9)) if cohort else 0.0,
    )
    return spec, params


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs_and_params())
def test_cell_fit_matches_dense_fit(case):
    spec, params = case
    comps = _components(spec, params)
    cell = _outcome(lambda: engine.fit_cells(cell_table(spec), comps))
    dense = _outcome(lambda: dense_oracle.fit_design(spec, params)[3])
    if isinstance(dense, tuple):
        assert cell == dense
        return
    assert not isinstance(cell, tuple), cell
    scale = np.abs(dense.information).max()
    np.testing.assert_allclose(
        cell.information, dense.information, rtol=INFO_RTOL, atol=INFO_RTOL * scale
    )
    np.testing.assert_allclose(cell.cov, dense.cov, rtol=1e-9, atol=1e-12 * np.abs(dense.cov).max())
    np.testing.assert_allclose(cell.beta, dense.beta, rtol=1e-9, atol=1e-9 * 100.0)
    for policy in _policies(spec.kind):
        assert _outcome(lambda: engine.resolve_ddf(spec, policy)) == _outcome(
            lambda: dense_oracle.resolve_ddf(spec, policy)
        ), policy


def test_degenerate_layout_refused_by_both_paths():
    spec = DesignSpec(
        kind=DesignKind.SWD_XSEC,
        steps_k=1,
        baseline_b=1,
        per_step_t=1,
        clusters_per_step=(3,),
        cluster_size=4,
        cell_means={(0, 0): 54.0, (1, 0): 59.0},
    )
    params = CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=0.5)
    cell = _outcome(lambda: engine.analytic_power(spec, params))
    assert cell == _outcome(lambda: dense_oracle.fit_design(spec, params))
    assert "degenerate step layout" in cell[1]
    for policy in engine.DDF_POLICIES:
        assert _outcome(lambda: engine.resolve_ddf(spec, policy)) == cell


@pytest.mark.parametrize("name", ["example6", "example7"])
def test_inconsistent_means_refused_by_both_paths(name):
    # shift the first period of the step-1 clusters alone: no fixed
    # effect is specific to one step group at one time
    spec, params = get_preset(name)
    cells = cell_table(spec)
    first_period = np.arange(cells.mean.shape[1]) == 0
    shifted = dataclasses.replace(
        cells, mean=cells.mean + 3.0 * np.outer(cells.group == 1, first_period)
    )
    comps, x, dataset, _ = dense_oracle.fit_design(spec, params)
    y = dataset.mean + 3.0 * ((dataset.arm == 1) & (dataset.time == 1))
    blocks = dense_oracle.study_blocks(spec, comps)

    cell = _outcome(lambda: engine.fit_cells(shifted, comps))
    dense = _outcome(lambda: dense_oracle.exemplary_fit(x, blocks, y))
    assert cell[0] == dense[0] == "ValueError"
    assert "cell means are inconsistent with the design model" in cell[1]
    norm = re.compile(r"residual norm ([0-9.e+-]+)")
    assert float(norm.search(cell[1]).group(1)) == pytest.approx(
        float(norm.search(dense[1]).group(1)), rel=2e-3
    )


class TestCellTable:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_patterns_cover_every_observation(self, name):
        spec, _ = get_preset(name)
        cells = cell_table(spec)
        n_patterns, n_periods, p = cells.x.shape
        assert p == len(designs.design_columns(spec))
        assert cells.mean.shape == (n_patterns, n_periods)
        assert int(cells.count.sum()) == spec.n_clusters
        assert int(np.sum(cells.count * cells.m) * n_periods) == spec.n_observations
        np.testing.assert_array_equal(
            np.bincount(cells.cluster_pattern, minlength=n_patterns), cells.count
        )

    def test_cells_are_the_distinct_dataset_rows(self):
        spec, _ = get_preset("example2_51")
        cells = cell_table(spec)
        # two arms and two sizes: four patterns
        assert sorted(zip(cells.group.tolist(), cells.m.tolist())) == [
            (1, 6), (1, 7), (2, 6), (2, 7)
        ]
        sizes = np.array(spec.cluster_subject_counts())
        np.testing.assert_array_equal(cells.m[cells.cluster_pattern], sizes)
        x = designs.design_matrix(spec)
        np.testing.assert_array_equal(
            np.unique(x, axis=0), np.unique(cells.x.reshape(-1, x.shape[1]), axis=0)
        )

    def test_individual_randomization_uses_one_pattern_per_cell(self):
        spec, _ = get_preset("example3")
        cells = cell_table(spec)
        assert cells.x.shape == (4, 1, 4)
        assert cells.count.tolist() == [32] * 4
        assert cells.m.tolist() == [1] * 4


def _hussey_hughes_variance(spec, params):
    """Var of the exposure effect for equal clusters, Hussey & Hughes 2007.

    tau2 and sigma2 are the shared and period-specific variances of a
    cluster-period mean, split from the marginal parameters directly.
    """
    s2, icc, cac, sac = params.sigma_y_sq, params.icc, params.cac, params.sac
    m = spec.cluster_size
    cohort = spec.kind == DesignKind.SWD_COHORT
    subject = (1.0 - icc) * s2
    tau2 = cac * icc * s2 + (sac * subject / m if cohort else 0.0)
    sigma2 = (1.0 - cac) * icc * s2 + ((1.0 - sac) if cohort else 1.0) * subject / m
    exposure = np.array(
        [
            [float(t > spec.switch_threshold(step)) for t in spec.times]
            for step, n in enumerate(spec.clusters_per_step, start=1)
            for _ in range(n)
        ]
    )
    n_clusters, n_times = exposure.shape
    u = exposure.sum()
    w = np.sum(exposure.sum(axis=0) ** 2)
    v = np.sum(exposure.sum(axis=1) ** 2)
    return (
        n_clusters * sigma2 * (sigma2 + n_times * tau2)
        / (
            (n_clusters * u - w) * sigma2
            + (u * u + n_clusters * n_times * u - n_times * w - n_clusters * v) * tau2
        )
    )


@pytest.mark.parametrize("name", ["example6", "example7", "swd_cohort_6x1000x13"])
def test_exposure_variance_matches_hussey_hughes(name):
    if name in PRESETS:
        spec, params = get_preset(name)
    else:
        spec = DesignSpec(
            kind=DesignKind.SWD_COHORT,
            steps_k=6,
            baseline_b=1,
            per_step_t=2,
            clusters_per_step=(1,) * 6,
            cluster_size=1000,
            cell_means={(0, 0): 54.0, (1, 0): 55.0},
        )
        params = CorrelationParams(sigma_y_sq=25.0, icc=0.05, cac=0.6, sac=0.5)
        # each cluster's dense covariance is over the row cap
        assert spec.rows_per_cluster()[0] > MAX_MATRIX_ROWS
    fit = engine.evaluate(spec, params).fit
    assert fit.cov[-1, -1] == pytest.approx(
        _hussey_hughes_variance(spec, params), rel=1e-12
    )


def test_simulation_of_over_cap_design_names_the_row_limit():
    spec = DesignSpec(
        kind=DesignKind.SWD_COHORT,
        steps_k=2,
        baseline_b=1,
        per_step_t=1,
        clusters_per_step=(1, 1),
        cluster_size=MAX_MATRIX_ROWS // 3 + 1,
        cell_means={(0, 0): 54.0, (1, 0): 55.0},
    )
    params = CorrelationParams(sigma_y_sq=25.0, icc=0.05, cac=0.6, sac=0.5)
    assert engine.analytic_power(spec, params).power > 0.05
    plan = mc.SimulationPlan(spec=spec, params=params, replicates=10, seed=1)
    with pytest.raises(ValueError, match=f"limit is {MAX_MATRIX_ROWS}"):
        mc.empirical_power(plan)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_simulation_weights_match_dense_weights(name):
    spec, params = get_preset(name)
    sampler = mc._StudySampler(spec, _components(spec, params))
    run = engine.evaluate(spec, params)
    weights = sampler.row_weights(run.cells, run.cell_weights())
    np.testing.assert_allclose(
        weights, dense_oracle.contrast_weights(spec, params), rtol=1e-10, atol=1e-13
    )
