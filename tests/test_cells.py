"""The cluster-period engine and sampler against the dense subject-level oracle.

The engine fits, and the Monte Carlo check draws, the cell means of
cluster patterns; dense_oracle keeps the subject-level GLS and sampler
they replaced.  Both must give the same information (the cells' by
their design array), coefficients, tested variance, degrees of
freedom, errors, cell-mean covariances and contrast weights,
and the cell route must match the Hussey & Hughes closed-form variance
of the exposure effect.  The package's exemplary dataset, expanded from
the same schedule as the cells, must equal the oracle's row-by-row one.
"""

import dataclasses
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wedgepower import correlation, design_effects, designs, engine, mc
from wedgepower.correlation import MAX_MATRIX_ROWS, CorrelationParams
from wedgepower.designs import PRESETS, DesignKind, DesignSpec, cell_table, get_preset

import dense_oracle
from dense_oracle import RCT_KINDS, SWD_KINDS

INFO_RTOL = 1e-12


def _outcome(fn):
    """fn's value, or the type and text of the ValueError it raised."""
    try:
        return fn()
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def _components(spec, params):
    return correlation.derive_components(params, cell_table(spec).family)


def _ddf(spec, policy):
    # fixed params that every kind accepts and that never make the fit
    # singular, so evaluate fails only where the degrees of freedom do
    icc = 0.0 if spec.kind in RCT_KINDS else 0.1
    params = CorrelationParams(sigma_y_sq=25.0, icc=icc, cac=0.5)
    return engine.evaluate(spec, params, ddf_policy=policy).result.ddf


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
        n_clusters = sum(spec.clusters_per_arm or spec.clusters_per_step)
        size = st.integers(1, 4)
        if draw(st.booleans()):
            sizes = tuple(draw(size) for _ in range(n_clusters))
        else:
            sizes = draw(size)
        spec = dataclasses.replace(spec, cluster_size=sizes)

    sigma = draw(st.floats(1.0, 50.0))
    if kind in RCT_KINDS:
        return spec, CorrelationParams(sigma_y_sq=sigma, icc=0.0)
    cohort = dense_oracle.FAMILY[kind] is correlation.Family.COHORT
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
    # the cells' design rows carry the subject rows' information
    information = dense_oracle.cell_information(cell_table(spec), comps)
    scale = np.abs(dense.information).max()
    np.testing.assert_allclose(
        information, dense.information, rtol=INFO_RTOL, atol=INFO_RTOL * scale
    )
    assert cell.variance == pytest.approx(dense.cov[-1, -1], rel=1e-9)
    np.testing.assert_allclose(cell.beta, dense.beta, rtol=1e-9, atol=1e-9 * 100.0)
    for policy in _policies(spec.kind):
        assert _outcome(lambda: _ddf(spec, policy)) == _outcome(
            lambda: dense_oracle.resolve_ddf(spec, policy)
        ), policy
    run = _outcome(lambda: engine.evaluate(spec, params, ddf_policy="residual"))
    if not isinstance(run, tuple):
        _assert_cell_covariance_matches_dense(spec, run)


@settings(max_examples=300, deadline=None)
@given(specs_and_params().filter(lambda case: case[0].kind not in RCT_KINDS))
def test_exposure_is_cluster_constant_exactly_for_post_only_kinds(case):
    # the between-within rule takes its count of cluster-constant columns
    # from the kind catalog: the intercept, and a parallel kind's arm,
    # which is a post-only kind's exposure.  Any other kind's exposure
    # must change within some cluster, or the count is off by one
    spec, _ = case
    exposed = cell_table(spec).exposed
    constant = bool((exposed == exposed[:, :1]).all())
    assert constant is (designs.kind_traits(spec.kind).periods == "post")


_BASE_MEANS = {spec.kind: spec.cell_means for spec, _ in PRESETS.values()}


@st.composite
def size_list_specs(draw):
    """Clustered designs whose per-cluster sizes switch between two values."""
    kind = draw(st.sampled_from([kind for kind in DesignKind if kind not in RCT_KINDS]))
    count = st.integers(1, 4)
    if kind in SWD_KINDS:
        # two steps at least: one step is a degenerate layout
        steps = draw(st.integers(2, 3))
        shape = dict(
            steps_k=steps,
            baseline_b=1,
            per_step_t=draw(st.integers(1, 2)),
            clusters_per_step=tuple(draw(count) for _ in range(steps)),
        )
    else:
        shape = dict(clusters_per_arm=(draw(count), draw(count)))
    spec = DesignSpec(kind=kind, cell_means=_BASE_MEANS[kind], **shape)
    pair = st.sampled_from((draw(st.integers(1, 8)), draw(st.integers(1, 8))))
    n_clusters = sum(spec.clusters_per_arm or spec.clusters_per_step)
    sizes = tuple(draw(pair) for _ in range(n_clusters))
    cohort = dense_oracle.FAMILY[kind] is correlation.Family.COHORT
    params = CorrelationParams(
        sigma_y_sq=25.0,
        icc=draw(st.floats(0.0, 0.6)),
        cac=draw(st.floats(0.0, 1.0)),
        sac=draw(st.floats(0.0, 0.9)) if cohort else 0.0,
    )
    return dataclasses.replace(spec, cluster_size=sizes), params


_ALTERNATING = DesignSpec(
    kind=DesignKind.CRT_PREPOST_COHORT,
    clusters_per_arm=(4, 4),
    cluster_size=(7, 6, 7, 6, 6, 7, 6, 7),
    cell_means=_BASE_MEANS[DesignKind.CRT_PREPOST_COHORT],
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(size_list_specs())
@example((_ALTERNATING, CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=0.4, sac=0.6)))
def test_runs_match_regrouped_patterns(case):
    # runs of neighbouring clusters replace the regroup into distinct
    # patterns; alternating sizes give more runs than patterns
    spec, params = case
    cells = cell_table(spec)
    regrouped = dense_oracle.regrouped_cells(spec)
    assert cells.count.size >= regrouped.count.size
    np.testing.assert_array_equal(
        np.repeat(cells.m, cells.count), spec.cluster_subject_counts()
    )
    groups = [block.group for block in dense_oracle.cluster_structure(spec)]
    np.testing.assert_array_equal(np.repeat(cells.group, cells.count), groups)
    comps = _components(spec, params)
    runs = _outcome(lambda: engine.fit_cells(cells, comps))
    patterns = _outcome(lambda: engine.fit_cells(regrouped, comps))
    if isinstance(patterns, tuple):
        assert runs == patterns
        return
    assert runs.variance == pytest.approx(patterns.variance, rel=INFO_RTOL)
    scale = np.abs(cells.mean).max()
    np.testing.assert_allclose(runs.beta, patterns.beta, rtol=0.0, atol=INFO_RTOL * scale)


@settings(max_examples=150, deadline=None)
@given(size_list_specs())
@example((_ALTERNATING, None))
@example((dataclasses.replace(_ALTERNATING, cluster_size=(5,) * 8), None))
@example((dataclasses.replace(_ALTERNATING, cluster_size=(5, 5, 5, 6, 6, 5, 5, 5)), None))
def test_runs_are_maximal(case):
    # each run is a longest stretch of neighbouring clusters with one
    # group and one size: a run breaks at a group's end even when the
    # size goes on
    spec, _ = case
    cells = cell_table(spec)
    groups = [block.group for block in dense_oracle.cluster_structure(spec)]
    keys = zip(groups, spec.cluster_subject_counts())
    runs = [(g, m, len(list(run))) for (g, m), run in itertools.groupby(keys)]
    assert list(zip(cells.group.tolist(), cells.m.tolist(), cells.count.tolist())) == runs
    assert cells.count.dtype == cells.m.dtype == np.int64


def test_alternating_sizes_make_more_runs_than_patterns():
    cells = cell_table(_ALTERNATING)
    assert cells.count.tolist() == [1] * 8
    assert dense_oracle.regrouped_cells(_ALTERNATING).count.tolist() == [2, 2, 2, 2]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs_and_params())
def test_dataset_matches_reference_builder(case):
    # single-step wedges stay in: the dataset builds designs that
    # fit_cells refuses as degenerate
    spec, _ = case
    built = designs.exemplary_dataset(spec)
    reference = dense_oracle.reference_dataset(spec)
    dense_oracle.assert_same_dataset(built, reference)
    assert designs.dataset_to_csv(built) == designs.dataset_to_csv(reference)


def _document(spec, params):
    """The JSON scenario document that describes spec and params."""
    design = {"kind": spec.kind.value}
    for name in (
        "per_group_n",
        "steps_k",
        "baseline_b",
        "per_step_t",
        "clusters_per_arm",
        "clusters_per_step",
        "cluster_size",
    ):
        value = getattr(spec, name)
        if value is not None:
            design[name] = list(value) if isinstance(value, tuple) else value
    means = spec.cell_means
    if spec.kind in SWD_KINDS:
        design["means"] = [means[(0, 0)], means[(1, 0)]]
    else:
        times = sorted({t for _, t in means})
        design["means"] = [[means[(arm, t)] for t in times] for arm in (1, 2)]
    return {
        "design": design,
        "correlation": dataclasses.asdict(params),
        "analysis": {"alpha": spec.alpha},
    }


@settings(max_examples=200, deadline=None)
@given(specs_and_params())
def test_spec_document_round_trip(case):
    spec, params = case
    doc = json.loads(json.dumps(_document(spec, params)))
    assert designs.decode_spec_document(doc) == (spec, params, None)


@settings(max_examples=200, deadline=None)
@given(specs_and_params())
def test_counts_match_cells_and_reference_dataset(case):
    spec, _ = case
    cells = cell_table(spec)
    dataset = dense_oracle.reference_dataset(spec)
    rows = tuple(np.bincount(dataset.cluster_id)[1:].tolist())
    n_periods = cells.exposed.shape[1]
    sizes = tuple(cells.m[cells.cluster_pattern].tolist())
    assert tuple(n * n_periods for n in sizes) == rows
    # the counts need no means: the benchmark reads them on mean-less specs
    for design in (spec, dataclasses.replace(spec, cell_means={})):
        assert design.n_times == int(dense_oracle.cell_times(cells).max())
        assert design.n_times == int(dataset.time.max())
        assert cells.n_clusters == cells.cluster_pattern.size
        assert cells.n_clusters == len(rows)
        assert design.cluster_subject_counts() == sizes
        assert design.n_observations == cells.n_observations == dataset.n_rows
        assert cells.n_observations == sum(rows)
        assert design.family is cells.family


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_cluster_blocks_match_dense_oracle(name):
    spec, params = get_preset(name)
    cells = cell_table(spec)
    comps = _components(spec, params)
    for index in range(cells.cluster_pattern.size):
        block = correlation.build_cluster_v(cells, comps, index)
        dense = dense_oracle.cluster_v(spec, comps, index)
        np.testing.assert_array_equal(block.view(np.uint64), dense.view(np.uint64))


# zeros of either sign, as a signed zero must survive into the matrix
_SHARE = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 0.99)


@st.composite
def covariance_cases(draw):
    """Clustered designs of sizes 1-8, common or listed, with any shares."""
    kind = draw(st.sampled_from([kind for kind in DesignKind if kind not in RCT_KINDS]))
    count = st.integers(1, 3)
    if kind in SWD_KINDS:
        steps = draw(st.integers(2, 3))
        shape = dict(
            steps_k=steps,
            baseline_b=draw(st.integers(1, 2)),
            per_step_t=draw(st.integers(1, 2)),
            clusters_per_step=tuple(draw(count) for _ in range(steps)),
        )
    else:
        shape = dict(clusters_per_arm=(draw(count), draw(count)))
    size = st.integers(1, 8)
    if draw(st.booleans()):
        n_clusters = sum(shape.get("clusters_per_arm") or shape["clusters_per_step"])
        shape["cluster_size"] = tuple(draw(size) for _ in range(n_clusters))
    else:
        shape["cluster_size"] = draw(size)
    cohort = dense_oracle.FAMILY[kind] is correlation.Family.COHORT
    params = CorrelationParams(
        sigma_y_sq=draw(st.sampled_from([5e-324, 1e300]) | st.floats(1e-3, 1e3)),
        icc=draw(_SHARE),
        cac=draw(_SHARE),
        sac=draw(_SHARE) if cohort else draw(st.sampled_from([0.0, -0.0])),
    )
    return DesignSpec(kind=kind, cell_means=_BASE_MEANS[kind], **shape), params


@settings(max_examples=100, deadline=None)
@given(covariance_cases())
def test_cluster_blocks_match_dense_oracle_bit_for_bit(case):
    # as uint64, as assert_array_equal takes -0.0 for 0.0
    spec, params = case
    cells = cell_table(spec)
    comps = _components(spec, params)
    dataset = dense_oracle.reference_dataset(spec)
    for index in range(cells.n_clusters):
        block = correlation.build_cluster_v(cells, comps, index)
        dense = dense_oracle.cluster_v(spec, comps, index, dataset)
        np.testing.assert_array_equal(block.view(np.uint64), dense.view(np.uint64))


def test_cluster_block_is_its_one_allocation():
    # a cohort cluster of 1,200 rows: the matrix is built in place, with
    # no masks or label arrays beside it
    spec = DesignSpec(
        kind=DesignKind.SWD_COHORT,
        steps_k=2,
        baseline_b=1,
        per_step_t=1,
        clusters_per_step=(1, 1),
        cluster_size=400,
        cell_means=_BASE_MEANS[DesignKind.SWD_COHORT],
    )
    params = CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=0.4, sac=0.6)
    cells = cell_table(spec)
    comps = _components(spec, params)
    tracemalloc.start()
    try:
        block = correlation.build_cluster_v(cells, comps, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (1200, 1200)
    assert peak <= 1.1 * block.nbytes


def cell_covariance(run):
    """(K, T, T) covariance S_k = a_k J + b_k I of the cell means of a
    cluster of pattern k, from the variance components' a and b."""
    a, b = run.components.cell_variances(run.cells.m)
    n_periods = run.cells.exposed.shape[1]
    return a[:, None, None] + b[:, None, None] * np.eye(n_periods)


def _assert_cell_covariance_matches_dense(spec, run):
    dense = dense_oracle.cell_covariances(spec, run.components, run.cells)
    np.testing.assert_allclose(
        cell_covariance(run), dense, rtol=0.0, atol=1e-12 * np.abs(dense).max()
    )


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
    # the schedule itself is fine: the dataset builds
    assert designs.exemplary_dataset(spec).n_rows == spec.n_observations
    cell = _outcome(lambda: engine.analytic_power(spec, params))
    assert cell == _outcome(lambda: dense_oracle.fit_design(spec, params))
    assert "degenerate step layout" in cell[1]
    for policy in engine.DDF_POLICIES:
        assert _outcome(lambda: _ddf(spec, policy)) == cell


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
        n_patterns, n_periods = cells.exposed.shape
        names, _ = dense_oracle.cell_design(cells)
        assert len(names) == len(dense_oracle.columns(spec))
        assert cells.mean.shape == (n_patterns, n_periods)
        assert cells.first.shape == (n_patterns,)
        assert int(cells.count.sum()) == len(dense_oracle.cluster_structure(spec))
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
        x = dense_oracle.design_matrix(spec)
        _, cell_x = dense_oracle.cell_design(cells)
        np.testing.assert_array_equal(
            np.unique(x, axis=0), np.unique(cell_x.reshape(-1, x.shape[1]), axis=0)
        )

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_family_matches_oracle_table(self, kind):
        spec = next(spec for spec, _ in PRESETS.values() if spec.kind == kind)
        assert cell_table(spec).family is spec.family is dense_oracle.FAMILY[kind]

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_kind_traits_match_oracle_tables(self, kind):
        # every preset has a common cluster size and a three-time wedge
        spec, params = next(pair for pair in PRESETS.values() if pair[0].kind == kind)
        for name in (kind, kind.value):
            assert engine.default_ddf_policy(name) == dense_oracle.DEFAULT_DDF_POLICY[kind]
        formula = design_effects.design_effect_for(spec, params).formula
        assert formula == dense_oracle.DESIGN_EFFECT_FORMULA[kind]
        assert spec.n_times == dense_oracle.period_count(spec)
        keys = dense_oracle.MEAN_KEYS[kind]
        unkeyed = dataclasses.replace(spec, cell_means={})
        assert designs.validate_spec(unkeyed) == [f"design.means: missing cells {keys}"]

    def test_individual_randomization_uses_one_pattern_per_cell(self):
        spec, _ = get_preset("example3")
        cells = cell_table(spec)
        assert cells.exposed.shape == (4, 1)
        assert dense_oracle.cell_design(cells)[1].shape == (4, 1, 4)
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
    thresholds = [
        dense_oracle.switch_threshold(spec, step)
        for step, n in enumerate(spec.clusters_per_step, start=1)
        for _ in range(n)
    ]
    times = dense_oracle.times(spec)
    exposure = np.array([[float(t > b) for t in times] for b in thresholds])
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
        assert spec.cluster_subject_counts()[0] * spec.n_times > MAX_MATRIX_ROWS
    fit = engine.evaluate(spec, params).fit
    assert fit.variance == pytest.approx(
        _hussey_hughes_variance(spec, params), rel=1e-12
    )


def test_simulation_of_over_cap_design_runs():
    # each cluster's dense covariance would be over the row cap
    spec = DesignSpec(
        kind=DesignKind.SWD_COHORT,
        steps_k=2,
        baseline_b=1,
        per_step_t=1,
        clusters_per_step=(1, 1),
        cluster_size=MAX_MATRIX_ROWS // 3 + 1,
        cell_means={(0, 0): 54.0, (1, 0): 55.0},
    )
    assert spec.cluster_subject_counts()[0] * spec.n_times > MAX_MATRIX_ROWS
    params = CorrelationParams(sigma_y_sq=25.0, icc=0.05, cac=0.6, sac=0.5)
    target = engine.analytic_power(spec, params).power
    assert target > 0.05
    plan = mc.SimulationPlan(spec=spec, params=params, replicates=4000, seed=1)
    result = mc.empirical_power(plan)
    assert abs(result.estimate - target) <= 4.0 * np.sqrt(target * (1 - target) / 4000)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_simulation_weights_match_dense_weights(name):
    spec, params = get_preset(name)
    sampler = dense_oracle.StudySampler(spec, _components(spec, params))
    run = engine.evaluate(spec, params)
    weights = sampler.row_weights(run.cells, run.fit.weights)
    np.testing.assert_allclose(
        weights, dense_oracle.contrast_weights(spec, params), rtol=1e-10, atol=1e-13
    )


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_cell_covariance_is_cell_average_of_dense_block(name):
    spec, params = get_preset(name)
    _assert_cell_covariance_matches_dense(spec, engine.evaluate(spec, params))


def test_cluster_structure_layout():
    spec, _ = get_preset("example7")
    blocks = dense_oracle.cluster_structure(spec)
    assert [b.n_rows for b in blocks] == [15] * 6
    assert [b.row_start for b in blocks] == [0, 15, 30, 45, 60, 75]
    assert [b.group for b in blocks] == [1, 1, 1, 2, 2, 2]


_LARGE = {
    # two million subjects, each a cluster of one
    "rct_post_1e6": (
        DesignSpec(
            kind=DesignKind.RCT_POST,
            per_group_n=10**6,
            cell_means={(1, 1): 59.0, (2, 1): 58.99},
        ),
        CorrelationParams(sigma_y_sq=25.0, icc=0.0),
    ),
    "crt_post_5e5x10": (
        DesignSpec(
            kind=DesignKind.CRT_POST,
            clusters_per_arm=(5 * 10**5, 5 * 10**5),
            cluster_size=10,
            cell_means={(1, 1): 59.0, (2, 1): 58.95},
        ),
        CorrelationParams(sigma_y_sq=25.0, icc=0.05),
    ),
}


def _last_cluster_v(spec, params):
    cells = cell_table(spec)
    comps = _components(spec, params)
    return correlation.build_cluster_v(cells, comps, cells.n_clusters - 1)


@pytest.mark.parametrize("name", sorted(_LARGE))
@pytest.mark.parametrize(
    "call",
    [
        engine.analytic_power,
        lambda spec, params: mc.empirical_power(
            mc.SimulationPlan(spec=spec, params=params, replicates=1024, seed=1)
        ),
        design_effects.design_effect_for,
        _last_cluster_v,
    ],
    ids=["analytic_power", "empirical_power", "design_effect_for", "build_cluster_v"],
)
def test_evaluation_allocates_nothing_per_cluster(name, call):
    # a million clusters: one int64 per cluster alone would take 8 MB
    spec, params = _LARGE[name]
    assert cell_table(spec).n_clusters >= 10**6
    tracemalloc.start()
    try:
        call(spec, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# 20 steps of 50 periods after one baseline period: T = 1001
_LONG_WEDGE = DesignSpec(
    kind=DesignKind.SWD_XSEC,
    steps_k=20,
    baseline_b=1,
    per_step_t=50,
    clusters_per_step=(1,) * 20,
    cluster_size=5,
    cell_means={(0, 0): 54.0, (1, 0): 59.0},
)


@pytest.mark.parametrize(
    "call",
    [
        engine.evaluate,
        lambda spec, params: mc.empirical_power(
            mc.SimulationPlan(spec=spec, params=params, replicates=2000, seed=1)
        ),
    ],
    ids=["evaluate", "empirical_power"],
)
def test_long_wedge_allocates_no_period_squared_array(call):
    # a (K, T, T + 1) design array of this wedge alone takes 160 MB; the
    # absorbed fit holds a few (K, T) arrays of 160 kB
    params = get_preset("example6")[1]
    assert _LONG_WEDGE.n_times == 1001
    tracemalloc.start()
    try:
        call(_LONG_WEDGE, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
