"""The cell-mean GLS kernel against the einsum and solve path it replaced.

engine.fit_cells absorbs every kind's period means in closed form and
inverts the information of the q <= 3 columns they do not span, once;
it reads the design from the cells' exposure, and
dense_oracle.cell_design builds the (K, T, p) design array the cell
table used to hold, one broadcast per column group; mc sums
a_k (1'w_k)^2 + b_k |w_k|^2 over the patterns instead of projecting
the cell weights on Cholesky factors; the full-rank check reads the
exposure instead of running an SVD.  The slower path each replaced is
kept here as its oracle, run on that design array: the sums run in
another order, so the tested variance and the cell weights must agree
to 1e-12 relative, and every coefficient to 1e-12 relative to the
largest cell mean; the design columns, exact 0/1 values, must be
equal, and the refusal must match the SVD's rank exactly.  A post-only
fit is held to the exact rational variance instead, at cluster sizes
where the einsum oracle's own 1 - gamma cancels.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wedgepower import engine, mc
from wedgepower.correlation import CorrelationParams, Family
from wedgepower.designs import PRESETS, DesignKind, DesignSpec, cell_table, get_preset

from dense_oracle import FAMILY, RCT_KINDS, SWD_KINDS, cell_design
from test_cells import cell_covariance

RTOL = 1e-12
# x86's 80-bit extended precision, 2**11 times finer than a double; a
# plain double on some platforms
EXTENDED = np.longdouble


def refined_solve(matrix, rhs):
    """matrix^-1 rhs, a double solve refined twice against the extended matrix."""
    rounded = matrix.astype(float)
    solution = np.linalg.solve(rounded, rhs.astype(float)).astype(EXTENDED)
    for _ in range(2):
        residual = rhs - matrix @ solution
        solution += np.linalg.solve(rounded, residual.astype(float))
    return solution


def einsum_fit(cells, comps):
    """(beta, variance, weights) of the dense fit on the design array.

    Pattern k adds count_k X_k' S_k^-1 [X_k, ybar_k] to the information
    and the score, with S_k^-1 = (I - gamma_k J) / b_k.  The 0/1 design
    array's Gram matrices X_k'X_k and column sums are exact integers,
    and the weighted sums over the patterns run in extended precision:
    with an intercept and a column per period the information's
    condition grows with T, and rounding its entries to doubles alone
    moves the weights by about 1e-12 at T = 200.  The variance and the
    weights come from the last row of the inverse information, c, as
    variance c_p and weights S_k^-1 X_k c.
    """
    _, x = cell_design(cells)
    a, b = (v.astype(EXTENDED) for v in comps.cell_variances(cells.m))
    gamma = a / (b + x.shape[1] * a)
    scale = cells.count.astype(EXTENDED) / b
    columns = x.sum(axis=1)
    gram = np.einsum("ktp,ktq->kpq", x, x, optimize=True)
    information = np.einsum("k,kpq->pq", scale, gram) - np.einsum(
        "k,kp,kq->pq", scale * gamma, columns, columns
    )
    means = cells.mean.astype(EXTENDED)
    score = np.einsum("k,ktp,kt->p", scale, x, means) - np.einsum(
        "k,k,kp->p", scale * gamma, means.sum(axis=1), columns
    )
    p = information.shape[0]
    beta = refined_solve(information, score)
    last = refined_solve(information, np.eye(p, dtype=EXTENDED)[-1])
    combined = x @ last
    weights = (combined - gamma[:, None] * combined.sum(axis=1)[:, None]) / b[:, None]
    return beta.astype(float), float(last[-1]), weights.astype(float)


def column_loop_x(spec, cells):
    """(names, x) of a wedge's design columns, filled one column at a time."""
    time = cells.time
    exposed = time > spec.baseline_b + (cells.group[:, None] - 1) * spec.per_step_t
    columns = [("intercept", 1)]
    for t in time[0, 1:]:
        columns.append((f"time_{t}", time == t))
    columns.append(("intervene", exposed))
    names, values = zip(*columns)
    x = np.empty((*time.shape, len(names)))
    for j, column in enumerate(values):
        x[..., j] = column
    return names, x


def einsum_spread(run):
    """sqrt(u . u), u the Cholesky factors L_k of the cell covariances
    applied to the weights, per pattern by einsum: the closed form's oracle."""
    factors = np.linalg.cholesky(cell_covariance(run))
    per_pattern = np.einsum("kts,kt->ks", factors, run.fit.weights)
    return math.sqrt(run.cells.count @ np.sum(per_pattern * per_pattern, axis=1))


def assert_close(got, want):
    scale = np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale)


def assert_kernel_matches_oracle(spec, params):
    cells = cell_table(spec)
    comps = engine.variance_components(spec, params)
    try:
        fit = engine.fit_cells(cells, comps)
    except ValueError as exc:
        # only degenerate layouts are refused here
        assert "rank deficient" in str(exc)
        return
    beta, variance, weights = einsum_fit(cells, comps)
    # theta and the period means, to the largest cell mean
    scale = np.abs(cells.mean).max()
    np.testing.assert_allclose(fit.beta, beta, rtol=0.0, atol=RTOL * scale)
    assert fit.variance == pytest.approx(variance, rel=RTOL)
    assert_close(fit.weights, weights)


RANK_MESSAGE = (
    "design matrix is rank deficient; the schedule does not separate "
    "the modeled effects (degenerate step layout)"
)


def assert_rank_rule_matches_svd(spec, params):
    """fit_cells refuses exactly the cells whose rows matrix_rank finds deficient."""
    cells = cell_table(spec)
    _, x = cell_design(cells)
    rows = x.reshape(-1, x.shape[2])
    deficient = np.linalg.matrix_rank(rows) < rows.shape[1]
    try:
        engine.fit_cells(cells, engine.variance_components(spec, params))
    except ValueError as exc:
        assert deficient and str(exc) == RANK_MESSAGE, str(exc)
    else:
        assert not deficient
    return deficient


@st.composite
def designs_and_params(draw):
    """Designs of all 7 kinds, a third with size lists, wedges up to T = 25."""
    kind = draw(st.sampled_from(list(DesignKind)))
    count = st.integers(1, 4)
    # a subnormal mean has too few significant bits for a relative bound
    mean = st.floats(-100.0, 100.0, allow_nan=False, allow_subnormal=False)
    if kind in SWD_KINDS:
        steps = draw(st.integers(1, 12))
        per_step = draw(st.integers(1, 24 // steps))
        shape = dict(
            steps_k=steps,
            baseline_b=draw(st.integers(1, 25 - steps * per_step)),
            per_step_t=per_step,
            clusters_per_step=tuple(draw(count) for _ in range(steps)),
        )
        means = {(0, 0): draw(mean), (1, 0): draw(mean)}
    else:
        times = (1,) if kind in (DesignKind.RCT_POST, DesignKind.CRT_POST) else (1, 2)
        means = {(arm, t): draw(mean) for arm in (1, 2) for t in times}
        if kind in RCT_KINDS:
            shape = dict(per_group_n=draw(st.integers(1, 50)))
        else:
            shape = dict(clusters_per_arm=(draw(count), draw(count)))
    spec = DesignSpec(kind=kind, cell_means=means, **shape)
    if kind not in RCT_KINDS:
        size = st.integers(1, 30)
        if draw(st.integers(0, 2)) == 0:
            sizes = tuple(draw(size) for _ in range(spec.n_clusters))
        else:
            sizes = draw(size)
        spec = dataclasses.replace(spec, cluster_size=sizes)

    sigma = draw(st.floats(1.0, 50.0))
    if kind in RCT_KINDS:
        return spec, CorrelationParams(sigma_y_sq=sigma, icc=0.0)
    return spec, CorrelationParams(
        sigma_y_sq=sigma,
        icc=draw(st.floats(0.0, 0.6)),
        cac=draw(st.floats(0.0, 1.0)),
        sac=draw(st.floats(0.0, 0.9)) if FAMILY[kind] is Family.COHORT else 0.0,
    )


# the bench's widest wedge: 12 steps of 2 periods after 1 baseline period
WIDE_WEDGE = DesignSpec(
    kind=DesignKind.SWD_XSEC,
    steps_k=12,
    baseline_b=1,
    per_step_t=2,
    clusters_per_step=(2,) * 12,
    cluster_size=20,
    cell_means={(0, 0): 54.0, (1, 0): 55.0},
)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_fit_matches_einsum_oracle_on_presets(name):
    assert_kernel_matches_oracle(*get_preset(name))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(designs_and_params())
@example((WIDE_WEDGE, CorrelationParams(sigma_y_sq=25.0, icc=0.05, cac=0.8)))
def test_fit_matches_einsum_oracle(case):
    assert_kernel_matches_oracle(*case)


@st.composite
def long_wedges(draw):
    """Wedges of both families up to T = 200, half with two cluster sizes."""
    kind = draw(st.sampled_from(sorted(SWD_KINDS)))
    mean = st.floats(-100.0, 100.0, allow_nan=False, allow_subnormal=False)
    steps = draw(st.integers(2, 8))
    per_step = draw(st.integers(1, 199 // steps))
    spec = DesignSpec(
        kind=kind,
        steps_k=steps,
        baseline_b=draw(st.integers(1, 200 - steps * per_step)),
        per_step_t=per_step,
        clusters_per_step=tuple(draw(st.integers(1, 3)) for _ in range(steps)),
        cell_means={(0, 0): draw(mean), (1, 0): draw(mean)},
    )
    pair = st.sampled_from((draw(st.integers(1, 50)), draw(st.integers(1, 50))))
    if draw(st.booleans()):
        sizes = tuple(draw(pair) for _ in range(spec.n_clusters))
    else:
        sizes = draw(pair)
    params = CorrelationParams(
        sigma_y_sq=draw(st.floats(1.0, 50.0)),
        icc=draw(st.floats(0.0, 0.6)),
        cac=draw(st.floats(0.0, 1.0)),
        sac=draw(st.floats(0.0, 0.9)) if FAMILY[kind] is Family.COHORT else 0.0,
    )
    return dataclasses.replace(spec, cluster_size=sizes), params


@pytest.mark.skipif(
    np.finfo(EXTENDED).eps > 2.0**-60,
    reason="the oracle needs extended precision to hold 1e-12 at T = 200",
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(long_wedges())
@example(
    (
        dataclasses.replace(WIDE_WEDGE, baseline_b=176),
        CorrelationParams(sigma_y_sq=25.0, icc=0.05, cac=0.8),
    )
)
def test_long_wedge_fit_matches_einsum_oracle(case):
    spec, _ = case
    assert spec.n_times <= 200
    assert_kernel_matches_oracle(*case)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_rank_rule_matches_svd_on_presets(name):
    assert_rank_rule_matches_svd(*get_preset(name))


# a single-step wedge, whose exposure duplicates the time indicators
ONE_STEP_WEDGE = dataclasses.replace(
    WIDE_WEDGE, steps_k=1, per_step_t=3, clusters_per_step=(2,), cluster_size=(4, 7)
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(designs_and_params())
@example((WIDE_WEDGE, CorrelationParams(sigma_y_sq=25.0, icc=0.05, cac=0.8)))
@example((ONE_STEP_WEDGE, CorrelationParams(sigma_y_sq=25.0, icc=0.05, cac=0.8)))
def test_rank_rule_matches_svd(case):
    assert_rank_rule_matches_svd(*case)


@pytest.mark.parametrize("kind", sorted(SWD_KINDS))
def test_rank_rule_matches_svd_on_small_wedge_grid(kind):
    # every layout with k 1-6, b 1-3 and t 1-3, each with equal, growing
    # and per-cluster-size splits; only the single-step ones are refused
    params = CorrelationParams(sigma_y_sq=1.0, icc=0.1, cac=0.5)
    refused = []
    for k in range(1, 7):
        for b in range(1, 4):
            for t in range(1, 4):
                splits = ((1,) * k, tuple(range(1, k + 1)), (2,) * k)
                for split, size in zip(splits, (3, 3, tuple(range(1, 2 * k + 1)))):
                    spec = dataclasses.replace(
                        WIDE_WEDGE,
                        kind=kind,
                        steps_k=k,
                        baseline_b=b,
                        per_step_t=t,
                        clusters_per_step=split,
                        cluster_size=size,
                    )
                    if assert_rank_rule_matches_svd(spec, params):
                        refused.append(k)
    assert refused == [1] * (3 * 3 * 3)


@settings(max_examples=200, deadline=None)
@given(designs_and_params().filter(lambda case: case[0].kind in SWD_KINDS))
@example((WIDE_WEDGE, CorrelationParams(sigma_y_sq=25.0, icc=0.05, cac=0.8)))
def test_wedge_columns_match_column_loop(case):
    spec, _ = case
    cells = cell_table(spec)
    names, x = column_loop_x(spec, cells)
    built_names, built = cell_design(cells)
    assert built_names == names
    np.testing.assert_array_equal(built, x)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_projection_matches_einsum_oracle(name):
    run = engine.evaluate(*get_preset(name))
    _, spread, _ = mc._contrast_projection(run)
    assert spread == pytest.approx(einsum_spread(run), rel=RTOL)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_one_inverse_and_no_solve_per_evaluation(monkeypatch, name):
    # every kind absorbs its period means and inverts the information of
    # its q <= 3 other columns once; no column per period comes back.
    # The Monte Carlo check reads its cell weights off that one fit.
    calls = {"inv": [], "solve": []}

    def counted(fn_name):
        original = getattr(np.linalg, fn_name)

        def wrapper(matrix, *args, **kwargs):
            calls[fn_name].append(np.shape(matrix))
            return original(matrix, *args, **kwargs)

        return wrapper

    for fn_name in calls:
        monkeypatch.setattr(np.linalg, fn_name, counted(fn_name))
    spec, params = get_preset(name)
    for run in (
        lambda: engine.evaluate(spec, params),
        lambda: mc.empirical_power(mc.SimulationPlan(spec, params, replicates=1000, seed=1)),
    ):
        calls.update(inv=[], solve=[])
        run()
        assert len(calls["inv"]) == 1 and calls["solve"] == []
        (shape,) = calls["inv"]
        assert shape[0] == shape[1] <= 3


def test_post_only_fit_is_exact_at_large_cluster_sizes():
    # a cluster's one cell mean has variance a + b, and the difference of
    # the arms' means of 5 and 4 clusters is the tested effect; a
    # precision taken as (1 - gamma) / b cancels as a / b grows with the
    # cluster size, 1 / (a + b) does not
    spec, params = get_preset("example2")
    assert spec.clusters_per_arm == (5, 4)
    for exponent in range(10, 49):
        sized = dataclasses.replace(spec, cluster_size=2**exponent)
        cells = cell_table(sized)
        comps = engine.variance_components(sized, params)
        a, b = (float(v[0]) for v in comps.cell_variances(cells.m))
        exact = (Fraction(a) + Fraction(b)) * (Fraction(1, 5) + Fraction(1, 4))
        variance = engine.fit_cells(cells, comps).variance
        assert abs(Fraction(variance) / exact - 1) <= 1e-15, exponent
