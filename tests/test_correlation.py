"""Tests for variance components and cluster covariance construction.

Expected matrices are built in closed form from the component
definitions (Kronecker assembly of compound-symmetric blocks), so every
frozen entry here is re-derivable by hand.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wedgepower.correlation import (
    MAX_MATRIX_ROWS,
    CorrelationParams,
    Family,
    build_cluster_v,
    derive_components,
    vcorr,
)
from wedgepower.designs import DesignKind, DesignSpec, cell_table, get_preset

COMPONENT_TOL = 1e-12


def assert_weight_recovered(component: float, share: float, weight: float) -> None:
    """component is weight * share: its ratio to share is weight to COMPONENT_TOL.

    That holds while the component is a normal float.  Below the normal
    range the product underflows and keeps fewer significant bits, so
    there a subnormal (or zero) component must lie within one subnormal
    ulp of weight * share.
    """
    if component >= sys.float_info.min:
        assert component / share == pytest.approx(weight, rel=COMPONENT_TOL, abs=0.0)
    else:
        assert abs(component - weight * share) <= math.ulp(0.0)


def cs_matrix(size: int, diag: float, off: float) -> np.ndarray:
    return np.full((size, size), off) + np.eye(size) * (diag - off)


def preset_block(name: str, cluster_index: int = 0) -> np.ndarray:
    spec, params = get_preset(name)
    cells = cell_table(spec)
    comps = derive_components(params, cells.family)
    return build_cluster_v(cells, comps, cluster_index)


class TestCorrelationParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelationParams(sigma_y_sq=0.0, icc=0.1)
        with pytest.raises(ValueError):
            CorrelationParams(sigma_y_sq=25.0, icc=1.0)
        with pytest.raises(ValueError):
            CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=1.2)
        with pytest.raises(ValueError):
            CorrelationParams(sigma_y_sq=25.0, icc=0.1, sac=-0.1)

    def test_sigma_message_names_finiteness(self):
        # a spec document may carry Infinity, which json accepts
        message = "sigma_y_sq must be a finite positive number, got inf"
        with pytest.raises(ValueError, match=message):
            CorrelationParams(sigma_y_sq=float("inf"), icc=0.1)


class TestDeriveComponents:
    def test_single_family(self):
        comps = derive_components(
            CorrelationParams(sigma_y_sq=25.0, icc=0.1), Family.SINGLE
        )
        assert comps.cluster == pytest.approx(2.5)
        assert comps.cluster_by_time == 0.0
        assert comps.subject == 0.0
        assert comps.subject_by_time == 0.0
        assert comps.residual == pytest.approx(22.5)

    def test_cross_sectional_family(self):
        comps = derive_components(
            CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=0.4),
            Family.CROSS_SECTIONAL,
        )
        assert comps.cluster == pytest.approx(1.0)
        assert comps.cluster_by_time == pytest.approx(1.5)
        assert comps.residual == pytest.approx(22.5)

    def test_cohort_family(self):
        comps = derive_components(
            CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=0.4, sac=0.6),
            Family.COHORT,
        )
        assert comps.cluster == pytest.approx(1.0)
        assert comps.cluster_by_time == pytest.approx(1.5)
        assert comps.subject == pytest.approx(13.5)
        assert comps.subject_by_time == pytest.approx(9.0)
        assert comps.residual == 0.0

    def test_sac_rejected_without_repeat_measurements(self):
        params = CorrelationParams(sigma_y_sq=25.0, icc=0.1, sac=0.6)
        with pytest.raises(ValueError):
            derive_components(params, Family.SINGLE)
        with pytest.raises(ValueError):
            derive_components(params, Family.CROSS_SECTIONAL)

    def test_zero_icc(self):
        comps = derive_components(
            CorrelationParams(sigma_y_sq=25.0, icc=0.0), Family.SINGLE
        )
        assert comps.cluster == 0.0
        assert comps.residual == pytest.approx(25.0)

    @given(
        sigma=st.floats(0.1, 1000.0),
        icc=st.floats(0.0, 0.99),
        cac=st.floats(0.0, 1.0),
        sac=st.floats(0.0, 1.0),
    )
    def test_components_sum_to_total_variance(self, sigma, icc, cac, sac):
        params = CorrelationParams(sigma_y_sq=sigma, icc=icc, cac=cac, sac=sac)
        comps = derive_components(params, Family.COHORT)
        assert comps.total == pytest.approx(sigma, rel=COMPONENT_TOL)

    @given(
        sigma=st.floats(0.1, 1000.0),
        icc=st.floats(1e-6, 0.99),
        cac=st.floats(0.0, 1.0),
        sac=st.floats(0.0, 1.0),
    )
    def test_ratio_recovery(self, sigma, icc, cac, sac):
        params = CorrelationParams(sigma_y_sq=sigma, icc=icc, cac=cac, sac=sac)
        comps = derive_components(params, Family.COHORT)
        cluster_share = comps.cluster + comps.cluster_by_time
        subject_share = comps.subject + comps.subject_by_time
        assert cluster_share / comps.total == pytest.approx(
            icc, rel=COMPONENT_TOL, abs=0.0
        )
        assert_weight_recovered(comps.cluster, cluster_share, cac)
        if subject_share > 0:
            assert_weight_recovered(comps.subject, subject_share, sac)


class TestBuildClusterV:
    def test_single_occasion_cluster(self):
        block = preset_block("example2")
        assert block.shape == (6, 6)
        np.testing.assert_array_equal(block, cs_matrix(6, 25.0, 2.5))

    def test_individually_randomized_blocks_are_one_by_one(self):
        for name in ("example1", "example3"):
            block = preset_block(name)
            np.testing.assert_array_equal(block, [[25.0]])

    def test_cross_sectional_prepost_blocks(self):
        block = preset_block("example4")
        assert block.shape == (20, 20)
        within_time = cs_matrix(10, 25.0, 2.5)
        across_time = np.full((10, 10), 1.0)
        np.testing.assert_array_equal(block[:10, :10], within_time)
        np.testing.assert_array_equal(block[10:, 10:], within_time)
        np.testing.assert_array_equal(block[:10, 10:], across_time)
        np.testing.assert_array_equal(block[10:, :10], across_time)

    def test_cohort_prepost_blocks(self):
        block = preset_block("example5")
        assert block.shape == (20, 20)
        same_subject = np.array([[25.0, 14.5], [14.5, 25.0]])
        cross_subject = np.array([[2.5, 1.0], [1.0, 2.5]])
        expected = np.kron(np.eye(10), same_subject) + np.kron(
            np.ones((10, 10)) - np.eye(10), cross_subject
        )
        np.testing.assert_array_equal(block, expected)
        # spot checks against the four distinct entry classes
        assert block[0, 0] == 25.0
        assert block[0, 1] == 14.5
        assert block[0, 2] == 2.5
        assert block[0, 3] == 1.0

    def test_stepped_wedge_cross_sectional_block(self):
        block = preset_block("example6")
        assert block.shape == (15, 15)
        # full cluster-level persistence: every off-diagonal entry is the
        # cluster variance
        np.testing.assert_array_equal(block, cs_matrix(15, 25.0, 2.5))

    def test_stepped_wedge_cohort_block(self):
        block = preset_block("example7")
        assert block.shape == (15, 15)
        same_subject = cs_matrix(3, 25.0, 14.5)
        cross_subject = cs_matrix(3, 2.5, 1.0)
        expected = np.kron(np.eye(5), same_subject) + np.kron(
            np.ones((5, 5)) - np.eye(5), cross_subject
        )
        np.testing.assert_array_equal(block, expected)

    def test_unequal_cluster_sizes_by_index(self):
        sizes = [
            preset_block("example2_51", i).shape[0] for i in range(8)
        ]
        assert sizes == [7, 7, 6, 6, 7, 6, 6, 6]

    def test_bad_cluster_index(self):
        with pytest.raises(ValueError):
            preset_block("example2", 9)

    def test_dimension_guard(self):
        spec = DesignSpec(
            kind=DesignKind.CRT_POST,
            clusters_per_arm=(1, 1),
            cluster_size=MAX_MATRIX_ROWS + 1,
            cell_means={(1, 1): 0.0, (2, 1): 1.0},
        )
        comps = derive_components(
            CorrelationParams(sigma_y_sq=25.0, icc=0.1), Family.SINGLE
        )
        with pytest.raises(ValueError, match="limit"):
            build_cluster_v(cell_table(spec), comps)

    def test_positive_semidefinite_for_presets(self):
        for name in ("example2", "example4", "example5", "example6", "example7"):
            block = preset_block(name)
            eigenvalues = np.linalg.eigvalsh(block)
            assert eigenvalues.min() >= -1e-10

    @given(
        icc=st.floats(0.0, 0.95),
        cac=st.floats(0.0, 1.0),
        sac=st.floats(0.0, 1.0),
        n_subjects=st.integers(1, 6),
        n_times=st.integers(2, 4),
    )
    def test_positive_semidefinite_property(self, icc, cac, sac, n_subjects, n_times):
        # a cohort wedge of one cluster per step, measured n_times times
        spec = DesignSpec(
            kind=DesignKind.SWD_COHORT,
            steps_k=n_times - 1,
            baseline_b=1,
            per_step_t=1,
            clusters_per_step=(1,) * (n_times - 1),
            cluster_size=n_subjects,
            cell_means={(0, 0): 54.0, (1, 0): 59.0},
        )
        comps = derive_components(
            CorrelationParams(sigma_y_sq=25.0, icc=icc, cac=cac, sac=sac),
            Family.COHORT,
        )
        matrix = build_cluster_v(cell_table(spec), comps)
        assert matrix.shape == (n_subjects * n_times,) * 2
        assert np.linalg.eigvalsh(matrix).min() >= -1e-9 * 25.0


class TestLayoutEquivalence:
    def test_cohort_without_subject_persistence_matches_cross_sectional(self):
        # a followed cohort whose subject-level variance has no carryover
        # is indistinguishable from fresh subjects at each time, up to the
        # row ordering convention
        for cac in (1.0, 0.4):
            cohort_spec = DesignSpec(
                kind=DesignKind.SWD_COHORT,
                steps_k=2,
                baseline_b=1,
                per_step_t=1,
                clusters_per_step=(4, 4),
                cluster_size=5,
                cell_means={(0, 0): 54.0, (1, 0): 59.0},
            )
            xsec_spec = DesignSpec(
                kind=DesignKind.SWD_XSEC,
                steps_k=2,
                baseline_b=1,
                per_step_t=1,
                clusters_per_step=(4, 4),
                cluster_size=5,
                cell_means={(0, 0): 54.0, (1, 0): 59.0},
            )
            cohort_comps = derive_components(
                CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=cac, sac=0.0),
                Family.COHORT,
            )
            xsec_comps = derive_components(
                CorrelationParams(sigma_y_sq=25.0, icc=0.1, cac=cac),
                Family.CROSS_SECTIONAL,
            )
            v_cohort = build_cluster_v(cell_table(cohort_spec), cohort_comps)
            v_xsec = build_cluster_v(cell_table(xsec_spec), xsec_comps)

            n, t = 5, 3
            # map time-major position (time, subject) to subject-major
            perm = np.array(
                [s * t + tt for tt in range(t) for s in range(n)], dtype=int
            )
            np.testing.assert_allclose(
                v_cohort[np.ix_(perm, perm)], v_xsec, rtol=0, atol=1e-12
            )


class TestVcorr:
    def test_single_occasion_correlation(self):
        corr = vcorr(preset_block("example2"))
        np.testing.assert_allclose(corr, cs_matrix(6, 1.0, 0.1), atol=1e-15)

    def test_cohort_correlations(self):
        corr = vcorr(preset_block("example5"))
        assert corr[0, 1] == pytest.approx(0.58)   # same subject across times
        assert corr[0, 2] == pytest.approx(0.1)    # same time across subjects
        assert corr[0, 3] == pytest.approx(0.04)   # different subject and time
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-15)

    def test_accepts_plain_arrays(self):
        corr = vcorr(np.array([[4.0, 1.0], [1.0, 9.0]]))
        assert corr[0, 1] == pytest.approx(1.0 / 6.0)

    def test_scales_rows_then_columns_leaving_its_input(self):
        v = preset_block("example5")
        before = v.copy()
        scale = 1.0 / np.sqrt(np.diag(v))
        expected = v * scale[:, None] * scale[None, :]
        assert vcorr(v).tobytes() == expected.tobytes()
        assert v.tobytes() == before.tobytes()

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            vcorr(np.array([[0.0, 0.0], [0.0, 1.0]]))
