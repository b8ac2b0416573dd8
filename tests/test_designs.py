"""Tests for design descriptions, exemplary datasets, and design matrices.

The subject-level design matrix lives in the dense oracle; the package
builds only the design rows of cluster-period cells, in its cell table.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wedgepower
from wedgepower import designs
from wedgepower.designs import (
    CSV_HEADER,
    DesignKind,
    DesignSpec,
    PRESETS,
    SpecValidationError,
    cell_table,
    dataset_to_csv,
    dataset_to_table,
    decode_spec_document,
    ensure_valid,
    exemplary_dataset,
    get_preset,
    validate_spec,
)
from wedgepower.design_effects import design_effect_for
from wedgepower.engine import analytic_power, evaluate, variance_components

from dense_oracle import (
    assert_same_dataset,
    cell_design,
    cell_times,
    cluster_structure,
    dataset_from_csv,
    design_matrix,
    reference_csv,
    reference_table,
    switch_threshold,
    contrast_column,
    twin_clusters,
)
from dense_oracle import columns as dense_columns
import spec_oracle

COUNT_FIELDS = (
    "per_group_n",
    "steps_k",
    "baseline_b",
    "per_step_t",
    "clusters_per_arm",
    "clusters_per_step",
    "cluster_size",
)

EXPECTED_ROWS = {
    "example1": 34,
    "example2": 54,
    "example2_48": 48,
    "example2_51": 51,
    "example3": 128,
    "example3_124": 124,
    "example4": 240,
    "example5": 180,
    "example6": 120,
    "example7": 90,
}

# run with a spec document's path and command names under a 1 GiB
# address-space cap: prints the spec's check and period count, then each
# named command's exit status, stdout and stderr; an exception a command
# lets out ends it with status 1
_CAPPED_CHECKS = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from wedgepower import cli, designs
path = sys.argv[1]
with open(path, encoding="utf-8") as handle:
    spec, _, _ = designs.decode_spec_document(json.load(handle))
print(json.dumps([designs.validate_spec(spec), spec.n_times]))
runs = {}
for argv in (["de", "--n-unclustered", "100", "--format", "json"],
             ["dataset"], ["power"], ["mc"], ["vmatrix"]):
    if argv[0] not in sys.argv[2:]:
        continue
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--spec", path])
    runs[argv[0]] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(runs))
"""


def run_capped(tmp_path, doc, commands):
    """(checks, runs) of _CAPPED_CHECKS on the document, running these commands."""
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(doc))
    source = Path(wedgepower.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHECKS, str(path), *commands],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(source)},
    )
    assert done.returncode == 0, done.stderr
    checks, _, runs = done.stdout.partition("\n")
    return json.loads(checks), json.loads(runs)


def wedge_spec(**overrides) -> DesignSpec:
    base = dict(
        kind=DesignKind.SWD_XSEC,
        steps_k=2,
        baseline_b=1,
        per_step_t=1,
        clusters_per_step=(4, 4),
        cluster_size=5,
        cell_means={(0, 0): 54.0, (1, 0): 59.0},
    )
    base.update(overrides)
    return DesignSpec(**base)


class TestValidation:
    def test_presets_are_valid(self):
        for name, (spec, _) in PRESETS.items():
            assert validate_spec(spec) == [], name

    def test_all_errors_collected(self):
        spec = DesignSpec(
            kind=DesignKind.SWD_COHORT,
            steps_k=0,
            baseline_b=None,
            per_step_t=1,
            clusters_per_step=(3, 3, 3),
            cluster_size=5,
            alpha=1.5,
        )
        errors = validate_spec(spec)
        text = "\n".join(errors)
        assert "design.steps_k" in text
        assert "design.baseline_b" in text
        assert "analysis.alpha" in text
        assert len(errors) >= 3

    def test_step_count_mismatch(self):
        errors = validate_spec(wedge_spec(clusters_per_step=(4, 4, 4)))
        assert any("clusters_per_step" in e and "steps_k" in e for e in errors)

    def test_cluster_size_list_length(self):
        spec = DesignSpec(
            kind=DesignKind.CRT_POST,
            clusters_per_arm=(2, 2),
            cluster_size=(6, 6, 6),
            cell_means={(1, 1): 59.0, (2, 1): 54.0},
        )
        errors = validate_spec(spec)
        assert any("design.cluster_size" in e and "4 clusters" in e for e in errors)

    def test_mean_cells_checked(self):
        spec = DesignSpec(
            kind=DesignKind.CRT_POST,
            clusters_per_arm=(2, 2),
            cluster_size=6,
            cell_means={(1, 1): 59.0, (3, 1): 54.0},
        )
        errors = validate_spec(spec)
        text = "\n".join(errors)
        assert "missing cells" in text
        assert "unexpected cells" in text

    def test_nonfinite_mean(self):
        spec = DesignSpec(
            kind=DesignKind.RCT_POST,
            per_group_n=5,
            cell_means={(1, 1): float("nan"), (2, 1): 54.0},
        )
        assert any("finite" in e for e in validate_spec(spec))

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("cluster_size", "6", "design.cluster_size: must be an integer, got '6'"),
            ("cluster_size", np.bool_(True), "design.cluster_size: must be an integer"),
            ("clusters_per_arm", 5, "design.clusters_per_arm: exactly two cluster counts"),
            ("clusters_per_arm", (5, "4"), "design.clusters_per_arm[1]: must be an integer"),
            # crt_post has no steps, but a malformed count is refused anyway
            ("steps_k", 2.5, "design.steps_k: must be an integer, got 2.5"),
        ],
    )
    def test_malformed_count_reported_once(self, field, value, message):
        spec = dataclasses.replace(get_preset("example2")[0], **{field: value})
        errors = validate_spec(spec)
        assert len(errors) == 1 and errors[0].startswith(message), errors

    @pytest.mark.parametrize(
        "change,message",
        [
            (
                {"cell_means": {(1, 1): "x", (2, 1): 54.0}},
                "design.means[(1, 1)]: must be a finite real number, got 'x'",
            ),
            (
                {"cell_means": {(1, 1): None, (2, 1): 54.0}},
                "design.means[(1, 1)]: must be a finite real number, got None",
            ),
            (
                {"cell_means": {(1, 1): True, (2, 1): 54.0}},
                "design.means[(1, 1)]: must be a finite real number, got True",
            ),
            ({"cell_means": None}, "design.means: must map cells to means, got None"),
            ({"alpha": "0.05"}, "analysis.alpha: must be a real number in (0, 1), got '0.05'"),
            ({"alpha": None}, "analysis.alpha: must be a real number in (0, 1), got None"),
        ],
    )
    def test_malformed_mean_or_alpha_reported(self, change, message):
        spec = dataclasses.replace(get_preset("example2")[0], **change)
        assert validate_spec(spec) == [message]

    def test_unused_counts_need_only_be_whole(self):
        spec = get_preset("example1")[0]
        assert validate_spec(dataclasses.replace(spec, cluster_size=0)) == []
        assert validate_spec(dataclasses.replace(spec, cluster_size="six")) == [
            "design.cluster_size: must be an integer, got 'six'"
        ]

    @pytest.mark.parametrize("name", ["example1", "example2_51", "example5", "example7"])
    def test_numpy_integer_counts(self, name):
        spec, params = get_preset(name)
        counts = {}
        for field in COUNT_FIELDS:
            value = getattr(spec, field)
            if isinstance(value, tuple):
                counts[field] = tuple(np.int64(v) for v in value)
            elif value is not None:
                counts[field] = np.int64(value)
        numpy_spec = dataclasses.replace(spec, **counts)
        assert validate_spec(numpy_spec) == []
        assert analytic_power(numpy_spec, params) == analytic_power(spec, params)

    def test_ensure_valid_raises_with_messages(self):
        with pytest.raises(SpecValidationError) as info:
            ensure_valid(wedge_spec(steps_k=None, clusters_per_step=None))
        assert any("design.steps_k" in e for e in info.value.errors)
        assert any("design.clusters_per_step" in e for e in info.value.errors)


class TestCounts:
    @pytest.mark.parametrize("name", sorted(EXPECTED_ROWS))
    def test_observation_counts(self, name):
        spec, _ = get_preset(name)
        assert spec.n_observations == EXPECTED_ROWS[name]
        assert exemplary_dataset(spec).n_rows == EXPECTED_ROWS[name]

    def test_cluster_counts(self):
        assert cell_table(get_preset("example1")[0]).n_clusters == 34
        assert cell_table(get_preset("example2")[0]).n_clusters == 9
        assert cell_table(get_preset("example3")[0]).n_clusters == 128
        assert cell_table(get_preset("example4")[0]).n_clusters == 12
        assert cell_table(get_preset("example6")[0]).n_clusters == 8
        assert cell_table(get_preset("example7")[0]).n_clusters == 6

    @pytest.mark.parametrize("entry", [int, float, np.int64])
    def test_size_list_entries_count_alike(self, entry):
        # a list of exact ints skips validate_spec's entry loop and is
        # summed at once; whole floats and numpy ints take the loop
        spec = get_preset("example2_51")[0]
        sizes = tuple(map(entry, spec.cluster_size))
        sized = dataclasses.replace(spec, cluster_size=sizes)
        assert validate_spec(sized) == []
        assert type(sized.n_observations) is int and sized.n_observations == 51
        zero = dataclasses.replace(spec, cluster_size=(*sizes[:-1], entry(0)))
        assert validate_spec(zero) == [
            f"design.cluster_size[7]: must be >= 1, got {entry(0)!r}"
        ]

    def test_observations_up_to_two_to_the_53_are_accepted(self):
        # 4 clusters of 2**51: the largest count floats hold exactly
        spec = dataclasses.replace(
            get_preset("example2")[0], clusters_per_arm=(2, 2), cluster_size=2**51
        )
        assert validate_spec(spec) == []
        assert spec.n_observations == 2**53
        assert cell_table(spec).m.tolist() == [2**51, 2**51]

    @pytest.mark.parametrize("size", [2**53, 2**62, 2**63])
    def test_more_observations_are_refused_by_name(self, size):
        # at 2**62 the pattern keys wrapped, at 2**63 the sizes overflowed int64
        spec = dataclasses.replace(get_preset("example2")[0], cluster_size=size)
        message = (
            f"design: {9 * size} observations, more than floats count exactly (2**53)"
        )
        assert validate_spec(spec) == [message]
        with pytest.raises(SpecValidationError, match="more than floats count"):
            evaluate(spec, get_preset("example2")[1])

    def test_huge_individual_design_is_refused_without_a_count_per_subject(self):
        spec = DesignSpec(kind=DesignKind.RCT_POST, per_group_n=2**62, cell_means={})
        assert spec.n_observations == 2**63
        assert validate_spec(spec)[0].startswith(f"design: {2**63} observations")

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"cluster_size": -3}, "design.cluster_size: must be >= 1, got -3"),
            ({"cluster_size": (3, 3)}, "design.cluster_size: 2 entries for 4 clusters"),
            (
                {"kind": DesignKind.SWD_XSEC, "clusters_per_arm": None,
                 "baseline_b": 1, "per_step_t": 1, "clusters_per_step": (2, 2)},
                "design.steps_k: required for this design kind",
            ),
        ],
        ids=["negative_size", "short_size_list", "wedge_without_steps"],
    )
    def test_count_properties_refuse_what_the_count_check_refuses(
        self, changes, message
    ):
        # they once laid out the raw fields: -12 observations, sizes for
        # 2 of 4 clusters, or a TypeError on a missing step count
        spec = DesignSpec(
            kind=DesignKind.CRT_POST,
            clusters_per_arm=(2, 2),
            cluster_size=3,
            cell_means={(1, 1): 59.0, (2, 1): 54.0},
        )
        spec = dataclasses.replace(spec, **changes)
        reads = {
            "n_times": lambda: spec.n_times,
            "n_observations": lambda: spec.n_observations,
            "cluster_subject_counts": spec.cluster_subject_counts,
        }
        for name, read in reads.items():
            with pytest.raises(SpecValidationError) as caught:
                read()
            assert caught.value.errors == [message], name

    def test_times(self):
        assert get_preset("example2")[0].n_times == 1
        assert get_preset("example4")[0].n_times == 2
        assert get_preset("example6")[0].n_times == 3
        assert wedge_spec(steps_k=3, per_step_t=2, baseline_b=2,
                          clusters_per_step=(2, 2, 2)).n_times == 8

    def test_a_billion_periods_are_counted_not_listed(self, tmp_path):
        # a wedge of 10**9 + 2 periods: a list of its periods alone would
        # take 8 GB, so the checks and the closed form run under a 1 GiB
        # address-space cap.  The commands that build the cell table or
        # its rows refuse the spec by name, from its counts, before they
        # allocate: dataset by its rows, the others by the cell table.
        doc = {
            "design": {
                "kind": "swd_xsec",
                "steps_k": 2,
                "baseline_b": 10**9,
                "per_step_t": 1,
                "clusters_per_step": [1, 1],
                "cluster_size": 1,
                "means": [54.0, 59.0],
            },
            "correlation": {"sigma_y_sq": 25.0, "icc": 0.1, "cac": 0.5},
        }
        commands = ("de", "dataset", "power", "mc", "vmatrix")
        checks, runs = run_capped(tmp_path, doc, commands)
        assert checks == [[], 1_000_000_002]
        code, out, _ = runs.pop("de")
        assert code == 0
        assert json.loads(out)["formula"] == "hussey_hughes"
        rows = "exemplary dataset would have 2000000004 rows; limit is 1000000"
        table = (
            "cell table of 2 patterns x 1000000002 periods exceeds the limit of "
            "2500000 cells"
        )
        refused = [2, "", f"error: {table}\n"]
        assert runs == {
            "dataset": [2, "", f"error: {rows}\n"],
            "power": refused,
            "mc": refused,
            "vmatrix": refused,
        }

    def test_fifty_steps_of_fifty_periods_answer_under_a_cap(self, tmp_path):
        # 50 steps x 50 periods after one baseline period, 2,501 periods:
        # power, mc and de answer under a 1 GiB address-space cap, and
        # vmatrix refuses its 12,505-row cluster covariance by name
        doc = {
            "design": {
                "kind": "swd_xsec",
                "steps_k": 50,
                "baseline_b": 1,
                "per_step_t": 50,
                "clusters_per_step": [1] * 50,
                "cluster_size": 5,
                "means": [54.0, 59.0],
            },
            "correlation": {"sigma_y_sq": 25.0, "icc": 0.1, "cac": 1.0},
        }
        checks, runs = run_capped(tmp_path, doc, ("de", "power", "mc", "vmatrix"))
        assert checks == [[], 2501]
        for name in ("de", "power", "mc"):
            code, out, err = runs[name]
            assert (code, err) == (0, ""), name
            assert out
        limit = "cluster covariance would have 12505 rows; limit is 2000"
        assert runs["vmatrix"] == [2, "", f"error: {limit}\n"]

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_cell_bound_counts_its_cells(self, monkeypatch, name):
        # the bound is read from counts before the table is built, so the
        # count must be the built table's size, for every kind
        spec, _ = get_preset(name)
        cells = cell_table(spec).exposed.size
        monkeypatch.setattr(designs, "_MAX_CELLS", cells)
        assert cell_table(spec).exposed.size == cells
        monkeypatch.setattr(designs, "_MAX_CELLS", cells - 1)
        with pytest.raises(ValueError, match=f"the limit of {cells - 1} cells"):
            cell_table(spec)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_layout_is_built_once_per_call(self, monkeypatch, name):
        # the count check builds the one layout and returns it: cell_table,
        # the dataset and the closed forms read it instead of building
        # their own, and the family comes from the kind catalog
        built = []
        layout = designs._layout

        def counted(spec):
            built.append(spec)
            return layout(spec)

        monkeypatch.setattr(designs, "_layout", counted)
        spec, params = get_preset(name)

        def layouts(call) -> int:
            built.clear()
            try:
                call(spec, params)
            except ValueError:
                pass  # example2_51 has no closed form
            return len(built)

        assert layouts(lambda spec, params: spec.family) == 0
        assert layouts(variance_components) == 0
        assert layouts(evaluate) == 1
        assert layouts(design_effect_for) == 1
        assert layouts(lambda spec, params: exemplary_dataset(spec)) == 1


class TestExemplaryDataset:
    def test_deterministic(self):
        spec, _ = get_preset("example5")
        assert_same_dataset(exemplary_dataset(spec), exemplary_dataset(spec))

    def test_two_arm_post_layout(self):
        spec, _ = get_preset("example1")
        data = exemplary_dataset(spec)
        assert list(data.subject_id) == list(range(1, 35))
        np.testing.assert_array_equal(data.intervene, (data.arm == 2).astype(int))
        np.testing.assert_array_equal(data.mean[:17], 59.0)
        np.testing.assert_array_equal(data.mean[17:], 54.0)
        np.testing.assert_array_equal(data.time, 1)

    def test_cluster_randomized_layout(self):
        spec, _ = get_preset("example2")
        data = exemplary_dataset(spec)
        assert list(np.unique(data.cluster_id)) == list(range(1, 10))
        assert list(data.subject_id) == list(range(1, 55))
        # arm 1 holds clusters 1..5
        assert set(data.cluster_id[data.arm == 1]) == {1, 2, 3, 4, 5}
        counts = np.bincount(data.cluster_id)[1:]
        assert list(counts) == [6] * 9

    def test_unequal_cluster_sizes(self):
        spec, _ = get_preset("example2_51")
        data = exemplary_dataset(spec)
        counts = np.bincount(data.cluster_id)[1:]
        assert list(counts) == [7, 7, 6, 6, 7, 6, 6, 6]

    def test_cross_sectional_orders_subjects_inside_times(self):
        spec, _ = get_preset("example4")
        data = exemplary_dataset(spec)
        first = slice(0, 20)
        np.testing.assert_array_equal(data.cluster_id[first], 1)
        np.testing.assert_array_equal(data.time[first], [1] * 10 + [2] * 10)
        # fresh recruits at the second time carry new subject ids
        assert list(data.subject_id[first]) == list(range(1, 21))

    def test_cohort_orders_times_inside_subjects(self):
        spec, _ = get_preset("example5")
        data = exemplary_dataset(spec)
        first = slice(0, 20)
        np.testing.assert_array_equal(data.cluster_id[first], 1)
        np.testing.assert_array_equal(data.time[first], [1, 2] * 10)
        np.testing.assert_array_equal(
            data.subject_id[first], np.repeat(np.arange(1, 11), 2)
        )
        # each subject appears exactly twice in the whole study
        assert np.bincount(data.subject_id)[1:].tolist() == [2] * 90

    def test_prepost_interaction_flag(self):
        spec, _ = get_preset("example5")
        data = exemplary_dataset(spec)
        expected = ((data.arm == 2) & (data.time == 2)).astype(int)
        np.testing.assert_array_equal(data.intervene, expected)

    def test_wedge_exposure_schedule(self):
        spec, _ = get_preset("example6")
        data = exemplary_dataset(spec)
        # clusters 1..4 switch first: control only at time 1
        for cluster in range(1, 5):
            rows = data.cluster_id == cluster
            by_time = [
                int(data.intervene[rows & (data.time == t)][0]) for t in (1, 2, 3)
            ]
            assert by_time == [0, 1, 1]
        for cluster in range(5, 9):
            rows = data.cluster_id == cluster
            by_time = [
                int(data.intervene[rows & (data.time == t)][0]) for t in (1, 2, 3)
            ]
            assert by_time == [0, 0, 1]
        # the arm column carries the step group
        assert set(data.arm[data.cluster_id <= 4]) == {1}
        assert set(data.arm[data.cluster_id >= 5]) == {2}

    def test_wedge_flag_matches_threshold_rule(self):
        specs = [
            get_preset("example6")[0],
            get_preset("example7")[0],
            wedge_spec(
                steps_k=3, baseline_b=2, per_step_t=2, clusters_per_step=(2, 3, 2)
            ),
        ]
        for spec in specs:
            data = exemplary_dataset(spec)
            for block in cluster_structure(spec):
                threshold = switch_threshold(spec, block.group)
                rows = slice(block.row_start, block.row_start + block.n_rows)
                expected = (data.time[rows] > threshold).astype(int)
                np.testing.assert_array_equal(data.intervene[rows], expected)

    def test_wedge_means_follow_exposure(self):
        spec, _ = get_preset("example7")
        data = exemplary_dataset(spec)
        np.testing.assert_array_equal(data.mean[data.intervene == 0], 54.0)
        np.testing.assert_array_equal(data.mean[data.intervene == 1], 59.0)

    @pytest.mark.parametrize(
        "spec",
        [
            *(spec for spec, _ in PRESETS.values()),
            wedge_spec(steps_k=3, baseline_b=2, per_step_t=2, clusters_per_step=(2, 1, 2),
                       cluster_size=(2, 3, 3, 1, 2)),
        ],
        ids=[*PRESETS, "small_wedge"],
    )
    def test_columns_match_the_cell_table(self, spec):
        # the dataset expands the table; its exposure is the table's
        data = exemplary_dataset(spec)
        cells = cell_table(spec)
        pattern = cells.cluster_pattern[twin_clusters(spec, data)]
        period = data.time - 1
        np.testing.assert_array_equal(data.arm, cells.group[pattern])
        np.testing.assert_array_equal(data.time, cell_times(cells)[pattern, period])
        np.testing.assert_array_equal(data.intervene, cells.exposed[pattern, period])
        np.testing.assert_array_equal(data.mean, cells.mean[pattern, period])

    def test_long_wedge_builds_without_a_design_array(self):
        # 7,204 rows: the table holds the 2 x 3602 exposure and no
        # 2 x 3602 x 3603 design array
        spec = wedge_spec(baseline_b=3600, clusters_per_step=(1, 1), cluster_size=1)
        cells = cell_table(spec)
        assert cells.exposed.shape == cells.mean.shape == (2, 3602)
        assert cell_times(cells)[:, 0].tolist() == [1, 1]
        assert not hasattr(cells, "x")
        data = exemplary_dataset(spec)
        assert data.n_rows == 7204
        exposed = data.time[data.intervene == 1]
        assert exposed.tolist() == [3601, 3602, 3602]
        np.testing.assert_array_equal(data.mean[data.intervene == 1], 59.0)
        np.testing.assert_array_equal(data.mean[data.intervene == 0], 54.0)

    def test_means_solvable_by_design_matrix(self):
        # the modeled means must be exactly representable by the fixed
        # effects, otherwise the exemplary-data route is meaningless
        for name, (spec, _) in PRESETS.items():
            data = exemplary_dataset(spec)
            x = design_matrix(spec, data)
            beta, *_ = np.linalg.lstsq(x, data.mean, rcond=None)
            assert np.linalg.norm(x @ beta - data.mean) <= 1e-9, name


class TestDesignMatrix:
    def test_shapes_and_rank(self):
        cases = {
            "example1": 2,
            "example3": 4,
            "example4": 4,
            "example6": 4,
            "example7": 4,
        }
        for name, n_cols in cases.items():
            spec, _ = get_preset(name)
            x = design_matrix(spec)
            assert x.shape == (spec.n_observations, n_cols)
            assert np.linalg.matrix_rank(x) == n_cols

    def test_prepost_columns(self):
        spec, _ = get_preset("example3")
        data = exemplary_dataset(spec)
        x = design_matrix(spec, data)
        np.testing.assert_array_equal(x[:, 0], 1.0)
        np.testing.assert_array_equal(x[:, 1], (data.arm == 2).astype(float))
        np.testing.assert_array_equal(x[:, 2], (data.time == 2).astype(float))
        np.testing.assert_array_equal(x[:, 3], x[:, 1] * x[:, 2])

    def test_single_step_wedge_is_degenerate(self):
        spec = wedge_spec(steps_k=1, clusters_per_step=(8,))
        with pytest.raises(ValueError, match="rank deficient"):
            design_matrix(spec)

    # column names, one preset per kind
    POST = ["intercept", "treated"]
    PREPOST = POST + ["post", "treated_post"]
    WEDGE = ["intercept", "time_2", "time_3", "intervene"]

    COLUMNS = {
        "example1": POST,
        "example2": POST,
        "example3": PREPOST,
        "example4": PREPOST,
        "example5": PREPOST,
        "example6": WEDGE,
        "example7": WEDGE,
    }

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_column_metadata(self, name):
        spec, _ = get_preset(name)
        columns, _ = cell_design(cell_table(spec))
        assert columns == tuple(self.COLUMNS[name])
        assert columns == tuple(column for column, _, _ in dense_columns(spec))


class TestContrast:
    @pytest.mark.parametrize(
        "name,target",
        [
            ("example1", "treated"),
            ("example2", "treated"),
            ("example3", "treated_post"),
            ("example5", "treated_post"),
            ("example6", "intervene"),
        ],
    )
    def test_targets(self, name, target):
        spec, params = get_preset(name)
        run = evaluate(spec, params)
        assert run.contrast == target
        assert run.result.ndf == 1
        columns, _ = cell_design(cell_table(spec))
        assert columns.index(target) == len(columns) - 1 == contrast_column(spec)


class TestCsvRoundTrip:
    @pytest.mark.parametrize("name", sorted(EXPECTED_ROWS))
    def test_round_trip(self, name):
        spec, _ = get_preset(name)
        data = exemplary_dataset(spec)
        again = dataset_from_csv(dataset_to_csv(data))
        assert_same_dataset(again, data)

    def test_header(self):
        spec, _ = get_preset("example1")
        first_line = dataset_to_csv(exemplary_dataset(spec)).splitlines()[0]
        assert tuple(first_line.split(",")) == CSV_HEADER

    def test_rejects_wrong_header(self):
        with pytest.raises(ValueError, match="header"):
            dataset_from_csv("a,b,c\n1,2,3\n")

    def test_rejects_mixed_kinds(self):
        spec, _ = get_preset("example1")
        text = dataset_to_csv(exemplary_dataset(spec))
        lines = text.splitlines()
        lines.append(lines[1].replace("rct_post", "crt_post"))
        with pytest.raises(ValueError, match="design labels"):
            dataset_from_csv("\n".join(lines) + "\n")


SWD_COHORT_6X1000X13 = DesignSpec(
    kind=DesignKind.SWD_COHORT,
    steps_k=6,
    baseline_b=1,
    per_step_t=2,
    clusters_per_step=(1,) * 6,
    cluster_size=1000,
    cell_means={(0, 0): 54.0, (1, 0): 55.0},
)


class TestDatasetText:
    @pytest.mark.parametrize("name", sorted(EXPECTED_ROWS) + ["swd_cohort_6x1000x13"])
    def test_matches_row_by_row_writers(self, name):
        if name in PRESETS:
            spec = get_preset(name)[0]
        else:
            spec = SWD_COHORT_6X1000X13
        data = exemplary_dataset(spec)
        assert dataset_to_csv(data) == reference_csv(data)
        assert dataset_to_table(data) == reference_table(data)

    def test_means_that_compare_equal_keep_their_own_text(self):
        # -0.0 == 0.0, and 0.1 + 0.2 differs from 0.3 only in the 17th digit
        for means in ((-0.0, 0.0), (0.1 + 0.2, 0.3)):
            spec = dataclasses.replace(
                get_preset("example2")[0], cell_means={(1, 1): means[0], (2, 1): means[1]}
            )
            data = exemplary_dataset(spec)
            assert dataset_to_csv(data) == reference_csv(data)
            assert dataset_to_table(data) == reference_table(data)


class TestDecodeSpecDocument:
    def make_doc(self):
        return {
            "design": {
                "kind": "crt_post",
                "clusters_per_arm": [5, 4],
                "cluster_size": 6,
                "means": [[59.0], [54.0]],
            },
            "correlation": {"sigma_y_sq": 25.0, "icc": 0.1},
            "analysis": {"alpha": 0.05, "ddf_policy": "containment"},
        }

    def test_round_trip_matches_preset(self):
        spec, params, policy = decode_spec_document(self.make_doc())
        preset_spec, preset_params = get_preset("example2")
        assert spec == preset_spec
        assert params == preset_params
        assert policy == "containment"

    def make_wedge_doc(self):
        return {
            "design": {
                "kind": "swd_xsec",
                "steps_k": 2,
                "baseline_b": 1,
                "per_step_t": 1,
                "clusters_per_step": [4, 4],
                "cluster_size": 5,
                "means": [54.0, 59.0],
            },
            "correlation": {"sigma_y_sq": 25.0, "icc": 0.1, "cac": 1.0},
        }

    def test_wedge_means_form(self):
        spec, params, policy = decode_spec_document(self.make_wedge_doc())
        assert spec == get_preset("example6")[0]
        assert policy is None

    def test_collects_errors_with_paths(self):
        doc = {
            "design": {"kind": "crt_post", "cluster_size": "six"},
            "correlation": {"sigma_y_sq": 25.0},
        }
        with pytest.raises(SpecValidationError) as info:
            decode_spec_document(doc)
        text = "\n".join(info.value.errors)
        assert "design.cluster_size" in text
        assert "correlation.icc: required" in text
        assert "design.clusters_per_arm" in text
        assert "design.means" in text

    def test_bad_kind(self):
        doc = self.make_doc()
        doc["design"]["kind"] = "crossover"
        with pytest.raises(SpecValidationError) as info:
            decode_spec_document(doc)
        assert any("design.kind" in e for e in info.value.errors)

    def test_bad_ddf_policy(self):
        doc = self.make_doc()
        doc["analysis"]["ddf_policy"] = "satterthwaite"
        with pytest.raises(SpecValidationError) as info:
            decode_spec_document(doc)
        assert any("analysis.ddf_policy" in e for e in info.value.errors)

    def test_wrong_means_shape(self):
        doc = self.make_doc()
        doc["design"]["means"] = [[59.0, 60.0], [54.0, 55.0]]
        with pytest.raises(SpecValidationError) as info:
            decode_spec_document(doc)
        assert any("design.means" in e for e in info.value.errors)

    def test_non_mapping_document(self):
        with pytest.raises(SpecValidationError):
            decode_spec_document([1, 2, 3])

    @pytest.mark.parametrize(
        "section,message",
        [
            ("design", "design: required object"),
            ("correlation", "correlation: required object"),
            ("analysis", "analysis: must be an object"),
        ],
    )
    @pytest.mark.parametrize("value", [None, [1, 2], "text", 3])
    def test_non_object_section_is_named(self, section, message, value):
        doc = self.make_doc()
        doc[section] = value
        with pytest.raises(SpecValidationError) as info:
            decode_spec_document(doc)
        assert message in info.value.errors

    @pytest.mark.parametrize(
        "kind,field,value,path",
        [
            ("crt_post", "cluster_size", 6.5, "design.cluster_size"),
            ("crt_post", "cluster_size", [6.5] * 9, "design.cluster_size[0]"),
            ("crt_post", "cluster_size", True, "design.cluster_size"),
            ("crt_post", "clusters_per_arm", [5.7, 4], "design.clusters_per_arm[0]"),
            ("crt_post", "means", [[59.0], [True]], "design.means"),
            ("swd_xsec", "clusters_per_step", [2.5, 2], "design.clusters_per_step[0]"),
            ("swd_xsec", "means", [True, 59.0], "design.means"),
            ("crt_post", "cluster_size", "six", "design.cluster_size"),
            ("crt_post", "cluster_size", "6", "design.cluster_size"),
            ("crt_post", "cluster_size", {"x": 1}, "design.cluster_size"),
            ("crt_post", "cluster_size", math.inf, "design.cluster_size"),
            ("crt_post", "cluster_size", math.nan, "design.cluster_size"),
            ("crt_post", "clusters_per_arm", 5, "design.clusters_per_arm"),
            ("crt_post", "clusters_per_arm", {"a": 1}, "design.clusters_per_arm"),
            ("crt_post", "clusters_per_arm", [1, 2, 3], "design.clusters_per_arm"),
            ("swd_xsec", "clusters_per_step", 4, "design.clusters_per_step"),
            ("swd_xsec", "steps_k", "2", "design.steps_k"),
        ],
    )
    def test_non_integral_counts_and_boolean_means(self, kind, field, value, path):
        doc = self.make_doc() if kind == "crt_post" else self.make_wedge_doc()
        doc["design"][field] = value
        with pytest.raises(SpecValidationError) as info:
            decode_spec_document(doc)
        errors = [e for e in info.value.errors if e.startswith(f"design.{field}")]
        assert sum(e.startswith(f"{path}: ") for e in errors) == 1, errors
        # one error per refused entry, or one for the whole field, never both
        assert len(errors) == 1 or all(e.startswith(f"design.{field}[") for e in errors)

    def test_correlation_ranges_reported_with_other_errors(self):
        doc = self.make_doc()
        doc["analysis"]["alpha"] = "x"
        doc["correlation"]["icc"] = 1.5
        with pytest.raises(SpecValidationError) as info:
            decode_spec_document(doc)
        assert info.value.errors == [
            "correlation: icc must lie in [0, 1), got 1.5",
            "analysis.alpha: must be a real number in (0, 1), got 'x'",
        ]

    def test_per_cluster_sizes(self):
        doc = self.make_doc()
        doc["design"]["clusters_per_arm"] = [4, 4]
        doc["design"]["cluster_size"] = [7, 7, 6, 6, 7, 6, 6, 6]
        spec, _, _ = decode_spec_document(doc)
        assert spec == get_preset("example2_51")[0]


# any JSON value, with small counts and count lists mixed in to reach the
# length checks
JSON_COUNTS = st.one_of(
    st.integers(-1, 4),
    st.lists(st.integers(-1, 4), max_size=4),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=2),
        max_leaves=6,
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(list(DesignKind)),
    counts=st.fixed_dictionaries({field: JSON_COUNTS for field in COUNT_FIELDS}),
)
def test_any_count_values_give_errors_never_exceptions(kind, counts):
    errors = validate_spec(DesignSpec(kind=kind, **counts))
    assert all(isinstance(e, str) and e.startswith("design.") for e in errors)
    if kind in (DesignKind.SWD_XSEC, DesignKind.SWD_COHORT):
        means = [54.0, 59.0]
    elif kind in (DesignKind.RCT_POST, DesignKind.CRT_POST):
        means = [[59.0], [54.0]]
    else:
        means = [[54.0, 56.0], [54.0, 61.0]]
    doc = {
        "design": {"kind": kind.value, "means": means, **counts},
        "correlation": {"sigma_y_sq": 25.0, "icc": 0.1},
    }
    try:
        decoded, _, _ = decode_spec_document(doc)
    except SpecValidationError:
        return
    assert validate_spec(decoded) == []


# one count entry: exact ints, the bools, numpy ints, whole and fractional
# floats, zero, negatives and values no count takes
COUNT_ENTRY = st.one_of(
    st.integers(-2, 5),
    st.booleans(),
    st.integers(0, 5).map(np.int64),
    st.integers(0, 5).map(float),
    st.floats(-2.0, 6.0),
    st.sampled_from([2**63, float("nan"), float("inf"), "3", None]),
)
# a count field: None, one entry, or a list or tuple of entries, and often
# a tuple of exact ints >= 1 of any length, the common case of a list
COUNT_VALUE = st.one_of(
    st.none(),
    COUNT_ENTRY,
    st.lists(COUNT_ENTRY, max_size=5),
    st.lists(COUNT_ENTRY, max_size=5).map(tuple),
    st.lists(st.integers(1, 4), max_size=12).map(tuple),
)
MEAN_VALUE = st.one_of(
    st.floats(),
    st.floats(-100.0, 100.0).map(np.float64),
    st.integers(-3, 3),
    st.booleans(),
    st.sampled_from([None, "54", 10**400]),
)
ALPHA = st.one_of(
    st.floats(),
    st.floats(0.0, 1.0).map(np.float64),
    st.integers(-1, 2),
    st.booleans(),
    st.sampled_from([0.05, None, "0.05", [0.05]]),
)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_spec_check_matches_the_per_field_check_it_replaced(data):
    # the common-case path gives every message and the layout of the
    # per-field check, on specs that start valid and on anything else
    if data.draw(st.booleans()):
        spec, _ = get_preset(data.draw(st.sampled_from(sorted(PRESETS))))
        fields = data.draw(st.lists(st.sampled_from(COUNT_FIELDS), max_size=2))
        spec = dataclasses.replace(spec, **{f: data.draw(COUNT_VALUE) for f in fields})
    else:
        kind = data.draw(st.sampled_from([*DesignKind, "bogus"]))
        counts = {field: data.draw(COUNT_VALUE) for field in COUNT_FIELDS}
        spec = DesignSpec(kind=kind, **counts)
    if data.draw(st.booleans()):
        known = isinstance(spec.kind, DesignKind)
        keys = sorted(designs.kind_traits(spec.kind).mean_keys) if known else []
        means = {key: data.draw(MEAN_VALUE) for key in keys}
        cells = st.tuples(st.integers(0, 3), st.integers(0, 3))
        means.update(data.draw(st.dictionaries(cells, MEAN_VALUE, max_size=2)))
        means = data.draw(st.sampled_from([means, [1.0], None]))
        spec = dataclasses.replace(spec, cell_means=means)
    if data.draw(st.booleans()):
        spec = dataclasses.replace(spec, alpha=data.draw(ALPHA))
    assert validate_spec(spec) == spec_oracle.validate_spec(spec)
    assert designs._count_errors(spec) == spec_oracle.count_errors(spec)


# small designs of every correlation family, to decode with any values in
# the correlation and analysis sections
FUZZ_DESIGNS = [
    {"kind": "rct_post", "per_group_n": 3, "means": [[59.0], [54.0]]},
    {
        "kind": "crt_prepost_cohort",
        "clusters_per_arm": [3, 2],
        "cluster_size": 4,
        "means": [[54.0, 56.0], [54.0, 61.0]],
    },
    {
        "kind": "swd_xsec",
        "steps_k": 2,
        "baseline_b": 1,
        "per_step_t": 1,
        "clusters_per_step": [2, 2],
        "cluster_size": 3,
        "means": [54.0, 59.0],
    },
    {
        "kind": "swd_cohort",
        "steps_k": 2,
        "baseline_b": 1,
        "per_step_t": 1,
        "clusters_per_step": [2, 1],
        "cluster_size": 3,
        "means": [54.0, 59.0],
    },
]
_ABSENT = object()
# any JSON value a scenario field may hold, valid values among them
JSON_VALUES = st.one_of(
    st.just(_ABSENT),
    st.sampled_from([0.0, 0.1, 0.5, 0.05, 1.0, 25.0, 1, 0, 1e-300, 1e300, 10**400]),
    st.floats(0.0, 1.0),
    st.floats(),
    st.integers(),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.floats(), max_size=2),
)


def _section(values: dict) -> dict:
    return {name: value for name, value in values.items() if value is not _ABSENT}


@settings(max_examples=300, deadline=None)
@given(
    design=st.sampled_from(FUZZ_DESIGNS),
    corr=st.fixed_dictionaries(
        {name: JSON_VALUES for name in ("sigma_y_sq", "icc", "cac", "sac")}
    ),
    alpha=JSON_VALUES,
    policy=st.one_of(JSON_VALUES, st.sampled_from(["residual", "between_within"])),
)
def test_any_scenario_values_give_errors_never_exceptions(design, corr, alpha, policy):
    doc = {
        "design": design,
        "correlation": _section(corr),
        "analysis": _section({"alpha": alpha, "ddf_policy": policy}),
    }
    try:
        spec, params, ddf_policy = decode_spec_document(doc)
    except SpecValidationError as exc:
        assert all(isinstance(e, str) for e in exc.errors)
        return
    # what the decoder passes, the steps after it refuse with a ValueError
    for step in (
        lambda: evaluate(spec, params, ddf_policy=ddf_policy),
        lambda: design_effect_for(spec, params),
    ):
        try:
            step()
        except ValueError:
            pass


class TestPresets:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="example1"):
            get_preset("example99")

    def test_alpha_default(self):
        for _, (spec, _) in PRESETS.items():
            assert spec.alpha == 0.05
