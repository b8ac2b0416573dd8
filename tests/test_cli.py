"""Tests for the command line interface.

All commands run in-process through main(argv), with stdout and stderr
captured by pytest.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wedgepower import cli, correlation, designs, engine
from wedgepower.cli import main
from wedgepower.designs import (
    MAX_DATASET_ROWS,
    PRESETS,
    decode_spec_document,
    cell_table,
    exemplary_dataset,
    get_preset,
)

import cli_corpus
from dense_oracle import assert_same_dataset, dataset_from_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def whole_matrix_text(matrix, fmt: str) -> str:
    """vmatrix's text as formatted from the whole matrix at once."""
    if fmt == "json":
        return json.dumps({"matrix": matrix.tolist()}, indent=2) + "\n"
    if fmt == "csv":
        line = ",".join(["%.17g"] * matrix.shape[1])
    else:
        width = max(len("%.1f" % v) for v in (matrix.min(), matrix.max()))
        line = "  ".join([f"%{width}.1f"] * matrix.shape[1])
    return "".join(line % tuple(row) + "\n" for row in matrix.tolist())


def table_value(out: str, label: str) -> str:
    for line in out.splitlines():
        parts = re.split(r"\s{2,}", line.rstrip(), maxsplit=1)
        if len(parts) == 2 and parts[0] == label:
            return parts[1]
    raise AssertionError(f"label {label!r} not found in output:\n{out}")


class TestPowerCommand:
    def test_table(self, capsys):
        code, out, err = run(capsys, "power", "--preset", "example2")
        assert code == 0 and err == ""
        assert table_value(out, "power") == "0.831"
        assert table_value(out, "ddf") == "45"
        assert table_value(out, "ddf policy") == "containment"
        assert table_value(out, "noncentrality") == "8.889"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "power", "--preset", "example2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["power"] == pytest.approx(0.830786060282071, rel=1e-10)
        assert payload["ddf"] == 45
        assert payload["ndf"] == 1
        assert "audit" not in payload

    def test_json_audit(self, capsys):
        code, out, _ = run(
            capsys, "power", "--preset", "example5", "--audit", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        audit = payload["audit"]
        assert audit["observations"] == 180
        assert audit["clusters"] == 9
        assert audit["contrast"] == "treated_post"
        assert audit["beta"] == pytest.approx([54.0, 0.0, 2.0, 5.0], abs=1e-9)
        assert audit["components"]["subject"] == pytest.approx(13.5)

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "power", "--preset", "example7", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["design"] == "swd_cohort"
        assert float(fields["power"]) == pytest.approx(0.8189174030094872, rel=1e-12)
        assert int(fields["ddf"]) == 81

    def test_policy_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "power",
            "--preset",
            "example2",
            "--ddf-policy",
            "residual",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["ddf"] == 52

    def test_alpha_override(self, capsys):
        _, strict, _ = run(
            capsys, "power", "--preset", "example2", "--alpha", "0.01",
            "--format", "json",
        )
        assert json.loads(strict)["power"] < 0.831

    def test_bad_alpha(self, capsys):
        code, _, err = run(capsys, "power", "--preset", "example2", "--alpha", "2.0")
        assert code == 2
        assert "--alpha" in err

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_audit_prints_no_negative_zero(self, capsys, name):
        # effects that are 0 in the model come out of the fit as rounding
        # noise of either sign; the table prints them unsigned
        printed = 0
        for policy in engine.DDF_POLICIES:
            code, out, err = run(
                capsys, "power", "--preset", name, "--audit", "--ddf-policy", policy
            )
            assert code == 0 or "needs a clustered design" in err
            assert "-0.000" not in out
            printed += code == 0
        assert printed >= 1

    def test_values_that_round_to_zero_print_unsigned(self):
        assert cli._f3(-3.6e-14) == cli._f3(-0.0) == cli._f3(0.0) == "0.000"
        assert cli._f3(-0.0004999) == "0.000"
        assert cli._f3(-0.0005001) == "-0.001"


class TestDeCommand:
    def test_table_with_plan(self, capsys):
        code, out, _ = run(
            capsys, "de", "--preset", "example4", "--n-unclustered", "128"
        )
        assert code == 0
        assert table_value(out, "design effect") == "1.816"
        assert table_value(out, "baseline r") == "0.211"
        assert table_value(out, "observations") == "232.421 -> 233"

    def test_cohort_wedge_plan_json(self, capsys):
        code, out, _ = run(
            capsys,
            "de",
            "--preset",
            "example7",
            "--n-unclustered",
            "34",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["design_effect"] == pytest.approx(0.8882242990654206, rel=1e-12)
        assert payload["baseline_r"] == pytest.approx(0.5285714285714286, rel=1e-12)
        plan = payload["plan"]
        assert plan["observations_raw"] == pytest.approx(90.5988785046729, rel=1e-12)
        assert plan["participants_raw"] == pytest.approx(30.1996261682243, rel=1e-12)
        assert plan["participants"] == 31

    def test_wedge_plan_counts_all_measurements(self, capsys):
        code, out, _ = run(
            capsys, "de", "--preset", "example6", "--n-unclustered", "34",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["plan"]["observations"] == 116
        assert payload["plan"]["participants"] == 116

    def test_unclustered_design(self, capsys):
        code, out, _ = run(
            capsys, "de", "--preset", "example1", "--n-unclustered", "34",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["design_effect"] == 1.0
        assert payload["plan"]["observations"] == 34

    @pytest.mark.parametrize("name,exponent", [("example2", 400), ("example6", 308)])
    def test_plan_past_the_float_range_is_one_error(self, capsys, name, exponent):
        # 10**400 is no float; 10**308 is, but its plan overflows
        code, out, err = run(
            capsys, "de", "--preset", name, "--n-unclustered", str(10**exponent)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: n_unclustered is too large")
        assert err.count("\n") == 1

    def test_no_closed_form_for_mixed_sizes(self, capsys):
        code, _, err = run(capsys, "de", "--preset", "example2_51")
        assert code == 2
        assert "common cluster size" in err

    # example6 and example7 as spec documents
    WEDGES = {
        "swd_xsec": {"cac": 1.0, "clusters_per_step": [4, 4]},
        "swd_cohort": {"cac": 0.4, "sac": 0.6, "clusters_per_step": [3, 3]},
    }

    @classmethod
    def wedge_document(cls, kind, steps_k=2, per_step_t=1, **change):
        values = {**cls.WEDGES[kind], **change}
        return {
            "design": {
                "kind": kind,
                "steps_k": steps_k,
                "baseline_b": 1,
                "per_step_t": per_step_t,
                "clusters_per_step": values.pop("clusters_per_step"),
                "cluster_size": 5,
                "means": [54.0, 59.0],
            },
            "correlation": {"sigma_y_sq": 25.0, "icc": 0.1, **values},
        }

    @pytest.mark.parametrize(
        "kind,change",
        [
            ("swd_xsec", {"cac": 0.5}),
            ("swd_xsec", {"clusters_per_step": [1, 7]}),
            ("swd_cohort", {"clusters_per_step": [1, 5]}),
        ],
    )
    def test_wedge_closed_forms_give_the_gls_variance(
        self, capsys, tmp_path, kind, change
    ):
        # the named wedge formulas assume cac = 1 (cross-sectional) and
        # equal clusters per step; elsewhere de answers with the exact form
        doc = self.wedge_document(kind, **change)
        path = tmp_path / "wedge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "de", "--spec", str(path), "--format", "json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["formula"] == "hussey_hughes"
        spec, params, _ = decode_spec_document(doc)
        n_clusters = cell_table(spec).n_clusters
        unclustered = 4.0 * params.sigma_y_sq / (n_clusters * spec.cluster_size)
        gls = engine.evaluate(spec, params).fit.variance
        assert payload["design_effect"] * unclustered == pytest.approx(gls, rel=1e-12)

    @pytest.mark.parametrize("kind", sorted(WEDGES))
    def test_single_step_wedge_refused(self, capsys, tmp_path, kind):
        # one step leaves exposure confounded with time on both routes
        doc = self.wedge_document(kind, steps_k=1, per_step_t=2, clusters_per_step=[6])
        path = tmp_path / "wedge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "de", "--spec", str(path))
        assert code == 2 and out == ""
        assert err == (
            "error: stepped wedge design effect needs at least 2 steps; a single "
            "step leaves exposure confounded with time\n"
        )
        assert run(capsys, "power", "--spec", str(path))[0] == 2

    @pytest.mark.parametrize("steps_k,clusters", [(2, [3, 3]), (3, [2, 2, 2])])
    def test_cohort_without_measurement_variance_refused(
        self, capsys, tmp_path, steps_k, clusters
    ):
        # cac = sac = 1 leaves a cohort no measurement-level variance; the
        # closed forms at T = 3 (three_measurement) and T = 4
        # (hussey_hughes) refuse it as power does
        doc = self.wedge_document(
            "swd_cohort", steps_k=steps_k, cac=1.0, sac=1.0, clusters_per_step=clusters
        )
        path = tmp_path / "wedge.json"
        path.write_text(json.dumps(doc))
        message = (
            "error: cluster covariance is singular; the correlation parameters "
            "leave no measurement-level variation\n"
        )
        for argv in (["de"], ["de", "--n-unclustered", "34"], ["power"]):
            code, out, err = run(capsys, argv[0], "--spec", str(path), *argv[1:])
            assert (code, out, err) == (2, "", message), argv

    def test_small_figures_keep_three_significant_digits(self, capsys, tmp_path):
        # 50 steps of 50 periods after one baseline, T = 2501: three
        # decimals would print 0.001 for both small figures
        doc = self.wedge_document(
            "swd_xsec", steps_k=50, per_step_t=50, clusters_per_step=[1] * 50
        )
        path = tmp_path / "wedge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "de", "--spec", str(path))
        assert code == 0 and err == ""
        rows = map(str.split, out.splitlines())
        figures = {" ".join(words[:-1]): words[-1] for words in rows}
        assert figures["formula"] == "stepped_wedge"
        assert figures["design effect"] == "0.00108"
        assert figures["cluster_adjustment"] == "1.998"
        assert figures["crossover_efficiency"] == "0.000540"
        code, out, _ = run(capsys, "de", "--spec", str(path), "--format", "json")
        payload = json.loads(out)
        assert payload["design_effect"] == pytest.approx(0.001079224793365622, rel=1e-12)
        assert payload["factors"]["crossover_efficiency"] == pytest.approx(
            0.0005402160864345738, rel=1e-12
        )


class TestMcCommand:
    def test_table_deterministic(self, capsys):
        args = ("mc", "--preset", "example1", "--reps", "400", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert table_value(out1, "replicates") == "400"

    def test_json_reports_analytic_reference(self, capsys):
        code, out, _ = run(
            capsys,
            "mc", "--preset", "example2", "--reps", "2000", "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["replicates"] == 2000
        assert payload["analytic"] == pytest.approx(0.830786060282071, rel=1e-10)
        assert abs(payload["estimate"] - payload["analytic"]) <= 4 * 0.0084 + 0.034
        assert payload["ci95"][0] <= payload["estimate"] <= payload["ci95"][1]
        se = (payload["analytic"] * (1 - payload["analytic"]) / 2000) ** 0.5
        assert payload["z"] == pytest.approx(
            (payload["estimate"] - payload["analytic"]) / se, rel=1e-12
        )

    def test_table_reports_z(self, capsys):
        args = ("mc", "--preset", "example2", "--reps", "2000", "--seed", "1")
        _, out, _ = run(capsys, *args)
        _, js, _ = run(capsys, *args, "--format", "json")
        assert table_value(out, "z vs analytic") == f"{json.loads(js)['z']:.2f}"

    def test_bad_reps(self, capsys):
        code, _, err = run(capsys, "mc", "--preset", "example1", "--reps", "0")
        assert code == 2
        assert "replicates" in err


class TestDatasetCommand:
    def test_csv_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "dataset", "--preset", "example6", "--format", "csv"
        )
        assert code == 0
        spec, _ = get_preset("example6")
        assert_same_dataset(dataset_from_csv(out), exemplary_dataset(spec))

    def test_table_head(self, capsys):
        code, out, _ = run(capsys, "dataset", "--preset", "example1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("design")
        assert len(lines) == 35
        assert "rct_post" in lines[1]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "dataset", "--preset", "example2", "--format", "csv",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        spec, _ = get_preset("example2")
        assert_same_dataset(dataset_from_csv(target.read_text()), exemplary_dataset(spec))

    def test_unwritable_out(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "dataset", "--preset", "example2",
            "--out", str(tmp_path / "missing" / "rows.csv"),
        )
        assert code == 1
        assert "error:" in err


class TestVmatrixCommand:
    def test_single_occasion_table(self, capsys):
        code, out, _ = run(capsys, "vmatrix", "--preset", "example2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[0].split() == ["25.0", "2.5", "2.5", "2.5", "2.5", "2.5"]

    def test_correlation_table(self, capsys):
        code, out, _ = run(
            capsys, "vmatrix", "--preset", "example2", "--correlation"
        )
        assert code == 0
        assert out.splitlines()[0].split() == ["1.0", "0.1", "0.1", "0.1", "0.1", "0.1"]

    def test_cohort_wedge_entries(self, capsys):
        code, out, _ = run(capsys, "vmatrix", "--preset", "example7")
        assert code == 0
        first = out.splitlines()[0].split()
        assert first[:6] == ["25.0", "14.5", "14.5", "2.5", "1.0", "1.0"]

    def test_csv_precision(self, capsys):
        code, out, _ = run(
            capsys, "vmatrix", "--preset", "example5", "--format", "csv"
        )
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()]
        assert len(rows) == 20
        assert rows[0][0] == 25.0
        assert rows[0][1] == 14.5

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("matrix", [[], ["--correlation"]])
    def test_json_is_json_dumps_of_the_matrix(self, capsys, name, matrix):
        # the JSON is written a row at a time, byte for byte what
        # json.dumps writes for the whole matrix
        spec, params = get_preset(name)
        comps = engine.variance_components(spec, params)
        expected = correlation.build_cluster_v(cell_table(spec), comps)
        if matrix:
            expected = correlation.vcorr(expected)
        code, out, _ = run(capsys, "vmatrix", "--preset", name, "--format", "json", *matrix)
        assert code == 0
        assert out == json.dumps({"matrix": expected.tolist()}, indent=2) + "\n"

    def test_json_of_a_matrix_of_mixed_signs(self, capsys, monkeypatch):
        values = [[1.5, -0.0, -2.25e-300], [-7.0, 0.1, 5e-324], [1e308, -1.0 / 3.0, 2.0]]
        mixed = np.array(values)
        monkeypatch.setattr(correlation, "build_cluster_v", lambda *args: mixed)
        code, out, _ = run(capsys, "vmatrix", "--preset", "example2", "--format", "json")
        assert code == 0
        assert out == json.dumps({"matrix": values}, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("size", [1, 64, 130])
    @pytest.mark.parametrize("matrix", [[], ["--correlation"]])
    def test_blocks_write_the_text_of_the_whole_matrix(
        self, capsys, tmp_path, fmt, size, matrix
    ):
        # rows are formatted a block at a time, across block edges here; the
        # text, on stdout or in a file, is what the whole matrix formats to
        doc = {
            "design": {
                "kind": "crt_post",
                "clusters_per_arm": [2, 2],
                "cluster_size": size,
                "means": [[59.0], [54.0]],
            },
            "correlation": {"sigma_y_sq": 23.3, "icc": 0.137},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        spec, params, _ = decode_spec_document(doc)
        comps = engine.variance_components(spec, params)
        expected = correlation.build_cluster_v(cell_table(spec), comps)
        if matrix:
            expected = correlation.vcorr(expected)
        argv = ("vmatrix", "--spec", str(path), "--format", fmt, *matrix)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == whole_matrix_text(expected, fmt)
        written = tmp_path / "matrix.txt"
        assert run(capsys, *argv, "--out", str(written)) == (0, "", "")
        assert written.read_text(encoding="utf-8") == out

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
    def test_json_of_a_full_size_cluster_holds_no_whole_text(self, tmp_path):
        # 1,998 rows of 17-digit entries are 104 MB of JSON; written a block
        # of rows at a time the process peaks near the 32 MB matrix, where
        # the whole text and its row strings took it to about 260 MB
        doc = {
            "design": {
                "kind": "crt_post",
                "clusters_per_arm": [2, 2],
                "cluster_size": 1998,
                "means": [[59.0], [54.0]],
            },
            "correlation": {"sigma_y_sq": 23.3, "icc": 0.137},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from wedgepower import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        out = tmp_path / "matrix.json"
        argv = ["vmatrix", "--spec", str(path), "--format", "json", "--out", str(out)]
        source = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", child, *argv],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": str(source)},
        )
        code, peak_kib = map(int, done.stdout.split())
        assert (code, done.stderr) == (0, "")
        assert out.stat().st_size > 100e6
        assert peak_kib < 160 * 1024

    def test_cluster_index_selects_size(self, capsys):
        code, out, _ = run(
            capsys, "vmatrix", "--preset", "example2_51", "--cluster-index", "3"
        )
        assert code == 0
        assert len(out.splitlines()) == 6  # third cluster has 6 subjects

    def test_cluster_index_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "vmatrix", "--preset", "example2", "--cluster-index", "10"
        )
        assert code == 2
        assert "--cluster-index" in err


class TestSpecDocuments:
    def doc(self):
        return {
            "design": {
                "kind": "crt_post",
                "clusters_per_arm": [5, 4],
                "cluster_size": 6,
                "means": [[59.0], [54.0]],
            },
            "correlation": {"sigma_y_sq": 25.0, "icc": 0.1},
            "analysis": {"alpha": 0.05},
        }

    def over_cap_doc(self):
        # 13,000 subject rows per cluster, over MAX_MATRIX_ROWS
        return {
            "design": {
                "kind": "swd_cohort",
                "steps_k": 6,
                "baseline_b": 1,
                "per_step_t": 2,
                "clusters_per_step": [1] * 6,
                "cluster_size": 1000,
                "means": [54.0, 55.0],
            },
            "correlation": {"sigma_y_sq": 25.0, "icc": 0.05, "cac": 0.6, "sac": 0.5},
        }

    def write_doc(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_spec_file_matches_preset(self, capsys, tmp_path):
        path = self.write_doc(tmp_path, self.doc())
        code, from_file, _ = run(capsys, "power", "--spec", path, "--format", "json")
        _, from_preset, _ = run(
            capsys, "power", "--preset", "example2", "--format", "json"
        )
        assert code == 0
        assert json.loads(from_file) == json.loads(from_preset)

    def test_mc_runs_over_the_row_cap(self, capsys, tmp_path):
        # only the cell draws can run it
        path = self.write_doc(tmp_path, self.over_cap_doc())
        code, out, err = run(
            capsys, "mc", "--spec", path, "--reps", "500", "--seed", "1", "--format", "json"
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["design"] == "swd_cohort"
        assert payload["replicates"] == 500
        assert 0.0 <= payload["estimate"] <= 1.0

    def test_dataset_runs_over_the_row_cap(self, capsys, tmp_path):
        # the dataset is rows, not a covariance: no cap applies
        path = self.write_doc(tmp_path, self.over_cap_doc())
        code, out, err = run(capsys, "dataset", "--spec", path, "--format", "csv")
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "design,arm,cluster_id,subject_id,time,intervene,mean"
        assert len(lines) == 1 + 6 * 1000 * 13

    def test_document_policy_honored(self, capsys, tmp_path):
        doc = self.doc()
        doc["analysis"]["ddf_policy"] = "residual"
        path = self.write_doc(tmp_path, doc)
        _, out, _ = run(capsys, "power", "--spec", path, "--format", "json")
        assert json.loads(out)["ddf"] == 52

    def test_flag_overrides_document_policy(self, capsys, tmp_path):
        doc = self.doc()
        doc["analysis"]["ddf_policy"] = "residual"
        path = self.write_doc(tmp_path, doc)
        _, out, _ = run(
            capsys, "power", "--spec", path, "--ddf-policy", "containment",
            "--format", "json",
        )
        assert json.loads(out)["ddf"] == 45

    def test_invalid_document_lists_all_errors(self, capsys, tmp_path):
        doc = self.doc()
        del doc["correlation"]["icc"]
        doc["design"]["cluster_size"] = "six"
        path = self.write_doc(tmp_path, doc)
        code, _, err = run(capsys, "power", "--spec", path)
        assert code == 2
        assert "correlation.icc" in err
        assert "design.cluster_size" in err
        assert err.count("error:") >= 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "power", "--spec", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_file_not_utf8_named(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(json.dumps(self.doc()).encode("utf-16"))
        for command in ("de", "power", "mc", "dataset", "vmatrix"):
            code, _, err = run(capsys, command, "--spec", str(path))
            assert code == 2
            assert err.startswith(f"error: {path}: not valid JSON ('utf-8' codec")

    def test_infinite_variance_names_finiteness(self, capsys, tmp_path):
        doc = self.doc()
        doc["correlation"]["sigma_y_sq"] = float("inf")
        path = self.write_doc(tmp_path, doc)
        assert "Infinity" in Path(path).read_text()
        code, _, err = run(capsys, "power", "--spec", path)
        assert code == 2
        assert err == (
            "error: correlation: sigma_y_sq must be a finite positive number, got inf\n"
        )

    @pytest.mark.parametrize("field", ["cac", "sac"])
    @pytest.mark.parametrize("command", ["de", "power", "mc", "dataset", "vmatrix"])
    def test_null_share_is_refused_by_name(self, capsys, tmp_path, command, field):
        doc = self.doc()
        doc["correlation"][field] = None
        path = self.write_doc(tmp_path, doc)
        code, out, err = run(capsys, command, "--spec", path)
        assert (code, out) == (2, "")
        assert err == f"error: correlation: {field} must lie in [0, 1], got None\n"

    def test_non_number_values_get_the_checks_wording(self, capsys, tmp_path):
        doc = self.doc()
        doc["correlation"].update(icc=True, cac="0.4")
        doc["analysis"]["alpha"] = [0.05]
        path = self.write_doc(tmp_path, doc)
        code, _, err = run(capsys, "power", "--spec", path)
        assert code == 2
        assert err == (
            "error: correlation: icc must lie in [0, 1), got True; "
            "cac must lie in [0, 1], got '0.4'\n"
            "error: analysis.alpha: must be a real number in (0, 1), got [0.05]\n"
        )

    @pytest.mark.parametrize("size", [2**62, 2**63])
    @pytest.mark.parametrize("command", ["de", "power", "mc", "dataset", "vmatrix"])
    def test_uncountable_design_is_refused(self, capsys, tmp_path, command, size):
        doc = self.doc()
        doc["design"]["cluster_size"] = size
        path = self.write_doc(tmp_path, doc)
        code, out, err = run(capsys, command, "--spec", path)
        assert (code, out) == (2, "")
        assert err == (
            f"error: design: {9 * size} observations, more than floats count "
            "exactly (2**53)\n"
        )

    @pytest.mark.parametrize("command", ["power", "mc"])
    def test_noncentrality_past_exact_counts_is_refused(self, capsys, tmp_path, command):
        doc = self.doc()
        doc["design"]["means"] = [[2**62], [54.0]]
        path = self.write_doc(tmp_path, doc)
        code, out, err = run(capsys, command, "--spec", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: noncentrality must be finite, >= 0 and at most 2**53")

    @pytest.mark.parametrize("command", ["power", "mc"])
    def test_ddf_beyond_the_f_tail_is_refused(self, capsys, tmp_path, command):
        doc = self.doc()
        doc["design"]["cluster_size"] = 2**40
        path = self.write_doc(tmp_path, doc)
        code, out, err = run(capsys, command, "--spec", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ddf must be at most 10**10")

    @pytest.mark.parametrize("command", ["power", "mc", "de", "vmatrix"])
    def test_billions_of_subjects_get_an_answer(self, capsys, tmp_path, command):
        # nothing on these paths is built per subject or per cluster
        doc = {
            "design": {
                "kind": "rct_post",
                "per_group_n": 10**9,
                "means": [[59.0], [58.999]],
            },
            "correlation": {"sigma_y_sq": 25.0, "icc": 0.0},
        }
        path = self.write_doc(tmp_path, doc)
        code, out, err = run(capsys, command, "--spec", path, "--format", "json")
        assert (code, err) == (0, "")
        if command == "power":
            payload = json.loads(out)
            assert payload["ddf"] == 2 * 10**9 - 2
            assert 0.05 < payload["power"] < 1.0

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_dataset_over_the_row_limit_is_refused(self, capsys, tmp_path, fmt):
        doc = self.doc()
        doc["design"]["cluster_size"] = MAX_DATASET_ROWS // 9 + 1
        path = self.write_doc(tmp_path, doc)
        code, out, err = run(capsys, "dataset", "--spec", path, "--format", fmt)
        assert (code, out) == (2, "")
        rows = 9 * (MAX_DATASET_ROWS // 9 + 1)
        assert err == (
            f"error: exemplary dataset would have {rows} rows; limit is {MAX_DATASET_ROWS}\n"
        )

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "power", "--spec", str(tmp_path / "absent.json")
        )
        assert code == 1
        assert "error:" in err


# one design document per kind that refuses some correlation input
REFUSING_DESIGNS = {
    "crt_post": {"clusters_per_arm": [5, 4], "cluster_size": 6, "means": [[59], [54]]},
    "crt_prepost_xsec": {
        "clusters_per_arm": [6, 6],
        "cluster_size": 10,
        "means": [[54, 56], [54, 61]],
    },
    "swd_xsec": {
        "steps_k": 2,
        "baseline_b": 1,
        "per_step_t": 1,
        "clusters_per_step": [4, 4],
        "cluster_size": 5,
        "means": [54, 59],
    },
    "rct_post": {"per_group_n": 17, "means": [[59], [54]]},
    "rct_prepost": {"per_group_n": 32, "means": [[54, 56], [54, 61]]},
}


refusing_inputs = pytest.mark.parametrize(
    "kind, correlation",
    [(kind, {"icc": 0.0 if kind.startswith("rct") else 0.1, "sac": 0.5})
     for kind in REFUSING_DESIGNS]
    + [("rct_post", {"icc": 0.2}), ("rct_prepost", {"icc": 0.2})],
    ids=[f"{kind}-sac" for kind in REFUSING_DESIGNS] + ["rct_post-icc", "rct_prepost-icc"],
)


def refusals_match_power(capsys, tmp_path, command, kind, correlation):
    doc = {
        "design": {"kind": kind, **REFUSING_DESIGNS[kind]},
        "correlation": {"sigma_y_sq": 25.0, **correlation},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--spec", str(path))
    power_code, _, power_err = run(capsys, "power", "--spec", str(path))
    assert code == power_code == 2
    assert out == ""
    assert err == power_err
    assert re.match(r"error: (sac|.*icc) must be 0", err), err


@refusing_inputs
def test_de_refuses_what_power_refuses(capsys, tmp_path, kind, correlation):
    refusals_match_power(capsys, tmp_path, "de", kind, correlation)


@refusing_inputs
def test_vmatrix_refuses_what_power_refuses(capsys, tmp_path, kind, correlation):
    refusals_match_power(capsys, tmp_path, "vmatrix", kind, correlation)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "doc, design_effect",
    [
        (TestDeCommand.wedge_document("swd_xsec"), "1.137"),
        (TestSpecDocuments().doc(), "1.500"),
    ],
    ids=["swd_xsec", "crt_post"],
)
def test_subnormal_variance_refused_in_one_line(capsys, tmp_path, doc, design_effect):
    # a subnormal sigma_y_sq makes 1 / b overflow: power and mc refuse it
    # with one line and no numpy warning, and de, which does not depend on
    # the variance's scale, still answers
    doc = {**doc, "correlation": {**doc["correlation"], "sigma_y_sq": 1e-310}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    for argv in (["power"], ["mc", "--reps", "100"]):
        outcome = run(capsys, argv[0], "--spec", str(path), *argv[1:])
        assert outcome == (2, "", "error: information matrix is singular\n"), argv
    code, out, err = run(capsys, "de", "--spec", str(path))
    assert (code, err) == (0, "")
    assert table_value(out, "design effect") == design_effect


def test_output_corpus_ends_every_command_in_a_status():
    # cli_corpus.py digests these commands' output to compare two
    # checkouts; each must answer or refuse with status 2, help and
    # usage exits included, never raise
    argvs = list(cli_corpus.commands())
    assert len(argvs) == 663
    with cli_corpus.spec_documents():
        assert {cli_corpus.run(argv)[0] for argv in argvs} <= {0, 2}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "command, fmt", [("de", "csv"), ("mc", "csv"), ("dataset", "json")]
    )
    def test_format_the_command_does_not_write(self, capsys, command, fmt):
        with pytest.raises(SystemExit) as info:
            main([command, "--preset", "example2", "--format", fmt])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_audit_refused_as_csv(self, capsys):
        code, out, err = run(
            capsys, "power", "--preset", "example2", "--audit", "--format", "csv"
        )
        assert (code, out) == (2, "")
        assert err == "error: --audit is not available with --format csv\n"

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "power", "--preset", "example99")
        assert code == 2
        assert "unknown preset" in err

    def test_scenario_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["power"])
        assert info.value.code == 2

    def test_preset_and_spec_exclusive(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["power", "--preset", "example1", "--spec", "x.json"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("mc", "--reps", "-5"), "--reps: the number of replicates must be >= 1, got -5"),
            (("mc", "--seed", "-1"), "--seed: must be >= 0, got -1"),
            (("mc", "--seed", str(2**64)), f"--seed: must fit in 64 bits, got {2**64}"),
            (("de", "--n-unclustered", "0"), "--n-unclustered: must be >= 1, got 0"),
        ],
    )
    def test_range_errors_name_the_flag(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--preset", "example2")
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


def outcome(capsys, argv):
    """Exit status, stdout and stderr of main(argv), usage exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_process(argv):
    """Exit status, stdout and stderr of one command in a new interpreter."""
    source = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "wedgepower.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(source)},
    )
    return done.returncode, done.stdout, done.stderr


class TestSharedParser:
    def test_full_parser_names_the_command_argument(self, capsys):
        # a metavar on the parser would name {de,...} here instead
        code, _, err = outcome(capsys, ())
        assert code == 2
        assert err.endswith("error: the following arguments are required: command\n")
        code, _, err = outcome(capsys, ("bogus",))
        assert code == 2
        assert "error: argument command: invalid choice: 'bogus'" in err

    @pytest.mark.parametrize("argv", list(cli_corpus.parser_commands()), ids=" ".join)
    def test_matches_a_new_parser(self, capsys, monkeypatch, argv):
        # after commands that set every stateful option, the module's
        # parser answers, helps and refuses as a newly built one does
        power = ("power", "--preset", "example6", "--audit", "--format", "json")
        outcome(capsys, (*power, "--alpha", "0.01", "--ddf-policy", "residual"))
        outcome(capsys, ("mc", "--preset", "example2", "--seed", "5", "--reps", "300"))
        shared = outcome(capsys, argv)
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        assert outcome(capsys, argv) == shared

    def test_commands_build_no_parser(self, capsys, monkeypatch):
        # the module's one parser serves every call, help and errors too
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        scenario = ("--preset", "example2")
        commands = [
            ("power", *scenario),
            ("power", *scenario, "--audit", "--format", "json"),
            ("mc", *scenario, "--reps", "100"),
            ("de", *scenario),
            ("dataset", *scenario, "--format", "csv"),
            ("vmatrix", *scenario),
            ("--help",),
            ("power", "--help"),
            ("power", *scenario, "--bogus"),
        ]
        for argv in commands:
            outcome(capsys, argv)
        assert built == []

    @pytest.mark.parametrize(
        "before, argv",
        [
            (
                [("power", "--preset", "example6", "--audit", "--format", "json")],
                ("power", "--preset", "example6", "--format", "json"),
            ),
            (
                [("mc", "--preset", "example2", "--seed", "5", "--reps", "300")],
                ("mc", "--preset", "example2", "--reps", "300"),
            ),
            (
                [("power", "--preset", "example2", "--alpha", "0.01")],
                ("power", "--preset", "example2"),
            ),
            (
                [("power", "--preset", "example6", "--ddf-policy", "residual")],
                ("power", "--preset", "example6"),
            ),
            (
                [("de", "--preset", "example2"), ("de", "--help")],
                ("de", "--preset", "example2", "--n-unclustered", "34"),
            ),
            (
                [("power", "--preset", "example2"), ("power", "--format", "xml")],
                ("power", "--preset", "example2", "--format", "csv"),
            ),
        ],
        ids=["audit", "seed", "alpha", "ddf-policy", "help", "usage-error"],
    )
    def test_no_state_carries_to_the_next_command(self, capsys, before, argv):
        # the command after others in one process answers as in a new one
        for earlier in before:
            outcome(capsys, earlier)
        assert outcome(capsys, argv) == fresh_process(argv)


@pytest.mark.parametrize(
    "argv, layouts",
    [
        (("de", "--preset", "example7", "--n-unclustered", "100"), 2),
        (("power", "--preset", "example6", "--audit", "--format", "json"), 1),
    ],
)
def test_command_lays_its_design_out_once_per_need(capsys, monkeypatch, argv, layouts):
    # the count check lays the design out; de reads its plan's period count
    # once more, and power's audit takes it from the cell table it holds
    built = []
    layout = designs._layout

    def counted(spec):
        built.append(spec)
        return layout(spec)

    monkeypatch.setattr(designs, "_layout", counted)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(built) == layouts


def test_import_leaves_logging_unloaded():
    # only the inverse F's bisection fallback logs, so only it imports
    # logging, which a fresh process would otherwise pay for on every command
    source = Path(cli.__file__).resolve().parents[1]
    code = "import sys, wedgepower.cli; print('logging' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(source)},
    )
    assert (done.stdout, done.stderr) == ("False\n", "")
