"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import math
import re
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from wedgepower import designs, engine  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_generators_are_deterministic_per_seed():
    assert workloads.plan_grid(7, 3) == workloads.plan_grid(7, 3)
    assert workloads.scale_cases(7, 3) == workloads.scale_cases(7, 3)
    assert workloads.cli_commands(7, 3) == workloads.cli_commands(7, 3)
    assert workloads.plan_grid(7, 3) != workloads.plan_grid(8, 3)
    assert workloads.plan_grid(7, 3) != workloads.plan_grid(7, 4)
    assert workloads.scale_cases(7, 3) != workloads.scale_cases(8, 3)
    assert workloads.cli_commands(7, 3) != workloads.cli_commands(8, 3)


def test_plan_grid_covers_every_kind_policy_and_alpha():
    cases = workloads.plan_grid(1, 0)
    assert {c.spec.kind for c in cases} == set(designs.DesignKind)
    assert {c.ddf_policy for c in cases} == set(engine.DDF_POLICIES)
    assert {c.alpha for c in cases} == {0.05, 0.01}
    assert max(c.spec.n_observations for c in cases) <= 1000


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units(workloads.SCALE_DESIGNS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in list(end_to_end) + list(per_layer) + list(run.WORKLOADS):
        assert NAME.fullmatch(name), name


def test_oracle_matches_engine_on_presets():
    for name in sorted(designs.PRESETS):
        spec, params = designs.get_preset(name)
        got = engine.analytic_power(spec, params).noncentrality
        assert math.isclose(oracle.noncentrality(spec, params), got, rel_tol=1e-9), name


def test_oracle_matches_engine_on_generated_designs():
    for case in workloads.plan_grid(3, 0, per_kind=2):
        got = engine.analytic_power(case.spec, case.params, ddf_policy=case.ddf_policy)
        assert math.isclose(case.noncentrality, got.noncentrality, rel_tol=1e-9), case.spec


def test_self_times_on_a_synthetic_span_tree():
    # 0: root [0, 10]
    #   1: [1, 3]   with grandchild 4: [1.5, 2]
    #   2: [2, 5]   overlaps 1, as a child on another thread would
    #   3: [8, 12]  runs past the root's end and is clipped to it
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    own = tracer.self_times(start, end, parent)
    # root: children cover [1, 5] and [8, 10]
    assert own.tolist() == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5])


def test_tracer_wraps_and_restores_module_functions():
    module = types.ModuleType("fake")
    module.__all__ = ["outer", "inner"]

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    inner.__module__ = outer.__module__ = "fake"
    module.inner, module.outer = inner, outer
    assert tracer.public_functions(module) == ["inner", "outer"]

    t = tracer.Tracer()
    for fn in tracer.public_functions(module):
        t.install(module, fn, f"fake.{fn}", lambda c, a, k, r: c.__setitem__("n", c["n"] + r))
    module.outer(1)  # inactive: no span
    t.active = True
    assert module.outer(1) == 4
    t.active = False
    t.uninstall()
    assert module.inner is inner and module.outer is outer

    spans = t.spans()
    assert [t.names[i] for i in spans["name_id"]] == ["fake.outer", "fake.inner"]
    assert spans["parent"].tolist() == [-1, 0]
    summary = t.summary()
    assert summary["fake.outer"]["calls"] == summary["fake.inner"]["calls"] == 1
    assert summary["fake.outer"]["self_s"] <= summary["fake.outer"]["s"]
    assert t.counters["n"] == 4 + 2
