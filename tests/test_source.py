"""Layout rules for the package source."""

import ast
import re
from pathlib import Path

import wedgepower

MAX_LINE = 90
SOURCE = Path(wedgepower.__file__).parent
KIND_STRINGS = "|".join(kind.value for kind in wedgepower.DesignKind)


def test_no_source_line_is_over_90_characters():
    # keeps line counts honest: code is not packed onto fewer, longer lines
    long_lines = [
        f"{path.name}:{number}: {len(line)}"
        for path in sorted(SOURCE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def _lines_matching(pattern: str, *names: str) -> list[str]:
    banned = re.compile(pattern)
    return [
        f"{name}:{number}: {line.strip()}"
        for name in names
        for number, line in enumerate(
            (SOURCE / name).read_text(encoding="utf-8").splitlines(), 1
        )
        if banned.search(line)
    ]


def test_covariance_and_simulation_name_no_design_kind():
    # designs is the one module that turns a kind into structure: the
    # covariance blocks and the simulation read it from the cell table
    pattern = r"DesignKind|_KINDS|\.kind\b|" + KIND_STRINGS
    assert _lines_matching(pattern, "correlation.py", "mc.py") == []


def test_cli_reads_no_kind_set():
    # the command line prints a spec's kind but takes its structure from
    # designs and its plan conversion from the closed form's name
    assert _lines_matching(r"DesignKind|_KINDS", "cli.py") == []


def test_engine_and_design_effects_read_kind_traits():
    # designs holds the one kind catalog: the analysis rules and the
    # closed forms read a kind's traits from it, never the kind itself
    pattern = r"DesignKind|_KINDS|" + KIND_STRINGS
    assert _lines_matching(pattern, "engine.py", "design_effects.py") == []


def test_cli_reads_no_closed_form_limit():
    # design_effects alone decides which closed form covers a design, and
    # lists those that count per period; the command line prints its
    # answer and never reads the inputs it weighs or names a formula
    pattern = (
        r"\.cac\b|\.sac\b|clusters_per_step|"
        r"stepped_wedge|three_measurement|hussey_hughes"
    )
    assert _lines_matching(pattern, "cli.py") == []


def test_evaluation_reads_runs_not_clusters():
    # the evaluation path works on the cell table's runs of clusters; a
    # per-cluster list would grow with designs of 10**9 clusters
    pattern = r"cluster_pattern|cluster_subject_counts"
    modules = ("engine.py", "mc.py", "design_effects.py", "correlation.py", "cli.py")
    assert _lines_matching(pattern, *modules) == []


def test_only_designs_reads_a_count_field():
    # designs lays a spec out once, in the layout its count check
    # returns; every other module reads the design's structure from
    # that layout or the cell table, never from the count fields
    fields = {
        "steps_k", "baseline_b", "per_step_t", "clusters_per_step",
        "clusters_per_arm", "per_group_n", "cluster_size",
    }
    found = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "designs.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in fields
    ]
    assert found == []


def test_fit_and_projection_use_no_einsum():
    # an einsum of three operands without a path runs numpy's nested
    # loop, not BLAS: the fit and the Monte Carlo projection contract the
    # cell rows with matrix products instead
    assert _lines_matching(r"einsum", "engine.py", "mc.py") == []


def test_package_calls_no_numpy_2_only_function():
    # pyproject.toml allows numpy >= 1.24, which has none of these
    pattern = (
        r"np\.(vecdot|matvec|vecmat|unstack|cumulative_sum|cumulative_prod"
        r"|permute_dims|matrix_transpose|isdtype|concat)\b"
    )
    modules = sorted(path.name for path in SOURCE.glob("*.py"))
    assert _lines_matching(pattern, *modules) == []


def test_spread_factors_no_covariance():
    # the Monte Carlo spread is a_k (1'w_k)^2 + b_k |w_k|^2 per pattern:
    # no cell covariance is built or factored
    assert _lines_matching(r"cholesky|cell_covariance", "engine.py", "mc.py") == []


def test_evaluation_runs_no_svd():
    # full rank is read off the tested column: an SVD over every cell
    # row was the largest fixed cost of an evaluation
    assert _lines_matching(r"matrix_rank|svd", "engine.py") == []


def test_no_module_names_another_modules_private_attribute():
    # a rule that two modules need is public where it lives: no module
    # reaches another's private names, by attribute or by import
    modules = {path.stem for path in SOURCE.glob("*.py")}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id in modules else []
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.startswith("_") and not name.endswith("__")
            ]
    assert found == []


def test_dense_oracle_names_no_private_package_attribute():
    # the oracle checks the package's routes, so it must not borrow
    # their private helpers
    oracle = Path(__file__).with_name("dense_oracle.py")
    pattern = re.compile(r"\b(correlation|designs|engine|distributions|mc)\._\w")
    found = [
        f"{number}: {line.strip()}"
        for number, line in enumerate(oracle.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert found == []


def test_f_tail_imports_no_statistics_library():
    # CLI start-up time: every command imports distributions, and importing
    # `statistics` adds about 5.5 ms (python -X importtime) to a `power`
    # command of about 1 ms
    tree = ast.parse((SOURCE / "distributions.py").read_text(encoding="utf-8"))
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    assert imported == {"__future__", "logging", "math", "numbers", "dataclasses"}


def test_correlation_ranges_are_written_once():
    # CorrelationParams is the one check of the correlation values: the
    # decoder and the closed forms rely on it rather than copy its rules
    names = sorted(path.name for path in SOURCE.glob("*.py"))
    for message in (
        "icc must lie in [0, 1)",
        "must lie in [0, 1]",
        "must be a finite positive number",
    ):
        found = _lines_matching(re.escape(message), *names)
        assert len(found) == 1, found


def test_only_main_writes_a_command_output():
    # each handler returns its text, and main writes it once
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    callers = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_emit"
    ]
    assert callers == ["main"]
