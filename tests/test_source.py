"""Layout rules for the package source."""

import re
from pathlib import Path

import wedgepower

MAX_LINE = 90


def test_no_source_line_is_over_90_characters():
    # keeps line counts honest: code is not packed onto fewer, longer lines
    long_lines = [
        f"{path.name}:{number}: {len(line)}"
        for path in sorted(Path(wedgepower.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def test_covariance_and_simulation_name_no_design_kind():
    # designs is the one module that turns a kind into structure: the
    # covariance blocks and the simulation read it from the cell table
    kinds = [kind.value for kind in wedgepower.DesignKind]
    banned = re.compile(r"DesignKind|_KINDS|\.kind\b|" + "|".join(kinds))
    source = Path(wedgepower.__file__).parent
    found = [
        f"{name}:{number}: {line.strip()}"
        for name in ("correlation.py", "mc.py")
        for number, line in enumerate(
            (source / name).read_text(encoding="utf-8").splitlines(), 1
        )
        if banned.search(line)
    ]
    assert found == []


def test_cli_reads_no_kind_set():
    # the command line prints a spec's kind but takes its structure from
    # designs and its plan conversion from the closed form's name
    source = Path(wedgepower.__file__).parent / "cli.py"
    lines = source.read_text(encoding="utf-8").splitlines()
    found = [
        f"cli.py:{number}: {line.strip()}"
        for number, line in enumerate(lines, 1)
        if re.search(r"DesignKind|_KINDS", line)
    ]
    assert found == []
