"""Layout rules for the package source."""

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
