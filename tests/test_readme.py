"""The README's command line examples print what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from wedgepower.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```sh\n\$ wedgepower ([^\n]*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)
EXAMPLES = BLOCK.findall(README.read_text(encoding="utf-8"))


def test_readme_has_its_examples():
    assert [command for command, _ in EXAMPLES] == [
        "power --preset example2",
        "de --preset example7 --n-unclustered 34",
        "mc --preset example1 --reps 2000 --seed 7",
    ]


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_output_matches(capsys, command, shown):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == shown
