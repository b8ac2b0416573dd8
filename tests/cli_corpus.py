"""Run a fixed corpus of CLI commands in-process and print one digest of it.

The corpus covers every preset: `power` under the default and each
named ddf policy, in every format, with and without `--audit`, at alpha
0.05 and 0.01; `mc` at seeds 1-3 with 20,000 replicates; `de` as a
table and as JSON; `dataset` as a table and as CSV; and `vmatrix` in
every format, as covariance and as correlation, at the first cluster
and, for example2_51's size list, at its last too.  It then pins the
parser's own output: usage, top-level and per-command help, --version,
and the usage errors for a missing or unknown command, an unknown
option, a format the command does not write and a stray argument.  The
digest is one SHA-256 over each command's argv, stdout, stderr and exit
status, a usage exit's included, so two checkouts print the same
digest exactly when every command's output is the same.  Compare a
change with its parent by running this script on each, at one terminal
width, since help wraps to it:

    COLUMNS=80 PYTHONPATH=src python tests/cli_corpus.py [--each]

`--each` also prints one line per command: its status, its own digest
and its argv, for finding the command whose output moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from collections.abc import Iterator

from wedgepower import cli, engine
from wedgepower.designs import PRESETS


def commands() -> Iterator[list[str]]:
    """The corpus's argv lists, in a fixed order."""
    for name in sorted(PRESETS):
        preset = ["--preset", name]
        for policy in (None, *engine.DDF_POLICIES):
            chosen = [] if policy is None else ["--ddf-policy", policy]
            for fmt in ("table", "json", "csv"):
                for audit in ([], ["--audit"]):
                    for alpha in ("0.05", "0.01"):
                        yield [
                            "power", *preset, *chosen, "--format", fmt, *audit,
                            "--alpha", alpha,
                        ]
        for seed in ("1", "2", "3"):
            yield ["mc", *preset, "--seed", seed, "--reps", "20000"]
        for fmt in ("table", "json"):
            yield ["de", *preset, "--format", fmt]
        for fmt in ("table", "csv"):
            yield ["dataset", *preset, "--format", fmt]
        # example2_51's last cluster has 6 subjects, its first 7
        last = [["--cluster-index", "8"]] if name == "example2_51" else []
        for cluster in ([], *last):
            for fmt in ("table", "json", "csv"):
                for matrix in ([], ["--correlation"]):
                    yield ["vmatrix", *preset, *cluster, "--format", fmt, *matrix]
    yield from parser_commands()


def parser_commands() -> Iterator[list[str]]:
    """Help, --version and usage errors, and the valid commands they vary."""
    yield from ([], ["--help"], ["--version"], ["bogus"], ["pow"])
    valid = {
        "de": ["--n-unclustered", "34"],
        "power": ["--audit"],
        "mc": ["--reps", "300"],
        "dataset": ["--format", "csv"],
        "vmatrix": ["--correlation"],
    }
    for command, options in valid.items():
        scenario = [command, "--preset", "example2"]
        yield [command, "--help"]
        yield [command, *options]
        yield [*scenario, "--bogus"]
        yield [*scenario, "--format", "xml"]
        yield [*scenario, "stray"]
        yield [*scenario, *options]


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of one command run through cli.main,
    the status of a help, version or usage exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _record(argv: list[str], status: int, out: str, err: str) -> bytes:
    fields = ("\0".join(argv), out, err, str(status))
    return "\1".join(fields).encode() + b"\2"


def main(args: list[str]) -> int:
    each = "--each" in args
    digest = hashlib.sha256()
    count = 0
    for argv in commands():
        status, out, err = run(argv)
        record = _record(argv, status, out, err)
        digest.update(record)
        count += 1
        if each:
            print(status, hashlib.sha256(record).hexdigest()[:16], " ".join(argv))
    print(f"{count} commands")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
