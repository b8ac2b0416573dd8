"""Run a fixed corpus of CLI commands in-process and print one digest of it.

The corpus covers every preset: `power` under the default and each
named ddf policy, in every format, with and without `--audit`, at alpha
0.05 and 0.01; `mc` at seeds 1-3 with 20,000 replicates; `de` as a
table and as JSON; `dataset` as a table and as CSV; and `vmatrix` in
every format, as covariance and as correlation, at the first cluster
and, for example2_51's size list, at its last too.  No preset reaches
the Hussey & Hughes closed form, so three spec documents that do, in
SPEC_DOCUMENTS, run `de` as a table, as JSON and with a sample plan,
and `power --audit`; they are written to a temporary directory and
named relative to it, so argv and the digest do not depend on where
it is (run the commands inside `spec_documents()`).  It then pins the
parser's own output: usage, top-level and per-command help, --version,
and the usage errors for a missing or unknown command, an unknown
option, a format the command does not write, a stray argument and a
top-level option after a command.  The
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
import json
import os
import sys
import tempfile
from collections.abc import Iterator

from wedgepower import cli, engine
from wedgepower.designs import PRESETS


def _wedge(kind: str, clusters: list[int], size: int, **correlation) -> dict:
    design = {
        "kind": kind, "steps_k": len(clusters), "baseline_b": 1, "per_step_t": 1,
        "clusters_per_step": clusters, "cluster_size": size, "means": [54.0, 59.0],
    }
    return {"design": design, "correlation": {"sigma_y_sq": 25.0, **correlation}}


# wedges that take the Hussey & Hughes variance: cross-sectional at
# cac 0.5, a cohort of 4 periods, and unequal steps
SPEC_DOCUMENTS = {
    "swd_xsec_cac05.json": _wedge("swd_xsec", [3, 3, 3], 8, icc=0.1, cac=0.5),
    "swd_cohort_t4.json": _wedge("swd_cohort", [2, 2, 2], 5, icc=0.1, cac=0.4, sac=0.6),
    "swd_steps_132.json": _wedge("swd_xsec", [1, 3, 2], 6, icc=0.1, cac=1.0),
}


@contextlib.contextmanager
def spec_documents() -> Iterator[None]:
    """Run the block in a temporary directory holding SPEC_DOCUMENTS."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        for name, doc in SPEC_DOCUMENTS.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        os.chdir(directory)
        try:
            yield
        finally:
            os.chdir(home)


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
    for name in SPEC_DOCUMENTS:
        spec = ["--spec", name]
        yield ["de", *spec]
        yield ["de", *spec, "--format", "json"]
        yield ["de", *spec, "--n-unclustered", "100"]
        yield ["power", *spec, "--audit"]
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
    # top-level options after a command: --version, its abbreviation, and
    # "--=", which abbreviates both --help and --version
    example = ["power", "--preset", "example2"]
    yield from ([*example, "--version"], [*example, "--ver"], [*example, "--=x"])


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
    with spec_documents():
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
