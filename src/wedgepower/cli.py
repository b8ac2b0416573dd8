"""Command line interface.

Subcommands:
    de       closed-form design effect and optional sample size plan
    power    analytic power by direct GLS evaluation
    mc       Monte Carlo empirical power
    dataset  exemplary dataset as CSV or a table
    vmatrix  one cluster's covariance (or correlation) matrix

Every subcommand takes a scenario, either --preset NAME (built in) or
--spec FILE (a JSON document with design, correlation, and analysis
sections).  --format offers only what a subcommand writes: table and
json for de and mc, table and csv for dataset, and table, json and csv
for power (--audit not as csv) and vmatrix.  Exit status is 0 on
success, 2 on a validation or usage problem, 1 on an I/O failure.

The parser is built once, at import, and every main call parses with it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import __version__, correlation, design_effects, designs, engine, mc

_FORMATS = ("table", "json", "csv")
# rows of a cluster matrix that vmatrix formats at once
_MATRIX_BLOCK_ROWS = 64


def _add_scenario_options(
    parser: argparse.ArgumentParser, formats: tuple[str, ...] = _FORMATS
) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--preset",
        metavar="NAME",
        help=f"built-in scenario ({', '.join(sorted(designs.PRESETS))})",
    )
    source.add_argument(
        "--spec", metavar="FILE", help="JSON scenario document to load"
    )
    parser.add_argument(
        "--alpha", type=float, default=None, help="override the type I error rate"
    )
    parser.add_argument(
        "--format",
        choices=formats,
        default="table",
        dest="fmt",
        help="output format (default table)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="write output to a file"
    )


def _de_options(parser: argparse.ArgumentParser) -> None:
    _add_scenario_options(parser, ("table", "json"))
    parser.add_argument(
        "--n-unclustered",
        type=int,
        default=None,
        metavar="N",
        help="unclustered total to inflate into a sample size plan",
    )


def _ddf_policy_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ddf-policy",
        choices=engine.DDF_POLICIES,
        default=None,
        help="denominator df rule (default depends on the design kind)",
    )


def _power_options(parser: argparse.ArgumentParser) -> None:
    _add_scenario_options(parser)
    _ddf_policy_option(parser)
    parser.add_argument(
        "--audit",
        action="store_true",
        help="also report the fit behind the power figure",
    )


def _mc_options(parser: argparse.ArgumentParser) -> None:
    _add_scenario_options(parser, ("table", "json"))
    _ddf_policy_option(parser)
    parser.add_argument(
        "--reps", type=int, default=20000, help="number of replicates (default 20000)"
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="seed of the run's random stream"
    )


def _dataset_options(parser: argparse.ArgumentParser) -> None:
    _add_scenario_options(parser, ("table", "csv"))


def _vmatrix_options(parser: argparse.ArgumentParser) -> None:
    _add_scenario_options(parser)
    parser.add_argument(
        "--correlation",
        action="store_true",
        help="print the correlation matrix instead of the covariance",
    )
    parser.add_argument(
        "--cluster-index",
        type=int,
        default=1,
        metavar="I",
        help="which cluster, 1-based (default 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, with every subcommand; main parses with one copy.

    Nothing in it depends on the input, and parsing leaves it as it was,
    so the module builds it once at import (_PARSER) and every main call
    in the process reuses it.
    """
    parser = argparse.ArgumentParser(
        prog="wedgepower",
        description="Power and sample size for cluster randomized and "
        "stepped wedge trials.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in _SUBCOMMANDS.items():
        entry.add_options(sub.add_parser(name, help=entry.help))
    return parser


def _flag_error(flag: str, problem: str, value) -> designs.SpecValidationError:
    return designs.SpecValidationError([f"{flag}: {problem}, got {value!r}"])


def _load_scenario(
    args,
) -> tuple[designs.DesignSpec, correlation.CorrelationParams, str | None]:
    if args.preset is not None:
        spec, params = designs.get_preset(args.preset)
        policy = None
    else:
        with open(args.spec, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise designs.SpecValidationError(
                    [f"{args.spec}: not valid JSON ({exc})"]
                ) from None
        spec, params, policy = designs.decode_spec_document(doc)
    if args.alpha is not None:
        if not (0.0 < args.alpha < 1.0):
            raise _flag_error("--alpha", "must lie in (0, 1)", args.alpha)
        spec = dataclasses.replace(spec, alpha=args.alpha)
    return spec, params, policy


def _emit(blocks: Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(blocks)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(blocks)


def _table(rows: list[tuple[str, str]]) -> str:
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows) + "\n"


def _f3(x: float) -> str:
    # a value that rounds to zero prints unsigned, whatever its sign
    text = f"{x:.3f}"
    return "0.000" if text == "-0.000" else text


def _de_figure(x: float) -> str:
    # three decimals, or three significant digits if nonzero and below 0.1
    digits = 3 if x == 0.0 or abs(x) >= 0.1 else 2 - math.floor(math.log10(abs(x)))
    return f"{x:.{digits}f}"


def _cmd_de(args) -> str:
    if args.n_unclustered is not None and args.n_unclustered < 1:
        raise _flag_error("--n-unclustered", "must be >= 1", args.n_unclustered)
    spec, params, _ = _load_scenario(args)
    result = design_effects.design_effect_for(spec, params)
    plan = None
    if args.n_unclustered is not None:
        # the wedge closed forms count comparisons, so every period
        # multiplies the observations; a cohort is measured every period
        per_comparison = result.formula in design_effects.PER_PERIOD_FORMULAS
        cohort = spec.family is correlation.Family.COHORT
        n_times = spec.n_times
        plan = design_effects.inflate_sample_size(
            args.n_unclustered,
            result.value,
            observation_multiplier=float(n_times if per_comparison else 1),
            measurements_per_participant=n_times if cohort else 1,
        )

    if args.fmt == "json":
        payload = {
            "design": spec.kind.value,
            "formula": result.formula,
            "design_effect": result.value,
            "factors": result.factors,
            "baseline_r": result.baseline_r,
        }
        if plan is not None:
            payload["plan"] = dataclasses.asdict(plan)
        return json.dumps(payload, indent=2) + "\n"

    rows = [
        ("design", spec.kind.value),
        ("formula", result.formula),
        ("design effect", _de_figure(result.value)),
    ]
    for name, value in result.factors.items():
        rows.append((f"  {name}", _de_figure(value)))
    if result.baseline_r is not None:
        rows.append(("baseline r", _de_figure(result.baseline_r)))
    if plan is not None:
        rows.append(("unclustered n", str(plan.n_unclustered)))
        rows.append(
            ("observations", f"{plan.observations_raw:.3f} -> {plan.observations}")
        )
        rows.append(
            ("participants", f"{plan.participants_raw:.3f} -> {plan.participants}")
        )
    return _table(rows)


def _power_payload(
    spec: designs.DesignSpec, run: engine.Evaluation, audit: bool
) -> dict:
    result = run.result
    payload = {
        "design": spec.kind.value,
        "ddf_policy": result.ddf_policy,
        "power": result.power,
        "fvalue": result.fvalue,
        "noncentrality": result.noncentrality,
        "fcrit": result.fcrit,
        "ndf": result.ndf,
        "ddf": result.ddf,
        "alpha": result.alpha,
    }
    if audit:
        payload["audit"] = {
            "observations": run.cells.n_observations,
            "clusters": run.cells.n_clusters,
            "times": int(run.cells.first.max()) + run.cells.exposed.shape[1] - 1,
            "contrast": run.contrast,
            "beta": run.fit.beta.tolist(),
            "components": dataclasses.asdict(run.components),
        }
    return payload


def _cmd_power(args) -> str:
    if args.audit and args.fmt == "csv":
        raise ValueError("--audit is not available with --format csv")
    spec, params, doc_policy = _load_scenario(args)
    policy = args.ddf_policy or doc_policy
    run = engine.evaluate(spec, params, ddf_policy=policy)
    result = run.result

    if args.fmt == "json":
        return json.dumps(_power_payload(spec, run, args.audit), indent=2) + "\n"
    if args.fmt == "csv":
        payload = _power_payload(spec, run, False)
        row = (f"{v:.17g}" if isinstance(v, float) else str(v) for v in payload.values())
        return ",".join(payload) + "\n" + ",".join(row) + "\n"

    rows = [
        ("design", spec.kind.value),
        ("ddf policy", result.ddf_policy),
        ("observations", str(run.cells.n_observations)),
        ("clusters", str(run.cells.n_clusters)),
        ("ndf", str(result.ndf)),
        ("ddf", str(result.ddf)),
        ("noncentrality", _f3(result.noncentrality)),
        ("fcrit", _f3(result.fcrit)),
        ("alpha", _f3(result.alpha)),
        ("power", _f3(result.power)),
    ]
    if args.audit:
        rows.append(("contrast", run.contrast))
        rows.append(("beta", "  ".join(_f3(b) for b in run.fit.beta)))
        for name, value in dataclasses.asdict(run.components).items():
            rows.append((f"  var[{name}]", _f3(value)))
    return _table(rows)


def _cmd_mc(args) -> str:
    if args.reps < 1:
        raise _flag_error("--reps", "the number of replicates must be >= 1", args.reps)
    if args.seed < 0:
        raise _flag_error("--seed", "must be >= 0", args.seed)
    if args.seed >= 2**64:
        raise _flag_error("--seed", "must fit in 64 bits", args.seed)
    spec, params, doc_policy = _load_scenario(args)
    policy = args.ddf_policy or doc_policy
    plan = mc.SimulationPlan(
        spec, params, replicates=args.reps, seed=args.seed, ddf_policy=policy
    )
    outcome = mc.empirical_power(plan)

    if args.fmt == "json":
        payload = {
            "design": spec.kind.value,
            "estimate": outcome.estimate,
            "stderr": outcome.stderr,
            "ci95": [outcome.ci_low, outcome.ci_high],
            "replicates": outcome.replicates,
            "rejections": outcome.rejections,
            "seed": outcome.seed,
            "ddf": outcome.ddf,
            "alpha": outcome.alpha,
            "analytic": outcome.analytic,
            "z": outcome.z,
        }
        return json.dumps(payload, indent=2) + "\n"

    rows = [
        ("design", spec.kind.value),
        ("replicates", str(outcome.replicates)),
        ("seed", str(outcome.seed)),
        ("rejections", str(outcome.rejections)),
        ("empirical power", _f3(outcome.estimate)),
        ("mc stderr", f"{outcome.stderr:.4f}"),
        ("ci95", f"[{_f3(outcome.ci_low)}, {_f3(outcome.ci_high)}]"),
        ("analytic power", _f3(outcome.analytic)),
        ("z vs analytic", f"{outcome.z:.2f}"),
        ("ddf", str(outcome.ddf)),
        ("alpha", _f3(outcome.alpha)),
    ]
    return _table(rows)


def _cmd_dataset(args) -> str:
    spec, _, _ = _load_scenario(args)
    render = designs.dataset_to_table if args.fmt == "table" else designs.dataset_to_csv
    return render(designs.exemplary_dataset(spec))


def _cmd_vmatrix(args) -> Iterator[str]:
    spec, params, _ = _load_scenario(args)
    cells = designs.cell_table(spec)
    comps = engine.variance_components(spec, params)
    n_clusters = cells.n_clusters
    if not (1 <= args.cluster_index <= n_clusters):
        raise _flag_error(
            "--cluster-index", f"must lie in [1, {n_clusters}]", args.cluster_index
        )
    matrix = correlation.build_cluster_v(cells, comps, args.cluster_index - 1)
    if args.correlation:
        matrix = correlation.vcorr(matrix)
    return _matrix_text(matrix, args.fmt)


def _matrix_text(matrix, fmt: str) -> Iterator[str]:
    # the text one block of rows at a time, so that neither the whole text
    # nor a list of every entry is held
    starts = range(0, matrix.shape[0], _MATRIX_BLOCK_ROWS)
    blocks = (matrix[i : i + _MATRIX_BLOCK_ROWS].tolist() for i in starts)
    if fmt == "json":
        # json.dumps({"matrix": matrix.tolist()}, indent=2)
        yield '{\n  "matrix": [\n    '
        for i, rows in enumerate(blocks):
            text = (json.dumps(r, indent=2).replace("\n", "\n    ") for r in rows)
            yield (",\n    " if i else "") + ",\n    ".join(text)
        yield "\n  ]\n}\n"
        return
    # one format string per row; "%.1f" % v never shortens as |v| grows on
    # either side of 0, so the extremes fix the table width
    if fmt == "csv":
        line = ",".join(["%.17g"] * matrix.shape[1])
    else:
        width = max(len("%.1f" % v) for v in (matrix.min(), matrix.max()))
        line = "  ".join([f"%{width}.1f"] * matrix.shape[1])
    for rows in blocks:
        yield "".join(line % tuple(row) + "\n" for row in rows)


class _Subcommand(NamedTuple):
    help: str
    add_options: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], str | Iterable[str]]


_SUBCOMMANDS = {
    "de": _Subcommand("closed-form design effect and sample plan", _de_options, _cmd_de),
    "power": _Subcommand("analytic power by GLS evaluation", _power_options, _cmd_power),
    "mc": _Subcommand("Monte Carlo empirical power", _mc_options, _cmd_mc),
    "dataset": _Subcommand("exemplary dataset as CSV", _dataset_options, _cmd_dataset),
    "vmatrix": _Subcommand(
        "one cluster's covariance matrix", _vmatrix_options, _cmd_vmatrix
    ),
}
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        text = _SUBCOMMANDS[args.command].run(args)
        _emit((text,) if isinstance(text, str) else text, args.out)
        return 0
    except designs.SpecValidationError as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
