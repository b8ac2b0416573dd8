"""Command line interface.

Subcommands:
    de       closed-form design effect and optional sample size plan
    power    analytic power by direct GLS evaluation
    mc       Monte Carlo empirical power
    dataset  exemplary dataset as CSV
    vmatrix  one cluster's covariance (or correlation) matrix

Every subcommand takes a scenario, either --preset NAME (built in) or
--spec FILE (a JSON document with design, correlation, and analysis
sections).  Exit status is 0 on success, 2 on a validation or usage
problem, 1 on an I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

import numpy as np

from . import __version__, correlation, design_effects, designs, engine, mc

_FORMATS = ("table", "json", "csv")


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
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
        choices=_FORMATS,
        default="table",
        dest="fmt",
        help="output format (default table)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="write output to a file"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedgepower",
        description="Power and sample size for cluster randomized and "
        "stepped wedge trials.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_de = sub.add_parser("de", help="closed-form design effect and sample plan")
    _add_scenario_options(p_de)
    p_de.add_argument(
        "--n-unclustered",
        type=int,
        default=None,
        metavar="N",
        help="unclustered total to inflate into a sample size plan",
    )

    p_power = sub.add_parser("power", help="analytic power by GLS evaluation")
    _add_scenario_options(p_power)
    p_power.add_argument(
        "--ddf-policy",
        choices=engine.DDF_POLICIES,
        default=None,
        help="denominator df rule (default depends on the design kind)",
    )
    p_power.add_argument(
        "--audit",
        action="store_true",
        help="also report the fit behind the power figure",
    )

    p_mc = sub.add_parser("mc", help="Monte Carlo empirical power")
    _add_scenario_options(p_mc)
    p_mc.add_argument(
        "--ddf-policy", choices=engine.DDF_POLICIES, default=None,
        help="denominator df rule (default depends on the design kind)",
    )
    p_mc.add_argument(
        "--reps", type=int, default=20000, help="number of replicates (default 20000)"
    )
    p_mc.add_argument(
        "--seed", type=int, default=1, help="base seed for the replicate streams"
    )

    p_dataset = sub.add_parser("dataset", help="exemplary dataset as CSV")
    _add_scenario_options(p_dataset)

    p_vmatrix = sub.add_parser("vmatrix", help="one cluster's covariance matrix")
    _add_scenario_options(p_vmatrix)
    p_vmatrix.add_argument(
        "--correlation",
        action="store_true",
        help="print the correlation matrix instead of the covariance",
    )
    p_vmatrix.add_argument(
        "--cluster-index",
        type=int,
        default=1,
        metavar="I",
        help="which cluster, 1-based (default 1)",
    )

    return parser


def _load_scenario(args) -> tuple[designs.DesignSpec, correlation.CorrelationParams, str | None]:
    if args.preset is not None:
        spec, params = designs.get_preset(args.preset)
        policy = None
    else:
        with open(args.spec, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as exc:
                raise designs.SpecValidationError(
                    [f"{args.spec}: not valid JSON ({exc})"]
                ) from None
        spec, params, policy = designs.decode_spec_document(doc)
    if args.alpha is not None:
        if not (0.0 < args.alpha < 1.0):
            raise designs.SpecValidationError(
                [f"--alpha: must lie in (0, 1), got {args.alpha!r}"]
            )
        spec = dataclasses.replace(spec, alpha=args.alpha)
    return spec, params, policy


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _table(rows: list[tuple[str, str]]) -> str:
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows) + "\n"


def _f3(x: float) -> str:
    return f"{x:.3f}"


def _plan_conversion(spec: designs.DesignSpec) -> tuple[float, int]:
    """(observation multiplier, measurements per participant) for plans."""
    if spec.kind in designs.SWD_KINDS:
        per_participant = spec.n_times if spec.kind in designs.COHORT_KINDS else 1
        return float(spec.n_times), per_participant
    if spec.kind == designs.DesignKind.CRT_PREPOST_COHORT:
        return 1.0, 2
    return 1.0, 1


def _cmd_de(args) -> int:
    spec, params, _ = _load_scenario(args)
    result = design_effects.design_effect_for(spec, params)
    plan = None
    if args.n_unclustered is not None:
        multiplier, per_participant = _plan_conversion(spec)
        plan = design_effects.inflate_sample_size(
            args.n_unclustered,
            result.value,
            observation_multiplier=multiplier,
            measurements_per_participant=per_participant,
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
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0

    rows = [
        ("design", spec.kind.value),
        ("formula", result.formula),
        ("design effect", _f3(result.value)),
    ]
    for name, value in result.factors.items():
        rows.append((f"  {name}", _f3(value)))
    if result.baseline_r is not None:
        rows.append(("baseline r", _f3(result.baseline_r)))
    if plan is not None:
        rows.append(("unclustered n", str(plan.n_unclustered)))
        rows.append(
            ("observations", f"{plan.observations_raw:.3f} -> {plan.observations}")
        )
        rows.append(
            ("participants", f"{plan.participants_raw:.3f} -> {plan.participants}")
        )
    _emit(_table(rows), args.out)
    return 0


def _power_payload(audit: engine.PowerAudit, with_audit: bool) -> dict:
    result = audit.result
    payload = {
        "design": audit.kind,
        "ddf_policy": audit.ddf_policy,
        "power": result.power,
        "fvalue": result.fvalue,
        "noncentrality": result.noncentrality,
        "fcrit": result.fcrit,
        "ndf": result.ndf,
        "ddf": result.ddf,
        "alpha": result.alpha,
    }
    if with_audit:
        payload["audit"] = {
            "observations": audit.n_observations,
            "clusters": audit.n_clusters,
            "times": audit.n_times,
            "contrast": audit.contrast,
            "beta": list(audit.beta),
            "components": dataclasses.asdict(audit.components),
        }
    return payload


def _cmd_power(args) -> int:
    spec, params, doc_policy = _load_scenario(args)
    policy = args.ddf_policy or doc_policy
    audit = engine.power_audit(spec, params, ddf_policy=policy)
    result = audit.result

    if args.fmt == "json":
        _emit(json.dumps(_power_payload(audit, args.audit), indent=2) + "\n", args.out)
        return 0
    if args.fmt == "csv":
        header = "design,ddf_policy,power,fvalue,noncentrality,fcrit,ndf,ddf,alpha"
        row = (
            f"{audit.kind},{audit.ddf_policy},{result.power:.17g},"
            f"{result.fvalue:.17g},{result.noncentrality:.17g},"
            f"{result.fcrit:.17g},{result.ndf},{result.ddf},{result.alpha:.17g}"
        )
        _emit(header + "\n" + row + "\n", args.out)
        return 0

    rows = [
        ("design", audit.kind),
        ("ddf policy", audit.ddf_policy),
        ("observations", str(audit.n_observations)),
        ("clusters", str(audit.n_clusters)),
        ("ndf", str(result.ndf)),
        ("ddf", str(result.ddf)),
        ("noncentrality", _f3(result.noncentrality)),
        ("fcrit", _f3(result.fcrit)),
        ("alpha", _f3(result.alpha)),
        ("power", _f3(result.power)),
    ]
    if args.audit:
        rows.append(("contrast", audit.contrast))
        rows.append(("beta", "  ".join(_f3(b) for b in audit.beta)))
        comps = dataclasses.asdict(audit.components)
        for name, value in comps.items():
            rows.append((f"  var[{name}]", _f3(value)))
    _emit(_table(rows), args.out)
    return 0


def _cmd_mc(args) -> int:
    spec, params, doc_policy = _load_scenario(args)
    policy = args.ddf_policy or doc_policy
    plan = mc.SimulationPlan(
        spec=spec,
        params=params,
        replicates=args.reps,
        seed=args.seed,
        ddf_policy=policy,
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
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0

    rows = [
        ("design", spec.kind.value),
        ("replicates", str(outcome.replicates)),
        ("seed", str(outcome.seed)),
        ("rejections", str(outcome.rejections)),
        ("empirical power", _f3(outcome.estimate)),
        ("mc stderr", f"{outcome.stderr:.4f}"),
        ("ci95", f"[{_f3(outcome.ci_low)}, {_f3(outcome.ci_high)}]"),
        ("analytic power", _f3(outcome.analytic)),
        ("ddf", str(outcome.ddf)),
        ("alpha", _f3(outcome.alpha)),
    ]
    _emit(_table(rows), args.out)
    return 0


def _cmd_dataset(args) -> int:
    spec, _, _ = _load_scenario(args)
    dataset = designs.exemplary_dataset(spec)
    if args.fmt == "table":
        header = "%-18s %4s %10s %10s %5s %9s %8s" % (
            "design", "arm", "cluster_id", "subject_id", "time", "intervene", "mean"
        )
        lines = [header]
        for i in range(dataset.n_rows):
            lines.append(
                "%-18s %4d %10d %10d %5d %9d %8.3f"
                % (
                    dataset.kind,
                    dataset.arm[i],
                    dataset.cluster_id[i],
                    dataset.subject_id[i],
                    dataset.time[i],
                    dataset.intervene[i],
                    dataset.mean[i],
                )
            )
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    # csv serves as the default and the json spelling is not meaningful here
    _emit(designs.dataset_to_csv(dataset), args.out)
    return 0


def _cmd_vmatrix(args) -> int:
    spec, params, _ = _load_scenario(args)
    comps = correlation.derive_components(
        params, correlation.family_for_kind(spec.kind)
    )
    n_clusters = spec.n_clusters
    if not (1 <= args.cluster_index <= n_clusters):
        raise designs.SpecValidationError(
            [f"--cluster-index: must lie in [1, {n_clusters}], got {args.cluster_index}"]
        )
    block = correlation.build_cluster_v(spec, comps, cluster_index=args.cluster_index - 1)
    matrix = correlation.vcorr(block) if args.correlation else block.matrix

    if args.fmt == "csv":
        lines = [",".join(f"{v:.17g}" for v in row) for row in matrix]
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if args.fmt == "json":
        _emit(json.dumps({"matrix": matrix.tolist()}, indent=2) + "\n", args.out)
        return 0
    width = max(len(f"{v:.1f}") for v in np.ravel(matrix))
    lines = ["  ".join(f"{v:>{width}.1f}" for v in row) for row in matrix]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "de": _cmd_de,
    "power": _cmd_power,
    "mc": _cmd_mc,
    "dataset": _cmd_dataset,
    "vmatrix": _cmd_vmatrix,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
