"""Seeded inputs and output checks of the three benchmark workloads.

Each workload is a sequence of passes.  A pass is a list of operations
generated from (seed, pass index) alone; the program sees only the
generated specs and command lines.  Every operation is one power figure
delivered to a user: a planner's grid point, one scaled design, or one
whole CLI command.  Why each workload exists, and which layer metric
should move which end-to-end metric on it, is recorded in README.md.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from wedgepower import cli, design_effects, engine, mc
from wedgepower.correlation import CorrelationParams
from wedgepower.designs import PRESETS, RCT_KINDS, DesignKind, DesignSpec
from wedgepower.distributions import PowerResult

import oracle

# Noncentrality checks are relative; the oracle agrees to ~1e-13.
NCP_RTOL = 1e-9
# |MC - analytic| <= Z_BOUND standard errors.  P(|Z| > 6) = 2e-9, so
# across the ~10^4 distinct MC estimates of a full set of benchmark runs a
# false alarm has probability about 2e-5.
Z_BOUND = 6.0
# Analytic power of every preset under its default policy, as published
# and gated in the acceptance suite (criterion 4), to 0.005.
PRESET_POWER = {
    "example1": 0.807,
    "example2": 0.831,
    "example2_48": 0.788,
    "example2_51": 0.803,
    "example3": 0.801,
    "example3_124": 0.789,
    "example4": 0.813,
    "example5": 0.830,
    "example6": 0.836,
    "example7": 0.819,
}
PRESET_TOL = 0.005
CLI_MC_REPS = 20_000
# The row cap of the dense per-cluster covariance; an operation expected
# to be refused must fail with this text until the cap is lifted.
CAP_ERROR = "limit is"

# separates the random streams of the workloads
_TAGS = {"plan_sweep": 1, "scale_up": 2, "cli_presets": 3}


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    kind is "eval" for an analytic power figure and "mc" for a simulated
    one.  check returns a list of problems; empty means correct.
    """

    label: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    reps: int = 0
    expect_error: str | None = None


def rng_for(workload: str, seed: int, index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([_TAGS[workload], seed, index, stream])


# ---------------------------------------------------------------------------
# input generation


def valid_policies(kind: DesignKind) -> tuple[str, ...]:
    return ("residual",) if kind in RCT_KINDS else engine.DDF_POLICIES


def target_noncentrality(alpha: float, power: float) -> float:
    """Noncentrality giving about this power for a large-ddf 1-df test."""
    z = NormalDist()
    return (z.inv_cdf(1.0 - alpha / 2.0) + z.inv_cdf(power)) ** 2


def with_effect(spec: DesignSpec, params: CorrelationParams, ncp: float, rng) -> DesignSpec:
    """Set the cell means so the tested contrast has this noncentrality."""
    theta = math.sqrt(ncp / oracle.unit_noncentrality(spec, params))
    theta *= rng.choice((-1.0, 1.0))
    base = float(rng.uniform(20.0, 80.0))
    if spec.kind in oracle.WEDGE:
        means = {(0, 0): base, (1, 0): base + theta}
    elif spec.kind in oracle.POST_ONLY:
        means = {(1, 1): base, (2, 1): base + theta}
    else:
        shift, drift = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
        means = {
            (1, 1): base,
            (1, 2): base + drift,
            (2, 1): base + shift,
            (2, 2): base + shift + drift + theta,
        }
    return dataclasses.replace(spec, cell_means=means)


def random_params(kind: DesignKind, rng, icc_range=(0.01, 0.2)) -> CorrelationParams:
    if kind in RCT_KINDS:
        return CorrelationParams(sigma_y_sq=float(rng.uniform(4.0, 100.0)), icc=0.0)
    icc = float(rng.uniform(*icc_range))
    cac = 0.0 if kind == DesignKind.CRT_POST else float(rng.uniform(0.2, 1.0))
    sac = float(rng.uniform(0.2, 0.9)) if kind in oracle.COHORT else 0.0
    return CorrelationParams(sigma_y_sq=float(rng.uniform(4.0, 100.0)), icc=icc, cac=cac, sac=sac)


def _sizes(rng, n_clusters: int, low: int, high: int):
    # a third of the clustered designs have unequal cluster sizes, which
    # the closed-form design effects do not cover
    if rng.random() < 1.0 / 3.0:
        return tuple(int(v) for v in rng.integers(low, high + 1, size=n_clusters))
    return int(rng.integers(low, high + 1))


def random_structure(kind: DesignKind, rng) -> DesignSpec:
    """A small-to-moderate design of one kind, at most a few hundred rows."""
    ri = lambda lo, hi: int(rng.integers(lo, hi + 1))  # noqa: E731
    if kind == DesignKind.RCT_POST:
        return DesignSpec(kind=kind, per_group_n=ri(5, 100))
    if kind == DesignKind.RCT_PREPOST:
        return DesignSpec(kind=kind, per_group_n=ri(5, 60))
    if kind in oracle.POST_ONLY | oracle.PREPOST:
        arms = (ri(2, 12), ri(2, 12))
        high = 20 if kind == DesignKind.CRT_POST else 10
        return DesignSpec(
            kind=kind, clusters_per_arm=arms, cluster_size=_sizes(rng, sum(arms), 2, high)
        )
    if kind == DesignKind.SWD_COHORT and rng.random() < 0.5:
        # three periods: the layout the cohort closed form covers
        steps, baseline, per_step = 2, 1, 1
    else:
        steps, baseline, per_step = ri(2, 4), ri(1, 2), ri(1, 2)
    per_step_clusters = tuple(ri(1, 3) for _ in range(steps))
    return DesignSpec(
        kind=kind,
        steps_k=steps,
        baseline_b=baseline,
        per_step_t=per_step,
        clusters_per_step=per_step_clusters,
        cluster_size=_sizes(rng, sum(per_step_clusters), 2, 6),
    )


def has_closed_form(spec: DesignSpec) -> bool:
    """design_effect_for covers the design: a common size, and for the
    cohort wedge exactly three periods."""
    if spec.kind in RCT_KINDS:
        return True
    if isinstance(spec.cluster_size, tuple):
        return False
    return spec.kind != DesignKind.SWD_COHORT or spec.n_times == 3


@dataclass(frozen=True)
class Case:
    """A generated design with its analysis settings and oracle answer."""

    label: str
    spec: DesignSpec
    params: CorrelationParams
    ddf_policy: str | None
    alpha: float
    noncentrality: float


def plan_grid(seed: int, index: int, per_kind: int = 20) -> list[Case]:
    """One pass of the planner's sweep: every kind, stratified."""
    rng = rng_for("plan_sweep", seed, index)
    cases = []
    for kind in DesignKind:
        for _ in range(per_kind):
            spec = random_structure(kind, rng)
            params = random_params(kind, rng)
            alpha = float(rng.choice((0.05, 0.01)))
            ncp = target_noncentrality(alpha, float(rng.uniform(0.3, 0.9)))
            spec = with_effect(dataclasses.replace(spec, alpha=alpha), params, ncp, rng)
            policy = str(rng.choice(valid_policies(kind)))
            cases.append(
                Case("plan", spec, params, policy, alpha, oracle.noncentrality(spec, params))
            )
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def _crt(kind, per_arm, size):
    return DesignSpec(kind=kind, clusters_per_arm=(per_arm, per_arm), cluster_size=size)


def _swd(kind, steps, per_step, per_step_clusters, size, baseline=1):
    return DesignSpec(
        kind=kind,
        steps_k=steps,
        baseline_b=baseline,
        per_step_t=per_step,
        clusters_per_step=(per_step_clusters,) * steps,
        cluster_size=size,
    )


# Designs scaled along one axis each; names read kind_clusters x size
# (x periods).  The last one exceeds the dense covariance row cap.
SCALE_DESIGNS: dict[str, DesignSpec] = {
    # clusters
    "crt_post_250x20": _crt(DesignKind.CRT_POST, 125, 20),
    "crt_post_500x20": _crt(DesignKind.CRT_POST, 250, 20),
    "crt_post_1000x20": _crt(DesignKind.CRT_POST, 500, 20),
    "crt_post_2000x20": _crt(DesignKind.CRT_POST, 1000, 20),
    # subjects
    "rct_prepost_n250": DesignSpec(kind=DesignKind.RCT_PREPOST, per_group_n=250),
    "rct_prepost_n500": DesignSpec(kind=DesignKind.RCT_PREPOST, per_group_n=500),
    "rct_prepost_n1500": DesignSpec(kind=DesignKind.RCT_PREPOST, per_group_n=1500),
    # cluster size
    "crt_prepost_cohort_40x25": _crt(DesignKind.CRT_PREPOST_COHORT, 20, 25),
    "crt_prepost_cohort_40x50": _crt(DesignKind.CRT_PREPOST_COHORT, 20, 50),
    "crt_prepost_cohort_40x100": _crt(DesignKind.CRT_PREPOST_COHORT, 20, 100),
    "crt_prepost_cohort_40x200": _crt(DesignKind.CRT_PREPOST_COHORT, 20, 200),
    "swd_cohort_30x25x13": _swd(DesignKind.SWD_COHORT, 6, 2, 5, 25),
    "swd_cohort_30x50x13": _swd(DesignKind.SWD_COHORT, 6, 2, 5, 50),
    "swd_cohort_30x100x13": _swd(DesignKind.SWD_COHORT, 6, 2, 5, 100),
    # periods
    "swd_xsec_24x20x5": _swd(DesignKind.SWD_XSEC, 4, 1, 6, 20),
    "swd_xsec_24x20x9": _swd(DesignKind.SWD_XSEC, 8, 1, 3, 20),
    "swd_xsec_24x20x13": _swd(DesignKind.SWD_XSEC, 12, 1, 2, 20),
    "swd_xsec_24x20x25": _swd(DesignKind.SWD_XSEC, 12, 2, 2, 20),
    # over the dense row cap: 13,000 rows per cluster
    "swd_cohort_6x1000x13": _swd(DesignKind.SWD_COHORT, 6, 2, 1, 1000),
}
OVER_CAP = ("swd_cohort_6x1000x13",)
# (design, replicates) simulated on every pass of scale_up
SCALE_MC = (("crt_prepost_cohort_40x25", 4096), ("swd_xsec_24x20x25", 2048))


def scale_cases(seed: int, index: int) -> list[Case]:
    """The scaled designs with seeded correlation and effect size."""
    rng = rng_for("scale_up", seed, index)
    cases = []
    for name, structure in SCALE_DESIGNS.items():
        params = random_params(structure.kind, rng, icc_range=(0.02, 0.1))
        # power about 0.6-0.9 keeps the MC check informative
        ncp = float(rng.uniform(6.0, 12.0))
        spec = with_effect(structure, params, ncp, rng)
        cases.append(Case(name, spec, params, None, spec.alpha, oracle.noncentrality(spec, params)))
    return cases


# ---------------------------------------------------------------------------
# checks


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * max(abs(expected), 1e-300)


def check_power_result(result, case: Case, policy: str) -> list[str]:
    problems = []
    if not (case.alpha - 1e-12 <= result.power <= 1.0):
        problems.append(f"power {result.power!r} outside [alpha, 1]")
    if not _close(result.noncentrality, case.noncentrality, NCP_RTOL):
        problems.append(
            f"noncentrality {result.noncentrality!r}, oracle {case.noncentrality!r}"
        )
    if result.ndf != 1 or result.ddf < 1 or not result.fcrit > 0.0:
        problems.append(f"degrees of freedom {result.ndf}/{result.ddf}, fcrit {result.fcrit}")
    if result.alpha != case.alpha or result.ddf_policy != policy:
        problems.append(f"alpha {result.alpha} / policy {result.ddf_policy!r} not as asked")
    return problems


def check_mc(estimate: float, reps: int, analytic: float) -> list[str]:
    se = math.sqrt(max(analytic * (1.0 - analytic), 1.0 / reps) / reps)
    if abs(estimate - analytic) > Z_BOUND * se:
        return [f"MC estimate {estimate:.4f} is {abs(estimate - analytic) / se:.1f} SE from {analytic:.4f}"]
    return []


# ---------------------------------------------------------------------------
# workloads


def plan_ops(seed: int, index: int) -> list[Op]:
    ops = []
    for case in plan_grid(seed, index):
        closed_form = has_closed_form(case.spec)

        def run(case=case, closed_form=closed_form):
            de = design_effects.design_effect_for(case.spec, case.params) if closed_form else None
            audit = engine.power_audit(
                case.spec, case.params, ddf_policy=case.ddf_policy, alpha=case.alpha
            )
            return de, audit

        def check(out, case=case, closed_form=closed_form):
            de, audit = out
            problems = check_power_result(audit.result, case, case.ddf_policy)
            if closed_form and not (math.isfinite(de.value) and de.value > 0.0):
                problems.append(f"design effect {de.value!r}")
            return problems

        ops.append(Op("plan", "eval", run, check))
    return ops


def scale_ops(seed: int, index: int) -> list[Op]:
    shared: dict = {}  # analytic power by design, for the MC checks
    ops = []
    cases = scale_cases(seed, index)
    for case in cases:
        policy = engine.default_ddf_policy(case.spec.kind)

        def run(case=case):
            return engine.analytic_power(case.spec, case.params)

        def check(result, case=case, policy=policy):
            shared[case.label] = result.power
            return check_power_result(result, case, policy)

        expect = CAP_ERROR if case.label in OVER_CAP else None
        ops.append(Op(f"scale.{case.label}", "eval", run, check, expect_error=expect))
    by_label = {c.label: c for c in cases}
    seeds = rng_for("scale_up", seed, index, stream=1).integers(2**32, size=len(SCALE_MC))
    for (name, reps), mc_seed in zip(SCALE_MC, seeds.tolist()):
        case = by_label[name]

        def run(case=case, reps=reps, mc_seed=mc_seed):
            return mc.empirical_power(
                mc.SimulationPlan(spec=case.spec, params=case.params, replicates=reps, seed=mc_seed)
            )

        def check(out, name=name, reps=reps):
            problems = [] if out.replicates == reps else [f"replicates {out.replicates}"]
            return problems + check_mc(out.estimate, reps, shared[name])

        ops.append(Op(f"mc.{name}", "mc", run, check, reps=reps))
    return ops


def preset_case(name: str, policy: str, alpha: float | None = None) -> Case:
    spec, params = PRESETS[name]
    alpha = spec.alpha if alpha is None else alpha
    return Case(name, spec, params, policy, alpha, oracle.noncentrality(spec, params))


POWER_FIELDS = {"design", "ddf_policy", "power", "fvalue", "noncentrality", "fcrit", "ndf", "ddf", "alpha"}
MC_FIELDS = {"design", "estimate", "stderr", "ci95", "replicates", "rejections", "seed", "ddf", "alpha", "analytic"}


def _read_json(path: str, rc: int, fields: set) -> tuple[dict | None, list[str]]:
    if rc != 0:
        return None, [f"exit status {rc}"]
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            return None, [f"output is not JSON: {exc}"]
    missing = fields - set(payload)
    return payload, [f"missing fields {sorted(missing)}"] if missing else []


@dataclass(frozen=True)
class Command:
    """One CLI invocation; policy and alpha are None for the defaults."""

    preset: str
    argv: tuple[str, ...]
    policy: str | None = None
    alpha: float | None = None
    mc_seed: int | None = None


def cli_commands(seed: int, index: int) -> list[Command]:
    """Every preset through `power` under each valid policy at the
    default alpha and at 0.01, then `mc`."""
    rng = rng_for("cli_presets", seed, index)
    commands = []
    for name in sorted(PRESETS):
        kind = PRESETS[name][0].kind
        default = engine.default_ddf_policy(kind)
        for alpha in (None, 0.01):
            for policy in (None,) + tuple(p for p in valid_policies(kind) if p != default):
                extra = () if policy is None else ("--ddf-policy", policy)
                extra += () if alpha is None else ("--alpha", str(alpha))
                argv = ("power", "--preset", name, "--format", "json") + extra
                commands.append(Command(name, argv, policy=policy, alpha=alpha))
        mc_seed = int(rng.integers(2**31))
        argv = ("mc", "--preset", name, "--reps", str(CLI_MC_REPS), "--seed", str(mc_seed),
                "--format", "json")
        commands.append(Command(name, argv, mc_seed=mc_seed))
    return commands


def check_power_cmd(payload: dict, command: Command) -> list[str]:
    kind = PRESETS[command.preset][0].kind
    policy = command.policy or engine.default_ddf_policy(kind)
    case = preset_case(command.preset, policy, command.alpha)
    result = PowerResult(**{k: payload[k] for k in POWER_FIELDS - {"design"}})
    problems = check_power_result(result, case, case.ddf_policy)
    published = PRESET_POWER[command.preset]
    defaults = command.policy is None and command.alpha is None
    if defaults and abs(payload["power"] - published) > PRESET_TOL:
        problems.append(f"power {payload['power']:.4f}, published {published}")
    return problems


def check_mc_cmd(payload: dict, command: Command) -> list[str]:
    problems = []
    est, reps = payload["estimate"], payload["replicates"]
    if reps != CLI_MC_REPS or payload["seed"] != command.mc_seed:
        problems.append(f"replicates {reps} / seed {payload['seed']} not as asked")
    if payload["rejections"] != round(est * reps):
        problems.append("estimate does not match rejections / replicates")
    low, high = payload["ci95"]
    if not low <= est <= high:
        problems.append(f"ci95 {payload['ci95']} excludes {est}")
    published = PRESET_POWER[command.preset]
    if abs(payload["analytic"] - published) > PRESET_TOL:
        problems.append(f"analytic {payload['analytic']:.4f}, published {published}")
    return problems + check_mc(est, reps, payload["analytic"])


def cli_ops(seed: int, index: int, out_path: str) -> list[Op]:
    """Whole commands run in process, each writing JSON to out_path."""
    ops = []
    for command in cli_commands(seed, index):
        is_mc = command.argv[0] == "mc"
        fields, check_payload = (MC_FIELDS, check_mc_cmd) if is_mc else (POWER_FIELDS, check_power_cmd)
        argv = list(command.argv) + ["--out", out_path]

        def check(rc, command=command, fields=fields, check_payload=check_payload):
            payload, problems = _read_json(out_path, rc, fields)
            return problems or check_payload(payload, command)

        ops.append(Op(
            "cmd.mc" if is_mc else "cmd.power",
            "mc" if is_mc else "eval",
            lambda argv=argv: cli.main(argv),
            check,
            reps=CLI_MC_REPS if is_mc else 0,
        ))
    return ops


def pass_ops(workload: str, seed: int, index: int, out_path: str) -> list[Op]:
    if workload == "plan_sweep":
        return plan_ops(seed, index)
    if workload == "scale_up":
        return scale_ops(seed, index)
    return cli_ops(seed, index, out_path)


def warmup_op(workload: str, seed: int, out_path: str) -> Op:
    """The one call made during set-up: the first operation of pass 0, or
    on scale_up one of its small designs rather than a 1 s one."""
    ops = pass_ops(workload, seed, 0, out_path)
    if workload == "scale_up":
        return next(op for op in ops if op.label == "scale.swd_xsec_24x20x5")
    return ops[0]
