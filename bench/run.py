"""wedgepower benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload plan_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  The run is a closed loop: one caller in one process sends the next
operation only after the previous one returned, with WEDGEPOWER_THREADS
unset and BLAS threads capped at the number of usable CPUs.  It checks
every output, prints every metric by name with its unit, writes a report
with run metadata to bench/out/, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every operation
twice, once untraced and once with every public function of the program's
modules and of numpy.linalg wrapped, and reports per-layer metrics per
attempted operation plus the tracing overhead (traced minus untraced
latency of the same operations).
Workload rationale and layer-to-metric predictions: bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("plan_sweep", "scale_up", "cli_presets")
SETUP_PROBES = 7
# Tail percentile per workload, fixed so that every run reports the same
# one.  At 30 s on a 2-CPU machine about 13,000, 120 and 300 analytic
# evaluations leave ~130, ~30 and ~75 samples beyond it.  The highest
# percentile with ten samples beyond it (p99.9, p90, p90) spread 33%, 13%
# and 15% over ten seeds (quartile range over median): scale_up's p90
# falls in the gap between its two slowest designs, and the others sit on
# brief machine stalls.  p99 and p75 spread 4% and 5-7%.
TAIL_PERCENTILE = {"plan_sweep": 99.0, "scale_up": 75.0, "cli_presets": 75.0}
END_TO_END = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "eval_p50_ms": "ms",
    "eval_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# (layer, function, statistics) traced; "s" only for leaf kernels
TRACED = (
    ("designs", "exemplary_dataset", ("calls", "self_s")),
    ("designs", "design_matrix", ("self_s",)),
    ("designs", "cluster_structure", ("self_s",)),
    ("correlation", "build_cluster_v", ("calls", "self_s")),
    ("engine", "gls_estimate", ("calls", "self_s")),
    ("engine", "resolve_ddf", ("calls", "self_s")),
    ("engine", "study_blocks", ("self_s",)),
    ("engine", "analytic_power", ("calls",)),
    ("engine", "power_audit", ("calls",)),
    ("linalg", "solve", ("calls", "s")),
    ("linalg", "cholesky", ("calls", "s")),
    ("linalg", "matrix_rank", ("calls", "s")),
    ("distributions", "central_f_quantile", ("calls", "self_s")),
    ("distributions", "central_f_cdf", ("calls",)),
    ("distributions", "noncentral_f_cdf", ("calls", "self_s")),
    ("mc", "empirical_power", ("calls", "self_s")),
    ("mc", "replicate_stream", ("calls", "s")),
    ("design_effects", "design_effect_for", ("calls", "self_s")),
    ("cli", "main", ("self_s",)),
    ("cli", "build_parser", ("calls", "s")),
)
# counts the benchmark computes from arguments and results; they repeat
# exactly for a given seed and number of passes
COMPUTED = {
    "designs.rows_built": "rows/op",
    "correlation.cov_entries": "entries/op",
    "engine.gls_flops": "flop/op",
    "mc.replicates": "reps/op",
    "mc.draws": "draws/op",
}
STAT_UNITS = {"calls": "calls/op", "self_s": "s/op", "s": "s/op"}


def per_layer_units(scale_designs) -> dict[str, str]:
    units = {f"{l}.{f}.{s}": STAT_UNITS[s] for l, f, stats in TRACED for s in stats}
    units.update(COMPUTED)
    units.update({f"scale.{name}.s": "s" for name in scale_designs})
    units["trace.overhead_ms"] = "ms/op"
    units["trace.overhead_frac"] = "ratio"
    return units


@dataclass
class Record:
    label: str
    kind: str
    pass_index: int
    start: float
    latency: float
    reps: int
    error: str | None
    problems: list
    # latency at the reference machine speed (speed.py)
    scaled: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def configure_environment() -> None:
    """Single-caller settings, applied before numpy is imported."""
    os.environ.pop("WEDGEPOWER_THREADS", None)
    cap = usable_cpus()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path[:0] = [str(SRC), str(BENCH)]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_op(op, pass_index: int, tracer=None) -> Record:
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter()
    error = None
    try:
        out = op.run()
    except Exception as exc:  # a refused or crashed operation is a result
        error = f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    problems = []
    if error is None:
        try:
            problems = op.check(out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    elif op.expect_error is None or op.expect_error not in error:
        problems = ["unexpected error"]
    return Record(op.label, op.kind, pass_index, t0, latency, op.reps, error, problems)


def measure(workloads, name: str, seed: int, seconds: float, out_path: str, tracer=None, speed=None):
    """Whole passes until the time is used; at least one.

    With a speed reference, each record gets its scaled latency.  With a
    tracer every operation runs twice, untraced and traced, in
    alternating order so that neither side always finds warm caches; the
    untraced records come first in the returned pair.
    """
    plain, traced = [], []
    t0 = perf_counter()
    index = 0
    while index == 0 or perf_counter() - t0 < seconds:
        for op in workloads.pass_ops(name, seed, index, out_path):
            if speed is not None:
                speed.maybe_sample()
            if tracer is None:
                plain.append(run_op(op, index))
            elif len(plain) % 2:
                traced.append(run_op(op, index, tracer))
                plain.append(run_op(op, index))
            else:
                plain.append(run_op(op, index))
                traced.append(run_op(op, index, tracer))
        index += 1
    if speed is not None:
        speed.sample()
        for r in plain:
            r.scaled = r.latency * speed.scale(r.start, r.start + r.latency)
    return plain, traced


def setup_probe_seconds(args, speed) -> tuple[list[float], list[float]]:
    """Fresh interpreters that import, generate inputs and warm up, timed
    until each reports the system-wide monotonic clock at which it was
    ready (interpreter exit is not set-up); raw and scaled seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        speed.sample()
        start = perf_counter()
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        seconds = float(done.stdout.split()[-1]) - t0
        speed.sample()
        raw.append(seconds)
        scaled.append(seconds * speed.scale(start, start + seconds))
    return raw, scaled


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def timing(records, workload: str, attr: str) -> dict[str, float]:
    """Throughput and latency figures from one latency attribute."""
    done = [r for r in records if r.ok]
    evals = [getattr(r, attr) for r in done if r.kind == "eval"]
    busy = sum(getattr(r, attr) for r in records)
    tail = percentile(evals, TAIL_PERCENTILE[workload]) if evals else 0.0
    out = {
        "evals_per_s": len(done) / busy,
        "eval_p50_ms": 1e3 * median_or_zero(evals),
        "eval_tail_ms": 1e3 * tail,
    }
    mc_done = [r for r in done if r.kind == "mc"]
    if mc_done:
        out["mc_reps_per_s"] = sum(r.reps for r in mc_done) / sum(getattr(r, attr) for r in mc_done)
    if workload == "cli_presets":
        out["power_cmd_p50_ms"] = out["eval_p50_ms"]
        out["mc_cmd_p50_ms"] = 1e3 * median_or_zero([getattr(r, attr) for r in mc_done])
    return out


def end_to_end(records, workload: str, setup_raw, setup_scaled) -> tuple[dict, dict]:
    """The gated metrics, and the descriptive figures printed beside them."""
    scaled = timing(records, workload, "scaled")
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "evals_per_s": scaled.pop("evals_per_s"),
        "eval_p50_ms": scaled.pop("eval_p50_ms"),
        "eval_tail_ms": scaled.pop("eval_tail_ms"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    evals = [r.scaled for r in records if r.ok and r.kind == "eval"]
    tail = metrics["eval_tail_ms"] / 1e3
    extra = {
        "fail_frac": sum(1 for r in records if not r.ok) / len(records),
        "evals": len(evals),
        "tail_percentile": TAIL_PERCENTILE[workload],
        "tail_samples_beyond": sum(1 for v in evals if v > tail),
        "passes": records[-1].pass_index + 1,
        **scaled,
        "raw_setup_s": statistics.median(setup_raw),
        **{f"raw_{k}": v for k, v in timing(records, workload, "latency").items()},
        "speed_scale_median": statistics.median(r.scaled / r.latency for r in records),
    }
    return metrics, extra


def scale_rows(records, names) -> dict[str, float]:
    """Median latency per scaled design over all attempts (a refused
    design reports the time it took to refuse); 0 where not run."""
    rows = {}
    for name in names:
        values = [r.latency for r in records if r.label == f"scale.{name}"]
        rows[f"scale.{name}.s"] = median_or_zero(values)
    return rows


def install_tracing(tracer) -> None:
    import numpy.linalg

    from wedgepower import cli, correlation, design_effects, designs, distributions, engine, mc
    from tracer import public_functions

    def rows_built(c, args, kwargs, result):
        c["designs.rows_built"] += result.n_rows

    def cov_entries(c, args, kwargs, result):
        c["correlation.cov_entries"] += result.matrix.shape[0] ** 2

    def gls_flops(c, args, kwargs, result):
        # LU of each block, the solve against p + 1 right-hand sides, and
        # the X' (V^-1 [X y]) product
        x, blocks = args[0], args[1]
        p = x.shape[1]
        c["engine.gls_flops"] += sum(
            2.0 * k**3 / 3.0 + 2.0 * k * k * (p + 1) + 2.0 * k * p * (p + 1)
            for k in (b.shape[0] for b in blocks)
        )

    def mc_work(c, args, kwargs, result):
        plan = args[0] if args else kwargs["plan"]
        c["mc.replicates"] += plan.replicates
        c["mc.draws"] += plan.replicates * plan.spec.n_observations

    counters = {
        "designs.exemplary_dataset": rows_built,
        "correlation.build_cluster_v": cov_entries,
        "engine.gls_estimate": gls_flops,
        "mc.empirical_power": mc_work,
    }
    layers = {
        "designs": designs, "correlation": correlation, "engine": engine,
        "distributions": distributions, "mc": mc, "design_effects": design_effects,
        "cli": cli, "linalg": numpy.linalg,
    }
    for layer, module in layers.items():
        for fn in public_functions(module):
            name = f"{layer}.{fn}"
            tracer.install(module, fn, name, counters.get(name))


def per_layer(tracer, base, traced) -> dict[str, float]:
    summary = tracer.summary()
    n_ops = len(traced)
    values = {}
    for layer, fn, stats in TRACED:
        entry = summary.get(f"{layer}.{fn}", {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in stats:
            values[f"{layer}.{fn}.{stat}"] = entry[stat] / n_ops
    for name in COMPUTED:
        values[name] = tracer.counters.get(name, 0.0) / n_ops
    untraced_s = sum(r.latency for r in base)
    traced_s = sum(r.latency for r in traced)
    values["trace.overhead_ms"] = 1e3 * (traced_s - untraced_s) / n_ops
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return values


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wedgepower" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'wedgepower'}; run from a source checkout",
              file=sys.stderr)
        return 2
    configure_environment()
    import numpy

    import wedgepower

    if Path(wedgepower.__file__).resolve().parent != SRC / "wedgepower":
        print(f"error: imported wedgepower from {wedgepower.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    handle, out_path = tempfile.mkstemp(prefix=f"cli_{args.workload}_", suffix=".json", dir=OUT)
    os.close(handle)
    try:
        if args.setup_probe:
            warm = run_op(workloads.warmup_op(args.workload, args.seed, out_path), 0)
            if not warm.ok:
                return 1
            print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
            return 0
        return run(args, workloads, out_path, numpy.__version__)
    finally:
        os.unlink(out_path)


def run(args, workloads, out_path: str, numpy_version: str) -> int:
    from speed import Speed, warm_blas
    from tracer import Tracer

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": usable_cpus(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "wedgepower_threads": os.environ.get("WEDGEPOWER_THREADS", "unset"),
    }
    speed = Speed()
    if not args.trace:
        setup_raw, setup_scaled = setup_probe_seconds(args, speed)
        meta["setup_samples_s"] = setup_raw
    warm = run_op(workloads.warmup_op(args.workload, args.seed, out_path), 0)
    warm_blas()

    if args.trace:
        tracer = Tracer()
        install_tracing(tracer)
        try:
            base, records = measure(workloads, args.workload, args.seed, args.seconds, out_path, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, base, records)
        metrics.update(scale_rows(base, workloads.SCALE_DESIGNS))
        units = per_layer_units(workloads.SCALE_DESIGNS)
        all_records = base + records
    else:
        records, _ = measure(workloads, args.workload, args.seed, args.seconds, out_path, speed=speed)
        metrics, extra = end_to_end(records, args.workload, setup_raw, setup_scaled)
        units = END_TO_END
        all_records = records

    failures: dict[str, int] = {}
    for r in [warm] + all_records:
        if not r.ok:
            text = f"{r.label}: {r.error or '; '.join(r.problems)}"
            failures[text] = failures.get(text, 0) + 1
    # a refusal the operation expected is a failure but not a wrong output
    correct = warm.ok and all(r.ok or (r.error and not r.problems) for r in all_records)
    result = {
        "correct": bool(correct),
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    print(f"# wedgepower benchmark: {json.dumps(meta)}")
    if args.trace:
        print(f"# {len(records)} operations, each run untraced and traced")
    for name, value in metrics.items():
        note = "  (computed)" if name in COMPUTED else ""
        print(f"{name:<44} {value:>14.6g} {units[name]}{note}")
    if not args.trace:
        for name, value in extra.items():
            print(f"  {name:<42} {value:>14.6g}")
        for name, value in scale_rows(records, workloads.SCALE_DESIGNS).items():
            if value:
                print(f"  {name:<42} {value:>14.6g} s")
    for text, count in failures.items():
        print(f"# failed x{count}: {text}")

    stem = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    report = {"meta": meta, **result, "failures": failures}
    if args.trace:
        import numpy as np

        np.savez_compressed(f"{stem}_spans.npz", names=np.array(tracer.names), **tracer.spans())
    else:
        report["extra"] = extra
    Path(f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
