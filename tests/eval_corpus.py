"""Run a fixed grid of designs through the library and print one digest of it.

The library-level twin of cli_corpus.py.  The grid is every design kind
at a small and a large count: each clustered kind with a common cluster
size, an equal size list and a mixed size list (an individually
randomized kind has no cluster size), at two correlations, under the
default and each named ddf policy, at alpha 0.05 and 1e-6; then every
preset with its own correlation, under the same policies and alphas.
Each case runs `engine.evaluate` and `design_effect_for` through the
public API only, so the script runs against any checkout's `src/`.

The digest is one SHA-256 over each case's label and, per call, either
its result or its ValueError's text: evaluate's beta, variance and
weights as bytes and its PowerResult, and the design effect's formula,
`value.hex()` and factors.  Two checkouts print the same digest exactly
when every case gives the same numbers, bit for bit, or the same
refusal.  Compare a change with its parent by running this script on
each:

    PYTHONPATH=src python tests/eval_corpus.py [--each]

`--each` also prints one line per case: its own digest and its label,
for finding the case whose result moved.
"""

from __future__ import annotations

import hashlib
import sys
from collections.abc import Iterator
from typing import NamedTuple

from wedgepower.correlation import CorrelationParams
from wedgepower.design_effects import design_effect_for
from wedgepower.designs import PRESETS, DesignKind, DesignSpec
from wedgepower.engine import DDF_POLICIES, evaluate

POLICIES = (None, *DDF_POLICIES)
ALPHAS = (0.05, 1e-6)
SIZE_SHAPES = ("common", "equal", "mixed")
_POST = {(1, 1): 54.0, (2, 1): 59.0}
_PREPOST = {(1, 1): 54.0, (1, 2): 55.0, (2, 1): 54.5, (2, 2): 60.0}
_MEANS = {
    DesignKind.RCT_POST: _POST,
    DesignKind.CRT_POST: _POST,
    DesignKind.RCT_PREPOST: _PREPOST,
    DesignKind.CRT_PREPOST_XSEC: _PREPOST,
    DesignKind.CRT_PREPOST_COHORT: _PREPOST,
    DesignKind.SWD_XSEC: {(0, 0): 54.0, (1, 0): 59.0},
    DesignKind.SWD_COHORT: {(0, 0): 54.0, (1, 0): 59.0},
}
_RCT = (DesignKind.RCT_POST, DesignKind.RCT_PREPOST)
_COHORT = (DesignKind.CRT_PREPOST_COHORT, DesignKind.SWD_COHORT)
_WEDGE = (DesignKind.SWD_XSEC, DesignKind.SWD_COHORT)
# (cluster size, or subjects over 5, clusters per arm, wedge steps) at
# each count; the small wedge has 3 periods and equal steps, the large
# one 12 periods and unequal steps
_COUNTS = {
    "small": (6, (3, 3), {
        "steps_k": 2, "baseline_b": 1, "per_step_t": 1, "clusters_per_step": (3, 3),
    }),
    "large": (40, (30, 45), {
        "steps_k": 5, "baseline_b": 2, "per_step_t": 2,
        "clusters_per_step": (4, 6, 4, 6, 4),
    }),
}


class Case(NamedTuple):
    label: str
    spec: DesignSpec
    params: CorrelationParams
    policy: str | None
    alpha: float


def _sizes(shape: str, size: int, n_clusters: int):
    if shape == "common":
        return size
    if shape == "equal":
        return (size,) * n_clusters
    return tuple(size + i % 3 for i in range(n_clusters))


def _designs() -> Iterator[tuple[str, DesignSpec]]:
    for kind in DesignKind:
        means = _MEANS[kind]
        for count, (size, arms, steps) in _COUNTS.items():
            label = f"{kind.value} {count}"
            if kind in _RCT:
                yield label, DesignSpec(kind, per_group_n=5 * size, cell_means=means)
                continue
            fields = steps if kind in _WEDGE else {"clusters_per_arm": arms}
            n_clusters = sum(fields.get("clusters_per_step", arms))
            for shape in SIZE_SHAPES:
                sizes = _sizes(shape, size, n_clusters)
                spec = DesignSpec(kind, cluster_size=sizes, cell_means=means, **fields)
                yield f"{label} {shape}", spec


def _correlations(kind: DesignKind) -> Iterator[CorrelationParams]:
    if kind in _RCT:
        yield CorrelationParams(25.0, 0.0)
        return
    yield CorrelationParams(25.0, 0.1, 1.0)
    yield CorrelationParams(25.0, 0.05, 0.5, 0.6 if kind in _COHORT else 0.0)


def cases() -> Iterator[Case]:
    """The corpus's cases, in a fixed order."""
    scenarios = [
        (label, spec, params)
        for label, spec in _designs()
        for params in _correlations(spec.kind)
    ]
    scenarios += [(name, *PRESETS[name]) for name in sorted(PRESETS)]
    for label, spec, params in scenarios:
        for policy in POLICIES:
            for alpha in ALPHAS:
                name = f"{label} {params} policy={policy} alpha={alpha!r}"
                yield Case(name, spec, params, policy, alpha)


def record(case: Case) -> bytes:
    """The bytes a case adds to the digest: its label, then each call's outcome."""
    parts = [case.label.encode()]
    try:
        run = evaluate(case.spec, case.params, ddf_policy=case.policy, alpha=case.alpha)
        fit = run.fit
        parts += [
            fit.beta.tobytes(), fit.variance.hex().encode(),
            fit.weights.tobytes(), repr(run.result).encode(),
        ]
    except ValueError as exc:
        parts.append(f"evaluate refused: {exc}".encode())
    try:
        effect = design_effect_for(case.spec, case.params)
        factors = sorted((name, value.hex()) for name, value in effect.factors.items())
        parts.append(f"{effect.formula} {effect.value.hex()} {factors}".encode())
    except ValueError as exc:
        parts.append(f"design effect refused: {exc}".encode())
    return b"\1".join(parts) + b"\2"


def main(args: list[str]) -> int:
    each = "--each" in args
    digest = hashlib.sha256()
    count = 0
    for case in cases():
        data = record(case)
        digest.update(data)
        count += 1
        if each:
            print(hashlib.sha256(data).hexdigest()[:16], case.label)
    print(f"{count} cases")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
