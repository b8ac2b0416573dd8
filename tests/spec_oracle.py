"""The spec check that validate_spec's faster path replaced, as an oracle.

``validate_spec`` answers the common case, a count >= 1 or a list of
them in each field the kind uses, None in the others, a dict of finite
float means and a float alpha, without its per-field message check.
This module keeps the check it replaced, which takes every field through
that message check, so the differential tests can require the same
messages and the same layout, compared with ``==``:

* ``count_errors`` is the old ``designs._count_errors``: a dict of
  exactness and a dict of usable fields, one ``check_count_field`` call
  per field.
* ``validate_spec`` adds the old means and alpha check to it.
"""

from __future__ import annotations

from typing import Mapping

from wedgepower import designs
from wedgepower.designs import DesignKind, DesignSpec
from wedgepower.distributions import is_real, is_whole

LISTED = ("clusters_per_arm", "clusters_per_step", "cluster_size")
COUNT_FIELDS = ("per_group_n", "steps_k", "baseline_b", "per_step_t", *LISTED)
MISSING = {
    "clusters_per_arm": "exactly two cluster counts required, got None",
    "clusters_per_step": "required for stepped wedge kinds",
    "cluster_size": "required for clustered kinds",
}


def exact_ints(values) -> bool:
    return isinstance(values, (list, tuple)) and set(map(type, values)) <= {int}


def check_count_field(errors: list[str], name: str, value, used: bool, exact: bool) -> bool:
    """Check one count field; True if usable."""
    path = f"design.{name}"
    if value is None:
        if used:
            missing = MISSING.get(name, "required for this design kind")
            errors.append(f"{path}: {missing}")
        return False
    listed = name in LISTED and isinstance(value, (list, tuple))
    if name == "clusters_per_arm" and not (listed and len(value) == 2):
        errors.append(f"{path}: exactly two cluster counts required, got {value!r}")
        return False
    if name == "clusters_per_step" and not listed:
        errors.append(f"{path}: must be a list, got {value!r}")
        return False
    if listed and exact and (not used or min(value, default=1) >= 1):
        return True
    before = len(errors)
    for i, count in enumerate(value if listed else (value,)):
        whole = is_whole(count)
        if whole and (not used or count >= 1):
            continue
        where = f"{path}[{i}]" if listed else path
        problem = "must be >= 1" if whole else "must be an integer"
        errors.append(f"{where}: {problem}, got {count!r}")
    return len(errors) == before


def count_errors(spec: DesignSpec):
    """The kind and count messages and the layout (None if not laid out)."""
    errors: list[str] = []
    known = isinstance(spec.kind, DesignKind)
    if not known:
        errors.append(
            f"design.kind: must be one of {sorted(k.value for k in DesignKind)}, "
            f"got {spec.kind!r}"
        )
    used = designs.kind_traits(spec.kind).counts if known else ()
    exact = {name: exact_ints(getattr(spec, name)) for name in COUNT_FIELDS}
    ok = {
        name: check_count_field(
            errors, name, getattr(spec, name), name in used, exact[name]
        )
        for name in COUNT_FIELDS
    }
    if "steps_k" in used and ok["steps_k"] and ok["clusters_per_step"]:
        cps = spec.clusters_per_step
        if len(cps) != spec.steps_k:
            errors.append(
                f"design.clusters_per_step: length {len(cps)} does not match "
                f"steps_k={spec.steps_k}"
            )
            ok["clusters_per_step"] = False
    counted = known and all(ok[name] for name in used if name != "cluster_size")
    layout = designs._layout(spec) if counted else None
    size = spec.cluster_size
    if "cluster_size" in used and counted and isinstance(size, (list, tuple)):
        n_clusters = sum(layout.clusters)
        if len(size) != n_clusters:
            errors.append(
                f"design.cluster_size: {len(size)} entries for {n_clusters} clusters"
            )
    n = designs._n_observations(layout, exact["cluster_size"]) if not errors else 0
    if n > 2**53:
        errors.append(f"design: {n} observations, more than floats count exactly (2**53)")
    return errors, layout


def validate_spec(spec: DesignSpec) -> list[str]:
    """Every message validate_spec gives for the spec."""
    errors, _ = count_errors(spec)
    means = spec.cell_means
    if not isinstance(means, Mapping):
        errors.append(f"design.means: must map cells to means, got {means!r}")
        means = {}
    elif not errors:
        got = set(means)
        expected = designs.kind_traits(spec.kind).mean_keys
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        if missing:
            errors.append(f"design.means: missing cells {missing}")
        if extra:
            errors.append(f"design.means: unexpected cells {extra}")
    for key, value in means.items():
        if not is_real(value):
            errors.append(
                f"design.means[{key}]: must be a finite real number, got {value!r}"
            )
    if not (is_real(spec.alpha) and 0.0 < spec.alpha < 1.0):
        errors.append(
            f"analysis.alpha: must be a real number in (0, 1), got {spec.alpha!r}"
        )
    return errors
