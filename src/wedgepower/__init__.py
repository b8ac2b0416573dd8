"""Power and sample size for cluster randomized and stepped wedge trials.

Two routes to the same answer: closed-form design effects that inflate
an unclustered sample size, and direct evaluation of the planned GLS
analysis on an exemplary dataset, giving a noncentral F power.  A Monte
Carlo oracle checks either route by simulation.
"""

from .correlation import (
    BlockCovariance,
    CorrelationParams,
    Family,
    VarianceComponents,
    assemble_study_v,
    build_cluster_v,
    derive_components,
    family_for_kind,
    vcorr,
)
from .design_effects import (
    DesignEffectResult,
    EqualClusterPlan,
    SamplePlan,
    adjust_statistic,
    cluster_mean_correlation,
    de_ancova_prepost,
    de_simple,
    de_stepped_wedge,
    de_three_measurement,
    design_effect_for,
    equal_cluster_plan,
    inflate_sample_size,
)
from .designs import (
    PRESETS,
    CellTable,
    Contrast,
    DesignKind,
    DesignSpec,
    ExemplaryDataset,
    SpecValidationError,
    dataset_from_csv,
    cell_table,
    dataset_to_csv,
    decode_spec_document,
    design_matrix,
    ensure_valid,
    exemplary_dataset,
    get_preset,
    hypothesis_contrast,
    validate_spec,
)
from .distributions import (
    FTail,
    PowerResult,
    central_f_cdf,
    central_f_quantile,
    noncentral_f_cdf,
    power_from_f,
    regularized_incomplete_beta,
)
from .engine import (
    DDF_POLICIES,
    Evaluation,
    GlsEstimate,
    PowerAudit,
    analytic_power,
    default_ddf_policy,
    evaluate,
    fit_cells,
    power_audit,
    resolve_ddf,
    wald_f,
)
from .mc import (
    EmpiricalPower,
    SimulationPlan,
    empirical_power,
    replicate_stream,
    sample_replicate,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # distributions
    "FTail",
    "PowerResult",
    "regularized_incomplete_beta",
    "central_f_cdf",
    "central_f_quantile",
    "noncentral_f_cdf",
    "power_from_f",
    # correlation
    "Family",
    "CorrelationParams",
    "VarianceComponents",
    "BlockCovariance",
    "family_for_kind",
    "derive_components",
    "build_cluster_v",
    "vcorr",
    "assemble_study_v",
    # designs
    "DesignKind",
    "DesignSpec",
    "SpecValidationError",
    "ExemplaryDataset",
    "CellTable",
    "Contrast",
    "validate_spec",
    "ensure_valid",
    "exemplary_dataset",
    "cell_table",
    "design_matrix",
    "hypothesis_contrast",
    "dataset_to_csv",
    "dataset_from_csv",
    "decode_spec_document",
    "PRESETS",
    "get_preset",
    # design effects
    "DesignEffectResult",
    "SamplePlan",
    "EqualClusterPlan",
    "de_simple",
    "cluster_mean_correlation",
    "de_ancova_prepost",
    "de_stepped_wedge",
    "de_three_measurement",
    "inflate_sample_size",
    "equal_cluster_plan",
    "adjust_statistic",
    "design_effect_for",
    # engine
    "DDF_POLICIES",
    "GlsEstimate",
    "PowerAudit",
    "Evaluation",
    "default_ddf_policy",
    "fit_cells",
    "wald_f",
    "resolve_ddf",
    "evaluate",
    "analytic_power",
    "power_audit",
    # mc
    "SimulationPlan",
    "EmpiricalPower",
    "replicate_stream",
    "sample_replicate",
    "empirical_power",
]
