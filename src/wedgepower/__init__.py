"""Power and sample size for cluster randomized and stepped wedge trials.

Two routes to the same answer: closed-form design effects that inflate
an unclustered sample size, and direct evaluation of the planned GLS
analysis on an exemplary dataset, giving a noncentral F power.  A Monte
Carlo oracle checks either route by simulation.
"""

from .correlation import (
    MAX_MATRIX_ROWS,
    BlockCovariance,
    CorrelationParams,
    Family,
    VarianceComponents,
    build_cluster_v,
    derive_components,
    vcorr,
)
from .design_effects import (
    DesignEffectResult,
    SamplePlan,
    cluster_mean_correlation,
    de_ancova_prepost,
    de_simple,
    de_stepped_wedge,
    de_three_measurement,
    design_effect_for,
    inflate_sample_size,
)
from .designs import (
    PRESETS,
    CellTable,
    ColumnInfo,
    DesignKind,
    DesignSpec,
    ExemplaryDataset,
    SpecValidationError,
    cell_table,
    dataset_to_csv,
    dataset_to_table,
    decode_spec_document,
    ensure_valid,
    exemplary_dataset,
    get_preset,
    validate_spec,
)
from .distributions import (
    PowerResult,
    central_f_cdf,
    central_f_quantile,
    noncentral_f_cdf,
    power_from_f,
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
)
from .mc import (
    EmpiricalPower,
    SimulationPlan,
    empirical_power,
    replicate_stream,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # distributions
    "PowerResult",
    "central_f_cdf",
    "central_f_quantile",
    "noncentral_f_cdf",
    "power_from_f",
    # correlation
    "Family",
    "CorrelationParams",
    "VarianceComponents",
    "BlockCovariance",
    "derive_components",
    "build_cluster_v",
    "vcorr",
    "MAX_MATRIX_ROWS",
    # designs
    "DesignKind",
    "DesignSpec",
    "SpecValidationError",
    "ExemplaryDataset",
    "CellTable",
    "ColumnInfo",
    "validate_spec",
    "ensure_valid",
    "exemplary_dataset",
    "cell_table",
    "dataset_to_csv",
    "dataset_to_table",
    "decode_spec_document",
    "PRESETS",
    "get_preset",
    # design effects
    "DesignEffectResult",
    "SamplePlan",
    "de_simple",
    "cluster_mean_correlation",
    "de_ancova_prepost",
    "de_stepped_wedge",
    "de_three_measurement",
    "inflate_sample_size",
    "design_effect_for",
    # engine
    "DDF_POLICIES",
    "GlsEstimate",
    "PowerAudit",
    "Evaluation",
    "default_ddf_policy",
    "fit_cells",
    "evaluate",
    "analytic_power",
    "power_audit",
    # mc
    "SimulationPlan",
    "EmpiricalPower",
    "replicate_stream",
    "empirical_power",
]
