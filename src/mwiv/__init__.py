"""Inference for instrumental-variable models with many weak instruments.

Public surface: dataset I/O, leave-out projection kernels, the jackknife
estimator and the normalized statistics, one-sided critical-value
curves with conditional-Wald quantiles, test/confidence-set inversion,
the asymptotic power laboratory, and a judge-design simulator.
"""

from .critval import (
    RHO_BUILD_FLOOR,
    RHO_CAP,
    CriticalValueCurve,
    CurveCache,
    TwoSidedTable,
    build_vtfo_curve,
    curve_csv_text,
    cw_critical_value,
    find_tangency,
    fixed_point,
    load_curve_csv,
    load_two_sided_table,
    small_rho_limit_c,
    snap_rho_to_grid,
    two_sided_chi2,
    write_curve_csv,
)
from .data import Dataset, read_dataset_csv, write_dataset_csv
from .errors import DataError, MwivError, NumericalError, TableError
from .estimators import (
    NormalizedStats,
    jive_point_estimate,
    jive_variance,
    normalized_stats,
)
from .inference import (
    METHODS,
    ConfidenceSet,
    CurveLibrary,
    TestDecision,
    UnboundednessCheck,
    cs_csv_text,
    default_grid,
    detect_unbounded,
    invert_confidence_set,
    run_test,
    write_cs_csv,
)
from .judge import (
    JudgeDesignSpec,
    simulate_judge_data,
)
from .power import (
    AltVariances,
    AsymptoticDGP,
    PowerCurveResult,
    alternative_variances,
    analytic_power_bounds,
    power_csv_text,
    rejection_rates,
    write_power_csv,
    write_power_svg,
)
from .projection import (
    ProjectionContext,
    build_projection,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MwivError",
    "DataError",
    "TableError",
    "NumericalError",
    "Dataset",
    "read_dataset_csv",
    "write_dataset_csv",
    "ProjectionContext",
    "build_projection",
    "NormalizedStats",
    "jive_point_estimate",
    "jive_variance",
    "normalized_stats",
    "RHO_CAP",
    "RHO_BUILD_FLOOR",
    "CriticalValueCurve",
    "CurveCache",
    "TwoSidedTable",
    "small_rho_limit_c",
    "fixed_point",
    "find_tangency",
    "build_vtfo_curve",
    "cw_critical_value",
    "two_sided_chi2",
    "snap_rho_to_grid",
    "load_two_sided_table",
    "load_curve_csv",
    "curve_csv_text",
    "write_curve_csv",
    "METHODS",
    "CurveLibrary",
    "TestDecision",
    "ConfidenceSet",
    "UnboundednessCheck",
    "run_test",
    "invert_confidence_set",
    "detect_unbounded",
    "default_grid",
    "cs_csv_text",
    "write_cs_csv",
    "AsymptoticDGP",
    "AltVariances",
    "PowerCurveResult",
    "alternative_variances",
    "rejection_rates",
    "analytic_power_bounds",
    "power_csv_text",
    "write_power_csv",
    "write_power_svg",
    "JudgeDesignSpec",
    "simulate_judge_data",
]
