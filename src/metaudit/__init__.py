"""Reliability auditing toolkit for meta-analyses of observational studies.

Quantifies per-study multiple-testing search spaces, converts reported
ratio statistics into p-values, diagnoses p-hacking through p-value plots
and bilinearity tests, and simulates selection-driven publication bias.
"""

from metaudit.effect_audit import (
    AuditReport,
    EffectRecord,
    EffectsTable,
    HockeyStickFit,
    MultiplicityReport,
    NoPlottableRecordsError,
    PValuePlot,
    audit,
    bilinearity_test,
    build_pvalue_plot,
    hockey_stick_fit,
    multiplicity_report,
    p_from_ratio_ci,
    record_from_statistic,
    uniformity_test,
)
from metaudit.fileio import ParseError, bundled_data_path
from metaudit.hacksim import SimConfig, SimResult, run_simulation
from metaudit.searchspace import (
    SearchSpaceOverflowError,
    SpaceSummary,
    StudyCounts,
    summarize_spaces,
)
from metaudit.statkernel import (
    InputError,
    OlsFit,
    RankDeficiencyError,
    TestResult,
    ks_uniform_test,
    ols_fit,
    quantile_type6,
    std_normal_cdf,
    std_normal_quantile,
    student_t_sf,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "EffectRecord",
    "EffectsTable",
    "HockeyStickFit",
    "InputError",
    "MultiplicityReport",
    "NoPlottableRecordsError",
    "OlsFit",
    "ParseError",
    "PValuePlot",
    "RankDeficiencyError",
    "SearchSpaceOverflowError",
    "SimConfig",
    "SimResult",
    "SpaceSummary",
    "StudyCounts",
    "TestResult",
    "audit",
    "bilinearity_test",
    "bundled_data_path",
    "build_pvalue_plot",
    "hockey_stick_fit",
    "ks_uniform_test",
    "multiplicity_report",
    "ols_fit",
    "p_from_ratio_ci",
    "quantile_type6",
    "record_from_statistic",
    "run_simulation",
    "std_normal_cdf",
    "std_normal_quantile",
    "student_t_sf",
    "summarize_spaces",
    "uniformity_test",
]
