"""The package's public names: everything it exports or documents exists, and
every public value type is checked once and frozen after."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import metaudit
from metaudit import (
    EffectRecord,
    EffectsTable,
    InputError,
    SimConfig,
    StudyCounts,
    audit,
    compute_spaces,
    ols_fit,
    record_from_statistic,
    summarize_spaces,
)
from metaudit.searchspace import FiveNumberSummary

Result = metaudit.TestResult  # a Test* name in the module would be collected as a test class

README = Path(__file__).parent.parent / "README.md"


def test_every_name_in_all_resolves():
    assert len(set(metaudit.__all__)) == len(metaudit.__all__)
    for name in metaudit.__all__:
        assert hasattr(metaudit, name), name


def test_names_the_readme_imports_exist():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    imported = [
        (node.module, alias.name)
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert ("metaudit", "run_simulation") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


# --- Checked once, frozen after -------------------------------------------------

VALUE_TYPES = [
    getattr(metaudit, name)
    for name in metaudit.__all__
    if dataclasses.is_dataclass(getattr(metaudit, name))
]


@pytest.mark.parametrize(
    "cls", [*VALUE_TYPES, FiveNumberSummary], ids=lambda cls: cls.__name__
)
def test_every_public_value_type_but_the_effect_row_is_frozen(cls):
    # A report part that could be rebound after audit would reach report.json unchecked.
    assert cls.__dataclass_params__.frozen is (cls is not EffectRecord)


def _built_values():
    counts = StudyCounts("s", 2, 3, 1, 2, covariate_names=["Age", "Sex"])
    spaces = compute_spaces(counts)
    summary = summarize_spaces([spaces])
    records = [record_from_statistic(f"s{i}", 0.3 * i, 0.1) for i in range(1, 8)]
    report = audit(records, summary)
    fit = ols_fit([[1.0, x] for x in range(5)], [0.0, 1.1, 1.9, 3.2, 3.9])
    return {
        "TestResult": (report.uniformity, "p_value", 0.9),
        "OlsFit": (fit, "df", 99),
        "HockeyStickFit": (report.hockey_stick, "breakpoint", 99),
        "MultiplicityReport": (report.multiplicity, "adjusted_alpha", 0.5),
        "AuditReport": (report, "bilinearity", None),
        "StudyCounts": (counts, "covariates", 50),
        "SearchSpace": (spaces, "space3", 1),
        "FiveNumberSummary": (summary.space1, "median", 0.0),
        "SpaceSummary": (summary, "space3", summary.space1),
    }


@pytest.mark.parametrize("name", list(_built_values()))
def test_a_built_value_cannot_be_rebound(name):
    value, field, new = _built_values()[name]
    assert type(value).__name__ == name
    before = getattr(value, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, new)
    assert getattr(value, field) is before


VALID_FIELDS = {
    SimConfig: {},
    StudyCounts: dict(study_id="s", outcomes=1, predictors=1, lags=1, covariates=0),
    EffectRecord: dict(study_id="s", ratio=1.5, ci_low=1.2, ci_high=1.875),
    Result: dict(statistic=1.0, p_value=0.5),
}
NUMERIC_FIELDS = {
    SimConfig: (
        "n_studies", "tests_per_study", "correlation", "true_effect", "alpha", "replicates", "seed",
    ),
    StudyCounts: ("outcomes", "predictors", "lags", "covariates"),
    EffectRecord: ("ratio", "ci_low", "ci_high", "confidence_level"),
    Result: ("statistic", "p_value", "df"),
}


@pytest.mark.parametrize(
    "cls, field, bad",
    [
        (cls, field, bad)
        for cls, fields in NUMERIC_FIELDS.items()
        for field in fields
        for bad in ("0.3", None, True, False)
        if not (field == "df" and bad is None)  # None is df's "no t reference"
    ],
    ids=lambda arg: arg.__name__ if isinstance(arg, type) else repr(arg),
)
def test_a_wrong_typed_field_raises_the_class_error_naming_it(cls, field, bad):
    # A str or None once escaped the range checks as a bare TypeError, and a bool passed.
    error = InputError if cls is SimConfig else ValueError
    with pytest.raises(error, match=rf"\b{field} must be"):
        cls(**{**VALID_FIELDS[cls], field: bad})


@pytest.mark.parametrize(
    "cls, field", [(SimConfig, "censor_at_alpha"), (EffectRecord, "not_significant_flag")]
)
@pytest.mark.parametrize("bad", ["no", 1, np.bool_(True), None], ids=repr)
def test_a_bool_field_takes_only_a_bool(cls, field, bad):
    # A str flag once passed, and build_pvalue_plot counted its row as excluded.
    error = InputError if cls is SimConfig else ValueError
    with pytest.raises(error, match=rf"^{field} must be a bool, got {re.escape(repr(bad))}$"):
        cls(**{**VALID_FIELDS[cls], field: bad})


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: SimConfig(true_effect=10**400), "true_effect"),
        (lambda: Result(statistic=-(10**400), p_value=0.5), "statistic"),
        (lambda: EffectRecord("s", ratio=10**309, ci_low=1.0, ci_high=2.0), "ratio"),
    ],
    ids=["SimConfig", "TestResult", "EffectRecord"],
)
def test_an_int_past_the_largest_float_is_not_a_real(build, field):
    with pytest.raises(ValueError, match=rf"\b{field} must be a real number"):
        build()


def test_a_real_field_is_kept_as_given():
    statistic, df = np.float64(1.5), 3
    result = Result(statistic=statistic, p_value=1, df=df)
    assert result.statistic is statistic and result.df is df and result.p_value == 1


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: EffectRecord(5, ratio=1.2, ci_low=1.0, ci_high=1.5), "study_id"),
        (lambda: EffectRecord("s", None, ratio=1.2, ci_low=1.0, ci_high=1.5), "label"),
        (lambda: StudyCounts("a", 1, 1, 1, 1, covariate_names="x"), "covariate_names"),
        (lambda: StudyCounts("a", 1, 1, 1, 1, covariate_names=[7]), "covariate_names"),
        (
            lambda: EffectsTable(
                ["s", 5], ["", ""], *np.repeat([[1.5], [1.2], [1.875]], 2, axis=1),
                level=np.full(2, 0.95), ns=np.zeros(2, dtype=bool),
            ),
            "study_id",
        ),
    ],
    ids=["record-id", "record-label", "names-str", "names-int", "table-id"],
)
def test_ids_and_names_are_strs(build, field):
    # An int id once reached write_effects_csv, and a bare str counted its characters.
    with pytest.raises(ValueError, match=rf"\b{field} must be"):
        build()
