"""The package's public names: everything it exports or documents exists, and
every public value type is checked once and frozen after."""

import ast
import dataclasses
import functools
import importlib
import math
import operator
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
    build_pvalue_plot,
    bundled_data_path,
    multiplicity_report,
    ols_fit,
    record_from_statistic,
    run_simulation,
    summarize_spaces,
)
from metaudit.effect_audit import effects_from_statistics
from metaudit.fileio import read_effects_csv, write_effects_csv
from metaudit.searchspace import FiveNumberSummary
from metaudit.svgplot import render_pvalue_plot

Result = metaudit.TestResult  # a Test* name in the module would be collected as a test class

README = Path(__file__).parent.parent / "README.md"
README_BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_every_name_in_all_resolves():
    assert len(set(metaudit.__all__)) == len(metaudit.__all__)
    for name in metaudit.__all__:
        assert hasattr(metaudit, name), name


def test_names_the_readme_imports_exist():
    imported = [
        (node.module, alias.name)
        for block in README_BLOCKS
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert ("metaudit", "run_simulation") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_the_readme_python_blocks_run_as_written(tmp_path, monkeypatch):
    # Each block runs on its own, in a fresh namespace, and its commented figures hold.
    monkeypatch.chdir(tmp_path)
    namespaces = [{} for _ in README_BLOCKS]
    for block, namespace in zip(README_BLOCKS, namespaces):
        exec(compile(block, "README.md", "exec"), namespace)
    api, simulation = namespaces
    assert (api["study"].space1, api["study"].space2, api["study"].space3) == (28, 8192, 229376)
    assert f"{api['p']:.4f}" == "0.3601"
    write_effects_csv("records.csv", list(api["table"]))
    assert Path("copy.csv").read_bytes() == Path("records.csv").read_bytes()
    assert simulation["result"].publication_rate == 0.39786


# --- Checked once, frozen after -------------------------------------------------

VALUE_TYPES = [
    getattr(metaudit, name)
    for name in metaudit.__all__
    if dataclasses.is_dataclass(getattr(metaudit, name))
]


@pytest.mark.parametrize(
    "cls", [*VALUE_TYPES, FiveNumberSummary], ids=lambda cls: cls.__name__
)
def test_every_public_value_type_is_frozen(cls):
    # A report part that could be rebound after audit would reach report.json unchecked.
    assert cls.__dataclass_params__.frozen


def _built_values():
    counts = StudyCounts("s", 2, 3, 1, 2, covariate_names=["Age", "Sex"])
    summary = summarize_spaces([counts])
    records = [record_from_statistic(f"s{i}", 0.3 * i, 0.1) for i in range(1, 8)]
    report = audit(records, [counts])
    fit = ols_fit([[1.0] * 5, [float(x) for x in range(5)]], [0.0, 1.1, 1.9, 3.2, 3.9])
    result = run_simulation(SimConfig(tests_per_study=3, replicates=20, seed=2))
    return {
        "SimResult": (result, "estimate", -result.estimate),
        "TestResult": (report.uniformity, "p_value", 0.9),
        "OlsFit": (fit, "df", 99),
        "HockeyStickFit": (report.hockey_stick, "breakpoint", 99),
        "MultiplicityReport": (report.multiplicity, "adjusted_alpha", 0.5),
        "AuditReport": (report, "bilinearity", None),
        "PValuePlot": (report.plot, "excluded_ns_count", 5),
        "StudyCounts": (counts, "covariates", 50),
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


# Each fact is stored once: what follows from the fields is computed from them.
STORED = {
    "SimResult": ("estimate", "config"),
    "StudyCounts": ("study_id", "outcomes", "predictors", "lags", "covariates", "covariate_names"),
    "PValuePlot": ("excluded_ns_count", "p", "study_ids"),
}
COMPUTED = {
    "SimResult": (
        "p", "published", "replicate", "study", "publication_rate", "bias", "abs_bias", "mean_abs_estimate"
    ),
    "StudyCounts": ("space1", "space2", "space3"),
    "PValuePlot": ("n",),
}


@pytest.mark.parametrize("name", list(STORED))
def test_derived_values_are_computed_not_stored(name):
    # A stored copy of a derived value once disagreed with the fields it came from.
    value = _built_values()[name][0]
    assert tuple(field.name for field in dataclasses.fields(value)) == STORED[name]
    for attr in COMPUTED[name]:
        assert isinstance(vars(type(value))[attr], (property, functools.cached_property)), attr
        before = getattr(value, attr)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, attr, before)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, attr)
        assert np.array_equal(getattr(value, attr), before)


def test_checked_sequences_are_tuples():
    # A checked list in a frozen value could still be edited in place.
    values = _built_values()
    report, counts = values["AuditReport"][0], values["StudyCounts"][0]
    table = read_effects_csv(bundled_data_path("example_effects.csv"))
    for sequence in (report.plot.study_ids, table.study_ids, table.labels, counts.covariate_names):
        assert type(sequence) is tuple


EDITS = {
    # build_pvalue_plot once counted the row as excluded.
    "record-flag": (
        lambda values: setattr(values["record"], "not_significant_flag", "no"),
        dataclasses.FrozenInstanceError,
    ),
    # NumPy once raised "could not convert string to float: 'x'", naming no study.
    "record-ratio": (
        lambda values: setattr(values["record"], "ratio", "x"), dataclasses.FrozenInstanceError
    ),
    # report.json once got "study_id": 5.
    "plot-id": (lambda values: operator.setitem(values["plot"].study_ids, 0, 5), TypeError),
    # build_report_document once raised "JsonTable keys ... [8, 7, 7]".
    "plot-append": (lambda values: values["plot"].study_ids.append("x"), AttributeError),
    # A study with two covariates once gained a third name.
    "names-append": (lambda values: values["counts"].covariate_names.append("z"), AttributeError),
}


@pytest.mark.parametrize("edit", list(EDITS))
def test_an_edit_after_the_check_fails_at_the_edit(edit):
    records = [record_from_statistic(f"s{i}", 0.3 * i, 0.1) for i in range(1, 8)]
    counts = StudyCounts("s", 2, 3, 1, 2, covariate_names=["Age", "Sex"])
    plot = audit(records).plot
    apply, error = EDITS[edit]
    with pytest.raises(error):
        apply({"record": records[0], "plot": plot, "counts": counts})
    ranked = tuple(f"s{i}" for i in range(7, 0, -1))
    assert plot.study_ids == build_pvalue_plot(records).study_ids == ranked
    assert build_pvalue_plot(records).excluded_ns_count == 0
    assert counts.covariate_names == ("Age", "Sex")


def test_an_effects_table_is_unhashable():
    # It equals a list of its records, which has no hash either.
    with pytest.raises(TypeError, match="unhashable"):
        hash(read_effects_csv(bundled_data_path("example_effects.csv")))


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


_PLOT = build_pvalue_plot([EffectRecord("s", ratio=1.5, ci_low=1.2, ci_high=1.875)])
# Each site that checks a real against an open interval: its error type, the
# field it names, the interval, and a call that passes the value there.
OPEN_INTERVALS = {
    "SimConfig": (InputError, "alpha", "(0, 1)", lambda value: SimConfig(alpha=value)),
    "multiplicity_report": (
        ValueError, "alpha", "(0, 1)", lambda value: multiplicity_report([0.5], value, 1)
    ),
    "render_pvalue_plot": (
        ValueError, "alpha", "(0, 1)", lambda value: render_pvalue_plot(_PLOT, value)
    ),
    "EffectRecord": (
        ValueError, "confidence_level", "(0.5, 1)",
        lambda value: EffectRecord("s", confidence_level=value, not_significant_flag=True),
    ),
    "effects_from_statistics": (
        ValueError, "confidence_level", "(0.5, 1)",
        lambda value: effects_from_statistics(["s"], [""], [1.0], 0.1, value),
    ),
}


@pytest.mark.parametrize("site", OPEN_INTERVALS)
@pytest.mark.parametrize("bad", [0, 1, math.nan, math.inf, -math.inf, True, "0.5"], ids=repr)
def test_a_value_outside_its_open_interval_gives_one_message_at_every_site(site, bad):
    error, field, interval, call = OPEN_INTERVALS[site]
    rule = "must be a real number" if isinstance(bad, (bool, str)) else f"must lie in {interval}"
    message = f"{field} {rule}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as excinfo:
        call(bad)
    assert excinfo.type is error


def test_each_interval_check_keeps_its_place_in_the_check_order():
    with pytest.raises(InputError, match="^selection_rule must be one of"):
        SimConfig(alpha=2.0, selection_rule="x")
    with pytest.raises(ValueError, match="^m must be a real number, got 'm'$"):
        multiplicity_report([0.5], 2.0, "m")
    with pytest.raises(ValueError, match="^alpha must be a real number, got 'x'$"):
        multiplicity_report([0.5], "x", "m")
    with pytest.raises(ValueError, match="^study_id must be non-empty$"):
        EffectRecord(" ", confidence_level=2.0, not_significant_flag=True)
    with pytest.raises(ValueError, match="^standard_error must be positive"):
        effects_from_statistics(["s"], [""], [1.0], 0.0, 2.0)


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
