"""Tests for ratio-to-p conversion, p-value plots and the diagnostics.

The bilinearity and hockey-stick checks are verified against exact
rational (Fraction) least-squares oracles solved from the normal
equations, with tail probabilities from mpmath.
"""

import dataclasses
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metaudit import effect_audit, fileio
from metaudit.effect_audit import (
    INSUFFICIENT_DATA,
    P_FLOOR,
    AuditReport,
    EffectRecord,
    EffectsTable,
    HockeyStickFit,
    NoPlottableRecordsError,
    PValuePlot,
    _line_fit,
    audit,
    bilinearity_test,
    build_pvalue_plot,
    effects_from_statistics,
    hockey_stick_fit,
    multiplicity_report,
    p_from_ratio_ci,
    record_from_statistic,
    uniformity_test,
)
from metaudit.searchspace import StudyCounts, summarize_spaces
from metaudit.statkernel import InputError, std_normal_quantile

mpmath.mp.dps = 40

GOLDEN = Path(__file__).parent / "golden"

HOCKEY_PVALUES = [
    0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007,
    0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
]


def record(study_id, ratio, ci_low, ci_high, **kwargs):
    return EffectRecord(
        study_id=study_id, ratio=ratio, ci_low=ci_low, ci_high=ci_high, **kwargs
    )


def record_with_p(study_id: str, p: float, se: float = 0.1) -> EffectRecord:
    # Inverse construction: pick the z statistic that yields p, then lay
    # out a confidence interval with the chosen standard error around it.
    z_crit = std_normal_quantile(0.975)
    z = std_normal_quantile(1 - p / 2)
    return EffectRecord(
        study_id=study_id,
        ratio=math.exp(z * se),
        ci_low=math.exp((z - z_crit) * se),
        ci_high=math.exp((z + z_crit) * se),
    )


# Six p-values in rank order.
RANKED = [0.05, 0.1, 0.2, 0.5, 0.7, 0.9]


def plot_from_pvalues(pvalues: list[float]) -> PValuePlot:
    return PValuePlot(0, np.array(sorted(pvalues), dtype=float))


def exact_ols(design, response):
    """Gauss-Jordan on the rational normal equations.

    Returns (coefficients, inverse Gram diagonal, residual sum of squares),
    all exact Fractions.
    """
    n, k = len(design), len(design[0])
    gram = [
        [sum(design[i][a] * design[i][b] for i in range(n)) for b in range(k)]
        for a in range(k)
    ]
    rhs = [sum(design[i][a] * response[i] for i in range(n)) for a in range(k)]
    # Augment with the identity to read off the inverse.
    aug = [
        gram[r][:] + [rhs[r]] + [Fraction(int(r == c)) for c in range(k)]
        for r in range(k)
    ]
    width = 2 * k + 1
    for col in range(k):
        pivot = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [aug[r][j] - factor * aug[col][j] for j in range(width)]
    beta = [aug[r][k] for r in range(k)]
    inv_diag = [aug[r][k + 1 + r] for r in range(k)]
    fitted = [sum(design[i][j] * beta[j] for j in range(k)) for i in range(n)]
    rss = sum((response[i] - fitted[i]) ** 2 for i in range(n))
    return beta, inv_diag, rss


def t_sf_oracle(t: float, df: float) -> float:
    x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
    half = mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf("0.5"), 0, x, regularized=True) / 2
    return float(half if t > 0 else 1 - half)


class TestPFromRatioCi:
    def test_reported_pair_from_pooled_meta_analysis(self):
        rec = record("pooled", 1.003, 0.99659, 1.00946)
        assert p_from_ratio_ci(rec) == pytest.approx(0.36, abs=0.005)

    def test_lower_bound_at_null_gives_alpha(self):
        rec = record("edge", 1.05, 1.000, 1.1025)
        assert p_from_ratio_ci(rec) == pytest.approx(0.05, abs=0.0002)

    def test_null_point_estimate_gives_one(self):
        rec = record("null", 1.0, 0.9, 1 / 0.9)
        assert p_from_ratio_ci(rec) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_through_inverse_construction(self):
        for target in (0.001, 0.04, 0.36, 0.77, 0.999):
            rec = record_with_p("s", target)
            assert p_from_ratio_ci(rec) == pytest.approx(target, rel=1e-9)

    @given(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=1.0001, max_value=3.0),
        st.floats(min_value=0.6, max_value=0.999),
    )
    def test_reciprocal_invariance(self, log_ratio_scale, spread, level):
        ratio = math.exp(log_ratio_scale - 2.5)
        lo, hi = ratio / spread, ratio * spread
        p_fwd = p_from_ratio_ci(
            record("a", ratio, lo, hi, confidence_level=level)
        )
        p_inv = p_from_ratio_ci(
            record("a", 1 / ratio, 1 / hi, 1 / lo, confidence_level=level)
        )
        assert p_fwd == pytest.approx(p_inv, abs=1e-12)

    def test_widening_interval_increases_p(self):
        base = 1.4
        p_prev = None
        for c in (1.1, 1.3, 1.8, 2.5, 4.0):
            p = p_from_ratio_ci(record("w", base, base / c, base * c))
            if p_prev is not None:
                assert p > p_prev
            p_prev = p

    def test_rejects_ns_record(self):
        rec = EffectRecord(study_id="ns", not_significant_flag=True)
        with pytest.raises(ValueError, match="not-significant"):
            p_from_ratio_ci(rec)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError, match="degenerate"):
            p_from_ratio_ci(record("d", 1.2, 1.2, 1.2))

    def test_rejects_ratio_moved_outside_its_interval(self):
        # A checked record cannot be moved, and an edited copy is checked as it is made.
        rec = record("moved", 1.5, 1.25, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.ratio = 3.0
        with pytest.raises(ValueError, match=r"^study 'moved': ratio 3.0 outside its interval"):
            dataclasses.replace(rec, ratio=3.0)
        assert rec.ratio == 1.5

    def test_rejects_ratio_outside_interval(self):
        with pytest.raises(ValueError):
            record("o", 2.0, 0.9, 1.5)

    def test_clamped_below(self):
        rec = record_with_p("tiny", 1e-12, se=0.001)
        p = p_from_ratio_ci(rec)
        assert 1e-300 <= p < 1e-10

    @pytest.mark.parametrize("statistic", [1e4, -1e4])
    def test_statistic_off_the_ratio_scale_is_a_value_error(self, statistic):
        # exp overflows (OverflowError) or underflows to a zero bound.
        with pytest.raises(ValueError, match="ratio interval"):
            record_from_statistic("far", statistic, 0.1)

    def test_a_bad_statistic_comes_before_the_other_faults_of_its_row(self):
        with pytest.raises(ValueError, match="^statistic 10000.0 with standard error 0.1 gives"):
            record_from_statistic("", 1e4, 0.1)
        with pytest.raises(ValueError, match="^study_id must be non-empty$"):
            record_from_statistic("", 1.0, 0.1)

    @pytest.mark.parametrize("level", [1.0, math.nan, 1.5, 0.5, 0.3])
    def test_a_bad_confidence_level_gives_the_record_message(self, level):
        # Its critical value once failed first, with the normal quantile's message.
        message = rf"^confidence_level must lie in \(0.5, 1\), got {level!r}$"
        with pytest.raises(ValueError, match=message):
            record_from_statistic("s", 1.0, 0.1, level)


def scalar_ratio_interval(statistic, standard_error, confidence_level=0.95):
    """The per-row reference for effects_from_statistics: scalar math.exp per bound."""
    if not math.isfinite(statistic):
        raise InputError(f"statistic must be finite, got {statistic!r}")
    if not standard_error > 0:
        raise ValueError(f"standard_error must be positive, got {standard_error!r}")
    z = std_normal_quantile(0.5 * (1.0 + confidence_level))
    try:
        ratio = math.exp(statistic * standard_error)
        ci_low = math.exp((statistic - z) * standard_error)
        ci_high = math.exp((statistic + z) * standard_error)
    except OverflowError:
        ci_low = ratio = ci_high = math.inf
    if not 0.0 < ci_low <= ratio <= ci_high < math.inf or math.log(ci_low) == math.log(ci_high):
        raise InputError(
            f"statistic {statistic!r} with standard error {standard_error!r} gives a "
            "ratio interval outside the positive floating-point range"
        )
    return ratio, ci_low, ci_high


def interval_columns(statistics, standard_error, confidence_level=0.95):
    """Columns (ratio, ci_low, ci_high) of effects_from_statistics over the statistics."""
    n = len(statistics)
    table = effects_from_statistics(
        [f"s{i}" for i in range(n)], [""] * n, statistics, standard_error, confidence_level
    )
    return table.ratio, table.ci_low, table.ci_high


def ratio_interval(statistic, standard_error, confidence_level=0.95):
    """(ratio, ci_low, ci_high) of one statistic: interval_columns for one row."""
    columns = interval_columns([statistic], standard_error, confidence_level)
    return tuple(column.item() for column in columns)


def exp_limit() -> float:
    """The largest double whose math.exp is finite."""
    lo, hi = 709.0, 710.0  # exp(709) is finite, exp(710) overflows
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        try:
            math.exp(mid)
            lo = mid
        except OverflowError:
            hi = mid


def overflow_straddle(shift: float, se: float) -> tuple[float, float]:
    """Adjacent statistics s whose (s + shift) * se lies just under / just over exp's limit."""
    limit = exp_limit()
    s = limit / se - shift
    while (s + shift) * se > limit:
        s = math.nextafter(s, -math.inf)
    while (math.nextafter(s, math.inf) + shift) * se <= limit:
        s = math.nextafter(s, math.inf)
    return s, math.nextafter(s, math.inf)


def assert_intervals_match_scalar(statistics, se=0.1, level=0.95):
    """effects_from_statistics gives the scalar reference's values, or its first error."""
    expected = []
    # Python floats, as the emit step passes them to the scalar form.
    for statistic in np.asarray(statistics, dtype=float).tolist():
        try:
            expected.append(tuple(map(repr, scalar_ratio_interval(statistic, se, level))))
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                interval_columns(statistics, se, level)
            assert type(caught.value) is type(exc)
            assert str(caught.value) == str(exc)
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                ratio_interval(statistic, se, level)
            return
    columns = interval_columns(statistics, se, level)
    assert list(zip(*(map(repr, column.tolist()) for column in columns))) == expected
    one_row = [tuple(map(repr, ratio_interval(s, se, level))) for s in statistics]
    assert one_row == expected


class TestRatioIntervals:
    @pytest.mark.parametrize("se", [0.0, -1.0, math.nan])
    def test_standard_error_must_be_positive(self, se):
        with pytest.raises(ValueError, match=f"^standard_error must be positive, got {se!r}$"):
            effects_from_statistics(["s"], ["x"], [1.0], se)

    @pytest.mark.parametrize("level", [0.95, 0.9, 0.99])
    def test_random_statistics_match_the_scalar_reference(self, level):
        rng = random.Random(11)
        statistics = [rng.gauss(0.0, 3.0) for _ in range(500)]
        statistics += [rng.uniform(-7000.0, 7000.0) for _ in range(500)]
        assert_intervals_match_scalar(statistics, 0.1, level)
        assert_intervals_match_scalar([rng.gauss(0.0, 30.0) for _ in range(200)], 0.37, level)

    @pytest.mark.parametrize("se", [0.1, 1e-9])
    @pytest.mark.parametrize("bound", ["ci_high", "ratio", "ci_low"])
    def test_exp_overflow_threshold(self, se, bound):
        # The bound's exponent just under, then just over the largest finite
        # math.exp argument: past ci_high's only ci_high overflows, past
        # ci_low's all three do.  At se = 1e-9 all three sit within 2e-9 of it.
        z = effect_audit._critical_value(0.95)
        shift = {"ci_high": z, "ratio": 0.0, "ci_low": -z}[bound]
        under, over = overflow_straddle(shift, se)
        assert_intervals_match_scalar([under], se)
        assert_intervals_match_scalar([1.0, under, over, 2.0], se)
        assert_intervals_match_scalar([1.0, over], se)
        if bound == "ci_high":
            ratio, ci_low, ci_high = ratio_interval(under, se)
            assert ci_high == pytest.approx(1.7976931348623157e308, rel=1e-9)

    def test_underflow_subnormal_and_signed_zero(self):
        subnormal = [-7300.0, -7400.0, -7440.0, -7445.0]
        assert_intervals_match_scalar([-0.0, 0.0, *subnormal])
        ratio, ci_low, ci_high = ratio_interval(-7400.0, 0.1)
        assert 0.0 < ci_low < ratio < ci_high < 2.2250738585072014e-308
        assert ratio_interval(-0.0, 0.1)[0] == 1.0
        for statistic in (-7460.0, -7452.0, -1e4):  # ci_low, or more, underflows to 0
            assert_intervals_match_scalar([0.5, statistic])
            with pytest.raises(ValueError, match="ratio interval outside"):
                ratio_interval(statistic, 0.1)

    @pytest.mark.parametrize(
        "statistics",
        [
            [math.nan],
            [math.inf],
            [-math.inf],
            [0.5, 1.0, math.nan],
            [0.5, math.inf, math.nan],
            [0.5, -math.inf, 1e4],
            [0.5, 1e4, math.nan],
            [0.5, -1e4, math.inf],
        ],
    )
    def test_first_bad_statistic_raises_the_scalar_error(self, statistics):
        assert_intervals_match_scalar(statistics)
        assert_intervals_match_scalar(np.array(statistics))

    def test_empty_column(self):
        assert [len(column) for column in interval_columns([], 0.1)] == [0, 0, 0]


class TestEffectRecordValidation:
    def test_ns_record_needs_no_numbers(self):
        rec = EffectRecord(study_id="ns", not_significant_flag=True)
        assert rec.ratio is None

    def test_numeric_record_requires_all_numbers(self):
        with pytest.raises(ValueError):
            EffectRecord(study_id="x", ratio=1.1, ci_low=1.0, ci_high=None)

    @pytest.mark.parametrize("level", [0.5, 1.0, 0.0, 1.5])
    def test_confidence_level_bounds(self, level):
        with pytest.raises(ValueError, match="confidence_level"):
            record("x", 1.1, 1.0, 1.2, confidence_level=level)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            record("x", -1.0, 0.5, 1.5)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            record("x", 1.1, 1.2, 1.0)

    @pytest.mark.parametrize("field", ["ratio", "ci_low", "ci_high"])
    def test_an_ns_records_numbers_are_none_or_reals(self, field):
        # A str once passed, and the table built from the record died in NumPy naming no study.
        for bad in ("x", True):
            with pytest.raises(ValueError, match=rf"^study 'ns': {field} must be a real number"):
                EffectRecord("ns", **{field: bad}, not_significant_flag=True)
        EffectRecord("ns", **{field: -math.inf}, not_significant_flag=True)  # any real is kept


GOOD_ROW = {"study_id": "good", "ratio": 1.5, "ci_low": 1.25, "ci_high": 2.0, "confidence_level": 0.95}
NS_ROW = {"study_id": "ns", "ratio": math.nan, "ci_low": math.nan, "ci_high": math.nan,
          "confidence_level": 0.9, "not_significant_flag": True}
# Each a change to GOOD_ROW that breaks EffectRecord's contract.
BAD_ROWS = {
    "level-0.3": {"confidence_level": 0.3},
    "empty-id": {"study_id": ""},
    "blank-id": {"study_id": " \t"},
    "negative-ci_low": {"ci_low": -1.25},
    "nan-ratio": {"ratio": math.nan},
    "inf-ci_high": {"ci_high": math.inf},
    "ratio-outside-interval": {"ratio": 3.0},
}


def table_from_rows(rows: list[dict]) -> EffectsTable:
    """An EffectsTable built from columns, never passing through EffectRecord."""
    def column(name):
        return np.array([row[name] for row in rows], dtype=float)

    return EffectsTable(
        [row["study_id"] for row in rows], ["lab"] * len(rows),
        column("ratio"), column("ci_low"), column("ci_high"), level=column("confidence_level"),
        ns=np.array([row.get("not_significant_flag", False) for row in rows], dtype=bool),
    )


def record_error(row: dict) -> str:
    with pytest.raises(ValueError) as error:
        EffectRecord(label="lab", **row)
    return str(error.value)


class TestEffectsTableChecksItsRows:
    @pytest.mark.parametrize("change", BAD_ROWS.values(), ids=BAD_ROWS)
    def test_bad_row_raises_the_records_error(self, change):
        # The ns row's NaN numbers must not be taken for the bad row.
        bad = {**GOOD_ROW, "study_id": "bad", **change}
        with pytest.raises(ValueError) as got:
            table_from_rows([GOOD_ROW, NS_ROW, bad, GOOD_ROW])
        assert str(got.value) == record_error(bad)

    @pytest.mark.parametrize(
        "first, second",
        [("ratio-outside-interval", "level-0.3"), ("level-0.3", "empty-id"), ("empty-id", "nan-ratio")],
    )
    def test_first_of_two_bad_rows_named(self, first, second):
        rows = [{**GOOD_ROW, "study_id": name, **BAD_ROWS[name]} for name in (first, second)]
        with pytest.raises(ValueError) as got:
            table_from_rows([GOOD_ROW, *rows, GOOD_ROW])
        assert str(got.value) == record_error(rows[0])
        assert got.value.index == 1  # the position that the reader turns into a line

    def test_table_raises_exactly_when_a_rows_record_raises(self):
        # The column pass only picks the rows that EffectRecord surely accepts.
        # Over adversarial rows, a table must raise the error and .index of
        # its first row whose EffectRecord raises, and accept every other table.
        rng = random.Random(19)
        garbage = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5, 5e-324, 1e-310, 1.0, 2.0]
        levels = [0.95] * 6 + [0.9, 0.5, 1.0, math.nan, math.nextafter(0.5, 1), math.nextafter(1, 0)]

        def ulps(value, k):
            for _ in range(abs(k)):
                value = math.nextafter(value, math.copysign(math.inf, k))
            return value

        def numbers(kind):
            if kind == 0:
                return 1.5, 1.25, 2.0
            if kind == 1:
                return tuple(rng.choice(garbage) for _ in range(3))
            if kind == 2:  # reversed bounds, or a ratio outside its bounds
                return rng.choice([(1.5, 2.0, 1.25), (2.5, 1.25, 2.0), (1.0, 1.25, 2.0)])
            low = rng.choice([1e-300, 1.0, 1e300]) * (1.0 + rng.uniform(-(2.0**-20), 2.0**-20))
            if kind == 3:  # bounds 1-3 ulps apart
                high = ulps(low, rng.randint(1, 3))
            elif kind == 4:  # high/low just above or just below 1 + 2^-40
                high = ulps(low * (1.0 + 2.0**-40), rng.randint(-3, 3))
            else:  # relative gaps from 2^-54 to 2^-38
                high = low * (1.0 + 2.0 ** rng.uniform(-54.0, -38.0))
            return rng.choice([low, high]), low, high

        def row(i):
            kind = rng.choice([0, 0, 0, 0, 1, 2, 3, 4, 5])
            ratio, low, high = numbers(kind)
            return {
                "study_id": "" if rng.random() < 0.05 else f"s{i}",
                "ratio": ratio, "ci_low": low, "ci_high": high,
                "confidence_level": rng.choice(levels),
                "not_significant_flag": rng.random() < 0.2,  # ns rows keep their garbage numbers
                "near": kind >= 3,
            }

        def first_error(rows):
            for index, r in enumerate(rows):
                numbers = {} if r["not_significant_flag"] else {
                    name: r[name] for name in ("ratio", "ci_low", "ci_high")
                }
                try:
                    EffectRecord(
                        r["study_id"], "lab", **numbers, confidence_level=r["confidence_level"],
                        not_significant_flag=r["not_significant_flag"],
                    )
                except ValueError as exc:
                    return index, str(exc)
            return None

        outcomes, near_outcomes = [], set()
        for trial in range(2000):
            rows = [row(i) for i in range(rng.randint(1, 6))]
            expected = first_error(rows)
            try:
                table_from_rows(rows)
            except ValueError as exc:
                assert (exc.index, str(exc)) == expected, rows
            else:
                assert expected is None, rows
            outcomes.append(expected is None)
            for r in rows:
                if r["near"]:
                    error = first_error([r])
                    near_outcomes.add(error is None or "degenerate interval" in error[1])
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9
        assert near_outcomes == {True, False}  # accepted, and rejected for one logarithm

    def test_unequal_column_lengths_rejected(self):
        table = table_from_rows([GOOD_ROW, GOOD_ROW])
        with pytest.raises(ValueError, match=r"one length and a bool ns: \[2, 2, 1, 2, 2, 2, 2\]"):
            EffectsTable(table.study_ids, table.labels, table.ratio[:1], table.ci_low,
                         table.ci_high, level=table.level, ns=table.ns)

    def test_checked_rows_cannot_be_edited(self):
        table = table_from_rows([GOOD_ROW, GOOD_ROW])
        for name in ("ratio", "ci_low", "ci_high", "level", "ns"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 0.3
        for name in ("study_ids", "labels"):
            with pytest.raises(TypeError):
                getattr(table, name)[0] = ""
        assert table == [EffectRecord(label="lab", **GOOD_ROW)] * 2

    @pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(EffectsTable)])
    def test_checked_fields_cannot_be_rebound(self, name):
        # Once `t.ratio = np.array([-1.0]); t.study_ids = ("",)` went through,
        # and write_effects_csv wrote a row that read_effects_csv rejects.
        table = table_from_rows([GOOD_ROW])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(table, name, np.array([-1.0]))
        assert table == [EffectRecord(label="lab", **GOOD_ROW)]

    def test_takes_no_line_numbers(self):
        # A reader's lines stay in the reader, which warns of repeated ids itself.
        table = table_from_rows([GOOD_ROW])
        with pytest.raises(TypeError, match="lines"):
            EffectsTable(table.study_ids, table.labels, table.ratio, table.ci_low,
                         table.ci_high, level=table.level, ns=table.ns, lines=[2])

    @pytest.mark.parametrize("ns", [np.zeros(2, dtype=int), [False, False]], ids=["int", "list"])
    def test_ns_that_is_not_a_bool_array_rejected(self, ns):
        table = table_from_rows([GOOD_ROW, GOOD_ROW])
        with pytest.raises(ValueError, match="bool ns"):
            EffectsTable(table.study_ids, table.labels, table.ratio, table.ci_low,
                         table.ci_high, level=table.level, ns=ns)


class TestBuildPValuePlot:
    def test_sorts_ascending(self):
        records = [
            record_with_p("a", 0.9),
            record_with_p("b", 0.2),
            record_with_p("c", 0.6),
        ]
        plot = build_pvalue_plot(records)
        assert plot.n == 3
        assert plot.p.tolist() == pytest.approx([0.2, 0.6, 0.9], rel=1e-9)
        assert plot.study_ids == ("b", "c", "a")

    def test_reference_line_n3(self):
        plot = build_pvalue_plot([record_with_p(s, 0.5) for s in "abc"])
        assert plot.reference().tolist() == [0.25, 0.5, 0.75]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            # Once accepted, to fail later inside json_dumps.
            ({"p": np.array([0.1, 0.2, 0.4]), "study_ids": ["a"]}, "needs n study ids"),
            ({"p": np.array([0.1, 0.2, 0.4]), "study_ids": list("abcd")}, "needs n study ids"),
            # Once accepted, and taken as ranked by the diagnostics.
            (
                {"p": np.array([0.9, 0.1, 0.5, 0.2, 0.7, 0.05]), "study_ids": list("abcdef")},
                "must ascend within",
            ),
            ({"p": np.array([-0.5, 3.0])}, "must ascend within"),
            # Once NumPy's "truth value of an array ... is ambiguous", naming no field.
            ({"p": np.array([[0.1, 0.2], [0.3, 0.4]])}, "^p must be a 1-D array"),
        ],
    )
    def test_wrong_number_of_points_or_ids_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            PValuePlot(excluded_ns_count=0, **kwargs)

    @pytest.mark.parametrize(
        "field, bad, match",
        [
            # Once accepted: the report said "-3 records flagged not-significant were excluded".
            ("excluded_ns_count", -3, "^excluded_ns_count must be a nonnegative integer, got -3$"),
            # Once written to report.json as "excluded_ns_count": true.
            ("excluded_ns_count", True, "^excluded_ns_count must be a nonnegative integer, got True$"),
            # Once an AttributeError: 'bool' object has no attribute 'all'.
            ("p", RANKED, "^p must be a float64 array, got <class 'list'>$"),
            # Once accepted, and uniformity_test called its 0.1 outside [0, 1].
            ("p", np.array(RANKED, dtype=np.float32), "^p must be a float64 array, got float32$"),
            # Once accepted, to reach report.json as "study_id": 5.
            ("study_ids", (5, *"bcdef"), "^study_ids must be a sequence of strs$"),
            # Once accepted as the plot of one-character ids "a" to "f".
            ("study_ids", "abcdef", "^study_ids must be a sequence of strs, not a str$"),
            # Once accepted, a column of six one-element rows.
            ("p", np.array(RANKED).reshape(6, 1), "^p must be a 1-D array, got 2 dimensions$"),
        ],
        ids=[
            "negative-excluded", "bool-excluded", "list-p", "float32-p", "int-id",
            "str-ids", "column-p",
        ],
    )
    def test_a_wrong_typed_field_rejected_naming_it(self, field, bad, match):
        valid = dict(excluded_ns_count=0, p=np.array(RANKED), study_ids=tuple("abcdef"))
        with pytest.raises(ValueError, match=match):
            PValuePlot(**{**valid, field: bad})

    @pytest.mark.parametrize("keyword", ["points", "reference_line"])
    def test_one_constructor_form(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            PValuePlot(0, np.array([0.5]), **{keyword: [(1, 0.5)]})

    def test_ns_records_excluded_and_counted(self):
        records = [record_with_p(f"s{i:02d}", (i + 1) / 15) for i in range(12)]
        records += [
            EffectRecord(study_id="ns1", not_significant_flag=True),
            EffectRecord(study_id="ns2", not_significant_flag=True),
        ]
        plot = build_pvalue_plot(records)
        assert plot.n == 12
        assert plot.excluded_ns_count == 2
        assert len(plot.p) == len(plot.study_ids) == 12

    def test_tie_break_by_study_id(self):
        records = [record_with_p("zz", 0.4), record_with_p("aa", 0.4)]
        report = audit(records + [record_with_p("mm", 0.1)])
        assert report.plot.study_ids == ("mm", "aa", "zz")

    def test_all_ns_raises(self):
        records = [EffectRecord(study_id="ns", not_significant_flag=True)]
        with pytest.raises(NoPlottableRecordsError):
            build_pvalue_plot(records)

    def test_empty_raises(self):
        with pytest.raises(NoPlottableRecordsError):
            build_pvalue_plot([])

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=30))
    def test_pvalues_nondecreasing_ranks_complete(self, pvalues):
        records = [record_with_p(f"s{i:03d}", p) for i, p in enumerate(pvalues)]
        plot = build_pvalue_plot(records)
        ps = plot.p.tolist()
        assert ps == sorted(ps)
        assert plot.n == len(ps) == len(pvalues)


class TestUniformityTest:
    def test_grid_matches_reference_line_exactly(self):
        plot = plot_from_pvalues([i / 15 for i in range(1, 15)])
        result = uniformity_test(plot)
        assert result.statistic == pytest.approx(1 / 15, abs=1e-12)
        assert result.p_value > 0.9
        assert result.method == "ks-uniform"
        assert result.verdict is None

    def test_all_tiny_pvalues_reject(self):
        plot = plot_from_pvalues([0.0009 - i * 1e-5 for i in range(10)])
        result = uniformity_test(plot)
        assert result.statistic > 0.9
        assert result.p_value < 1e-6

    def test_small_n_flagged_insufficient(self):
        plot = plot_from_pvalues([0.2, 0.5, 0.8])
        result = uniformity_test(plot)
        assert result.verdict == INSUFFICIENT_DATA
        assert math.isfinite(result.statistic)

    def test_size_calibration_over_seeded_draws(self):
        rng = random.Random(881)
        rejections = 0
        for _ in range(100):
            plot = plot_from_pvalues([rng.random() for _ in range(14)])
            if uniformity_test(plot).p_value < 0.05:
                rejections += 1
        assert rejections <= 10


class TestBilinearityTest:
    def test_exact_linear_input_accepts(self):
        plot = plot_from_pvalues([0.03 + 0.06 * i for i in range(1, 15)])
        result = bilinearity_test(plot)
        assert abs(result.statistic) < 1e-6
        assert result.p_value >= 0.999
        assert result.method == "quadratic-ols"
        assert result.df == 11

    def test_two_regime_input_rejects(self):
        plot = plot_from_pvalues(HOCKEY_PVALUES)
        result = bilinearity_test(plot)
        assert result.p_value < 0.01

    def test_two_regime_input_matches_exact_oracle(self):
        ordered = sorted(HOCKEY_PVALUES)
        design = [[Fraction(1), Fraction(i), Fraction(i * i)] for i in range(1, 15)]
        response = [Fraction(str(p)) for p in ordered]
        beta, inv_diag, rss = exact_ols(design, response)
        sigma2 = rss / (14 - 3)
        se2 = math.sqrt(float(sigma2 * inv_diag[2]))
        t_exact = float(beta[2]) / se2
        p_exact = 2 * t_sf_oracle(abs(t_exact), 11)
        result = bilinearity_test(plot_from_pvalues(HOCKEY_PVALUES))
        assert result.statistic == pytest.approx(t_exact, rel=1e-9)
        assert result.p_value == pytest.approx(p_exact, rel=1e-6)
        assert result.df == 11

    def test_minimal_n4_reports_df1(self):
        plot = plot_from_pvalues([0.1, 0.3, 0.35, 0.9])
        result = bilinearity_test(plot)
        assert result.df == 1
        assert 0 <= result.p_value <= 1

    def test_below_minimum_raises(self):
        with pytest.raises(ValueError, match="at least 4"):
            bilinearity_test(plot_from_pvalues([0.2, 0.4, 0.6]))

    @given(
        st.floats(min_value=0.001, max_value=0.2),
        st.floats(min_value=0.001, max_value=0.05),
        st.integers(min_value=5, max_value=25),
    )
    def test_affine_input_has_vanishing_quadratic_term(self, a, b, n):
        pvalues = [a + b * i for i in range(1, n + 1)]
        if max(pvalues) > 1:
            return
        result = bilinearity_test(plot_from_pvalues(pvalues))
        assert abs(result.statistic) < 1e-6
        assert result.p_value >= 0.999


class TestHockeyStickFit:
    def test_two_regime_breakpoint_and_slopes(self):
        fit = hockey_stick_fit(plot_from_pvalues(HOCKEY_PVALUES))
        assert fit.breakpoint == 7
        assert fit.left_slope == pytest.approx(0.001, abs=1e-12)
        assert fit.right_slope == pytest.approx(0.1, abs=1e-12)
        assert fit.sse == pytest.approx(0.0, abs=1e-20)

    def test_exact_linear_ties_resolve_to_smallest_k(self):
        # i/16 is exactly collinear in binary, so every exact total is 0.
        fit = hockey_stick_fit(plot_from_pvalues([i / 16 for i in range(1, 11)]))
        assert fit.breakpoint == 2
        assert fit.left_slope == pytest.approx(fit.right_slope, abs=1e-9)
        assert fit.sse == pytest.approx(0.0, abs=1e-18)

    def test_matches_exact_scan_oracle(self):
        rng = random.Random(4242)
        for _ in range(25):
            n = rng.randint(6, 16)
            pvalues = sorted(rng.random() for _ in range(n))
            fit = hockey_stick_fit(plot_from_pvalues(pvalues))
            best_k, best_sse = None, None
            ranks = list(range(1, n + 1))
            for k in range(2, n - 1):
                sse = self._exact_two_line_sse(ranks, pvalues, k)
                if best_sse is None or sse < best_sse:
                    best_k, best_sse = k, sse
            assert fit.breakpoint == best_k
            assert fit.sse == pytest.approx(float(best_sse), abs=1e-12)

    @staticmethod
    def _exact_two_line_sse(ranks, pvalues, k):
        def line_sse(xs, ys):
            n = len(xs)
            xbar = sum(xs) / n
            ybar = sum(ys) / n
            sxx = sum((x - xbar) ** 2 for x in xs)
            slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
            intercept = ybar - slope * xbar
            return sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))

        to_frac = lambda seq: [Fraction(str(v)) for v in seq]
        left = line_sse(to_frac(ranks[:k]), to_frac(pvalues[:k]))
        right = line_sse(to_frac(ranks[k:]), to_frac(pvalues[k:]))
        return left + right

    def test_never_worse_than_single_line(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(6, 20)
            pvalues = sorted(rng.random() for _ in range(n))
            fit = hockey_stick_fit(plot_from_pvalues(pvalues))
            ranks = list(range(1, n + 1))
            xbar = sum(ranks) / n
            ybar = sum(pvalues) / n
            sxx = sum((x - xbar) ** 2 for x in ranks)
            slope = sum(
                (x - xbar) * (y - ybar) for x, y in zip(ranks, pvalues)
            ) / sxx
            single = sum(
                (y - (ybar - slope * xbar) - slope * x) ** 2
                for x, y in zip(ranks, pvalues)
            )
            assert fit.sse <= single + 1e-12

    def test_below_minimum_raises(self):
        with pytest.raises(ValueError, match="insufficient points"):
            hockey_stick_fit(plot_from_pvalues([0.1, 0.2, 0.3, 0.4, 0.5]))


def reference_line_fit(xs, ys):
    """The generator form of _line_fit that the NumPy terms replaced, kept as its reference."""
    n = len(xs)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    sse = math.fsum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    return intercept, slope, sse


def exact_breakpoint(ys) -> int:
    """The breakpoint with the smallest exact two-segment SSE over every k, ties to the smaller k."""
    scores = exact_two_segment_scores(ys, range(2, len(ys) - 1))
    return min(scores, key=lambda k: scores[k][0])


def exact_scan_hockey_stick(plot: PValuePlot) -> HockeyStickFit:
    """Reference: the exact breakpoint, with the reference line fit's slopes and SSE there."""
    xs = [float(i) for i in range(1, plot.n + 1)]
    ys = plot.p.tolist()
    k = exact_breakpoint(ys)
    _, left_slope, left_sse = reference_line_fit(xs[:k], ys[:k])
    _, right_slope, right_sse = reference_line_fit(xs[k:], ys[k:])
    return HockeyStickFit(k, left_slope, right_slope, left_sse + right_sse)


PLOT_SHAPES = {
    "uniform": lambda rng, n: [rng.random() for _ in range(n)],
    "skewed": lambda rng, n: [rng.random() ** 6 for _ in range(n)],
    "selected-over-null": lambda rng, n: [
        rng.random() ** (8 if i % 3 == 0 else 1) for i in range(n)
    ],
    "collinear": lambda rng, n: [0.9 * i / n for i in range(1, n + 1)],
    "duplicated": lambda rng, n: [rng.choice((0.01, 0.2, 0.5, 1.0)) for _ in range(n)],
    "two-decimal": lambda rng, n: [max(0.01, round(rng.random(), 2)) for _ in range(n)],
    "clustered": lambda rng, n: [1e-8 * rng.random() for _ in range(n)],
    "floor-clamped": lambda rng, n: [
        P_FLOOR if rng.random() < 0.5 else rng.random() for _ in range(n)
    ],
    "all-floor": lambda rng, n: [P_FLOOR] * n,
    "squares-underflow": lambda rng, n: [1e-160 * rng.random() + P_FLOOR for _ in range(n)],
    "ulps-below-one": lambda rng, n: [1.0 - rng.randint(0, 50) * 2.0**-53 for _ in range(n)],
}


@pytest.mark.parametrize("shape", sorted(PLOT_SHAPES))
def test_line_fit_equals_generator_form(shape):
    # Every segment of a few plots of each shape, bit for bit.
    rng = random.Random(f"line-fit-{shape}")
    for n in (6, 9, 40, 301):
        ys = sorted(PLOT_SHAPES[shape](rng, n))
        xs = [float(i) for i in range(1, n + 1)]
        for k in range(2, n - 1):
            for segment in (slice(None, k), slice(k, None)):
                got = _line_fit(np.array(xs[segment]), np.array(ys[segment]))
                assert list(map(repr, got)) == list(map(repr, reference_line_fit(xs[segment], ys[segment])))


@pytest.mark.parametrize("shape", sorted(PLOT_SHAPES))
def test_hockey_stick_fit_equals_full_scan(shape):
    # The linear scan only filters breakpoints; the winner must be the exact
    # scan's over every k, and its fields exactly the reference fit's there.
    rng = random.Random(f"hockey-{shape}")
    for n in [6, 7, 8, 400] + [rng.randint(9, 300) for _ in range(16)]:
        plot = plot_from_pvalues(PLOT_SHAPES[shape](rng, n))
        assert hockey_stick_fit(plot) == exact_scan_hockey_stick(plot)


FLOOR_WITH_TAIL = [P_FLOOR] * 390 + [10.0 ** e for e in range(-291, -191, 10)]


@pytest.mark.parametrize(
    "ys, k",
    [
        # 0.05 * i is not collinear in binary: the exact totals differ.
        ([0.05 * i for i in range(1, 11)], 5),
        ([P_FLOOR] * 400, 2),
        # The shape of simulate --true-effect 40: P_FLOOR ties, then a short tail.
        (FLOOR_WITH_TAIL, 398),
        (FLOOR_WITH_TAIL[-40:], 38),
        ([P_FLOOR] * 390 + [i / 1024 for i in range(1, 11)], 390),
    ],
    ids=["twentieths", "all-floor", "floor-with-tail", "floor-with-tail-40", "floor-then-line"],
)
def test_tied_plots_take_the_exact_breakpoint(ys, k):
    assert exact_breakpoint(ys) == k
    plot = plot_from_pvalues(ys)
    assert hockey_stick_fit(plot) == exact_scan_hockey_stick(plot)


def counted_hockey_stick_fit(monkeypatch, plot: PValuePlot) -> tuple[HockeyStickFit, list[int]]:
    """The fit, and the segment length of each _line_fit call that it made."""
    calls = []

    def counted_line_fit(xs, ys):
        calls.append(len(xs))
        return _line_fit(xs, ys)

    monkeypatch.setattr(effect_audit, "_line_fit", counted_line_fit)
    fit = hockey_stick_fit(plot)
    monkeypatch.undo()
    return fit, calls


@pytest.mark.parametrize(
    "p, k",
    [(np.full(40_000, P_FLOOR), 2), (np.arange(1, 40_001) / 40_001, None)],
    ids=["all-floor", "ranks-over-n-plus-1"],
)
def test_tied_plots_at_scale_fit_only_the_winner(monkeypatch, p, k):
    # Every k is a candidate here; only the winner is fitted.
    fit, calls = counted_hockey_stick_fit(monkeypatch, PValuePlot(0, p))
    assert calls == [fit.breakpoint, len(p) - fit.breakpoint]
    assert k is None or fit.breakpoint == k


def test_hockey_stick_fit_at_scale(monkeypatch):
    n = 50_000
    rng = random.Random(50_000)
    plot = plot_from_pvalues(PLOT_SHAPES["selected-over-null"](rng, n))
    fit, calls = counted_hockey_stick_fit(monkeypatch, plot)
    assert len(calls) == 2
    xs = [float(i) for i in range(1, n + 1)]
    ys = plot.p.tolist()

    def two_segment(k):
        _, left_slope, left_sse = _line_fit(xs[:k], ys[:k])
        _, right_slope, right_sse = _line_fit(xs[k:], ys[k:])
        return left_slope, right_slope, left_sse + right_sse

    k = fit.breakpoint
    assert (fit.left_slope, fit.right_slope, fit.sse) == two_segment(k)
    for j in sorted({k - 1, k + 1, *rng.sample(range(2, n - 1), 48)}):
        assert fit.sse <= two_segment(j)[2]


def welford_running_line_scores(points, n):
    """The Welford pass that the scan replaced, kept as its reference.

    Entry m holds, for the first m points, the line's SSE (clamped at 0,
    and 0 below two points) and Syy.
    """
    sse = [0.0] * (n + 1)
    syy = [0.0] * (n + 1)
    x_mean = y_mean = sxx = sxy = s_yy = 0.0
    for m, (x, y) in enumerate(points, start=1):
        dx = x - x_mean
        dy = y - y_mean
        x_mean += dx / m
        y_mean += dy / m
        ry = y - y_mean
        sxx += dx * (x - x_mean)
        sxy += dx * ry
        s_yy += dy * ry
        syy[m] = s_yy
        if m >= 2:
            sse[m] = max(0.0, s_yy - sxy * sxy / sxx)
    return sse, syy


def exact_two_segment_scores(ys, breakpoints):
    """Exact (SSE, Syy) totals of the two segments at each breakpoint, as Fractions.

    Every double is an integer over a power of two, so the ys scaled by a
    common power of two are integers, and integer prefix sums give each
    segment's centred sums exactly.
    """
    n = len(ys)
    ratios = [y.as_integer_ratio() for y in ys]
    shift = max(den.bit_length() - 1 for _, den in ratios)
    scaled = [num << (shift - (den.bit_length() - 1)) for num, den in ratios]
    sums, squares, products = [0], [0], [0]
    for x, y in enumerate(scaled, start=1):
        sums.append(sums[-1] + y)
        squares.append(squares[-1] + y * y)
        products.append(products[-1] + x * y)

    def segment(a, b):  # ranks a+1..b
        m = b - a
        s_y = sums[b] - sums[a]
        m_syy = m * (squares[b] - squares[a]) - s_y * s_y
        m_sxx = m * m * (m * m - 1) // 12
        two_m_sxy = 2 * m * (products[b] - products[a]) - (a + 1 + b) * m * s_y
        sse = Fraction(4 * m_syy * m_sxx - two_m_sxy * two_m_sxy, 4 * m * m_sxx)
        return sse, Fraction(m_syy, m)

    unit = Fraction(1, 1 << (2 * shift))
    scores = {}
    for k in breakpoints:
        (left_sse, left_syy), (right_sse, right_syy) = segment(0, k), segment(k, n)
        scores[k] = ((left_sse + right_sse) * unit, (left_syy + right_syy) * unit)
    return scores


def scan_error_ratios(ys, breakpoints):
    """Largest |score - exact| over the F = 1 rounding bound: (scan, Welford)."""
    n = len(ys)
    exact = exact_two_segment_scores(ys, breakpoints)
    sse, _ = effect_audit._running_line_scores(np.array(ys))
    xs = [float(i) for i in range(1, n + 1)]
    prefix, _ = welford_running_line_scores(zip(xs, ys), n)
    suffix, _ = welford_running_line_scores(zip(reversed(xs), reversed(ys)), n)
    y_max = max(map(abs, ys))
    scan = welford = 0.0
    for k in breakpoints:
        exact_sse, exact_syy = exact[k]
        s_yy = float(exact_syy)
        bound = math.ulp(1.0) * (n * s_yy + y_max * math.sqrt(n * s_yy)) + n * math.ulp(0.0)
        scan_score = (sse[0, k - 1] + sse[1, n - k - 1]).item()
        scan = max(scan, float(abs(Fraction(scan_score) - exact_sse)) / bound)
        welford = max(welford, float(abs(Fraction(prefix[k] + suffix[n - k]) - exact_sse)) / bound)
    return scan, welford


# The largest error of the Welford pass, as a share of the F = 1 bound, that
# was measured when the bound was set; F = 16 keeps its headroom only while
# the scan stays below it.
WELFORD_MEASURED_RATIO = 0.43


@pytest.mark.parametrize("shape", sorted(PLOT_SHAPES))
def test_scan_error_within_the_bound(shape):
    rng = random.Random(f"scan-error-{shape}")
    for n in (6, 40, 301, 3000):
        ys = sorted(PLOT_SHAPES[shape](rng, n))
        scan, welford = scan_error_ratios(ys, range(2, n - 1))
        assert scan <= WELFORD_MEASURED_RATIO
        # With n in the hundreds the ceil(log2 n) merge levels round less
        # than the n Welford updates.  At n = 6 and 40 both errors are a few
        # roundings of the final Syy - Sxy^2/Sxx and neither is always lower.
        if n >= 301:
            assert scan <= welford


def test_scan_error_within_the_bound_at_scale():
    n = 50_000
    ys = PLOT_SHAPES["selected-over-null"](random.Random(50_000), n)
    ys.sort()
    breakpoints = sorted(random.Random("scan-error-50000").sample(range(2, n - 1), 40))
    scan, welford = scan_error_ratios(ys, breakpoints)
    assert scan <= welford <= WELFORD_MEASURED_RATIO


class TestMultiplicityReport:
    def test_search_space_median_adjustment(self):
        report = multiplicity_report([0.001], alpha=0.05, m=6784)
        assert report.adjusted_alpha == pytest.approx(7.37e-6, rel=1e-3)

    def test_m1_is_identity(self):
        report = multiplicity_report([0.01, 0.2], alpha=0.05, m=1)
        assert report.adjusted_alpha == 0.05
        assert report.n_significant_raw == report.n_significant_adjusted == 1

    def test_direct_count(self):
        report = multiplicity_report([0.001, 0.04, 0.2], alpha=0.05, m=100)
        assert report.n_significant_raw == 2
        assert report.n_significant_adjusted == 0

    def test_strict_threshold(self):
        report = multiplicity_report([0.05], alpha=0.05, m=1)
        assert report.n_significant_raw == 0

    @pytest.mark.parametrize("m", [0, -1, math.nan])
    def test_rejects_bad_m(self, m):
        with pytest.raises(ValueError):
            multiplicity_report([0.1], alpha=0.05, m=m)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            multiplicity_report([0.1], alpha=alpha, m=10)

    @pytest.mark.parametrize(
        "alpha, m, message",
        [
            ("0.05", 10, "alpha must be a real number, got '0.05'"),
            (0.05, "10", "m must be a real number, got '10'"),
            (0.05, True, "m must be a real number, got True"),
        ],
    )
    def test_alpha_and_m_are_reals(self, alpha, m, message):
        # A str once escaped as a bare TypeError, and m=True was taken as 1.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            multiplicity_report([0.1], alpha, m)

    @pytest.mark.parametrize(
        "pvalues, bad",
        [
            ([-1.0, math.nan, 2.0, 0.5], "-1.0"),
            ([0.5, math.nan], "nan"),
            (np.array([0.01, 2.0]), repr(np.float64(2.0))),
            ([0.01, "0.02"], "'0.02'"),
        ],
        ids=["negative-first", "nan", "array-above-one", "str"],
    )
    def test_rejects_pvalues_outside_the_unit_interval(self, pvalues, bad):
        # The -1.0 of the first list was once counted significant, and NaN and 2.0 passed unseen.
        with pytest.raises(ValueError, match=f"^pvalues must lie in \\[0, 1\\], got {re.escape(bad)}$"):
            multiplicity_report(pvalues, alpha=0.05, m=10)

    @pytest.mark.parametrize(
        "pvalues",
        [[0, 0.0, True, 1.0], np.array([0.0, 0.0, 1.0, 1.0], dtype=np.float32), np.array([0, 0, 1, 1])],
        ids=["list", "float32", "int-array"],
    )
    def test_accepts_the_unit_interval_ends(self, pvalues):
        report = multiplicity_report(pvalues, alpha=0.05, m=10)
        assert (report.n_significant_raw, report.n_significant_adjusted) == (2, 2)


class TestAudit:
    def test_null_records_pass_diagnostics(self):
        rng = random.Random(77)
        records = [
            record_with_p(f"s{i:02d}", rng.random()) for i in range(14)
        ]
        report = audit(records)
        assert report.uniformity.p_value > 0.05
        assert report.bilinearity.p_value > 0.05
        assert report.multiplicity is None
        assert report.plot.n == len(report.plot.study_ids) == 14

    def test_mixed_regime_flags_bilinearity(self):
        records = [
            record_with_p(f"s{i:02d}", p) for i, p in enumerate(HOCKEY_PVALUES)
        ]
        report = audit(records)
        assert report.bilinearity.p_value < 0.01
        assert report.hockey_stick.breakpoint == 7

    def test_spaces_drive_multiplicity(self, corpus_studies):
        records = [record_with_p(f"s{i:02d}", (i + 1) / 15) for i in range(14)]
        report = audit(records, counts=corpus_studies)
        assert report.multiplicity is not None
        assert report.multiplicity.m == pytest.approx(6784.0)
        assert report.multiplicity.adjusted_alpha == pytest.approx(0.05 / 6784)
        at_alpha = audit(records, counts=corpus_studies, alpha=0.001).multiplicity
        assert (at_alpha.alpha, at_alpha.adjusted_alpha) == (0.001, 0.001 / at_alpha.m)

    def test_a_str_alpha_is_a_value_error(self, corpus_studies):
        # It once escaped as a bare TypeError.
        records = [record_with_p(f"s{i:02d}", (i + 1) / 15) for i in range(14)]
        with pytest.raises(ValueError, match="^alpha must be a real number, got '0.05'$"):
            audit(records, counts=corpus_studies, alpha="0.05")

    def test_alpha_without_spaces_rejected(self):
        # alpha sets only the multiplicity threshold; without counts (once
        # spaces) it was once dropped, and the report was that of the default.
        records = [record_with_p(f"s{i:02d}", (i + 1) / 15) for i in range(14)]
        with pytest.raises(InputError, match="alpha sets the multiplicity threshold and needs counts"):
            audit(records, alpha=0.001)

    # The README's seven records, and seven whose p-values sit near 1.
    README_RECORDS = [record_from_statistic(f"s{i}", 0.3 * i, 0.1) for i in range(1, 8)]
    NEAR_NULL_RECORDS = [record_from_statistic(f"s{i}", 0.05 * i, 0.1) for i in range(1, 8)]

    def test_a_copy_with_another_plot_reports_on_that_plot(self, corpus_studies):
        # The copy once kept the old sections: KS p 0.301 and breakpoint 4.
        report = audit(self.README_RECORDS, corpus_studies, 0.01)
        other = build_pvalue_plot(self.NEAR_NULL_RECORDS)
        copy = dataclasses.replace(report, plot=other)
        expected = audit(self.NEAR_NULL_RECORDS, corpus_studies, 0.01)
        for name in ("uniformity", "bilinearity", "hockey_stick", "multiplicity"):
            assert getattr(copy, name) == getattr(expected, name), name
        assert f"{copy.uniformity.p_value:.2g}" == "0.00049"
        assert copy.hockey_stick.breakpoint == 3
        assert report.hockey_stick.breakpoint == 4

    def test_a_copy_with_other_counts_reports_on_those_counts(self, corpus_studies):
        report = audit(self.README_RECORDS, corpus_studies)
        studies = corpus_studies[:3]
        copy = dataclasses.replace(report, counts=studies)
        expected = audit(self.README_RECORDS, studies)
        assert copy.counts == tuple(studies)
        assert [s.space3 for s in copy.counts] == [s.space3 for s in studies] == [
            s.space3 for s in expected.counts
        ]
        assert copy.space_summary == summarize_spaces(studies) == expected.space_summary
        assert copy.multiplicity == expected.multiplicity != report.multiplicity
        assert copy.multiplicity.m == copy.space_summary.space3.median
        plain = dataclasses.replace(report, counts=None)
        assert (plain.counts, plain.space_summary, plain.multiplicity) == (None, None, None)

    def test_summarize_spaces_runs_once_per_report(self, monkeypatch, corpus_studies):
        calls = []
        original = effect_audit.summarize_spaces

        def counted(studies):
            calls.append(len(studies))
            return original(studies)

        monkeypatch.setattr(effect_audit, "summarize_spaces", counted)
        report = audit(self.README_RECORDS, corpus_studies)
        assert report.space_summary.space3.median == report.multiplicity.m
        assert report.space_summary is report.space_summary
        assert calls == [len(corpus_studies)]
        dataclasses.replace(report, counts=corpus_studies[:3]).space_summary
        assert calls == [len(corpus_studies), 3]
        assert audit(self.README_RECORDS).space_summary is None
        assert calls == [len(corpus_studies), 3]

    def test_a_section_cannot_be_given(self):
        report = audit(self.README_RECORDS)
        other = audit(self.NEAR_NULL_RECORDS).uniformity
        with pytest.raises(ValueError, match="uniformity"):
            dataclasses.replace(report, uniformity=other)
        with pytest.raises(TypeError, match="uniformity"):
            AuditReport(report.plot, uniformity=other)
        assert [f.name for f in dataclasses.fields(AuditReport) if f.init] == [
            "plot", "counts", "alpha",
        ]

    def test_a_report_checks_what_it_is_given(self, corpus_studies):
        plot = build_pvalue_plot(self.README_RECORDS)
        with pytest.raises(InputError, match="alpha sets the multiplicity threshold and needs counts"):
            AuditReport(plot, alpha=0.01)
        with pytest.raises(ValueError, match="^plot must be a PValuePlot, got str$"):
            AuditReport("x")
        summary = summarize_spaces(corpus_studies)
        for counts in (summary, [summary], corpus_studies[0], "s", []):
            with pytest.raises(ValueError, match="^counts must be a nonempty list or tuple of"):
                AuditReport(plot, counts)
        assert AuditReport(plot, corpus_studies).counts == tuple(corpus_studies)

    def test_each_diagnostic_runs_once_per_report(self, monkeypatch, corpus_studies):
        calls = []
        order = ["uniformity_test", "bilinearity_test", "hockey_stick_fit", "multiplicity_report"]
        for name in order:
            original = getattr(effect_audit, name)

            def counted(first, *args, name=name, original=original):  # a plot, or its p
                calls.append((name, len(getattr(first, "p", first))))
                return original(first, *args)

            monkeypatch.setattr(effect_audit, name, counted)
        report = audit(self.README_RECORDS, corpus_studies)
        assert calls == [(name, 7) for name in order]
        plot = build_pvalue_plot(self.README_RECORDS[:5])
        dataclasses.replace(report, plot=plot)
        assert calls[4:] == [(name, 5) for name in order if name != "hockey_stick_fit"]

    def test_ns_records_checked_before_alpha(self):
        # alpha without spaces once raised first; the plot is built first now.
        records = [EffectRecord(study_id="ns1", not_significant_flag=True)]
        with pytest.raises(NoPlottableRecordsError):
            audit(records, alpha=0.01)

    def test_plot_p_values_are_read_only(self):
        report = audit([record_with_p(f"s{i}", 0.1 * (i + 1)) for i in range(7)])
        with pytest.raises(ValueError, match="read-only"):
            report.plot.p[0] = 0.99

    @pytest.mark.parametrize(
        "field, value",
        [("p", np.array([0.9, 0.1, 0.5, 0.2, 0.7, 0.05])), ("n", 3), ("study_ids", list("abc"))],
    )
    def test_checked_plot_cannot_be_rebound(self, field, value):
        # Rebound, unranked p once gave a hockey-stick breakpoint of 2 with
        # left slope -0.8, and n = 3 a reference of 3 values for 6 points.
        ranked = [0.05, 0.1, 0.2, 0.5, 0.7, 0.9]
        plot = PValuePlot(0, np.array(ranked), list("abcdef"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plot, field, value)
        assert (plot.n, plot.study_ids, plot.p.tolist()) == (6, tuple("abcdef"), ranked)
        assert PValuePlot(0, np.array([])).study_ids == ()

    def test_small_n_skips_hockey_and_flags_uniformity(self):
        records = [record_with_p(f"s{i}", 0.1 * (i + 1)) for i in range(4)]
        report = audit(records)
        assert report.hockey_stick is None
        assert report.uniformity.verdict == INSUFFICIENT_DATA
        assert report.bilinearity is not None

    def test_ranks_are_consistent(self):
        records = [record_with_p(f"s{i:02d}", (14 - i) / 20) for i in range(10)]
        report = audit(records)
        ps = report.plot.p.tolist()
        assert ps == sorted(ps)
        assert [ps[report.plot.study_ids.index(r.study_id)] for r in records] == [
            p_from_ratio_ci(r) for r in records
        ]

    def test_empty_raises(self):
        with pytest.raises(NoPlottableRecordsError):
            audit([])

    def test_converts_each_record_once(self, monkeypatch):
        calls = []
        convert = effect_audit._pvalues

        def counted(ratio, *columns):
            calls.append(ratio.tolist())
            return convert(ratio, *columns)

        monkeypatch.setattr(effect_audit, "_pvalues", counted)
        records = [record_with_p(f"s{i:02d}", (i + 1) / 12) for i in range(10)]
        records.append(EffectRecord(study_id="ns", not_significant_flag=True))
        report = audit(records)
        assert calls == [[r.ratio for r in records[:10]]]
        assert report.plot.study_ids == tuple(r.study_id for r in records[:10])
        assert report.plot.excluded_ns_count == 1

    def test_one_critical_value_per_confidence_level(self, monkeypatch):
        levels = []

        def counted(q):
            levels.append(q)
            return std_normal_quantile(q)

        monkeypatch.setattr(effect_audit, "std_normal_quantile", counted)
        effect_audit._critical_value.cache_clear()
        records = [
            record_from_statistic(f"s{i:03d}", 0.01 * i, 0.1, level)
            for i in range(60)
            for level in (0.9, 0.95, 0.99)
        ]
        audit(records)
        effect_audit._critical_value.cache_clear()
        assert sorted(levels) == [0.95, 0.975, 0.995]



# --- The columnar conversion and ranking against the record path ----------------


def reference_p_from_ratio_ci(record: EffectRecord) -> float:
    """The scalar conversion that the column form replaced, kept as its oracle."""
    if record.ci_low == record.ci_high:
        raise ValueError(
            f"study {record.study_id!r}: degenerate interval [{record.ci_low}, {record.ci_high}]"
        )
    if not record.ci_low <= record.ratio <= record.ci_high:
        raise ValueError(f"study {record.study_id!r}: ratio {record.ratio} outside its interval")
    z = std_normal_quantile(0.5 * (1.0 + record.confidence_level))
    se = (math.log(record.ci_high) - math.log(record.ci_low)) / (2.0 * z)
    statistic = math.log(record.ratio) / se
    p = math.erfc(abs(statistic) * math.sqrt(0.5))
    return min(1.0, max(P_FLOOR, p))


def reference_ranked_pvalues(records):
    """The record path: one conversion per record, then a sort on (p, study id).

    Returns the ranked ids, the reprs of the ranked p-values and the ns count.
    """
    numeric = [r for r in records if not r.not_significant_flag]
    ranked = sorted((reference_p_from_ratio_ci(r), r.study_id) for r in numeric)
    return tuple(sid for _, sid in ranked), [repr(p) for p, _ in ranked], len(records) - len(numeric)


def columnar_ranked_pvalues(records):
    plot = build_pvalue_plot(records)
    return plot.study_ids, list(map(repr, plot.p.tolist())), plot.excluded_ns_count


# Ids that tie and sort apart from file order, including trailing NULs,
# which a NumPy fixed-width str array would drop.
TIE_IDS = ["b", "a", "a\x00", "a\x00\x00", "B", "é", "s10", "s9", "s1", "a"]


def random_records(rng: random.Random, n: int) -> list[EffectRecord]:
    records = []
    for i in range(n):
        study_id = rng.choice(TIE_IDS) if rng.random() < 0.3 else f"r{rng.randrange(10**6)}"
        level = rng.choice([0.9, 0.95, 0.99, 0.5 + rng.random() * 0.4999])
        kind = rng.random()
        if kind < 0.1:
            records.append(EffectRecord(study_id=study_id, confidence_level=level, not_significant_flag=True))
        elif kind < 0.2:  # p = 1.0
            spread = 1.0 + rng.random()
            records.append(record(study_id, 1.0, 1 / spread, spread, confidence_level=level))
        elif kind < 0.3:  # clamped at P_FLOOR
            ratio = math.exp(rng.uniform(5, 50))
            records.append(record(study_id, ratio, ratio * 0.9999, ratio * 1.0001, confidence_level=level))
        elif kind < 0.45 and records:  # an exact copy of an earlier row's numbers
            twin = rng.choice(records)
            records.append(dataclasses.replace(twin, study_id=study_id))
        else:
            ratio = math.exp(rng.gauss(0, 1))
            low, high = ratio / math.exp(rng.uniform(0.01, 2)), ratio * math.exp(rng.uniform(0.01, 2))
            records.append(record(study_id, ratio, low, high, confidence_level=level))
    return records


class TestColumnarPathMatchesRecordPath:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_inputs(self, seed):
        rng = random.Random(f"columnar-{seed}")
        for n in (1, 2, 3, 17, rng.randrange(50, 600)):
            records = random_records(rng, n)
            if all(r.not_significant_flag for r in records):
                continue
            assert columnar_ranked_pvalues(records) == reference_ranked_pvalues(records)
            table = EffectsTable.from_records(records)
            assert columnar_ranked_pvalues(table) == reference_ranked_pvalues(records)

    def test_tie_runs(self):
        floor = [record(sid, 1e10, 9.99e9, 1.001e10) for sid in TIE_IDS]
        null = [record(sid, 1.0, 0.5, 2.0, confidence_level=0.99) for sid in reversed(TIE_IDS)]
        twins = [record(sid, 1.5, 1.2, 1.875) for sid in TIE_IDS[::2]]
        for records in (floor, null, twins, twins + null[:3] + floor, floor + null + twins):
            ids, ps, _ = columnar_ranked_pvalues(records)
            assert (ids, ps, 0) == reference_ranked_pvalues(records)
        assert set(ps[: len(floor)]) == {repr(P_FLOOR)}
        assert set(ps[-len(null) :]) == {"1.0"}
        assert ids[: len(floor)] == tuple(sorted(TIE_IDS))

    def test_tie_heavy_golden_input(self):
        records = list(fileio.read_effects_csv(GOLDEN / "ties" / "effects.csv"))
        assert columnar_ranked_pvalues(records) == reference_ranked_pvalues(records)

    def test_degenerate_interval_names_the_first_row_in_input_order(self):
        # Rows 1 and 3 have bounds with one logarithm: equal bounds, and
        # adjacent doubles near 1e300.  The table names row 1.
        low = 1e300
        high = math.nextafter(low, math.inf)
        columns = [
            np.array([1.5, 1.0, 2.0, low]),
            np.array([1.2, 1.0, 1.5, low]),
            np.array([1.875, 1.0, 2.5, high]),
        ]
        ids = ["a", "late", "c", "later"]
        level, ns = np.full(4, 0.95), np.zeros(4, dtype=bool)
        with pytest.raises(ValueError) as caught:
            EffectsTable(ids, [""] * 4, *columns, level=level, ns=ns)
        assert str(caught.value) == "study 'late': degenerate interval [1.0, 1.0]"
        assert caught.value.index == 1
        keep = [0, 2, 3]
        with pytest.raises(ValueError) as caught:
            EffectsTable(
                [ids[i] for i in keep], [""] * 3, *(c[keep] for c in columns),
                level=level[keep], ns=ns[keep],
            )
        assert str(caught.value) == f"study 'later': degenerate interval [{low}, {high}]"
        assert caught.value.index == 2

    def test_one_logarithm_rule_matches_math_log(self):
        # The table's column check leaves EffectRecord the rows whose bounds
        # lie within 2^-40 of each other.  Near 1e-300, 1 and 1e300, with
        # relative gaps from 2^-54 to 2^-38, it must reject exactly the pairs
        # whose logarithms round alike.
        rng = random.Random(41)
        outcomes = set()
        for base in (1e-300, 1.0, 1e300):
            for _ in range(200):
                low = base * (1.0 + rng.uniform(-(2.0**-20), 2.0**-20))
                high = low * (1.0 + 2.0 ** rng.uniform(-54.0, -38.0))
                one_log = math.log(low) == math.log(high)
                outcomes.add(one_log)
                columns = [np.array([value]) for value in (low, low, high)]
                level, ns = np.array([0.95]), np.zeros(1, dtype=bool)
                if one_log:
                    with pytest.raises(ValueError, match="degenerate interval"):
                        EffectsTable(["s"], [""], *columns, level=level, ns=ns)
                else:
                    EffectsTable(["s"], [""], *columns, level=level, ns=ns)
        assert outcomes == {True, False}

    def test_zero_width_log_interval_is_degenerate(self):
        low = 1e300
        high = math.nextafter(low, math.inf)
        assert math.log(low) == math.log(high)
        with pytest.raises(ValueError, match="'flat': degenerate interval"):
            audit([record_with_p("ok", 0.3), record("flat", low, low, high)])
