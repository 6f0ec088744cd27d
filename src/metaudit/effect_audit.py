"""Reliability diagnostics for a set of reported ratio statistics.

Turns each study's risk ratio and confidence interval into a two-sided
p-value on the log-ratio scale, ranks the p-values into a p-value plot
against the uniform reference line i/(n+1), and runs the diagnostics the
audit verdict rests on: a Kolmogorov-Smirnov uniformity test, a
quadratic-in-rank bilinearity test, a two-segment hockey-stick fit, and a
multiple-testing threshold report.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from metaudit.searchspace import SpaceSummary, StudyCounts, summarize_spaces
from metaudit.statkernel import (
    _SQRT_HALF,
    InputError,
    TestResult,
    _check_bool,
    _check_int,
    _check_real,
    _unit_interval_array,
    ks_uniform_test,
    ols_fit,
    std_normal_quantile,
)

# Lower clamp keeps downstream log-scale report math out of the subnormal
# range; upper clamp absorbs rounding past 1.
P_FLOOR = 1e-300

INSUFFICIENT_DATA = "insufficient data"

# Below these sizes a diagnostic is still computed (or skipped) but cannot
# carry evidential weight.
MIN_POINTS_UNIFORMITY = 5
MIN_POINTS_BILINEARITY = 4
MIN_POINTS_HOCKEY_STICK = 6


class NoPlottableRecordsError(ValueError):
    """Every input record was flagged not-significant; nothing to plot."""


@dataclass(frozen=True)
class EffectRecord:
    """One study's reported ratio statistic.

    Studies that reported only "not significant" carry
    ``not_significant_flag=True`` and may leave the numeric fields None;
    such records are excluded from conversion and counted separately.
    ``study_id`` and ``label`` are strs, the id not blank.
    """

    study_id: str
    label: str = ""
    ratio: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    confidence_level: float = 0.95
    not_significant_flag: bool = False

    def __post_init__(self) -> None:
        for name in ("study_id", "label"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a str, got {value!r}")
        if not self.study_id.strip():
            raise ValueError("study_id must be non-empty")
        _check_real("confidence_level", self.confidence_level, between=(0.5, 1))
        _check_bool("not_significant_flag", self.not_significant_flag)
        for name in ("ratio", "ci_low", "ci_high"):
            value = getattr(self, name)
            if value is not None or not self.not_significant_flag:
                _check_real(f"study {self.study_id!r}: {name}", value)
            if not self.not_significant_flag and (not math.isfinite(value) or value <= 0.0):
                raise ValueError(
                    f"study {self.study_id!r}: {name} must be a positive real, got {value!r}"
                )
        if self.not_significant_flag:
            return
        if not self.ci_low <= self.ratio <= self.ci_high:
            raise ValueError(
                f"study {self.study_id!r}: ratio {self.ratio} outside its interval "
                f"[{self.ci_low}, {self.ci_high}]"
            )
        if math.log(self.ci_low) == math.log(self.ci_high):  # se would be 0
            raise ValueError(
                f"study {self.study_id!r}: degenerate interval [{self.ci_low}, {self.ci_high}]"
            )


@dataclass(eq=False, frozen=True)
class EffectsTable(Sequence):
    """Effect rows held as columns: a sequence of ``EffectRecord``s.

    ``study_ids`` and ``labels`` are sequences of str, stored as tuples;
    ``ratio``, ``ci_low``, ``ci_high`` and ``level`` are float arrays, and
    ``ns`` a bool mask of the not-significant rows, whose three numeric
    entries are NaN.  Construction checks that the columns have one length
    and ``ns`` is bool, and raises the ``EffectRecord`` ValueError of the
    first row that breaks its contract, with that row's position as the
    error's ``index``.  The checked rows cannot be edited: the table is
    frozen, so no field can be rebound, and the five arrays are made
    read-only, as ``SimResult``'s columns are.  Indexing builds the row's
    ``EffectRecord``, and a table equals any sequence of equal records.
    """

    study_ids: Sequence[str]
    labels: Sequence[str]
    ratio: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    level: np.ndarray
    ns: np.ndarray

    def __post_init__(self) -> None:
        lengths = list(map(len, vars(self).values()))
        if len(set(lengths)) > 1 or not isinstance(self.ns, np.ndarray) or self.ns.dtype != bool:
            raise ValueError(f"EffectsTable needs columns of one length and a bool ns: {lengths}")
        level, low, ratio, high = self.level, self.ci_low, self.ratio, self.ci_high
        # The columns pick the rows that EffectRecord surely accepts; it decides the others,
        # in row order.  NaN fails every comparison; bad bounds may warn in high/low.
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            interval = (0.0 < low) & (low <= ratio) & (ratio <= high) & (high < math.inf)
            # |log x| < 745, where an ulp is at most 2^-43, and math.log is within about 1 ulp,
            # so one rounded logarithm needs high/low - 1 < 2^-41: past 2^-40 there are two.
            interval &= high / low > 1.0 + 2.0**-40
            sure = (0.5 < level) & (level < 1.0) & (self.ns | interval)
        try:
            "".join(self.labels)
            if not all(map(str.strip, self.study_ids)):  # EffectRecord rejects the first blank id
                sure[list(map(str.strip, self.study_ids)).index("")] = False
        except TypeError:  # an id or label is not a str, so some row fails: read every row
            sure[:] = False
        for index in np.flatnonzero(~sure).tolist():
            try:
                self[index]
            except ValueError as exc:
                exc.index = index
                raise
        object.__setattr__(self, "study_ids", tuple(self.study_ids))
        object.__setattr__(self, "labels", tuple(self.labels))
        for column in (self.ratio, self.ci_low, self.ci_high, self.level, self.ns):
            column.flags.writeable = False

    @classmethod
    def from_records(cls, records: Iterable[EffectRecord]) -> EffectsTable:
        """The table of ``records``, in order; a table is returned as it is."""
        if isinstance(records, EffectsTable):
            return records
        records = list(records)
        ids, labels = ([getattr(r, name) for r in records] for name in ("study_id", "label"))
        *numbers, level = (
            np.array([getattr(r, name) for r in records], dtype=float)
            for name in ("ratio", "ci_low", "ci_high", "confidence_level")
        )
        ns = np.array([r.not_significant_flag for r in records], dtype=bool)
        for column in numbers:
            column[ns] = math.nan  # None, or numbers an ns row need not carry
        return cls(ids, labels, *numbers, level=level, ns=ns)

    def __len__(self) -> int:
        return len(self.study_ids)

    def __getitem__(self, index: int) -> EffectRecord:
        index = operator.index(index)
        ns = bool(self.ns[index])
        numbers = {} if ns else {
            name: getattr(self, name)[index].item() for name in ("ratio", "ci_low", "ci_high")
        }
        return EffectRecord(
            self.study_ids[index], self.labels[index], **numbers,
            confidence_level=self.level[index].item(), not_significant_flag=ns,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


@dataclass(eq=False, frozen=True)
class PValuePlot:
    """Rank-ordered p-values with the uniform reference line i/(n+1).

    A table in rank order: rank i = 1..n holds ``p[i - 1]`` (a 1-D float64
    array), the p-value of study ``study_ids[i - 1]`` (a tuple of strs, empty
    for a plot without ids).  n is ``len(p)``, and the reference i/(n+1) a
    function of n; neither is stored.  p must ascend within [0, 1], and is
    made read-only, and the plot frozen.
    """

    excluded_ns_count: int
    p: np.ndarray
    study_ids: Sequence[str] = ()

    def __post_init__(self) -> None:
        p = self.p
        _check_int("excluded_ns_count", self.excluded_ns_count, 0, kind="a nonnegative integer")
        if not isinstance(p, np.ndarray) or p.dtype != np.float64:
            raise ValueError(f"p must be a float64 array, got {getattr(p, 'dtype', type(p))}")
        if p.ndim != 1:
            raise ValueError(f"p must be a 1-D array, got {p.ndim} dimensions")
        if len(p) and not (0.0 <= p[0] and p[-1] <= 1.0 and (p[:-1] <= p[1:]).all()):
            raise ValueError("the p-values of a plot must ascend within [0, 1]")
        if isinstance(self.study_ids, str):
            raise ValueError("study_ids must be a sequence of strs, not a str")
        try:
            study_ids = tuple(self.study_ids)
            "".join(study_ids)
        except TypeError:
            raise ValueError("study_ids must be a sequence of strs") from None
        if study_ids and len(study_ids) != len(p):
            raise ValueError(f"a plot of n = {len(p)} needs n study ids, got {len(study_ids)}")
        p.flags.writeable = False
        object.__setattr__(self, "study_ids", study_ids)

    @property
    def n(self) -> int:
        """The number of plotted p-values."""
        return len(self.p)

    def reference(self) -> np.ndarray:
        """The uniform reference i/(n+1), i = 1..n: the same doubles as Python's i / (n + 1)."""
        return np.arange(1, self.n + 1) / (self.n + 1)


@dataclass(frozen=True)
class HockeyStickFit:
    """Best two-segment piecewise-linear fit to the ranked p-values."""

    breakpoint: int
    left_slope: float
    right_slope: float
    sse: float


@dataclass(frozen=True)
class MultiplicityReport:
    alpha: float
    m: float
    adjusted_alpha: float
    n_significant_raw: int
    n_significant_adjusted: int


@dataclass(frozen=True)
class ReportSection:
    """A row of ``AuditReport.SECTIONS``: ``compute(report)`` runs on a plot of at least
    ``min_points`` points, and the section is None on a smaller one.  ``group`` is "tests"
    or None (top level); ``note``, if any, joins the report's notes."""

    name: str
    group: str | None
    min_points: int
    compute: Callable[[AuditReport], object]
    note: str | None = None


@dataclass(frozen=True)
class AuditReport:
    """The diagnostics of one p-value plot, computed from what the report stores.

    It stores ``plot``, ``counts`` (a tuple of ``StudyCounts``, or None) and
    ``alpha`` (None means 0.05).  When built, it computes each section of
    ``SECTIONS``, in report order: the tests the plot has the points for and,
    given ``counts``, the multiplicity report at ``alpha``, corrected by the
    median space3 of ``space_summary``, computed once.  So
    ``dataclasses.replace(report, plot=other)`` is the report of ``other``,
    and likewise for ``counts``.  ``alpha`` without ``counts`` raises
    InputError.

    The JSON and markdown writers read ``SECTIONS`` too.  To add a section:
    1. add its ``ReportSection`` to the table, "tests" sections first;
    2. declare its typed ``init=False`` field at the same place;
    3. regenerate, in that change, the goldens it changes (tests/golden/README.md).
    Each ``compute`` calls its diagnostic by module name, so a patched name runs.
    """

    SECTIONS: ClassVar[tuple[ReportSection, ...]] = (
        ReportSection("uniformity", "tests", 0, lambda r: uniformity_test(r.plot)),
        ReportSection("bilinearity", "tests", MIN_POINTS_BILINEARITY,
                      lambda r: bilinearity_test(r.plot),
                      "the bilinearity diagnostic is a reconstruction: ordinary least squares of "
                      "sorted p-values on rank and rank squared, with a t test on the quadratic term."),
        ReportSection("hockey_stick", "tests", MIN_POINTS_HOCKEY_STICK,
                      lambda r: hockey_stick_fit(r.plot)),
        ReportSection("multiplicity", None, 0, lambda r: None if r.counts is None else (
            multiplicity_report(r.plot.p, 0.05 if r.alpha is None else r.alpha,
                                r.space_summary.space3.median))),
    )

    plot: PValuePlot
    counts: tuple[StudyCounts, ...] | None = None
    alpha: float | None = None
    uniformity: TestResult = dataclasses.field(init=False)
    bilinearity: TestResult | None = dataclasses.field(init=False)
    hockey_stick: HockeyStickFit | None = dataclasses.field(init=False)
    multiplicity: MultiplicityReport | None = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        plot, counts = self.plot, self.counts
        if not isinstance(plot, PValuePlot):
            raise ValueError(f"plot must be a PValuePlot, got {type(plot).__name__}")
        if counts is not None:
            if not isinstance(counts, (list, tuple)) or not counts or not all(
                    isinstance(study, StudyCounts) for study in counts):
                raise ValueError("counts must be a nonempty list or tuple of StudyCounts or None")
            object.__setattr__(self, "counts", tuple(counts))
        elif self.alpha is not None:
            raise InputError("alpha sets the multiplicity threshold and needs counts")
        for section in self.SECTIONS:
            result = section.compute(self) if plot.n >= section.min_points else None
            object.__setattr__(self, section.name, result)

    @functools.cached_property
    def space_summary(self) -> SpaceSummary | None:
        return None if self.counts is None else summarize_spaces(self.counts)


@functools.lru_cache(maxsize=64)
def _critical_value(confidence_level: float) -> float:
    # Inputs carry a handful of distinct levels; the quantile is a pure
    # function of the level, so caching it leaves every result bit-identical.
    return std_normal_quantile(0.5 * (1.0 + confidence_level))


def _logs(values: np.ndarray) -> np.ndarray:
    # math.log, not np.log: the two need not round alike.
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


def _pvalues(
    ratio: np.ndarray, ci_low: np.ndarray, ci_high: np.ndarray, level: np.ndarray
) -> np.ndarray:
    """Column form of ``p_from_ratio_ci`` over table rows that all carry an interval.

    NumPy forms the IEEE basic operations that the scalar formula makes,
    in its order, and ``math.log`` and ``math.erfc`` run through ``map``,
    so every p-value has the scalar formula's bits.  ``EffectsTable`` has
    checked each row, its bounds' two logarithms included, so se > 0.
    """
    log_low, log_high = _logs(ci_low), _logs(ci_high)
    levels = level.tolist()
    critical = {value: _critical_value(value) for value in set(levels)}
    z = np.fromiter(map(critical.__getitem__, levels), float, len(levels))
    se = (log_high - log_low) / (2.0 * z)
    statistic = _logs(ratio) / se
    # erfc(|s|/sqrt(2)) equals 2*(1 - cdf(|s|)) without cancellation.
    scaled = (np.abs(statistic) * _SQRT_HALF).tolist()
    p = np.fromiter(map(math.erfc, scaled), float, len(scaled))
    return np.minimum(1.0, np.maximum(P_FLOOR, p))


def p_from_ratio_ci(record: EffectRecord) -> float:
    """Two-sided p-value recovered from a ratio and its confidence interval.

    Works on the log scale, where ratio statistics are treated as normal:
    the standard error is the log-interval half-width over the critical
    value z for the record's confidence level, and the p-value is
    2 * (1 - cdf(|log ratio| / se)), clamped to [1e-300, 1].  This is
    ``audit``'s column conversion for one row.
    """
    if record.not_significant_flag:
        raise ValueError(
            f"study {record.study_id!r} is flagged not-significant; it has no "
            "numeric interval to convert"
        )
    table = EffectsTable.from_records([record])
    return _pvalues(table.ratio, table.ci_low, table.ci_high, table.level).item()


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def effects_from_statistics(
    study_ids: Sequence[str],
    labels: Sequence[str],
    statistics: Sequence[float] | np.ndarray,
    standard_error: float,
    confidence_level: float = 0.95,
) -> EffectsTable:
    """The effects table of the ratio intervals laid around z statistics.

    Row i has ratio exp(statistics[i] * standard_error), and its bounds move
    the statistic by the two-sided critical value.  ``EffectsTable`` checks
    the rows: when the first row it rejects has numbers that break the
    contract, this raises InputError naming that row's statistic instead.
    """
    if not standard_error > 0:
        raise ValueError(f"standard_error must be positive, got {standard_error!r}")
    statistics = np.asarray(statistics, dtype=float)
    # The critical value needs a valid level, checked first as EffectRecord checks it.
    _check_real("confidence_level", confidence_level, between=(0.5, 1))
    z = _critical_value(confidence_level)
    # NumPy forms the same IEEE products as scalar code would; the exponent
    # is math.exp, because np.exp rounds differently for some arguments.
    with np.errstate(over="ignore"):
        logs = [
            statistics * standard_error,
            (statistics - z) * standard_error,
            (statistics + z) * standard_error,
        ]
    try:
        ratio, ci_low, ci_high = (
            np.fromiter(map(math.exp, log.tolist()), float, len(log)) for log in logs
        )
    except OverflowError:
        ratio, ci_low, ci_high = (
            np.fromiter(map(_exp_or_inf, log.tolist()), float, len(log)) for log in logs
        )
    n = len(statistics)
    try:
        return EffectsTable(
            study_ids, labels, ratio, ci_low, ci_high,
            level=np.full(n, confidence_level), ns=np.zeros(n, dtype=bool),
        )
    except ValueError as exc:
        i = getattr(exc, "index", None)
        if i is None:  # columns of unequal length
            raise
        try:  # the row's numbers alone, under a valid id and level
            EffectRecord(
                "row", ratio=ratio[i].item(), ci_low=ci_low[i].item(), ci_high=ci_high[i].item()
            )
        except ValueError:
            statistic = statistics[i].item()
            if not math.isfinite(statistic):
                raise InputError(f"statistic must be finite, got {statistic!r}") from None
            raise InputError(
                f"statistic {statistic!r} with standard error {standard_error!r} gives a "
                "ratio interval outside the positive floating-point range"
            ) from None
        raise


def record_from_statistic(
    study_id: str,
    statistic: float,
    standard_error: float,
    confidence_level: float = 0.95,
    label: str = "",
) -> EffectRecord:
    """Inverse of p_from_ratio_ci: lay a ratio interval around a z statistic.

    Useful for feeding simulated test statistics into the audit pipeline;
    p_from_ratio_ci recovers exactly 2 * (1 - cdf(|statistic|)) from the
    returned record, row 0 of ``effects_from_statistics`` for the one
    statistic, whose errors this raises.
    """
    return effects_from_statistics(
        [study_id], [label], [statistic], standard_error, confidence_level
    )[0]


def _rank(p: np.ndarray, study_ids: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Sort p ascending, ties broken by study id: the order of sorted((p, id)).

    A stable argsort keeps tied p-values in input order; each run of equal
    p is then sorted by id with Python's str ordering (NumPy's fixed-width
    str arrays would drop trailing NULs).
    """
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    tied = np.flatnonzero(ranked[1:] == ranked[:-1])
    order = order.tolist()
    if len(tied):
        # A run of equal p spans positions start..stop-1; tied holds each
        # position but the run's last, so runs break where tied jumps.
        breaks = np.flatnonzero(np.diff(tied) > 1)
        starts = tied[np.concatenate(([0], breaks + 1))].tolist()
        stops = (tied[np.concatenate((breaks, [len(tied) - 1]))] + 2).tolist()
        for start, stop in zip(starts, stops):
            order[start:stop] = sorted(order[start:stop], key=study_ids.__getitem__)
    return ranked, tuple(map(study_ids.__getitem__, order))


def build_pvalue_plot(records: Sequence[EffectRecord]) -> PValuePlot:
    """Rank the convertible records and pair them with the uniform reference.

    ``records`` may be an ``EffectsTable``; a list of records becomes one.
    Not-significant records are excluded from the plot but counted in
    ``excluded_ns_count``.  Ties in p are broken by study id so output is
    reproducible across runs and platforms.
    """
    if not records:
        raise NoPlottableRecordsError("no effect records given")
    table = EffectsTable.from_records(records)
    numeric = ~table.ns
    n = int(np.count_nonzero(numeric))
    if not n:
        raise NoPlottableRecordsError(
            "every record is flagged not-significant; nothing to plot"
        )
    study_ids = table.study_ids
    columns = (table.ratio, table.ci_low, table.ci_high, table.level)
    if n < len(table):
        study_ids = list(itertools.compress(study_ids, numeric.tolist()))
        columns = tuple(column[numeric] for column in columns)
    p, ranked_ids = _rank(_pvalues(*columns), study_ids)
    return PValuePlot(len(table) - n, p, ranked_ids)


def uniformity_test(plot: PValuePlot) -> TestResult:
    """Kolmogorov-Smirnov test of the plotted p-values against U(0, 1).

    A high p-value is consistent with a straight reference-line plot, the
    signature of no underlying effect.  With fewer than 5 points the result
    carries the verdict "insufficient data".
    """
    result = ks_uniform_test(plot.p)
    if plot.n < MIN_POINTS_UNIFORMITY:
        return dataclasses.replace(result, verdict=INSUFFICIENT_DATA)
    return result


def bilinearity_test(plot: PValuePlot) -> TestResult:
    """t test of the quadratic term in a rank-squared regression.

    Regresses the sorted p-values on {1, rank, rank^2} and reports the
    quadratic coefficient's two-sided t test on n - 3 degrees of freedom.
    A small p-value indicates the ranked p-values bend, the two-regime
    shape left behind when selected small p-values are mixed with null
    results.
    """
    n = plot.n
    if n < MIN_POINTS_BILINEARITY:
        raise ValueError(
            f"bilinearity test needs at least {MIN_POINTS_BILINEARITY} points, got {n}"
        )
    ranks = np.arange(1, n + 1, dtype=np.int64)
    # float(i * i): the integer square, exact in int64, then rounded once.
    design = [[1.0] * n, ranks.astype(float).tolist(), (ranks * ranks).astype(float).tolist()]
    fit = ols_fit(design, plot.p.tolist())
    return TestResult(
        statistic=fit.t_statistics[2],
        p_value=fit.p_values[2],
        df=float(fit.df),
        method="quadratic-ols",
    )


def _squares(values: np.ndarray) -> list[float]:
    # Python's float ** 2 (libm pow), which is not always v * v.
    return list(map(pow, values.tolist(), itertools.repeat(2)))


def _line_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    # Closed-form simple regression; handles the 2-point segments the
    # breakpoint scan produces (exact fit, zero SSE).  NumPy forms each
    # term and math.fsum adds them exactly, so the bits do not depend on
    # a summation order.
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    x_mean = math.fsum(xs.tolist()) / n
    y_mean = math.fsum(ys.tolist()) / n
    dx = xs - x_mean
    sxx = math.fsum(_squares(dx))
    sxy = math.fsum((dx * (ys - y_mean)).tolist())
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    sse = math.fsum(_squares(ys - intercept - slope * xs))
    return intercept, slope, sse


def _running_line_scores(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares line scores of every prefix (row 0) and suffix (row 1) of y.

    Entry [0, m - 1] holds, for the first m points (x = 1..m), the line's
    SSE Syy - Sxy^2/Sxx (clamped at 0, and 0 for one point) and Syy;
    entry [1, m - 1] holds them for the last m points.  A Hillis-Steele
    (1986) inclusive scan runs over the rows y and y reversed: at step
    d = 1, 2, 4, ... each window is merged with the adjacent window d
    places back by the pairwise update of Chan, Golub & LeVeque (1983).
    The x values are consecutive ranks, so two adjacent windows of widths
    w_a and w_b have x means (w_a + w_b)/2 apart and a window of width w
    has Sxx = w(w^2 - 1)/12; only the y mean, Syy and Sxy are carried.
    With dy the gap of the y means, the merge adds dy^2 * w_a*w_b/w to
    Syy and dy * w_a*w_b/2 to Sxy.
    """
    n = len(y)
    # The scores do not change when y is shifted, and shifting each row by
    # its first value keeps the running means small, so they round less.
    # An exact power-of-two scale keeps the squares above the subnormal range.
    centred = np.stack((y - y[0], y[::-1] - y[-1]))
    shift = max(0, -math.frexp(np.abs(centred).max())[1])
    mean = np.ldexp(centred, shift)
    syy = np.zeros_like(mean)
    sxy = np.zeros_like(mean)
    widths = np.arange(1.0, n + 1)
    d = 1
    while d < n:
        h = min(d, n - d)
        # Window d + j, of width d, meets window j, of width min(j + 1, d).
        # The merges of j >= d go first: they read windows d..2d-1, which
        # the merges of j < d then overwrite.
        for j, w_a in ((slice(h, n - d), d), (slice(0, h), widths[:h])):
            i = slice(j.start + d, j.stop + d)
            w = w_a + d
            dy = mean[:, i] - mean[:, j]
            syy[:, i] += syy[:, j] + dy * dy * (w_a * d / w)
            sxy[:, i] += sxy[:, j] + dy * (w_a * d / 2.0)
            mean[:, i] = mean[:, j] + dy * (d / w)
        d *= 2
    sxx = widths * (widths * widths - 1.0) / 12.0
    sse = np.zeros_like(mean)
    sse[:, 1:] = np.maximum(0.0, syy[:, 1:] - sxy[:, 1:] * sxy[:, 1:] / sxx[1:])
    return np.ldexp(sse, -2 * shift), np.ldexp(syy, -2 * shift)


# Safety factor F on the rounding bound that decides which breakpoints the
# O(n) scan may skip; see hockey_stick_fit.
_SCAN_ROUNDING_FACTOR = 16.0


def _exact_two_segment_totals(y: np.ndarray, ks: Sequence[int]) -> list[tuple[int, int]]:
    """Each k's exact two-segment SSE times 2^(2S), as an int numerator and denominator.

    y scaled by 2^S, the largest denominator of its doubles, is integers Y.
    For the m points i = a+1..b, t = 2*Sxy = 2*Sum(i*Y) - (a + b + 1)*Sum(Y)
    and Sxx = m (m^2 - 1)/12, so Syy - Sxy^2/Sxx = ((m^2 - 1) m*Syy - 3 t^2) / (m (m^2 - 1)).
    """
    ratios = [v.as_integer_ratio() for v in y.tolist()]
    shift = max(den.bit_length() for _, den in ratios)
    scaled = [num << (shift - den.bit_length()) for num, den in ratios]
    sums = list(itertools.accumulate(scaled, initial=0))
    squares = list(itertools.accumulate((v * v for v in scaled), initial=0))
    products = list(itertools.accumulate(map(operator.mul, itertools.count(1), scaled), initial=0))

    def segment(a: int, b: int) -> tuple[int, int]:
        m = b - a
        s = sums[b] - sums[a]
        t = 2 * (products[b] - products[a]) - (a + b + 1) * s
        return (m * m - 1) * (m * (squares[b] - squares[a]) - s * s) - 3 * t * t, m * (m * m - 1)

    pairs = ((segment(0, k), segment(k, len(scaled))) for k in ks)
    return [(left * r_den + right * l_den, l_den * r_den) for (left, l_den), (right, r_den) in pairs]


def hockey_stick_fit(plot: PValuePlot) -> HockeyStickFit:
    """Best split of the ranked p-values into two least-squares lines.

    The breakpoint k, with at least two points per segment, has the
    smallest exact total SSE of the two segments' lines, ties going to the
    smaller k; the slopes and SSE are ``_line_fit``'s at that k.  A flat
    left segment followed by a much steeper right segment is the
    hockey-stick signature.  An O(n) prefix scan (``_running_line_scores``)
    gives every k an approximate SSE; only the k within its rounding bound
    of the smallest are scored exactly, from integer prefix sums.
    """
    n = plot.n
    if n < MIN_POINTS_HOCKEY_STICK:
        raise ValueError(
            f"insufficient points for a hockey-stick fit: need at least "
            f"{MIN_POINTS_HOCKEY_STICK}, got {n}"
        )
    y_column = plot.p
    sse, syy = _running_line_scores(y_column)
    # Breakpoint k = 2..n-2 joins the prefix of k points (column k - 1 of
    # row 0) and the suffix of n - k points (column n - k - 1 of row 1).
    s_yy = syy[0, 1 : n - 2] + syy[1, n - 3 : 0 : -1]
    score = sse[0, 1 : n - 2] + sse[1, n - 3 : 0 : -1]
    # A k may be skipped only when its running score, less its rounding
    # error, exceeds some other k's score plus that error.  The running
    # Syy - Sxy^2/Sxx cancels down from Syy, an error of order n*eps*Syy
    # (Chan, Golub & LeVeque 1983); values far from zero are rounded at the
    # scale eps*y_max, which moves an SSE by about eps*y_max*sqrt(n*Syy); and
    # squares near the subnormal range lose a subnormal unit per operation.
    #     bound(k) = F * (eps * (n*S + y_max*sqrt(n*S)) + n * tiny), S = Syy_left + Syy_right.
    # At F = 1 the scan's measured error is at most 1/6 of the bound
    # (test_scan_error_within_the_bound).  So a k* with the smallest exact
    # total has score(k*) - bound(k*) <= exact(k*) <= exact(j) <= score(j) +
    # bound(j) for every j, and passes the cutoff.
    eps = math.ulp(1.0)
    y_max = np.abs(y_column).max()
    underflow = n * math.ulp(0.0)
    bound = _SCAN_ROUNDING_FACTOR * (eps * (n * s_yy + y_max * np.sqrt(n * s_yy)) + underflow)
    cutoff = (score + bound).min()
    candidates = (np.flatnonzero(~(score - bound > cutoff)) + 2).tolist()
    k = candidates[0]
    if len(candidates) > 1:
        # In increasing k, so a later k wins only by a strictly smaller total.
        totals = _exact_two_segment_totals(y_column, candidates)
        best, best_den = totals[0]
        for j, (total, den) in zip(candidates, totals):
            if total * best_den < best * den:
                k, best, best_den = j, total, den
    x_column = np.arange(1, n + 1, dtype=float)
    _, left_slope, left_sse = _line_fit(x_column[:k], y_column[:k])
    _, right_slope, right_sse = _line_fit(x_column[k:], y_column[k:])
    return HockeyStickFit(k, left_slope, right_slope, left_sse + right_sse)


def multiplicity_report(
    pvalues: Sequence[float], alpha: float, m: float
) -> MultiplicityReport:
    """Counts of significant p-values before and after threshold division.

    ``m`` is the size of the analysis search space being corrected for;
    the adjusted threshold is alpha / m and counts are strict.  The first
    p-value outside [0, 1] raises ValueError naming it.
    """
    _check_real("alpha", alpha)
    _check_real("m", m)
    _check_real("alpha", alpha, between=(0, 1))
    if not m >= 1:
        raise ValueError(f"m must be at least 1, got {m!r}")
    adjusted = alpha / m
    pvalues = _unit_interval_array("pvalues", pvalues)
    return MultiplicityReport(
        alpha=alpha,
        m=float(m),
        adjusted_alpha=adjusted,
        n_significant_raw=int(np.count_nonzero(pvalues < alpha)),
        n_significant_adjusted=int(np.count_nonzero(pvalues < adjusted)),
    )


def audit(
    records: Sequence[EffectRecord],
    counts: Sequence[StudyCounts] | None = None,
    alpha: float | None = None,
) -> AuditReport:
    """The ``AuditReport`` of the p-value plot of ``records``.

    ``records`` may be an ``EffectsTable``.  Converts every non-flagged
    record to a p-value and builds the plot; the report runs the
    diagnostics on it, and the multiplicity report when the studies'
    ``counts`` are given, at threshold ``alpha`` (default 0.05).
    """
    return AuditReport(build_pvalue_plot(records), counts, alpha)
