"""Analysis search-space counting for observational base studies.

Given per-study tallies of outcomes, predictors, lag configurations and
adjustable covariates, computes how many distinct analyses the authors
could have run: the number of questions (outcomes x predictors x lags),
the number of covariate-inclusion models (2^covariates), and their
product.  Also summarizes spaces across studies.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from metaudit.statkernel import _check_int, quantile_type6

U64_MAX = 2**64 - 1

# 2^63 no longer fits in signed 64-bit arithmetic, the widest integer type
# downstream consumers are guaranteed to have.
MAX_COVARIATES = 62


class SearchSpaceOverflowError(OverflowError):
    """A study has more than 62 covariates, or its space3 exceeds the 64-bit unsigned range."""

    def __init__(self, study_id: str, detail: str):
        self.study_id = study_id
        super().__init__(f"search space overflow for study {study_id!r}: {detail}")


@dataclass(frozen=True)
class StudyCounts:
    """Per-study tallies of the knobs an analyst could turn, and the spaces they span.

    ``lags`` counts lag *configurations* tested, with the no-lag analysis
    counted as 1; it is not the maximum lag index.  ``covariate_names``,
    when given, is a list or tuple of exactly ``covariates`` strs, kept as a tuple.
    It computes space1 = outcomes * predictors * lags (questions at issue),
    space2 = 2^covariates (covariate-inclusion models) and space3 = space1 *
    space2 (total analyses).  More than 62 covariates, or a space3 past the
    64-bit unsigned range, raises SearchSpaceOverflowError rather than wrap:
    these counts feed threshold division downstream.
    """

    study_id: str
    outcomes: int
    predictors: int
    lags: int
    covariates: int
    covariate_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.study_id, str) or not self.study_id.strip():
            raise ValueError("study_id must be a nonempty identifier")
        for name in ("outcomes", "predictors", "lags"):
            _check_int(name, getattr(self, name), 1)
        _check_int("covariates", self.covariates, 0, kind="a nonnegative integer")
        if self.covariates > MAX_COVARIATES:
            raise SearchSpaceOverflowError(
                self.study_id,
                f"covariates={self.covariates} exceeds the limit of {MAX_COVARIATES}",
            )
        if self.space3 > U64_MAX:
            raise SearchSpaceOverflowError(
                self.study_id, f"total analyses {self.space3} exceeds the 64-bit unsigned range"
            )
        names = self.covariate_names
        if names is None:
            return
        if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
            raise ValueError(
                f"study {self.study_id!r}: covariate_names must be a list of strs, got {names!r}"
            )
        if len(names) != self.covariates:
            raise ValueError(
                f"study {self.study_id!r}: covariate_names lists "
                f"{len(names)} names but covariates={self.covariates}"
            )
        object.__setattr__(self, "covariate_names", tuple(names))

    @property
    def space1(self) -> int:
        return self.outcomes * self.predictors * self.lags

    @property
    def space2(self) -> int:
        return 1 << self.covariates

    @property
    def space3(self) -> int:
        return self.space1 * self.space2


@dataclass(frozen=True)
class FiveNumberSummary:
    minimum: float
    lower_quartile: float
    median: float
    upper_quartile: float
    maximum: float


@dataclass(frozen=True)
class SpaceSummary:
    """Cross-study five-number summaries, one per space column."""

    space1: FiveNumberSummary
    space2: FiveNumberSummary
    space3: FiveNumberSummary


def _summary(column: list[int]) -> FiveNumberSummary:
    return FiveNumberSummary(
        minimum=float(min(column)),
        lower_quartile=quantile_type6(column, 0.25),
        median=quantile_type6(column, 0.5),
        upper_quartile=quantile_type6(column, 0.75),
        maximum=float(max(column)),
    )


def summarize_spaces(studies: Sequence[StudyCounts]) -> SpaceSummary:
    """Five-number summary of each space column across studies."""
    if not studies:
        raise ValueError("summarize_spaces needs at least one study")
    return SpaceSummary(
        space1=_summary([s.space1 for s in studies]),
        space2=_summary([s.space2 for s in studies]),
        space3=_summary([s.space3 for s in studies]),
    )

