"""Analysis search-space counting for observational base studies.

Given per-study tallies of outcomes, predictors, lag configurations and
adjustable covariates, computes how many distinct analyses the authors
could have run: the number of questions (outcomes x predictors x lags),
the number of covariate-inclusion models (2^covariates), and their
product.  Also summarizes spaces across studies and tallies covariate
usage by name.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from metaudit.statkernel import _check_int, quantile_type6

logger = logging.getLogger(__name__)

U64_MAX = 2**64 - 1

# 2^63 no longer fits in signed 64-bit arithmetic, the widest integer type
# downstream consumers are guaranteed to have.
MAX_COVARIATES = 62


class SearchSpaceOverflowError(OverflowError):
    """A space size exceeds the 64-bit unsigned range."""

    def __init__(self, study_id: str, detail: str):
        self.study_id = study_id
        super().__init__(f"search space overflow for study {study_id!r}: {detail}")


@dataclass(frozen=True)
class StudyCounts:
    """Per-study tallies of the knobs an analyst could turn.

    ``lags`` counts lag *configurations* tested, with the no-lag analysis
    counted as 1; it is not the maximum lag index.  ``covariate_names``,
    when given, must be a list or tuple of exactly ``covariates`` strs.
    """

    study_id: str
    outcomes: int
    predictors: int
    lags: int
    covariates: int
    covariate_names: list[str] | None = None

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


@dataclass(frozen=True)
class SearchSpace:
    """The three search-space sizes for one study.

    space1 = outcomes * predictors * lags (questions at issue),
    space2 = 2^covariates (covariate-inclusion models),
    space3 = space1 * space2 (total analyses).
    """

    space1: int
    space2: int
    space3: int


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


def compute_spaces(counts: StudyCounts) -> SearchSpace:
    """Exact integer search-space sizes for one study.

    Raises ``SearchSpaceOverflowError`` instead of wrapping or saturating:
    these counts feed threshold division downstream, so silent truncation
    would corrupt the audit.
    """
    space1 = counts.outcomes * counts.predictors * counts.lags
    space2 = 1 << counts.covariates
    space3 = space1 * space2
    if space3 > U64_MAX:
        raise SearchSpaceOverflowError(
            counts.study_id,
            f"total analyses {space3} exceeds the 64-bit unsigned range",
        )
    return SearchSpace(space1=space1, space2=space2, space3=space3)


def _summary(column: list[int]) -> FiveNumberSummary:
    return FiveNumberSummary(
        minimum=float(min(column)),
        lower_quartile=quantile_type6(column, 0.25),
        median=quantile_type6(column, 0.5),
        upper_quartile=quantile_type6(column, 0.75),
        maximum=float(max(column)),
    )


def summarize_spaces(spaces: list[SearchSpace]) -> SpaceSummary:
    """Five-number summary of each space column across studies."""
    if not spaces:
        raise ValueError("summarize_spaces needs at least one study")
    return SpaceSummary(
        space1=_summary([s.space1 for s in spaces]),
        space2=_summary([s.space2 for s in spaces]),
        space3=_summary([s.space3 for s in spaces]),
    )


def covariate_tally(studies: list[StudyCounts]) -> dict[str, int]:
    """Count how many studies adjust for each named covariate.

    Names are matched exactly after trimming surrounding whitespace; no
    synonym merging is attempted, because deciding that temperature and
    apparent temperature are "the same" covariate would inject judgment
    the source tables do not make.  Studies without a name list are
    skipped and logged.
    """
    tally: dict[str, int] = {}
    skipped: list[str] = []
    for study in studies:
        if study.covariate_names is None:
            skipped.append(study.study_id)
            continue
        for name in {raw.strip() for raw in study.covariate_names}:
            if name:
                tally[name] = tally.get(name, 0) + 1
    if skipped:
        logger.warning(
            "covariate_tally skipped %d studies without covariate names: %s",
            len(skipped),
            ", ".join(skipped),
        )
    # Deterministic order: most used first, ties alphabetical.
    return dict(sorted(tally.items(), key=lambda item: (-item[1], item[0])))
