"""Tests for search-space counting and summarization."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metaudit.searchspace import (
    MAX_COVARIATES,
    U64_MAX,
    SearchSpaceOverflowError,
    StudyCounts,
    summarize_spaces,
)
from tests.conftest import CORPUS_ROWS, CORPUS_SUMMARY


class TestStudySpaces:
    @pytest.mark.parametrize(
        "study_id,outcomes,predictors,lags,covars,space1,space2,space3",
        CORPUS_ROWS,
        ids=[row[0] for row in CORPUS_ROWS],
    )
    def test_corpus_row(
        self, study_id, outcomes, predictors, lags, covars, space1, space2, space3
    ):
        counts = StudyCounts(
            study_id=study_id,
            outcomes=outcomes,
            predictors=predictors,
            lags=lags,
            covariates=covars,
        )
        assert counts.space1 == space1
        assert counts.space2 == space2
        assert counts.space3 == space3

    def test_minimal_study(self):
        counts = StudyCounts(study_id="s", outcomes=1, predictors=1, lags=1, covariates=0)
        assert (counts.space1, counts.space2, counts.space3) == (1, 1, 1)

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=20),
    )
    def test_multiplicative_structure(self, outcomes, predictors, lags, covars):
        counts = StudyCounts(
            study_id="s",
            outcomes=outcomes,
            predictors=predictors,
            lags=lags,
            covariates=covars,
        )
        assert counts.space1 == outcomes * predictors * lags
        assert counts.space2 == 2**covars
        assert counts.space3 == counts.space1 * counts.space2
        doubled = dataclasses.replace(counts, outcomes=2 * outcomes)
        assert doubled.space1 == 2 * counts.space1
        one_more = dataclasses.replace(counts, covariates=covars + 1)
        assert one_more.space2 == 2 * counts.space2

    def test_space3_is_computed_so_it_cannot_disagree(self):
        # SearchSpace(space1=1, space2=2, space3=5) was once accepted; the
        # spaces are now computed from the tallies they come from.
        with pytest.raises(TypeError, match="space3"):
            StudyCounts("s", 1, 1, 1, 1, space3=5)
        counts = StudyCounts("s", 1, 1, 1, 1)
        assert counts.space3 == 2
        assert dataclasses.replace(counts, covariates=3).space3 == 8

    def test_overflow_guard_raises_with_study_id(self):
        with pytest.raises(SearchSpaceOverflowError) as excinfo:
            StudyCounts(study_id="wide", outcomes=5, predictors=1, lags=1, covariates=62)
        assert excinfo.value.study_id == "wide"
        assert "wide" in str(excinfo.value)
        assert "64-bit unsigned range" in str(excinfo.value)

    def test_boundary_below_overflow(self):
        counts = StudyCounts(study_id="s", outcomes=3, predictors=1, lags=1, covariates=62)
        assert counts.space3 == 3 * 2**62
        assert counts.space3 <= U64_MAX

    def test_exact_limit_rejected(self):
        # 4 * 2**62 == 2**64, one past the largest representable count.
        with pytest.raises(SearchSpaceOverflowError):
            StudyCounts(study_id="s", outcomes=4, predictors=1, lags=1, covariates=62)

    def test_a_replaced_copy_is_checked_for_overflow(self):
        # The space3 check once ran only when the spaces were computed, so
        # this copy was built and failed later, or not at all.
        counts = StudyCounts("s", 1, 1, 1, 62)
        with pytest.raises(SearchSpaceOverflowError, match="'s'"):
            dataclasses.replace(counts, outcomes=5)


class TestStudyCountsValidation:
    @pytest.mark.parametrize("field", ["outcomes", "predictors", "lags"])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_counts(self, field, bad):
        kwargs = dict(study_id="s", outcomes=1, predictors=1, lags=1, covariates=0)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=field):
            StudyCounts(**kwargs)

    def test_rejects_negative_covariates(self):
        with pytest.raises(ValueError, match="covariates"):
            StudyCounts(study_id="s", outcomes=1, predictors=1, lags=1, covariates=-1)

    def test_rejects_too_many_covariates(self):
        with pytest.raises(SearchSpaceOverflowError):
            StudyCounts(
                study_id="s",
                outcomes=1,
                predictors=1,
                lags=1,
                covariates=MAX_COVARIATES + 1,
            )

    def test_rejects_bool_counts(self):
        with pytest.raises(ValueError):
            StudyCounts(study_id="s", outcomes=True, predictors=1, lags=1, covariates=0)

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValueError, match="covariate_names"):
            StudyCounts(
                study_id="s",
                outcomes=1,
                predictors=1,
                lags=1,
                covariates=2,
                covariate_names=["Age"],
            )

    def test_rejects_blank_study_id(self):
        with pytest.raises(ValueError, match="study_id"):
            StudyCounts(study_id="  ", outcomes=1, predictors=1, lags=1, covariates=0)


class TestSummarizeSpaces:
    def test_corpus_summary(self, corpus_studies):
        summary = summarize_spaces(corpus_studies)
        for name, expected in CORPUS_SUMMARY.items():
            five = getattr(summary, name)
            got = (
                five.minimum,
                five.lower_quartile,
                five.median,
                five.upper_quartile,
                five.maximum,
            )
            assert got == pytest.approx(expected), name

    def test_single_study_summary_is_constant(self):
        counts = StudyCounts(study_id="s", outcomes=3, predictors=2, lags=1, covariates=2)
        summary = summarize_spaces([counts])
        assert summary.space3.minimum == summary.space3.maximum == 24.0
        assert summary.space3.median == 24.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize_spaces([])
