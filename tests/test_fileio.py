"""Tests for CSV parsing and deterministic report serialization."""

import json
import math

import numpy as np
import pytest

from metaudit.effect_audit import EffectRecord, audit, record_from_statistic
from metaudit.fileio import (
    ParseError,
    build_report_document,
    bundled_data_path,
    file_digest,
    format_csv_value,
    json_dumps,
    read_counts_csv,
    read_effects_csv,
    write_effect_rows_csv,
    write_effects_csv,
    write_plot_csv,
    write_report_markdown,
    write_sim_csv,
    write_spaces_csv,
)
from metaudit.hacksim import SimConfig, run_simulation
from metaudit.searchspace import SearchSpaceOverflowError, compute_spaces
from tests.conftest import CORPUS_NAMES, CORPUS_ROWS


class TestReadCountsCsv:
    def test_bundled_corpus_parses(self):
        studies = read_counts_csv(bundled_data_path("nawrot_counts.csv"))
        assert len(studies) == 14
        by_id = {s.study_id: s for s in studies}
        for study_id, outcomes, predictors, lags, covars, *_ in CORPUS_ROWS:
            study = by_id[study_id]
            assert (study.outcomes, study.predictors, study.lags, study.covariates) == (
                outcomes, predictors, lags, covars
            )
            assert study.covariate_names == CORPUS_NAMES[study_id]

    def test_header_case_insensitive(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(
            "STUDY_ID,Outcomes,Predictors,Lags,Covariates\nx,1,2,3,4\n",
            encoding="utf-8",
        )
        studies = read_counts_csv(path)
        assert studies[0].covariates == 4
        assert studies[0].covariate_names is None

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(
            "# comment\n\nstudy_id,outcomes,predictors,lags,covariates\n# another\nx,1,1,1,0\n\n",
            encoding="utf-8",
        )
        assert len(read_counts_csv(path)) == 1

    def test_empty_file_names_missing_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="study_id,outcomes,predictors"):
            read_counts_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,outcomes,predictors,lags,covariates\nx,1,1,1,0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            read_counts_csv(path)

    def test_bad_integer_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "study_id,outcomes,predictors,lags,covariates\nx,1,1,1,0\ny,1,oops,1,0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            read_counts_csv(path)
        assert excinfo.value.row == 3
        assert excinfo.value.column == "predictors"

    def test_field_count_mismatch_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "study_id,outcomes,predictors,lags,covariates\nx,1,1,1\n", encoding="utf-8"
        )
        with pytest.raises(ParseError) as excinfo:
            read_counts_csv(path)
        assert excinfo.value.row == 2

    def test_domain_violation_becomes_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "study_id,outcomes,predictors,lags,covariates\nx,0,1,1,0\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="outcomes"):
            read_counts_csv(path)

    def test_overflow_propagates_as_overflow(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            "study_id,outcomes,predictors,lags,covariates\nwide,1,1,1,63\n",
            encoding="utf-8",
        )
        with pytest.raises(SearchSpaceOverflowError):
            read_counts_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("study_id,outcomes,predictors,lags,covariates\n", encoding="utf-8")
        with pytest.raises(ParseError, match="no study rows"):
            read_counts_csv(path)


class TestReadEffectsCsv:
    def test_bundled_example_parses(self):
        records = read_effects_csv(bundled_data_path("example_effects.csv"))
        assert len(records) == 14
        assert sum(r.not_significant_flag for r in records) == 2
        numeric = [r for r in records if not r.not_significant_flag]
        assert all(r.ci_low <= r.ratio <= r.ci_high for r in numeric)

    def test_level_column_optional(self, tmp_path):
        path = tmp_path / "effects.csv"
        path.write_text(
            "study_id,label,ratio,ci_low,ci_high,ns\nx,lab,1.1,1.0,1.21,0\n",
            encoding="utf-8",
        )
        records = read_effects_csv(path)
        assert records[0].confidence_level == 0.95

    def test_empty_level_cell_defaults(self, tmp_path):
        path = tmp_path / "effects.csv"
        path.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\nx,lab,1.1,1.0,1.21,,0\n",
            encoding="utf-8",
        )
        assert read_effects_csv(path)[0].confidence_level == 0.95

    def test_ns_row_with_empty_numbers(self, tmp_path):
        path = tmp_path / "effects.csv"
        path.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\nx,lab,,,,0.9,1\n",
            encoding="utf-8",
        )
        record = read_effects_csv(path)[0]
        assert record.not_significant_flag
        assert record.confidence_level == 0.9

    def test_bad_ns_value(self, tmp_path):
        path = tmp_path / "effects.csv"
        path.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\nx,lab,1.1,1.0,1.21,0.95,2\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            read_effects_csv(path)
        assert excinfo.value.column == "ns"

    def test_bad_number_reports_row_and_column(self, tmp_path):
        path = tmp_path / "effects.csv"
        path.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\nx,lab,1.1,low,1.21,0.95,0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            read_effects_csv(path)
        assert (excinfo.value.row, excinfo.value.column) == (2, "ci_low")

    def test_interval_violation_becomes_parse_error(self, tmp_path):
        path = tmp_path / "effects.csv"
        path.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\nx,lab,2.0,0.9,1.5,0.95,0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="outside"):
            read_effects_csv(path)

    def test_write_read_round_trip(self, tmp_path):
        records = [
            record_from_statistic("a", 1.7, 0.08, label="first"),
            record_from_statistic("b", -0.4, 0.2, label="second"),
            EffectRecord(study_id="c", label="ns row", not_significant_flag=True),
        ]
        path = tmp_path / "effects.csv"
        write_effects_csv(path, records)
        back = read_effects_csv(path)
        assert [r.study_id for r in back] == ["a", "b", "c"]
        assert back[0].ratio == records[0].ratio
        assert back[1].ci_high == records[1].ci_high
        assert back[2].not_significant_flag
        # Byte idempotency: rewriting the parsed records changes nothing.
        second = tmp_path / "again.csv"
        write_effects_csv(second, back)
        assert second.read_bytes() == path.read_bytes()


class TestJsonSerialization:
    def test_seventeen_significant_digits(self):
        assert json_dumps({"x": 0.05}) == '{\n  "x": 0.050000000000000003\n}\n'

    def test_non_finite_floats_become_null(self):
        document = {"a": math.nan, "b": math.inf}
        assert json.loads(json_dumps(document)) == {"a": None, "b": None}

    def test_string_escaping(self):
        assert json.loads(json_dumps({"s": 'quote " backslash \\'})) == {
            "s": 'quote " backslash \\'
        }

    def test_round_trip_is_byte_identical(self):
        document = {
            "schema": "metaudit/1",
            "ints": [1, 2, 3],
            "floats": [0.1, 1e-300, 123456.789],
            "nested": {"flag": True, "none": None, "text": "hello"},
            "empty_list": [],
            "empty_map": {},
        }
        first = json_dumps(document)
        second = json_dumps(json.loads(first))
        assert second == first

    def test_report_document_round_trip(self):
        records = [record_from_statistic(f"s{i:02d}", 0.3 * i, 0.1) for i in range(1, 11)]
        report = audit(records)
        document = build_report_document(report, digests=[])
        first = json_dumps(document)
        assert json_dumps(json.loads(first)) == first


class TestWriters:
    def test_spaces_csv_round_trip(self, tmp_path, corpus_studies):
        spaces = [compute_spaces(s) for s in corpus_studies]
        path = tmp_path / "spaces.csv"
        write_spaces_csv(path, corpus_studies, spaces)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 15
        barnett = lines[1].split(",")
        assert barnett[0] == "12 Barnett"
        assert barnett[5:] == ["28", "8192", "229376"]

    def test_plot_csv_matches_report(self, tmp_path):
        records = [record_from_statistic(f"s{i}", 0.5 * i, 0.1) for i in range(1, 6)]
        report = audit(records)
        path = tmp_path / "plot.csv"
        write_plot_csv(path, report)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rank,p,reference"
        assert len(lines) == 6
        rank, p, ref = lines[1].split(",")
        assert int(rank) == 1
        assert float(p) == report.pvalues[0].p
        assert float(ref) == 1 / 6

    def test_sim_csv_contains_only_published_rows(self, tmp_path):
        config = SimConfig(tests_per_study=5, replicates=500, seed=3)
        result = run_simulation(config)
        path = tmp_path / "sim.csv"
        write_sim_csv(path, result)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "replicate,study,p,estimate"
        assert len(lines) == 1 + result.n_published
        for line in lines[1:]:
            assert float(line.split(",")[2]) < config.alpha

    def test_effect_rows_match_effect_records(self, tmp_path):
        rows = [("a", "x", 1.5, 1.2, 1.9), ("b", "", 0.25, 0.125, 0.5)]
        records = [
            EffectRecord(study_id=s, label=l, ratio=r, ci_low=lo, ci_high=hi, confidence_level=0.9)
            for s, l, r, lo, hi in rows
        ]
        write_effect_rows_csv(tmp_path / "rows.csv", rows, 0.9)
        write_effects_csv(tmp_path / "records.csv", records)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()

    def test_csv_float_subclass_written_as_plain_float(self):
        value = -2.169971257049289
        assert format_csv_value(np.float64(value)) == repr(value)

    def test_markdown_report_sections(self, tmp_path):
        records = [record_from_statistic(f"s{i:02d}", 0.4 * i, 0.1) for i in range(1, 8)]
        report = audit(records)
        document = build_report_document(report, digests=[])
        path = tmp_path / "report.md"
        write_report_markdown(path, document)
        text = path.read_text(encoding="utf-8")
        assert "# Reliability audit" in text
        assert "## Diagnostics" in text
        assert "ks-uniform" in text
        assert "reconstruction" in text

    def test_file_digest_stable(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("stable contents\n", encoding="utf-8")
        assert file_digest(path) == file_digest(path)
        assert len(file_digest(path)["sha256"]) == 64
