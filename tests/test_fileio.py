"""Tests for CSV parsing and deterministic report serialization.

The per-line CSV readers, the record-by-record effects writer and the
recursive JSON writer that the one-pass readers and the column writers
replaced are kept below as references: the new code must give the same
records, errors and bytes wherever the old code's output was valid.
"""

import codecs
import csv
import dataclasses
import io
import json
import logging
import math
import re
from json.encoder import encode_basestring
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaudit import cli, fileio
from metaudit.effect_audit import (
    AuditReport,
    EffectRecord,
    EffectsTable,
    PValuePlot,
    ReportSection,
    audit,
    build_pvalue_plot,
    effects_from_statistics,
    record_from_statistic,
)
from metaudit.fileio import (
    COUNTS_HEADER,
    COUNTS_HEADER_NAMED,
    EFFECTS_HEADER,
    EFFECTS_HEADER_NO_LEVEL,
    PLOT_HEADER,
    SIM_HEADER,
    SPACES_HEADER,
    ParseError,
    _match_header,
    _parse_int,
    build_report_document,
    bundled_data_path,
    json_dumps,
    read_counts_csv,
    read_effects_csv,
    write_effects_csv,
    write_plot_csv,
    write_report_json,
    write_report_markdown,
    write_sim_csv,
    write_spaces_csv,
    write_spaces_markdown,
)
from metaudit.hacksim import SimConfig, run_simulation
from metaudit.searchspace import SearchSpaceOverflowError, StudyCounts, summarize_spaces
from metaudit.statkernel import TestResult as Result  # a Test* name would be collected
from tests.conftest import CORPUS_NAMES, CORPUS_ROWS

GOLDEN_DIR = Path(__file__).parent / "golden"

# Text that survives the effects CSV round trip: the reader strips each
# cell and the writer does not protect surrounding whitespace, so values
# with leading or trailing whitespace (str.strip's set, which includes
# \x1c-\x1f and \x85) come back changed; an empty study id is rejected.
CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(
    lambda text: text == text.strip()
)


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
            assert study.covariate_names == tuple(CORPUS_NAMES[study_id])

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

    @pytest.mark.parametrize("study_id", [" ", "\t\x1f"])
    def test_a_blank_id_is_never_written(self, tmp_path, study_id):
        # It was once written, read back as "" and refused by the reader.
        path = tmp_path / "effects.csv"
        with pytest.raises(ValueError, match="^study_id must be non-empty$"):
            write_effects_csv(path, [EffectRecord(study_id, ratio=1.5, ci_low=1.2, ci_high=1.875)])
        with pytest.raises(ValueError, match="^study_id must be non-empty$") as got:
            write_effects_csv(path, effects_from_statistics(["s", study_id], ["", ""], [1, 2], 0.1))
        assert got.value.index == 1
        assert not path.exists()


class TestRepeatedIdsWarnOnce:
    EFFECTS = [",".join(EFFECTS_HEADER), "a,x,1.1,1.0,1.21,0.95,0", "# note", "b,x,,,,0.95,1"]
    COUNTS = [",".join(COUNTS_HEADER), "a,1,2,1,3", "", "b,2,2,1,0"]

    @staticmethod
    def logged(caplog, read, path):
        with caplog.at_level(logging.WARNING, logger="metaudit"):
            read(path)
        return [(r.name, r.levelno, r.getMessage()) for r in caplog.records]

    @pytest.mark.parametrize("read, lines", [(read_effects_csv, EFFECTS), (read_counts_csv, COUNTS)])
    def test_a_repeated_id_logs_one_warning_and_keeps_every_row(self, tmp_path, caplog, read, lines):
        path = tmp_path / "in.csv"
        # Ids are compared stripped, as they are read.
        path.write_text("\n".join(lines + [" " + lines[3], lines[1]]) + "\n", encoding="utf-8")
        message = f"{path}: 2 duplicate study ids (first: 'b', rows 4 and 5)"
        assert self.logged(caplog, read, path) == [("metaudit.fileio", logging.WARNING, message)]
        assert [row.study_id for row in read(path)] == list("abba")

    @pytest.mark.parametrize("read, lines", [(read_effects_csv, EFFECTS), (read_counts_csv, COUNTS)])
    def test_a_clean_file_and_a_failed_read_log_nothing(self, tmp_path, caplog, read, lines):
        path = tmp_path / "in.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self.logged(caplog, read, path) == []
        # The repeat comes before the bad row: the read fails, and warns of nothing.
        path.write_text("\n".join(lines + [lines[1], "c,x,1"]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"\(row 6\)"):
            self.logged(caplog, read, path)
        assert caplog.records == []


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

    @pytest.mark.parametrize(
        "value",
        [np.int64(5), np.bool_(True), {1, 2}, object()],
        ids=["np.int64", "np.bool_", "set", "object"],
    )
    def test_other_types_are_rejected(self, value):
        with pytest.raises(TypeError, match=type(value).__name__):
            json_dumps({"x": value})
        with pytest.raises(TypeError, match=type(value).__name__):
            json_dumps(fileio.JsonTable(([1, value],), ("x",)))

    def test_keys_must_be_strings(self):
        with pytest.raises(TypeError):
            json_dumps({1: "x"})

    def test_report_document_round_trip(self):
        records = [record_from_statistic(f"s{i:02d}", 0.3 * i, 0.1) for i in range(1, 11)]
        report = audit(records)
        document = build_report_document(report, digests=[])
        first = json_dumps(document)
        assert json_dumps(json.loads(first)) == first


    def test_report_space_summary_is_the_audited_one(self, corpus_studies):
        # The spaces and their summary were once passed apart, so a document
        # could list 14 studies beside the summary of 3.
        records = [record_from_statistic(f"s{i}", 0.3 * i, 0.1) for i in range(1, 8)]
        studies = corpus_studies[:3]
        document = build_report_document(audit(records, studies), [])
        assert document["spaces"] == [
            {"study_id": s.study_id, "space1": s.space1, "space2": s.space2, "space3": s.space3}
            for s in studies
        ]
        assert document["space_summary"] == fileio.space_summary_document(summarize_spaces(studies))
        assert document["multiplicity"]["m"] == document["space_summary"]["space3"]["median"]


class TestWriters:
    def test_spaces_csv_round_trip(self, tmp_path, corpus_studies):
        path = tmp_path / "spaces.csv"
        write_spaces_csv(path, corpus_studies)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 15
        barnett = lines[1].split(",")
        assert barnett[0] == "12 Barnett"
        assert barnett[5:] == ["28", "8192", "229376"]

    @pytest.mark.parametrize("n", [14, 3])
    def test_spaces_markdown_summarizes_the_studies_it_lists(self, tmp_path, corpus_studies, n):
        # The summary was once passed apart, so the file could list 14 studies
        # under a maximum space3 of 229,376, though "15 Peters" has 638,976.
        studies = corpus_studies[:n]
        path = tmp_path / "spaces.md"
        write_spaces_markdown(path, studies)
        listed, summary_table = path.read_text(encoding="utf-8").split("## Summary")
        assert [line.split(" | ")[0] for line in listed.splitlines()[4:-1]] == [
            f"| {s.study_id}" for s in studies
        ]
        maxima = [max(getattr(s, f"space{i}") for s in studies) for i in (1, 2, 3)]
        assert f"| maximum | {maxima[0]} | {maxima[1]} | {maxima[2]} |" in summary_table
        assert maxima[2] == {14: 638976, 3: 229376}[n]

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
        assert float(p) == report.plot.p[0]
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

    def test_csv_float_subclass_written_as_plain_float(self, tmp_path):
        value = 2.169971257049289
        record = EffectRecord(
            study_id="a", ratio=np.float64(value), ci_low=np.float64(1.5), ci_high=3.0
        )
        path = tmp_path / "effects.csv"
        write_effects_csv(path, [record])
        row = path.read_text(encoding="utf-8").splitlines()[1]
        assert row == f"a,,{value!r},1.5,3.0,0.95,0"

    def test_markdown_report_sections(self, tmp_path):
        records = [record_from_statistic(f"s{i:02d}", 0.4 * i, 0.1) for i in range(1, 8)]
        report = audit(records)
        path = tmp_path / "report.md"
        write_report_markdown(path, report)
        text = path.read_text(encoding="utf-8")
        assert "# Reliability audit" in text
        assert "## Diagnostics" in text
        assert "ks-uniform" in text
        assert "reconstruction" in text

    def test_markdown_tables_escape_pipes_and_line_breaks_in_study_ids(self, tmp_path):
        effects = tmp_path / "effects.csv"
        rows = ["a|b", '"s\n3"', '"c\r\nd"', '"e\rf"', "plain", "g", "h"]
        effects.write_text(
            "\n".join([",".join(EFFECTS_HEADER)] + [f"{sid},x,1.5,1.25,2.0,0.95,0" for sid in rows])
            + "\n",
            encoding="utf-8",
        )
        counts = tmp_path / "counts.csv"
        counts.write_text(
            ",".join(COUNTS_HEADER) + '\nx|y,1,2,3,4\n"p\nq",1,1,1,1\nplain,2,2,2,2\n',
            encoding="utf-8",
        )
        out = tmp_path / "out"
        args = ["--counts", str(counts), "--output", str(out / "audit")]
        assert cli.main(["audit", "--input", str(effects), *args]) == 0
        assert cli.main(["space", "--input", str(counts), "--output", str(out / "space")]) == 0
        report = (out / "audit" / "report.md").read_text(encoding="utf-8")
        spaces = (out / "space" / "spaces.md").read_text(encoding="utf-8")
        for text in (report, spaces):
            # A table is a run of lines after a blank line whose first line starts with "|".
            tables = [b.split("\n") for b in text.rstrip("\n").split("\n\n") if b.startswith("|")]
            assert tables
            for table in tables:
                pipes = [len(re.findall(r"(?<!\\)\|", line)) for line in table]
                assert pipes == [pipes[0]] * len(table), table
        for cell in ("a\\|b", "s<br>3", "c<br>d", "e<br>f"):
            assert f" {cell} |" in report
        for cell in ("x\\|y", "p<br>q"):
            assert f"| {cell} |" in spaces


def csv_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def texts(*columns):
    """Rows of the repr of each column's values, which callers pass as ``.tolist()``'s
    Python numbers: on NumPy 2 a NumPy scalar's repr is ``np.float64(...)``."""
    return [list(row) for row in zip(*(map(repr, column) for column in columns))]


class TestWrittenHeaders:
    """Each CSV writer emits its declared header, and the package's reader of a
    format accepts what its writer wrote.  Only the effects CSV has both today:
    spaces.csv, plot_data.csv and sim_results.csv have no reader yet."""

    def test_effects_csv_is_read_back(self, tmp_path):
        records = [record_from_statistic(f"s{i}", 0.3 * i, 0.1) for i in range(1, 5)]
        records.append(EffectRecord(study_id="n", not_significant_flag=True))
        table = EffectsTable.from_records(records)
        path = tmp_path / "effects.csv"
        write_effects_csv(path, table)
        assert csv_rows(path)[0] == EFFECTS_HEADER
        assert read_effects_csv(path) == table

    def test_spaces_csv(self, tmp_path, corpus_studies):
        path = tmp_path / "spaces.csv"
        write_spaces_csv(path, corpus_studies)
        ids = [s.study_id for s in corpus_studies]
        counts = texts(*([getattr(s, name) for s in corpus_studies] for name in SPACES_HEADER[1:]))
        assert csv_rows(path) == [SPACES_HEADER] + [[i, *row] for i, row in zip(ids, counts)]

    def test_plot_csv(self, tmp_path):
        report = audit([record_from_statistic(f"s{i}", 0.5 * i, 0.1) for i in range(1, 6)])
        path = tmp_path / "plot_data.csv"
        write_plot_csv(path, report)
        plot = report.plot
        rows = texts(list(range(1, plot.n + 1)), plot.p.tolist(), plot.reference().tolist())
        assert csv_rows(path) == [PLOT_HEADER] + rows

    def test_sim_csv(self, tmp_path):
        result = run_simulation(SimConfig(tests_per_study=5, replicates=200, seed=3))
        path = tmp_path / "sim_results.csv"
        write_sim_csv(path, result)
        published = result.published
        columns = (result.replicate, result.study, result.p, result.estimate)
        rows = texts(*(column[published].tolist() for column in columns))
        assert len(rows) == result.n_published > 0
        assert csv_rows(path) == [SIM_HEADER] + rows


# --- One table of report sections ----------------------------------------------

# A throwaway section: the share of p-values below 0.05, with a note.
EXTRA = ReportSection(
    "low_share", None, 3,
    lambda r: Result(float((r.plot.p < 0.05).mean()), 1.0, method="low-share"),
    note="low_share is a throwaway section.",
)


@dataclasses.dataclass(frozen=True)
class ReportWithExtra(AuditReport):
    """AuditReport with EXTRA after its top-level sections: one entry plus its field."""

    SECTIONS: ClassVar = (*AuditReport.SECTIONS, EXTRA)
    low_share: Result | None = dataclasses.field(init=False)


@dataclasses.dataclass(frozen=True)
class ReportWithExtraInTests(AuditReport):
    """AuditReport with EXTRA in the "tests" group, after hockey_stick."""

    SECTIONS: ClassVar = (
        *AuditReport.SECTIONS[:3], dataclasses.replace(EXTRA, group="tests"), AuditReport.SECTIONS[3]
    )
    low_share: Result | None = dataclasses.field(init=False)


def section_keys(document: dict) -> list[str]:
    """The report document's tests keys, then its top-level section keys."""
    keys = list(document)
    return [*document["tests"], *keys[keys.index("tests") + 1 : keys.index("notes")]]


class TestReportSectionTable:
    RECORDS = [record_from_statistic(f"s{i}", 0.3 * i, 0.1) for i in range(1, 8)]

    def test_the_table_names_the_fields_and_the_document_keys(self, corpus_studies):
        names = [section.name for section in AuditReport.SECTIONS]
        assert names == ["uniformity", "bilinearity", "hockey_stick", "multiplicity"]
        assert names == [f.name for f in dataclasses.fields(AuditReport) if not f.init]
        for counts in (None, corpus_studies):
            document = build_report_document(audit(self.RECORDS, counts), digests=[])
            assert section_keys(document) == names

    @pytest.mark.parametrize("cls", [ReportWithExtra, ReportWithExtraInTests])
    def test_a_new_section_is_one_entry_and_its_field(self, tmp_path, cls):
        report = cls(build_pvalue_plot(self.RECORDS))
        assert report.low_share == Result(1 / 7, 1.0, method="low-share")
        document = build_report_document(report, digests=[])
        write_report_json(tmp_path / "report.json", document)
        write_report_markdown(tmp_path / "report.md", report)
        written = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert section_keys(written) == [section.name for section in cls.SECTIONS]
        group = written["tests"] if cls is ReportWithExtraInTests else written
        assert group["low_share"] == dataclasses.asdict(report.low_share)
        assert written["notes"][1:] == [AuditReport.SECTIONS[1].note, EXTRA.note]
        lines = (tmp_path / "report.md").read_text(encoding="utf-8").splitlines()
        line = "- low_share (low-share): statistic 0.142857, p 1"
        if cls is ReportWithExtra:
            assert lines[lines.index("## Low share") :][:3] == ["## Low share", "", line]
        else:
            hockey_stick = next(i for i, text in enumerate(lines) if text.startswith("- hockey_stick:"))
            assert lines[hockey_stick + 1] == line
        assert f"- {EXTRA.note}" in lines
        # Below its size gate the section is None: absent from the markdown
        # at top level, "not run" in the tests group.
        small = cls(build_pvalue_plot(self.RECORDS[:2]))
        assert small.low_share is None
        write_report_markdown(tmp_path / "small.md", small)
        text = (tmp_path / "small.md").read_text(encoding="utf-8")
        assert ("- low_share: not run (too few points)" in text) is (cls is ReportWithExtraInTests)
        assert "low-share" not in text and "## Low share" not in text


# --- Byte-order mark, quoted cells and the CSV writers' quoting ----------------


class TestCsvContract:
    def test_bom_effects_header_matches(self, tmp_path):
        path = tmp_path / "effects.csv"
        path.write_text(
            "﻿study_id,label,ratio,ci_low,ci_high,level,ns\nx,lab,1.1,1.0,1.21,0.95,0\n",
            encoding="utf-8",
        )
        assert [r.study_id for r in read_effects_csv(path)] == ["x"]

    def test_bom_counts_header_matches(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(
            "﻿study_id,outcomes,predictors,lags,covariates\nx,1,2,3,4\n", encoding="utf-8"
        )
        assert read_counts_csv(path)[0].covariates == 4

    def test_quoted_newline_in_label_parses(self, tmp_path):
        path = tmp_path / "effects.csv"
        path.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\n"
            'a,"cohort A\nmen, 40+",1.1,1.0,1.21,0.95,0\n'
            "b,plain,1.1,1.0,oops,0.95,0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            read_effects_csv(path)
        # The record after a two-line record starts on physical line 4.
        assert (excinfo.value.row, excinfo.value.column) == (4, "ci_high")
        path.write_text(path.read_text(encoding="utf-8").replace("oops", "1.21"), encoding="utf-8")
        assert [r.label for r in read_effects_csv(path)] == ["cohort A\nmen, 40+", "plain"]

    def test_multi_line_record_reports_its_first_line(self, tmp_path):
        path = tmp_path / "effects.csv"
        path.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\n"
            "\n"
            'a,"two\nlines",1.1,1.0,1.21,0.95,7\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            read_effects_csv(path)
        assert (excinfo.value.row, excinfo.value.column) == (3, "ns")

    def test_comment_line_with_stray_quote_is_skipped(self, tmp_path):
        path = tmp_path / "effects.csv"
        path.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\n"
            '# a 5" screen, "unbalanced\n'
            "x,lab,1.1,1.0,1.21,0.95,0\n",
            encoding="utf-8",
        )
        assert [r.study_id for r in read_effects_csv(path)] == ["x"]

    def test_blank_and_comment_lines_inside_a_quoted_cell_are_kept(self, tmp_path):
        path = tmp_path / "effects.csv"
        path.write_text(
            "study_id,label,ratio,ci_low,ci_high,level,ns\n"
            'x,"first\n\n# not a comment",1.1,1.0,1.21,0.95,0\n',
            encoding="utf-8",
        )
        assert read_effects_csv(path)[0].label == "first\n\n# not a comment"

    def test_effects_writer_quotes_an_id_read_as_a_comment(self, tmp_path):
        records = [
            EffectRecord(study_id=sid, label=label, ratio=1.5, ci_low=1.25, ci_high=2.0)
            for sid, label in (("#1", "#a"), ("s2", "b"), (" #3", "c"), ("4#", "d"))
        ]
        path = tmp_path / "effects.csv"
        write_effects_csv(path, records)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == [
            '"#1","#a",1.5,1.25,2.0,0.95,0',
            "s2,b,1.5,1.25,2.0,0.95,0",
            '" #3",c,1.5,1.25,2.0,0.95,0',
            "4#,d,1.5,1.25,2.0,0.95,0",
        ]
        # The reader strips each cell, so " #3" comes back as "#3".
        assert read_effects_csv(path).study_ids == ("#1", "s2", "#3", "4#")

    def test_effects_writer_quotes_comma_label(self, tmp_path):
        records = [
            EffectRecord(study_id="a", label="cohort A, men", ratio=1.5, ci_low=1.2, ci_high=1.9),
            EffectRecord(study_id='say "hi"', label="x", ratio=1.5, ci_low=1.2, ci_high=1.9),
        ]
        path = tmp_path / "effects.csv"
        write_effects_csv(path, records)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == [
            'a,"cohort A, men",1.5,1.2,1.9,0.95,0',
            '"say ""hi""",x,1.5,1.2,1.9,0.95,0',
        ]
        assert read_effects_csv(path) == records

    @pytest.mark.parametrize("reader", [read_effects_csv, read_counts_csv])
    def test_oversized_cell_is_a_parse_error(self, tmp_path, reader):
        header = EFFECTS_HEADER if reader is read_effects_csv else COUNTS_HEADER
        path = tmp_path / "big.csv"
        big = '"' + "x" * (csv.field_size_limit() + 1) + '"'
        path.write_text(",".join(header) + f"\n\n# c\n{big},1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="field larger than field limit") as excinfo:
            reader(path)
        assert excinfo.value.row == 4

    @pytest.mark.parametrize(
        "rows, where",
        [
            (["a,x,1.5,1.25,2.0,0.95,2"], (2, "ns")),
            (["a,x,1.5,1.25,2.0,0.3,0"], (2, None)),
            (["a,x,oops,1.25,2.0,0.95,0"], (2, "ratio")),
            (["a,x,1.5,1.25,2.0,0.3,0", "b,x,oops,1.25,2.0,0.95,2"], (2, None)),
            (["a,x,1.5,1.25,2.0,0.95,0", "b,x,1.5,1.25,oops,0.3,0"], (3, "ci_high")),
        ],
        ids=["bad-ns", "contract", "bad-number", "contract-then-bad-number", "bad-number-and-contract"],
    )
    def test_bad_row_before_an_unreadable_record_comes_first(self, tmp_path, rows, where):
        path = tmp_path / "effects.csv"
        big = '"' + "x" * (csv.field_size_limit() + 1) + '"'
        path.write_text(
            "\n".join([",".join(EFFECTS_HEADER), *rows, f"{big},1"]) + "\n", encoding="utf-8"
        )
        with pytest.raises(ParseError) as excinfo:
            read_effects_csv(path)
        assert (excinfo.value.row, excinfo.value.column) == where

    def test_bad_counts_row_before_an_unreadable_record_comes_first(self, tmp_path):
        path = tmp_path / "counts.csv"
        big = '"' + "x" * (csv.field_size_limit() + 1) + '"'
        rows = [",".join(COUNTS_HEADER), "a,1,1,1,1", "b,1,x,1,1", f"{big},1"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            read_counts_csv(path)
        assert (excinfo.value.row, excinfo.value.column) == (3, "predictors")

    @pytest.mark.parametrize("reader", [read_effects_csv, read_counts_csv])
    def test_good_rows_before_an_unreadable_record_raise_its_error(self, tmp_path, reader, monkeypatch):
        # The good rows parse first; then the record past the field limit is the error.
        header, row = (
            (EFFECTS_HEADER, "a,x,1.5,1.25,2.0,0.95,0") if reader is read_effects_csv
            else (COUNTS_HEADER, "a,1,1,1,1")
        )
        path = tmp_path / "big.csv"
        big = '"' + "x" * (csv.field_size_limit() + 1) + '"'
        path.write_text("\n".join([",".join(header), row, f"{big},1"]) + "\n", encoding="utf-8")
        parsed = []  # the rows each parse ran on
        read_csv = fileio._read_csv

        def spied(path, headers, expected, rows_name, parse, digests):
            def spy(header, lines, ids, rows):
                parsed.append(rows)
                return parse(header, lines, ids, rows)

            return read_csv(path, headers, expected, rows_name, spy, digests)

        monkeypatch.setattr(fileio, "_read_csv", spied)
        with pytest.raises(ParseError, match="field larger than field limit") as excinfo:
            reader(path)
        assert excinfo.value.row == 3
        assert parsed == [[row.split(",")]]

    @pytest.mark.parametrize("reader", [read_effects_csv, read_counts_csv])
    @pytest.mark.parametrize(
        "kinds, row, fault",
        [
            (["good", "bad cell", "short"], 3, "bad cell"),
            (["good", "short", "bad cell"], 3, "short"),
            (["short", "good"], 2, "short"),
            (["good", "short", "oversized"], 3, "short"),
            (["good", "long", "bad cell"], 3, "long"),
        ],
        ids=["cell-above-short", "short-above-cell", "short-first-row", "short-above-oversized",
             "long-above-cell"],
    )
    def test_the_field_count_error_comes_in_file_order(self, tmp_path, reader, kinds, row, fault):
        # The first row at fault in file order gives the error, be it its count or a cell.
        header, good = (
            (EFFECTS_HEADER, "a,x,1.5,1.25,2.0,0.95,0") if reader is read_effects_csv
            else (COUNTS_HEADER, "a,1,1,1,1")
        )
        texts = {
            "good": good,
            "bad cell": good[:-1] + "x",  # the last cell, ns or covariates
            "short": good.rsplit(",", 1)[0],
            "long": good + ",1",
            "oversized": '"' + "x" * (csv.field_size_limit() + 1) + '",1',
        }
        path = tmp_path / "rows.csv"
        rows = [",".join(header), *map(texts.get, kinds)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            reader(path)
        if fault == "bad cell":
            assert (excinfo.value.row, excinfo.value.column) == (row, header[-1])
        else:
            fields = len(texts[fault].split(","))
            assert str(excinfo.value) == f"expected {len(header)} fields, got {fields} (row {row})"

    def test_config_line_without_an_equals_sign_names_its_row(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("seed=1\nreplicates 3\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            fileio.read_sim_config(path)
        assert str(excinfo.value) == f"{path}: expected key=value, got 'replicates 3' (row 2)"
        assert excinfo.value.row == 2

    def test_undecodable_byte_past_the_first_decode_chunk_names_its_line(self, tmp_path):
        # A streamed decode once gave an offset within its 8 KB chunk, and no line.
        rows = [f"s{i},x,1.5,1.25,2.0,0.95,0" for i in range(2, 600)]
        path = tmp_path / "effects.csv"
        text = "\n".join([",".join(EFFECTS_HEADER), *rows, ""]).encode()
        path.write_bytes(text + b"s600,\xe9,1.5,1.25,2.0,0.95,0\n")
        assert len(text) > 8192
        with pytest.raises(ParseError) as excinfo:
            read_effects_csv(path)
        assert excinfo.value.row == 600
        assert str(excinfo.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xe9 in position {len(text) + 5}: "
            "invalid continuation byte (row 600)"
        )

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize(
        "reader, head",
        [
            (read_effects_csv, ",".join(EFFECTS_HEADER)),
            (read_counts_csv, ",".join(COUNTS_HEADER)),
            (fileio.read_sim_config, "# config"),
        ],
        ids=["effects", "counts", "config"],
    )
    def test_undecodable_byte_after_a_byte_order_mark_names_its_line(self, tmp_path, reader, head, ending):
        # The line is the reader's, and the offset the file's, mark included.
        text = codecs.BOM_UTF8 + (head + ending).encode()
        path = tmp_path / "bom.txt"
        path.write_bytes(text + b"\xe9tude,1" + ending.encode())
        with pytest.raises(ParseError, match=rf"in position {len(text)}: .* \(row 2\)$"):
            reader(path)

    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
    @pytest.mark.parametrize(
        "reader, head, line, bad",
        [
            (read_effects_csv, ",".join(EFFECTS_HEADER), "s{},x,1.5,1.25,2.0,0.95,0", "b,x,oops,1,2,0.95,0"),
            (fileio.read_sim_config, "# config", "# line {}", "seed=x"),
        ],
        ids=["effects", "config"],
    )
    def test_crlf_across_the_decode_chunk_ends_one_line(self, tmp_path, bom, reader, head, line, bad):
        # The stream decodes 8 KiB at a time: a CR that ends one chunk and the LF that
        # starts the next must end one line, or every later line number is one off.
        lines = [head]
        while len(bom) + len("\r\n".join(lines)) < 8000:
            lines.append(line.format(len(lines) + 1))
        start = len(bom) + len("\r\n".join(lines)) + 2  # of the next line, whose CR is byte 8191
        lines.append(line.format("x" * (8191 - start - len(line.format("")))))
        path = tmp_path / "crlf.txt"
        path.write_bytes(bom + "\r\n".join([*lines, bad, ""]).encode())
        assert path.read_bytes()[8191:8193] == b"\r\n"
        with pytest.raises(ParseError) as excinfo:
            reader(path)
        assert excinfo.value.row == len(lines) + 1

    def test_spaces_csv_quotes_a_quoted_counts_id(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text(
            'study_id,outcomes,predictors,lags,covariates\n"Smith, 2001",1,2,3,4\n',
            encoding="utf-8",
        )
        studies = read_counts_csv(counts)
        assert studies[0].study_id == "Smith, 2001"
        path = tmp_path / "spaces.csv"
        write_spaces_csv(path, studies)
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1] == ["Smith, 2001", "1", "2", "3", "4", "6", "16", "96"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(CSV_TEXT, CSV_TEXT, st.booleans()), min_size=1, max_size=6
        )
    )
    def test_write_read_round_trip_over_unicode_text(self, tmp_path_factory, cells):
        records = [
            EffectRecord(study_id=sid, label=label, not_significant_flag=True)
            if ns
            else EffectRecord(study_id=sid, label=label, ratio=1.5, ci_low=1.25, ci_high=2.0)
            for sid, label, ns in cells
        ]
        path = tmp_path_factory.mktemp("round") / "effects.csv"
        write_effects_csv(path, records)
        assert read_effects_csv(path) == records


# --- The effects writer against its former record-by-record form ---------------


def reference_csv_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return float.__repr__(value)
    text = str(value)
    if any(char in text for char in ',"\r\n') or text.lstrip().startswith("#"):
        return '"' + text.replace('"', '""') + '"'
    return text


def reference_write_effects_csv(path, records):
    """The record-by-record writer the column writer replaced, kept as its reference."""
    rows = []
    for rec in records:
        if rec.not_significant_flag:
            rows.append((rec.study_id, rec.label, "", "", "", rec.confidence_level, 1))
        else:
            rows.append(
                (rec.study_id, rec.label, rec.ratio, rec.ci_low, rec.ci_high, rec.confidence_level, 0)
            )
    lines = [",".join(EFFECTS_HEADER)] + [",".join(map(reference_csv_value, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


class TestEffectsWriterMatchesReference:
    @staticmethod
    def assert_matches_reference(tmp_path, monkeypatch, table):
        """write_effects_csv of the table and of its records gives the reference's
        bytes at every chunk size, and the file reads back as the table."""
        records = list(table)
        reference = tmp_path / "reference.csv"
        reference_write_effects_csv(reference, records)
        for chunk_rows in (1, 2, 4096):
            monkeypatch.setattr(fileio, "_CHUNK_ROWS", chunk_rows)
            for source in (table, records):
                path = tmp_path / "written.csv"
                write_effects_csv(path, source)
                assert path.read_bytes() == reference.read_bytes(), chunk_rows
        assert read_effects_csv(reference) == table

    @pytest.mark.parametrize("rule", ["report-min-p", "report-random"])
    def test_emit_shaped_tables(self, tmp_path, monkeypatch, rule):
        config = SimConfig(
            n_studies=2, tests_per_study=10, selection_rule=rule, replicates=300,
            censor_at_alpha=True, seed=5,
        )
        table = cli._emitted_effects(run_simulation(config))
        assert len(table) > 2
        self.assert_matches_reference(tmp_path, monkeypatch, table)

    def test_ids_and_labels_that_need_quoting(self, tmp_path, monkeypatch):
        rows = [
            ("c", "plain", 0.25, 0.125, 0.5),
            ("e", "plain", 1.5, 1.25, 1.75),
            ("a, b", "cohort A, men", 1.5, 1.2, 1.9),
            ("d\ne", "plain", 2.0, 1.0, 4.0),
            ('say "hi"', 'five "5"', 2.0, 1.0, 4.0),
            ("f", "line\r\nbreak", 1.0, 0.5, 2.0),
            ("#g", "plain", 1.0, 0.5, 2.0),
            ("h", "# note", 1.0, 0.5, 2.0),
        ]
        # In chunks of 2 rows, only the first chunk has no cell to quote.
        table = EffectsTable.from_records(
            EffectRecord(study_id=s, label=label, ratio=r, ci_low=lo, ci_high=hi, confidence_level=0.9)
            for s, label, r, lo, hi in rows
        )
        self.assert_matches_reference(tmp_path, monkeypatch, table)

    def test_golden_ties_table(self, tmp_path, monkeypatch):
        # ns rows (one with numbers), a multi-line label and mixed levels.
        table = read_effects_csv(GOLDEN_DIR / "ties" / "effects.csv")
        assert table.ns.any() and len(set(table.level.tolist())) == 3
        self.assert_matches_reference(tmp_path, monkeypatch, table)


# --- The JSON writer against its former recursive form --------------------------


def reference_dump_json(value, out, indent):
    """The recursive StringIO writer json_dumps replaced, kept as its reference."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.write(f'{pad}  "{key}": ')
            reference_dump_json(item, out, indent + 1)
            out.write(",\n" if i < len(value) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.write("[]")
            return
        out.write("[\n")
        for i, item in enumerate(value):
            out.write(pad + "  ")
            reference_dump_json(item, out, indent + 1)
            out.write(",\n" if i < len(value) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(value, bool):
        out.write("true" if value else "false")
    elif isinstance(value, float):
        out.write("null" if math.isnan(value) or math.isinf(value) else format(value, ".17g"))
    elif isinstance(value, int):
        out.write(str(value))
    elif value is None:
        out.write("null")
    else:
        out.write('"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"')


def reference_json_dumps(document) -> str:
    out = io.StringIO()
    reference_dump_json(document, out, 0)
    out.write("\n")
    return out.getvalue()


def per_row_document(value):
    """``value`` with each JsonTable written out as the list of rows it stands for."""
    if isinstance(value, fileio.JsonTable):
        columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in value.columns]
        return [dict(zip(value.keys, row)) for row in zip(*columns)]
    if isinstance(value, dict):
        return {key: per_row_document(item) for key, item in value.items()}
    if isinstance(value, list):
        return [per_row_document(item) for item in value]
    return value


# Control characters are the one intended difference: the reference wrote
# them raw, which is invalid JSON.  Keys were never escaped at all.
JSON_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=[chr(c) for c in range(32)])
)
JSON_KEYS = JSON_TEXT.filter(lambda key: '"' not in key and "\\" not in key)
JSON_SCALARS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    JSON_TEXT,
    st.sampled_from(['quote " backslash \\', "%s %% %(x)s", "\\u00e9", "{}"]),
)


@st.composite
def json_tables(draw, children):
    """Lists of containers of one layout, as the report's big lists are."""
    rows = draw(st.integers(1, 5))
    if draw(st.booleans()):
        keys = draw(st.lists(JSON_KEYS, min_size=1, max_size=4, unique=True))
        table = [dict(zip(keys, draw(st.tuples(*[JSON_SCALARS] * len(keys))))) for _ in range(rows)]
    else:
        size = draw(st.integers(1, 4))
        kinds = [list, tuple] if draw(st.booleans()) else [list]
        table = [
            draw(st.sampled_from(kinds))(draw(st.tuples(*[JSON_SCALARS] * size)))
            for _ in range(rows)
        ]
    if draw(st.booleans()):
        # Spoil the layout or flatness of one row.
        first = table[0]
        if isinstance(first, dict):
            reshaped = dict(reversed(first.items())) if len(first) > 1 else {**first, "+": 0}
        else:
            reshaped = [*first, draw(JSON_SCALARS)]
        spoiled = draw(st.sampled_from(["child", "scalar", "empty", "reshaped"]))
        row = {
            "child": draw(children),
            "scalar": draw(JSON_SCALARS),
            "empty": {},
            "reshaped": reshaped,
        }[spoiled]
        table.insert(draw(st.integers(0, rows)), row)
    return table


JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_KEYS, children, max_size=4),
        json_tables(children),
    ),
    max_leaves=30,
)


class TestJsonMatchesReference:
    @settings(max_examples=250, deadline=None)
    @given(JSON_DOCUMENTS)
    def test_same_text_as_the_recursive_writer(self, document):
        assert json_dumps(document) == reference_json_dumps(document)

    def test_report_document_same_text(self):
        records = [record_from_statistic(f"s{i:02d}", 0.3 * i, 0.1) for i in range(1, 40)]
        document = build_report_document(audit(records), digests=[])
        assert json_dumps(document) == reference_json_dumps(per_row_document(document))

    def test_control_characters_are_escaped(self):
        text = json_dumps({"study\tid": ["tab\there", "nul\x00", "line\nbreak", "\x1f"]})
        assert json.loads(text) == {"study\tid": ["tab\there", "nul\x00", "line\nbreak", "\x1f"]}
        assert "\t" not in text

    def test_quotes_in_keys_are_escaped(self):
        document = {'a "key"': 1, "back\\slash": [{"x": 'y"'}]}
        assert json.loads(json_dumps(document)) == document


def reference_table_document(value):
    """per_row_document(value), with each JsonTable key escaped as JSON escapes it.

    The reference writer puts keys between quotes as given, so escaping
    them first gives the text a correct writer must produce.
    """
    if isinstance(value, fileio.JsonTable):
        keys = tuple(encode_basestring(key)[1:-1] for key in value.keys)
        value = fileio.JsonTable(value.columns, keys)
    if isinstance(value, dict):
        return {key: reference_table_document(item) for key, item in value.items()}
    return per_row_document(value)


class TestJsonTableMatchesReference:
    COLUMNS = (
        [3, -1, 0],
        np.array([0.1, -2.5e-300, math.inf]),
        ["s1", 'say "hi"', "back\\slash"],
        [True, False, None],
    )

    @pytest.mark.parametrize(
        "keys",
        [
            ("a%b", "%s", "%(x)s %%", "100%"),
            ('q"uote', "tab\there", "nul\x00", "\x1f"),
        ],
    )
    def test_keys_and_layouts(self, keys):
        document = {"table": fileio.JsonTable(self.COLUMNS, keys), "after": 1}
        expected = reference_json_dumps(reference_table_document(document))
        assert json_dumps(document) == expected
        assert json.loads(json_dumps(document))["after"] == 1

    @pytest.mark.parametrize("rows", [0, 1])
    def test_short_tables(self, rows):
        columns = tuple(column[:rows] for column in self.COLUMNS)
        keys = ("a", "b", "c", "d")
        document = [fileio.JsonTable(columns, keys), {"x": fileio.JsonTable(columns, keys)}]
        assert json_dumps(document) == reference_json_dumps(reference_table_document(document))

    @pytest.mark.parametrize(
        "columns, keys",
        [
            (([1, 2], ["a"]), ("a", "b")),
            (([], ["a"]), ("a", "b")),
            ((np.zeros(3), range(2)), ("a", "b")),
            (([1], [2]), ("a",)),
        ],
        ids=["lengths-2-1", "lengths-0-1", "lengths-3-2", "one-key-two-columns"],
    )
    def test_mismatched_columns_rejected(self, columns, keys):
        with pytest.raises(ValueError, match="one column each of one length"):
            fileio.JsonTable(columns, keys)

    def test_report_of_a_plot_without_study_ids_rejected(self, tmp_path):
        records = [record_from_statistic(f"s{i}", 0.3 * i, 0.1) for i in range(1, 8)]
        report = audit(records)
        report = dataclasses.replace(report, plot=PValuePlot(0, report.plot.p))
        # JsonTable once rejected it, naming only the lengths [0, 7, 7].
        with pytest.raises(ValueError, match="^the plot has no study ids"):
            build_report_document(report, digests=[])
        with pytest.raises(ValueError, match="^the plot has no study ids"):
            write_report_markdown(tmp_path / "report.md", report)


# --- The one-pass readers against the former per-line readers -------------------


def reference_data_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield lineno, next(csv.reader([line]))


def reference_parse_float(cell, row, column):
    try:
        return float(cell.strip())
    except ValueError:
        raise ParseError(f"expected a number, got {cell!r}", row=row, column=column) from None


def reference_read_effects_csv(path):
    """The per-line effects reader read_effects_csv replaced, kept as its reference."""
    rows = reference_data_rows(path)
    try:
        _, header_cells = next(rows)
    except StopIteration:
        raise ParseError(f"{path}: empty file; expected header {','.join(EFFECTS_HEADER)}") from None
    header = _match_header(header_cells, [EFFECTS_HEADER, EFFECTS_HEADER_NO_LEVEL], path)
    records = []
    for lineno, cells in rows:
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(cells)}", row=lineno)
        record = dict(zip(header, cells))
        ns_cell = record["ns"].strip()
        if ns_cell not in ("0", "1", ""):
            raise ParseError(f"ns must be 0 or 1, got {ns_cell!r}", row=lineno, column="ns")
        level_cell = record.get("level", "").strip()
        level = reference_parse_float(level_cell, lineno, "level") if level_cell else 0.95
        try:
            if ns_cell == "1":
                records.append(EffectRecord(
                    study_id=record["study_id"].strip(), label=record["label"].strip(),
                    confidence_level=level, not_significant_flag=True,
                ))
            else:
                records.append(EffectRecord(
                    study_id=record["study_id"].strip(), label=record["label"].strip(),
                    ratio=reference_parse_float(record["ratio"], lineno, "ratio"),
                    ci_low=reference_parse_float(record["ci_low"], lineno, "ci_low"),
                    ci_high=reference_parse_float(record["ci_high"], lineno, "ci_high"),
                    confidence_level=level,
                ))
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), row=lineno) from exc
    if not records:
        raise ParseError(f"{path}: no effect rows after the header")
    return records


def reference_read_counts_csv(path):
    """The per-line counts reader read_counts_csv replaced, kept as its reference."""
    rows = reference_data_rows(path)
    try:
        _, header_cells = next(rows)
    except StopIteration:
        raise ParseError(f"{path}: empty file; expected header {','.join(COUNTS_HEADER)}") from None
    header = _match_header(header_cells, [COUNTS_HEADER_NAMED, COUNTS_HEADER], path)
    studies = []
    for lineno, cells in rows:
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(cells)}", row=lineno)
        record = dict(zip(header, cells))
        names = None
        if "covariate_names" in record and record["covariate_names"].strip():
            names = [n.strip() for n in record["covariate_names"].split(";")]
        try:
            studies.append(StudyCounts(
                study_id=record["study_id"].strip(),
                outcomes=_parse_int(record["outcomes"], lineno, "outcomes"),
                predictors=_parse_int(record["predictors"], lineno, "predictors"),
                lags=_parse_int(record["lags"], lineno, "lags"),
                covariates=_parse_int(record["covariates"], lineno, "covariates"),
                covariate_names=names,
            ))
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), row=lineno) from exc
    if not studies:
        raise ParseError(f"{path}: no study rows after the header")
    return studies


def read_outcome(reader, path):
    """Parsed rows, or the error's type, message, row and column."""
    try:
        return reader(path)
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None))


# Lines both readers treat alike: no byte-order mark and no quoted line break.
NOISE_LINES = st.sampled_from(["", "   ", "# comment", '  # a 5" screen, "unbalanced', "\t"])
EFFECT_CELLS = {
    "study_id": st.sampled_from(["s1", " s2 ", "", '"q, 1"', "#x"]),
    "label": st.sampled_from(["lab", "", '"cohort A, men"', ' "a ""b"" c"', "5\" tall"]),
    "ratio": st.sampled_from(["1.5", " 2 ", "", "x", "-1", "nan", "1e400", "3.0"]),
    "ci_low": st.sampled_from(["1.25", "1", "", "low", "0"]),
    "ci_high": st.sampled_from(["2.0", "4", "", "inf", "1.75"]),
    "level": st.sampled_from(["0.95", "", " 0.9 ", "1.5", "abc"]),
    "ns": st.sampled_from(["0", "1", "", " 1 ", "2"]),
}
COUNT_CELLS = {
    "study_id": st.sampled_from(["a", " b ", "", '"Smith, 2001"']),
    "outcomes": st.sampled_from(["1", " 2 ", "0", "x", "-1"]),
    "predictors": st.sampled_from(["1", "3", "", "1.5"]),
    "lags": st.sampled_from(["1", "2", "oops"]),
    "covariates": st.sampled_from(["0", "4", "63", "-2"]),
    "covariate_names": st.sampled_from(["", "Age;Sex", " T ; RH ", '"A, B;C"']),
}


@st.composite
def csv_files(draw, header, cells):
    """Text of a CSV file: noise lines around a header and records whose
    cells, or whole width, may be bad."""
    lines = draw(st.lists(NOISE_LINES, max_size=2)) + [header]
    names = header.lower().split(",")
    for _ in range(draw(st.integers(0, 5))):
        record = [draw(cells[name]) for name in names]
        if draw(st.integers(0, 9)) == 0:
            record = record[:-1] if draw(st.booleans()) else record + ["extra"]
        lines += draw(st.lists(NOISE_LINES, max_size=1)) + [",".join(record)]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from([ending, ""]))


class TestReadersMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            csv_files(",".join(EFFECTS_HEADER), EFFECT_CELLS),
            csv_files(",".join(EFFECTS_HEADER_NO_LEVEL), EFFECT_CELLS),
            csv_files("Study_ID,Label,Ratio,CI_Low,CI_High,Level,NS", EFFECT_CELLS),
            st.just(""),
            st.just("# only a comment\n\n"),
            st.just("study,label\n"),
        )
    )
    def test_effects_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("effects") / "effects.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(read_effects_csv, path) == read_outcome(reference_read_effects_csv, path)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            csv_files(",".join(COUNTS_HEADER_NAMED), COUNT_CELLS),
            csv_files(",".join(COUNTS_HEADER), COUNT_CELLS),
            st.just(""),
        )
    )
    def test_counts_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("counts") / "counts.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            want = read_outcome(reference_read_counts_csv, path)
        except SearchSpaceOverflowError:
            with pytest.raises(SearchSpaceOverflowError):
                read_counts_csv(path)
            return
        assert read_outcome(read_counts_csv, path) == want

    @pytest.mark.parametrize(
        "rows",
        [
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,oops,1.25,2.0,0.95,0", "c,x,1.5,1.25,2.0,0.95,0"],
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,1.5,1.25,bad,0.95,0", "c,x,1.5,1.25,2.0,0.95"],
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,1.5,1.25,2.0,0.95", "c,x,1.5,1.25,bad,0.95,0"],
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,1.5,1.25,2.0,0.5,0"],
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,1.5,1.25,2.0,1.0,0"],
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,,,,1.0,1"],
            ["a,x,1.5,1.25,2.0,0.95,0", " ,x,1.5,1.25,2.0,0.95,0"],
            ["a,x,1.5,1.25,2.0,0.95,0", ",x,,,,0.95,1"],
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,inf,1.25,inf,0.95,0"],
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,1.5,1.25,nan,0.95,0"],
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,1.5,1.25,2.0,nan,0"],
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,1.5,-1.25,2.0,0.95,0"],
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,2.5,1.25,2.0,0.95,0", "c,x,0,1,2,0.95,0"],
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,1.5,1.25,2.0,0.95,2", "c,,1.5,1.25,2.0,0.95"],
            ["a,x,1.5,1.25,2.0,0.95,0", "b,x,1.5,1.25,2.0,\x1c0.9\x1c,0", "c,x,\x1f1.5,1.25,2.0,,0"],
            # Bad rows in reverse check order: each check rejects an earlier row.
            [
                "a,x,1.5,1.25,2.0,0.3,0", "b,x,1.5,1.25,bad,0.95,0", "c,x,1.5,bad,2.0,0.95,0",
                "d,x,bad,1.25,2.0,0.95,0", "e,x,1.5,1.25,2.0,bad,0", "f,x,1.5,1.25,2.0,0.95,2",
                "g,x,1.5,1.25,2.0,0.95",
            ],
        ],
    )
    def test_first_bad_row_names_the_same_error(self, tmp_path, rows):
        # The columnar reader checks rows in bulk; the error must still be
        # the record reader's for the first bad row in file order.
        path = tmp_path / "effects.csv"
        path.write_text("\n".join([",".join(EFFECTS_HEADER), *rows]) + "\n", encoding="utf-8")
        got = read_outcome(read_effects_csv, path)
        assert got == read_outcome(reference_read_effects_csv, path)

    def test_error_path_converts_each_cell_once(self, tmp_path, monkeypatch):
        # Seven bad rows in reverse check order between good ones: each check
        # runs once, on the rows before the earliest row rejected so far.
        good = [f"s{i},x,1.5,1.25,2.0,0.95,0" for i in range(20)]
        bad = [
            "a,x,1.25,1.5,2.0,0.95,0", "b,x,1.5,1.25,x,0.95,0", "c,x,1.5,x,2.0,0.95,0",
            "d,x,x,1.25,2.0,0.95,0", "e,x,1.5,1.25,2.0,x,0", "f,x,1.5,1.25,2.0,0.95,7",
            "g,x,1.5,1.25,2.0,0.95,0,extra",
        ]
        path = tmp_path / "effects.csv"
        path.write_text("\n".join([",".join(EFFECTS_HEADER), *good, *bad, *good]) + "\n", encoding="utf-8")
        converted = []
        floats = fileio._floats

        def counted(cells):
            converted.append(len(cells))
            return floats(cells)

        monkeypatch.setattr(fileio, "_floats", counted)
        message = r"^study 'a': ratio 1.25 outside its interval \[1.5, 2.0\] \(row 22\)$"
        with pytest.raises(ParseError, match=message):
            read_effects_csv(path)
        # The distinct levels 0.95 and x, then ratio, ci_low and ci_high.
        assert converted == [2, 24, 23, 22]

    def test_bundled_files(self):
        for reader, reference, name in (
            (read_effects_csv, reference_read_effects_csv, "example_effects.csv"),
            (read_counts_csv, reference_read_counts_csv, "nawrot_counts.csv"),
        ):
            path = bundled_data_path(name)
            assert reader(path) == reference(path)
