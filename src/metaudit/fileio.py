"""File formats: counts/effects CSV and simulate config parsing, and report serialization.

Every input file is UTF-8, with or without a byte-order mark, and is
checked whole before any of it is parsed; a file that is not UTF-8 raises
ParseError naming the line of its first bad byte.  CSV inputs are read as
one stream by ``csv.reader``: a quoted cell may hold commas, doubled
quotes and line breaks.  Blank lines and lines starting with '#' are
skipped between records.

All output is UTF-8 with LF line endings and '.' decimal separators,
independent of locale.  CSV cells holding a comma, a quote, CR or LF are
quoted as ``csv.QUOTE_MINIMAL`` does, and so is a cell that starts with '#'
after its blanks, so every written CSV reads back as written, but for the
blanks around its cells, which readers strip.  Markdown tables write a study
id's '|' as '\\|' and each of its line breaks as '<br>'.  JSON floats carry
17 significant digits and CSV floats use shortest round-trip form, so
parsing any emitted file and re-serializing it reproduces the bytes exactly.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.resources
import io
import itertools
import logging
import math
import typing
from collections.abc import Callable, Sequence
from dataclasses import asdict
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from metaudit.effect_audit import (
    AuditReport,
    EffectRecord,
    EffectsTable,
    HockeyStickFit,
    MultiplicityReport,
)
from metaudit.hacksim import SimConfig, SimResult
from metaudit.searchspace import SpaceSummary, StudyCounts, summarize_spaces
from metaudit.statkernel import InputError, TestResult

COUNTS_HEADER = ["study_id", "outcomes", "predictors", "lags", "covariates"]
COUNTS_HEADER_NAMED = COUNTS_HEADER + ["covariate_names"]
SPACES_HEADER = COUNTS_HEADER + ["space1", "space2", "space3"]
EFFECTS_HEADER = ["study_id", "label", "ratio", "ci_low", "ci_high", "level", "ns"]
EFFECTS_HEADER_NO_LEVEL = [c for c in EFFECTS_HEADER if c != "level"]
PLOT_HEADER = ["rank", "p", "reference"]
SIM_HEADER = ["replicate", "study", "p", "estimate"]

REPORT_SCHEMA = "metaudit/2"

_T = typing.TypeVar("_T")

logger = logging.getLogger(__name__)


def bundled_data_path(name: str) -> Path:
    """Filesystem path of a bundled example dataset (e.g. 'nawrot_counts.csv')."""
    return Path(str(importlib.resources.files("metaudit") / "data" / name))


class ParseError(InputError):
    """An input file failed to parse; carries the row and column at fault."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


def _read_text(path: str | Path, digests: list[dict] | None = None) -> io.TextIOWrapper:
    """The text of ``path``, UTF-8 with or without a byte-order mark, as a stream with
    ``open``'s ``newline=""`` meaning; bytes that are not UTF-8 raise ParseError.

    The file is read once.  Its bytes are decoded whole once, only to check
    them, and that str is dropped before the stream decodes them again, a chunk
    at a time.  ``digests``, if given, gets the basename (a report must not
    depend on the working directory) and the SHA-256 of those bytes.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        # "utf-8", not "utf-8-sig": the error's offset then counts the mark.
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8") + "?"  # "?" in place of the bad byte
        row = len(io.StringIO(before, newline="").readlines())  # the bad byte's line
        raise ParseError(f"{path}: {exc}", row=row) from None
    if digests is not None:
        digests.append({"name": Path(path).name, "sha256": hashlib.sha256(data).hexdigest()})
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def _read_csv(
    path: Path, headers: list[list[str]], expected: list[str], rows_name: str,
    parse: Callable[[list[str], list[int], list[str], list[list[str]]], _T],
    digests: list[dict] | None,
) -> _T:
    """``parse(header, lines, ids, rows)``: the matched entry of ``headers``, and the
    first line, stripped study id (the first cell) and cells of each record after it.

    One ``csv.reader`` reads the whole file, so quoted cells may hold
    commas, quotes and line breaks.  Blank and '#' lines are skipped
    between records, never inside a quoted cell.  The first record that
    the reader cannot parse, or that lacks the header's field count, cuts
    the file: its ParseError is raised after ``parse`` has run on the rows
    above it, so that a bad cell above comes first.  A file that parses
    whole logs one warning when rows share a study id; every row is kept.
    """
    first_line = 0  # of the record being read; 0 between records

    def record_lines(handle):
        nonlocal first_line
        for lineno, line in enumerate(handle, start=1):
            if not first_line:
                stripped = line.strip()
                if not stripped or stripped[0] == "#":
                    continue
                first_line = lineno
            yield line

    lines: list[int] = []
    rows: list[list[str]] = []
    error = None
    try:
        for cells in csv.reader(record_lines(_read_text(path, digests))):
            lines.append(first_line)
            rows.append(cells)
            first_line = 0
    except csv.Error as exc:
        # Such as a cell over csv.field_size_limit(): a malformed row.
        error = ParseError(f"{path}: {exc}", row=first_line or None)
    if not rows:
        raise error or ParseError(f"{path}: empty file; expected header {','.join(expected)}")
    header = _match_header(rows[0], headers, path)
    if len(set(map(len, rows))) > 1:  # the header row has the header's count
        bad = next(i for i, cells in enumerate(rows) if len(cells) != len(header))
        error = ParseError(f"expected {len(header)} fields, got {len(rows[bad])}", row=lines[bad])
        del rows[bad:], lines[bad:]
    if len(rows) == 1:
        raise error or ParseError(f"{path}: no {rows_name} rows after the header")
    ids = [cells[0].strip() for cells in rows[1:]]
    result = parse(header, lines[1:], ids, rows[1:])
    if error is not None:
        raise error
    if len(set(ids)) < len(ids):
        first: dict[str, int] = {}  # the line of each id's first row
        for line, study_id in zip(lines[1:], ids):
            if first.setdefault(study_id, line) != line:
                break
        logger.warning(
            "%s: %d duplicate study ids (first: %r, rows %d and %d)",
            path, len(ids) - len(set(ids)), study_id, first[study_id], line,
        )
    return result


def _match_header(cells: list[str], accepted: list[list[str]], path: Path) -> list[str]:
    normalized = [cell.strip().lower() for cell in cells]
    for candidate in accepted:
        if normalized == candidate:
            return candidate
    raise ParseError(
        f"{path}: bad or missing header; expected "
        + " or ".join(",".join(c) for c in accepted)
        + f", got {','.join(normalized)!r}",
        row=1,
    )


def _parse_int(cell: str, row: int, column: str) -> int:
    try:
        return int(cell.strip())
    except ValueError:
        raise ParseError(f"expected an integer, got {cell!r}", row=row, column=column) from None


def read_counts_csv(path: str | Path, *, digests: list[dict] | None = None) -> list[StudyCounts]:
    """Parse a study-counts CSV into StudyCounts rows; given ``digests``,
    append the name and SHA-256 of the bytes parsed.

    Header is matched case-insensitively; the trailing covariate_names
    column is optional and holds a semicolon-separated name list.  Lines
    starting with '#' are comments.  A row past either 64-bit limit (more
    than 62 covariates, or a space3 past the unsigned range) raises
    SearchSpaceOverflowError, so callers can tell it from malformed input.
    """

    def parse(
        header: list[str], row_lines: list[int], ids: list[str], rows: list[list[str]]
    ) -> list[StudyCounts]:
        studies = []
        for lineno, study_id, cells in zip(row_lines, ids, rows):
            names = None
            if header is COUNTS_HEADER_NAMED and cells[5].strip():
                names = [n.strip() for n in cells[5].split(";")]
            counts = [_parse_int(c, lineno, name) for c, name in zip(cells[1:5], header[1:5])]
            try:
                studies.append(StudyCounts(study_id, *counts, covariate_names=names))
            except ValueError as exc:
                raise ParseError(str(exc), row=lineno) from exc
        return studies

    headers = [COUNTS_HEADER_NAMED, COUNTS_HEADER]
    return _read_csv(Path(path), headers, COUNTS_HEADER, "study", parse, digests)


def _floats(cells: Sequence[str]) -> tuple[list[float], int | None]:
    """``float(cell.strip())`` of each cell up to the first that does not
    parse, and that cell's index, or None when every cell parses.

    float() alone does not strip \\x1c-\\x1f.  No cell is converted twice.
    """
    values: list[float] = []
    try:
        values.extend(map(float, map(str.strip, cells)))
    except ValueError:
        return values, len(values)
    return values, None


def _effects_columns(
    header: list[str], lines: list[int], ids: list[str], cells: list[list[str]]
) -> EffectsTable:
    """The effects table of the rows, or the ParseError of the first bad row in file order.

    ``_read_csv`` has checked the field counts and stripped the ids; the
    checks here run in the order that one row's other cells are checked:
    ns, level, ratio, ci_low, ci_high, then ``EffectsTable``'s contract.
    Each check runs once, over the rows before the earliest row rejected
    so far, and a rejection keeps its row's error; so the error raised at
    the end is the first bad row's, from the first check that row fails.
    No cell is converted twice.
    """
    n = len(cells)  # rows from n on are not checked further
    error = None

    def reject(index: int, message: str, column: str | None = None) -> None:
        nonlocal n, error
        n, error = index, ParseError(message, row=lines[index], column=column)

    _, labels, ratio, ci_low, ci_high, *level_column, ns_cells = zip(*cells)
    ns_cells = list(map(str.strip, ns_cells))
    if not set(ns_cells) <= {"0", "1", ""}:
        bad = next(i for i, cell in enumerate(ns_cells) if cell not in ("0", "1", ""))
        reject(bad, f"ns must be 0 or 1, got {ns_cells[bad]!r}", "ns")
    ns = np.array([cell == "1" for cell in ns_cells[:n]], dtype=bool)
    if level_column:
        # A file holds a few distinct levels: parse each once, in the order
        # of the first row that holds it.
        levels = level_column[0][:n]
        distinct = list(dict.fromkeys(levels))
        texts = [cell.strip() or "0.95" for cell in distinct]
        parsed, bad = _floats(texts)
        if bad is not None:
            reject(levels.index(distinct[bad]), f"expected a number, got {texts[bad]!r}", "level")
        level = np.array(list(map(dict(zip(distinct, parsed)).__getitem__, levels[:n])))
    else:
        level = np.full(n, 0.95)
    # Not-significant rows carry no numbers, whatever their cells hold.
    flags = (~ns).tolist()
    numbers = []
    for column, name in ((ratio, "ratio"), (ci_low, "ci_low"), (ci_high, "ci_high")):
        values, bad = _floats(list(itertools.compress(column[:n], flags)))
        if bad is not None:
            row = list(itertools.compress(range(n), flags))[bad]
            reject(row, f"expected a number, got {column[row]!r}", name)
        numbers.append(values)
    numeric = ~ns[:n]
    count = int(np.count_nonzero(numeric))
    columns = [np.full(n, math.nan) for _ in numbers]
    for full, values in zip(columns, numbers):
        full[numeric] = values[:count]
    try:
        table = EffectsTable(
            tuple(ids[:n]), tuple(map(str.strip, labels[:n])), *columns,
            level=level[:n], ns=ns[:n],
        )
    except ValueError as exc:
        raise ParseError(str(exc), row=lines[exc.index]) from exc
    if error is not None:
        raise error
    return table


def read_effects_csv(path: str | Path, *, digests: list[dict] | None = None) -> EffectsTable:
    """Parse an effects CSV into an EffectsTable, a sequence of EffectRecords;
    given ``digests``, append the name and SHA-256 of the bytes parsed.

    The level column is optional (default 0.95) and may be left empty per
    row; rows with ns=1 may leave all numeric fields empty.  A malformed
    file raises the ParseError of its first bad row in file order, which
    names the record's first line, and the column when a cell does not
    parse; a bad row before an unreadable record comes first.
    """
    headers = [EFFECTS_HEADER, EFFECTS_HEADER_NO_LEVEL]
    return _read_csv(Path(path), headers, EFFECTS_HEADER, "effect", _effects_columns, digests)


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def read_sim_config(path: str | Path) -> dict:
    """The SimConfig fields of a key=value file; a ParseError names the line at fault.

    Blank and '#' lines are skipped.  Each key is a SimConfig field and may
    appear once; its value is parsed as the field's type, and a bool field
    takes 1/0, true/false or yes/no in any case.
    """
    types = typing.get_type_hints(SimConfig)
    values: dict = {}
    for lineno, line in enumerate(_read_text(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}: expected key=value, got {stripped!r}", row=lineno)
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in types:
            raise ParseError(f"{path}: unknown config key {key!r}", row=lineno)
        if key in values:
            raise ParseError(f"{path}: repeated config key {key!r}", row=lineno)
        try:
            values[key] = _BOOLEANS[raw.lower()] if types[key] is bool else types[key](raw)
        except (KeyError, ValueError):
            raise ParseError(f"{path}: bad value for {key}: {raw!r}", row=lineno) from None
    return values


def _json_scalar(value) -> str:
    """JSON text of None, a bool, a float (null unless finite), an int or a str."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else "null"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring(value)
    raise TypeError(f"json_dumps cannot write a {type(value).__name__}")


class JsonTable:
    """Rows of one layout held as columns, which ``json_dumps`` writes as a list.

    Each row is an object with ``keys``, one str key per column.  A column
    is a float64 array or a sequence of the scalars ``json_dumps`` writes
    (None, bool, float, int, str), and all columns have one length.
    """

    def __init__(self, columns: tuple[Sequence, ...], keys: tuple[str, ...]):
        lengths = [len(column) for column in columns]
        if len(keys) != len(columns) or len(set(lengths)) > 1:
            raise ValueError(f"JsonTable keys {keys} need one column each of one length: {lengths}")
        self.columns = columns
        self.keys = keys


def _json_column(column) -> list[str]:
    """``_json_scalar`` of each value, in one map for float64, str and int columns."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64 and np.isfinite(column).all():
            return list(map(format, column.tolist(), itertools.repeat(".17g")))
        column = column.tolist()
    kinds = set(map(type, column))
    if kinds == {str}:
        return list(map(encode_basestring, column))
    if kinds == {int}:
        return list(map(int.__repr__, column))
    return list(map(_json_scalar, column))


def _json_text(value, pad: str) -> str:
    """JSON text of ``value`` whose closing bracket is indented by ``pad``."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        members = (encode_basestring(k) + ": " + _json_text(v, inner) for k, v in value.items())
        return "{\n" + inner + (",\n" + inner).join(members) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        texts = [_json_text(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "]"
    if isinstance(value, JsonTable):
        if not len(value.columns[0]):
            return "[]"
        # Each row is an object whose closing brace is indented by inner.
        row_pad = inner + "  "
        names = [encode_basestring(key) + ": " for key in value.keys]
        openers = ["{\n" + row_pad + names[0]] + [",\n" + row_pad + name for name in names[1:]]
        close = "\n" + inner + "}"
        columns = list(map(_json_column, value.columns))
        parts = _interleave(openers + [close + ",\n" + inner], columns)
        parts[-1] = close
        return "[\n" + inner + "".join(parts) + "\n" + pad + "]"
    return _json_scalar(value)


def _interleave(fixed: list[str], columns: list) -> list[str]:
    """Row by row: fixed[0], columns[0][i], fixed[1], ..., columns[-1][i], fixed[-1].

    Slice assignment places each piece and each column at its stride, so
    no per-row Python step runs.
    """
    rows = len(columns[0])
    stride = len(fixed) + len(columns)
    parts = [""] * (rows * stride)
    for j, piece in enumerate(fixed):
        parts[2 * j :: stride] = [piece] * rows
    for j, texts in enumerate(columns):
        parts[2 * j + 1 :: stride] = texts
    return parts


def json_dumps(document) -> str:
    """Serialize to deterministic JSON: 17-significant-digit floats,
    insertion-ordered keys, two-space indent, trailing newline.

    ``document`` is made of dicts with str keys, lists, tuples, JsonTables
    and the scalars None, bool, float, int and str (subclasses included;
    a non-finite float is written as null).  Any other type, a NumPy
    integer or bool among them, raises TypeError.  Strings and keys are
    escaped as the stdlib ``json`` module escapes them (control characters
    included), so the output is always valid JSON.
    """
    return _json_text(document, "") + "\n"


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``\\n`` line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


# Rows per write() of the CSV writers, which hold one chunk's cells at a
# time instead of the whole file's text.
_CHUNK_ROWS = 4096


def _write_csv(
    path: str | Path, header: list[str], n_rows: int,
    cells: Callable[[int, int], list[Sequence[str]]],
) -> None:
    """Write the header line, then for each chunk of rows the cell texts
    ``cells(start, stop)`` returns, one sequence per header column."""
    separators = [""] + [","] * (len(header) - 1) + ["\n"]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            columns = cells(start, min(start + _CHUNK_ROWS, n_rows))
            handle.write("".join(_interleave(separators, columns)))


def _reprs(columns: Sequence[np.ndarray], start: int, stop: int) -> list[list[str]]:
    """The texts of rows ``start`` to ``stop`` of each column: tolist() yields ints
    and Python floats, whose repr is their shortest round-trip text."""
    return [list(map(repr, column[start:stop].tolist())) for column in columns]


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_cell(text: str) -> str:
    """Quote a cell only when it holds , " CR or LF, as csv.QUOTE_MINIMAL does, or when
    it starts with '#' after str.strip's blanks, which the readers take for a comment."""
    if _needs_quotes(text) or text.lstrip().startswith("#"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_cells(texts: Sequence[str]) -> Sequence[str]:
    """``_csv_cell`` of each text; one scan of their joined text when none needs quotes."""
    joined = "".join(texts)
    if _needs_quotes(joined) or "#" in joined:
        return list(map(_csv_cell, texts))
    return texts


def _markdown_cells(texts: Sequence[str]) -> Sequence[str]:
    """Table cells of ``texts``, '|' written as '\\|' and each CRLF, CR or LF as '<br>';
    one scan of their joined text when none holds either."""
    joined = "".join(texts)
    if "|" not in joined and "\r" not in joined and "\n" not in joined:
        return texts
    return [
        text.replace("|", "\\|").replace("\r\n", "<br>").replace("\r", "<br>").replace("\n", "<br>")
        for text in texts
    ]


def write_spaces_csv(path: str | Path, studies: list[StudyCounts]) -> None:
    def cells(start: int, stop: int) -> list[Sequence[str]]:
        chunk = studies[start:stop]
        ids = _csv_cells([s.study_id for s in chunk])
        return [ids] + [[str(getattr(s, name)) for s in chunk] for name in SPACES_HEADER[1:]]

    _write_csv(path, SPACES_HEADER, len(studies), cells)


def write_spaces_markdown(path: str | Path, studies: list[StudyCounts]) -> None:
    """The per-study spaces and their cross-study summary as markdown tables."""
    summary = summarize_spaces(studies)
    lines = [
        "# Analysis search spaces",
        "",
        "| study | outcomes | predictors | lags | covariates | space1 | space2 | space3 |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    study_ids = _markdown_cells([s.study_id for s in studies])
    for study_id, s in zip(study_ids, studies):
        lines.append(
            f"| {study_id} | {s.outcomes} | {s.predictors} | {s.lags} "
            f"| {s.covariates} | {s.space1} | {s.space2} | {s.space3} |"
        )
    lines += [
        "",
        "## Summary",
        "",
        "| statistic | space1 | space2 | space3 |",
        "| --- | --- | --- | --- |",
    ]
    for attr in ("minimum", "lower_quartile", "median", "upper_quartile", "maximum"):
        columns = (summary.space1, summary.space2, summary.space3)
        cells = [format(getattr(column, attr), ".6g") for column in columns]
        lines.append(f"| {attr.replace('_', ' ')} | {cells[0]} | {cells[1]} | {cells[2]} |")
    write_text(path, "\n".join(lines) + "\n")


def space_summary_document(summary: SpaceSummary) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "space1": asdict(summary.space1),
        "space2": asdict(summary.space2),
        "space3": asdict(summary.space3),
    }


def write_space_summary_json(path: str | Path, summary: SpaceSummary) -> None:
    write_text(path, json_dumps(space_summary_document(summary)))


def _pvalue_table(plot) -> JsonTable:
    """The one ranked table: each plotted p-value with its study id and rank."""
    if len(plot.study_ids) != plot.n:
        raise ValueError("the plot has no study ids, and a report names each p-value's study")
    return JsonTable((plot.study_ids, plot.p, range(1, plot.n + 1)), ("study_id", "p", "rank"))


def _report_notes(report: AuditReport) -> list[str]:
    """The conversion note, each section's note in table order, then the excluded count."""
    notes = [
        "p-values derive from reported ratio confidence intervals via the "
        "log-scale normal approximation.",
        *(section.note for section in report.SECTIONS if section.note),
    ]
    if report.plot.excluded_ns_count:
        notes.append(
            f"{report.plot.excluded_ns_count} records flagged not-significant "
            "were excluded from the plot and all diagnostics."
        )
    return notes


def build_report_document(report: AuditReport, digests: list[dict]) -> dict:
    """Assemble the schema-versioned report JSON document.

    ``spaces`` and ``space_summary`` are those of the report's counts, or
    None without counts.  ``pvalues`` is the one ranked table, a JsonTable over the plot's
    columns; a reader derives the reference i/(n+1) from ``plot.n``.  The
    sections follow ``report.SECTIONS``: the "tests" group under ``tests``,
    then each top-level section.
    """
    plot = report.plot
    spaces = space_summary = None
    if report.counts is not None:
        spaces = [
            {"study_id": s.study_id, "space1": s.space1, "space2": s.space2, "space3": s.space3}
            for s in report.counts
        ]
        space_summary = space_summary_document(report.space_summary)
    sections = {"tests": {}}  # each a dict of its dataclass's fields in order, or None
    for section in report.SECTIONS:
        result = getattr(report, section.name)
        group = sections if section.group is None else sections[section.group]
        group[section.name] = None if result is None else asdict(result)
    return {
        "schema": REPORT_SCHEMA,
        "inputs_digest": digests,
        "spaces": spaces,
        "space_summary": space_summary,
        "pvalues": _pvalue_table(plot),
        "plot": {"n": plot.n, "excluded_ns_count": plot.excluded_ns_count},
        **sections,
        "notes": _report_notes(report),
    }


def write_report_json(path: str | Path, document: dict) -> None:
    write_text(path, json_dumps(document))


def write_plot_csv(path: str | Path, report: AuditReport) -> None:
    """One row per rank: the ranked p-value and its uniform reference i/(n+1)."""
    plot = report.plot
    columns = (np.arange(1, plot.n + 1), plot.p, plot.reference())
    _write_csv(path, PLOT_HEADER, plot.n, lambda start, stop: _reprs(columns, start, stop))


def _fmt(value: float) -> str:
    return format(value, ".6g")


# The markdown lines of a section, by its result type.
_MARKDOWN_LINES = {
    TestResult: lambda name, test: [
        f"- {name} ({test.method}): statistic {_fmt(test.statistic)}, p {_fmt(test.p_value)}"
        + (f" [{test.verdict}]" if test.verdict else "")
    ],
    HockeyStickFit: lambda name, fit: [
        f"- {name}: breakpoint {fit.breakpoint}, left slope {_fmt(fit.left_slope)}, "
        f"right slope {_fmt(fit.right_slope)}, SSE {_fmt(fit.sse)}"
    ],
    MultiplicityReport: lambda name, counts: [
        f"- search-space correction factor m = {_fmt(counts.m)}",
        f"- adjusted alpha = {_fmt(counts.adjusted_alpha)}",
        f"- significant at alpha: {counts.n_significant_raw}",
        f"- significant after adjustment: {counts.n_significant_adjusted}",
    ],
}


def write_report_markdown(path: str | Path, report: AuditReport) -> None:
    """Render the report as a human-readable markdown summary: each section of
    ``report.SECTIONS`` in its result type's format, a "tests" section under
    Diagnostics and a top-level one, unless None, under its own heading."""
    plot = report.plot
    lines = [
        "# Reliability audit", "",
        f"{plot.n} usable p-values; {plot.excluded_ns_count} not-significant records excluded.",
        "", "## Ranked p-values", "", "| rank | study | p |", "| --- | --- | --- |",
    ]
    study_ids, p, ranks = _pvalue_table(plot).columns
    p_texts = map(format, p.tolist(), itertools.repeat(".6g"))
    columns = [list(map(str, ranks)), _markdown_cells(study_ids), p_texts]
    rows = _interleave(["| ", " | ", " | ", " |\n"], columns)
    rows[-1] = " |"
    lines.append("".join(rows))
    lines += ["", "## Diagnostics", ""]
    for section in report.SECTIONS:  # the "tests" group first
        result = getattr(report, section.name)
        if result is not None and section.group is None:
            lines += ["", f"## {section.name.replace('_', ' ').capitalize()}", ""]
        if result is not None:
            lines += _MARKDOWN_LINES[type(result)](section.name, result)
        elif section.group is not None:
            lines.append(f"- {section.name}: not run (too few points)")
    lines += ["", "## Notes", ""]
    lines += [f"- {note}" for note in _report_notes(report)]
    write_text(path, "\n".join(lines) + "\n")


def write_sim_csv(path: str | Path, result: SimResult) -> None:
    """One row per published study, in replicate order."""
    published = result.published
    columns = [c[published] for c in (result.replicate, result.study, result.p, result.estimate)]
    _write_csv(path, SIM_HEADER, len(columns[0]), lambda start, stop: _reprs(columns, start, stop))


def sim_summary_document(result: SimResult) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "config": asdict(result.config),
        "publication_rate": result.publication_rate,
        "bias": result.bias,
        "abs_bias": result.abs_bias,
        "mean_abs_estimate": result.mean_abs_estimate,
        "n_total": result.n_total,
        "n_published": result.n_published,
        "n_reported": int(np.count_nonzero(result.reported)),
    }


def write_sim_summary_json(path: str | Path, result: SimResult) -> None:
    write_text(path, json_dumps(sim_summary_document(result)))


def write_effects_csv(path: str | Path, records: Sequence[EffectRecord]) -> None:
    """Write effect records in the effects CSV format, streamed in chunks of rows.

    ``records`` may be an ``EffectsTable``; a list of records becomes one.
    Rows with ns=1 leave their three numbers empty.
    """
    table = EffectsTable.from_records(records)
    numbers = (table.ratio, table.ci_low, table.ci_high)

    def cells(start: int, stop: int) -> list[Sequence[str]]:
        # A table holds a few distinct levels: format each once.
        levels = table.level[start:stop].tolist()
        level_texts = {level: repr(level) for level in set(levels)}
        number_texts = _reprs(numbers, start, stop)
        ns = ["0"] * (stop - start)
        for row in np.flatnonzero(table.ns[start:stop]).tolist():
            for texts in number_texts:
                texts[row] = ""
            ns[row] = "1"
        return [
            _csv_cells(table.study_ids[start:stop]), _csv_cells(table.labels[start:stop]),
            *number_texts, list(map(level_texts.__getitem__, levels)), ns,
        ]

    _write_csv(path, EFFECTS_HEADER, len(table), cells)
