"""File formats: counts/effects CSV parsing and report serialization.

CSV inputs are UTF-8, with or without a byte-order mark, and are read as
one stream by ``csv.reader``: a quoted cell may hold commas, doubled
quotes and line breaks.  Blank lines and lines starting with '#' are
skipped between records.

All output is UTF-8 with LF line endings and '.' decimal separators,
independent of locale.  CSV cells holding a comma, a quote, CR or LF are
quoted as ``csv.QUOTE_MINIMAL`` does, so every written CSV reads back as
written.  JSON floats carry 17 significant digits and CSV floats use
shortest round-trip form, so parsing any emitted file and re-serializing
it reproduces the bytes exactly.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.resources
import itertools
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from metaudit.effect_audit import AuditReport, EffectRecord, EffectsTable
from metaudit.hacksim import SimConfig, SimResult
from metaudit.searchspace import SearchSpace, SpaceSummary, StudyCounts

COUNTS_HEADER = ["study_id", "outcomes", "predictors", "lags", "covariates"]
COUNTS_HEADER_NAMED = COUNTS_HEADER + ["covariate_names"]
EFFECTS_HEADER = ["study_id", "label", "ratio", "ci_low", "ci_high", "level", "ns"]
EFFECTS_HEADER_NO_LEVEL = [c for c in EFFECTS_HEADER if c != "level"]

REPORT_SCHEMA = "metaudit/2"


def bundled_data_path(name: str) -> Path:
    """Filesystem path of a bundled example dataset (e.g. 'nawrot_counts.csv')."""
    return Path(str(importlib.resources.files("metaudit") / "data" / name))


class ParseError(ValueError):
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


def _data_rows(path: Path, lines: list[int]):
    """Yield the cells of each CSV record of ``path``, appending its line number to ``lines``.

    One ``csv.reader`` reads the whole file, so quoted cells may hold
    commas, quotes and line breaks.  Blank and '#' lines are skipped
    between records, never inside a quoted cell, and a record's line
    number is that of its first physical line.  A record that the
    reader cannot parse raises ParseError.
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

    with open(path, encoding="utf-8-sig", newline="") as handle:
        try:
            for cells in csv.reader(record_lines(handle)):
                lines.append(first_line)
                first_line = 0
                yield cells
        except csv.Error as exc:
            # Such as a cell over csv.field_size_limit(): a malformed row.
            raise ParseError(f"{path}: {exc}", row=first_line or None) from None


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


def _parse_float(cell: str, row: int, column: str) -> float:
    try:
        return float(cell.strip())
    except ValueError:
        raise ParseError(f"expected a number, got {cell!r}", row=row, column=column) from None


def read_counts_csv(path: str | Path, lines: list[int] | None = None) -> list[StudyCounts]:
    """Parse a study-counts CSV into StudyCounts rows.

    Header is matched case-insensitively; the trailing covariate_names
    column is optional and holds a semicolon-separated name list.  Lines
    starting with '#' are comments.  Overflow (covariates beyond the
    64-bit guard) propagates as SearchSpaceOverflowError so callers can
    distinguish it from malformed input.  When ``lines`` is given, the
    file line of each study row is appended to it.
    """
    path = Path(path)
    lines = [] if lines is None else lines
    rows = _data_rows(path, lines)
    try:
        header_cells = next(rows)
    except StopIteration:
        raise ParseError(
            f"{path}: empty file; expected header {','.join(COUNTS_HEADER)}"
        ) from None
    header = _match_header(header_cells, [COUNTS_HEADER_NAMED, COUNTS_HEADER], path)
    lines.pop()  # of the header

    has_names = header is COUNTS_HEADER_NAMED
    studies = []
    for cells in rows:
        lineno = lines[-1]
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(cells)}", row=lineno
            )
        study_id, outcomes, predictors, lags, covariates = cells[:5]
        names = None
        if has_names and cells[5].strip():
            names = [n.strip() for n in cells[5].split(";")]
        try:
            studies.append(
                StudyCounts(
                    study_id=study_id.strip(),
                    outcomes=_parse_int(outcomes, lineno, "outcomes"),
                    predictors=_parse_int(predictors, lineno, "predictors"),
                    lags=_parse_int(lags, lineno, "lags"),
                    covariates=_parse_int(covariates, lineno, "covariates"),
                    covariate_names=names,
                )
            )
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), row=lineno) from exc
    if not studies:
        raise ParseError(f"{path}: no study rows after the header")
    return studies


def _floats(cells: Sequence[str], lines: Iterable[int], column: str) -> np.ndarray:
    """The cells as floats, or the ParseError of the first cell that ``_parse_float`` rejects.

    Each cell is parsed as ``float(cell.strip())``: float() alone does not
    strip \\x1c-\\x1f.  ``lines`` holds each cell's line.
    """
    try:
        return np.array(list(map(float, map(str.strip, cells))), dtype=float)
    except ValueError:
        return np.array(list(map(_parse_float, cells, lines, itertools.repeat(column))))


def _effects_columns(lines: list[int], cells: list[list[str]], width: int) -> EffectsTable:
    """The effects table of the rows, or the ParseError of the first bad row in file order.

    Each check runs over all rows, in the order that one row's fields are
    checked: field count, ns cell, level, ratio, ci_low, ci_high, and then
    ``EffectsTable``'s contract; it raises for the first row it rejects.
    A row before that one may fail a later check, so the rows before it
    are checked again, recursively: at most seven levels deep, and only
    on the error path.
    """
    try:
        widths = list(map(len, cells))
        if set(widths) != {width}:
            bad = next(i for i, n in enumerate(widths) if n != width)
            raise ParseError(f"expected {width} fields, got {widths[bad]}", row=lines[bad])
        study_ids, labels, ratio, ci_low, ci_high, *level_column, ns_cells = zip(*cells)
        ns_cells = list(map(str.strip, ns_cells))
        if not set(ns_cells) <= {"0", "1", ""}:
            bad = next(i for i, cell in enumerate(ns_cells) if cell not in ("0", "1", ""))
            raise ParseError(f"ns must be 0 or 1, got {ns_cells[bad]!r}", row=lines[bad], column="ns")
        if level_column:
            # A file holds a few distinct levels: parse each once, in file
            # order, with the line of the first row that holds it.
            first_lines = dict(zip(reversed(level_column[0]), reversed(lines)))
            distinct = sorted(first_lines, key=first_lines.__getitem__)
            texts = [cell.strip() or "0.95" for cell in distinct]
            parsed = _floats(texts, map(first_lines.__getitem__, distinct), "level").tolist()
            level = np.array(list(map(dict(zip(distinct, parsed)).__getitem__, level_column[0])))
        else:
            level = np.full(len(cells), 0.95)
        ns = np.array([cell == "1" for cell in ns_cells], dtype=bool)
        # Not-significant rows carry no numbers, whatever their cells hold.
        numeric = ~ns
        flags = numeric.tolist()
        numbers = [
            _floats(list(itertools.compress(column, flags)), itertools.compress(lines, flags), name)
            for column, name in ((ratio, "ratio"), (ci_low, "ci_low"), (ci_high, "ci_high"))
        ]
        if not all(flags):
            parsed_numbers, numbers = numbers, [np.full(len(cells), math.nan) for _ in numbers]
            for full, column in zip(numbers, parsed_numbers):
                full[numeric] = column
        try:
            return EffectsTable(
                tuple(map(str.strip, study_ids)), tuple(map(str.strip, labels)), *numbers,
                level=level, ns=ns, lines=lines,
            )
        except ValueError as exc:
            raise ParseError(str(exc), row=lines[exc.index]) from exc
    except ParseError as exc:
        before = lines.index(exc.row)
        if before:  # a row before the named one may fail a later check
            _effects_columns(lines[:before], cells[:before], width)
        raise


def read_effects_csv(path: str | Path) -> EffectsTable:
    """Parse an effects CSV into an EffectsTable, a sequence of EffectRecords.

    The level column is optional (default 0.95) and may be left empty per
    row; rows with ns=1 may leave all numeric fields empty.  A malformed
    file raises the ParseError of its first bad row in file order, which
    names the record's first line, and the column when a cell does not
    parse; a bad row before an unreadable record comes first.
    """
    path = Path(path)
    lines: list[int] = []
    rows = _data_rows(path, lines)
    try:
        header_cells = next(rows)
    except StopIteration:
        raise ParseError(
            f"{path}: empty file; expected header {','.join(EFFECTS_HEADER)}"
        ) from None
    width = len(_match_header(header_cells, [EFFECTS_HEADER, EFFECTS_HEADER_NO_LEVEL], path))
    lines.clear()  # of the header
    cells: list[list[str]] = []
    try:
        cells.extend(rows)  # keeps the rows read before an unreadable record
    except ParseError:
        if cells:
            _effects_columns(lines, cells, width)  # a bad row before that record comes first
        raise
    if not cells:
        raise ParseError(f"{path}: no effect rows after the header")
    return _effects_columns(lines, cells, width)


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


# Rows per write() of the streamed CSV writers, which hold one chunk's
# lines at a time instead of the whole file's text.
_CHUNK_ROWS = 4096


def _write_chunked(
    path: Path, header: str, n_rows: int, lines: Callable[[int, int], list[str]]
) -> None:
    """Write the header line, then ``lines(start, stop)`` for each chunk of rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            handle.write("".join(lines(start, min(start + _CHUNK_ROWS, n_rows))))


def file_digest(path: str | Path) -> dict:
    # Record the basename, not the full path, so reports stay byte-identical
    # when the same inputs are audited from a different working directory.
    data = Path(path).read_bytes()
    return {"name": Path(path).name, "sha256": hashlib.sha256(data).hexdigest()}


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_cell(text: str) -> str:
    """Quote a cell only when it holds , " CR or LF, as csv.QUOTE_MINIMAL does."""
    if _needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_cells(texts: Sequence[str]) -> Sequence[str]:
    """``_csv_cell`` of each text; one scan of their joined text when none needs quotes."""
    if _needs_quotes("".join(texts)):
        return list(map(_csv_cell, texts))
    return texts


def write_spaces_csv(
    path: str | Path, studies: list[StudyCounts], spaces: list[SearchSpace]
) -> None:
    lines = ["study_id,outcomes,predictors,lags,covariates,space1,space2,space3\n"]
    lines += [
        f"{_csv_cell(s.study_id)},{s.outcomes},{s.predictors},{s.lags},{s.covariates},"
        f"{sp.space1},{sp.space2},{sp.space3}\n"
        for s, sp in zip(studies, spaces)
    ]
    write_text(path, "".join(lines))


def write_spaces_markdown(
    path: str | Path, studies: list[StudyCounts], spaces: list[SearchSpace], summary: SpaceSummary
) -> None:
    """The per-study spaces and their cross-study summary as markdown tables."""
    lines = [
        "# Analysis search spaces",
        "",
        "| study | outcomes | predictors | lags | covariates | space1 | space2 | space3 |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for s, sp in zip(studies, spaces):
        lines.append(
            f"| {s.study_id} | {s.outcomes} | {s.predictors} | {s.lags} "
            f"| {s.covariates} | {sp.space1} | {sp.space2} | {sp.space3} |"
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


def _section(result) -> dict | None:
    """A report section: the dataclass's fields in their declared order, or None."""
    return None if result is None else asdict(result)


def build_report_document(
    report: AuditReport,
    digests: list[dict],
    studies: list[StudyCounts] | None = None,
    spaces: list[SearchSpace] | None = None,
    summary: SpaceSummary | None = None,
) -> dict:
    """Assemble the schema-versioned report JSON document.

    ``pvalues`` is the one ranked table, a JsonTable over the plot's
    columns; a reader derives the reference i/(n+1) from ``plot.n``.
    """
    plot = report.plot
    notes = [
        "p-values derive from reported ratio confidence intervals via the "
        "log-scale normal approximation.",
        "the bilinearity diagnostic is a reconstruction: ordinary least "
        "squares of sorted p-values on rank and rank squared, with a t test "
        "on the quadratic term.",
    ]
    if plot.excluded_ns_count:
        notes.append(
            f"{plot.excluded_ns_count} records flagged not-significant "
            "were excluded from the plot and all diagnostics."
        )
    document = {
        "schema": REPORT_SCHEMA,
        "inputs_digest": digests,
        "spaces": None,
        "space_summary": space_summary_document(summary) if summary else None,
        "pvalues": JsonTable(
            (plot.study_ids, plot.p, range(1, plot.n + 1)), ("study_id", "p", "rank")
        ),
        "plot": {"n": plot.n, "excluded_ns_count": plot.excluded_ns_count},
        "tests": {
            "uniformity": _section(report.uniformity),
            "bilinearity": _section(report.bilinearity),
            "hockey_stick": _section(report.hockey_stick),
        },
        "multiplicity": _section(report.multiplicity),
        "notes": notes,
    }
    if studies is not None and spaces is not None:
        document["spaces"] = [
            {
                "study_id": s.study_id,
                "space1": sp.space1,
                "space2": sp.space2,
                "space3": sp.space3,
            }
            for s, sp in zip(studies, spaces)
        ]
    return document


def write_report_json(path: str | Path, document: dict) -> None:
    write_text(path, json_dumps(document))


def write_plot_csv(path: str | Path, report: AuditReport) -> None:
    plot = report.plot
    # tolist() yields Python floats, whose !r is their shortest round-trip text.
    rows = zip(range(1, plot.n + 1), plot.p.tolist(), plot.reference().tolist())
    lines = ["rank,p,reference\n"] + [f"{rank},{p!r},{ref!r}\n" for rank, p, ref in rows]
    write_text(path, "".join(lines))


def _fmt(value: float) -> str:
    return format(value, ".6g")


def write_report_markdown(path: str | Path, document: dict) -> None:
    """Render the report document as a human-readable markdown summary."""
    lines = ["# Reliability audit", ""]
    plot = document["plot"]
    lines.append(
        f"{plot['n']} usable p-values; {plot['excluded_ns_count']} "
        "not-significant records excluded."
    )
    lines += ["", "## Ranked p-values", "", "| rank | study | p |", "| --- | --- | --- |"]
    study_ids, p, ranks = document["pvalues"].columns
    p_texts = map(format, p.tolist(), itertools.repeat(".6g"))
    rows = _interleave(["| ", " | ", " | ", " |\n"], [list(map(str, ranks)), study_ids, p_texts])
    rows[-1] = " |"
    lines.append("".join(rows))
    lines += ["", "## Diagnostics", ""]
    for name in ("uniformity", "bilinearity", "hockey_stick"):
        section = document["tests"][name]
        if section is None:
            lines.append(f"- {name}: not run (too few points)")
        elif name == "hockey_stick":
            lines.append(
                f"- hockey_stick: breakpoint {section['breakpoint']}, "
                f"left slope {_fmt(section['left_slope'])}, "
                f"right slope {_fmt(section['right_slope'])}, "
                f"SSE {_fmt(section['sse'])}"
            )
        else:
            verdict = f" [{section['verdict']}]" if section["verdict"] else ""
            lines.append(
                f"- {name} ({section['method']}): statistic "
                f"{_fmt(section['statistic'])}, p {_fmt(section['p_value'])}{verdict}"
            )
    multiplicity = document["multiplicity"]
    if multiplicity is not None:
        lines += [
            "",
            "## Multiplicity",
            "",
            f"- search-space correction factor m = {_fmt(multiplicity['m'])}",
            f"- adjusted alpha = {_fmt(multiplicity['adjusted_alpha'])}",
            f"- significant at alpha: {multiplicity['n_significant_raw']}",
            f"- significant after adjustment: {multiplicity['n_significant_adjusted']}",
        ]
    lines += ["", "## Notes", ""]
    lines += [f"- {note}" for note in document["notes"]]
    write_text(path, "\n".join(lines) + "\n")


def write_sim_csv(path: str | Path, result: SimResult) -> None:
    """One row per published study, in replicate order."""
    published = result.published
    columns = [c[published] for c in (result.replicate, result.study, result.p, result.estimate)]

    def lines(start: int, stop: int) -> list[str]:
        # tolist() yields ints and Python floats, whose !r is their shortest round-trip text.
        rows = zip(*(column[start:stop].tolist() for column in columns))
        return [f"{replicate},{study},{p!r},{estimate!r}\n" for replicate, study, p, estimate in rows]

    _write_chunked(Path(path), "replicate,study,p,estimate", len(columns[0]), lines)


def sim_summary_document(config: SimConfig, result: SimResult) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "config": asdict(config),
        "publication_rate": result.publication_rate,
        "bias": result.bias,
        "abs_bias": result.abs_bias,
        "mean_abs_estimate": result.mean_abs_estimate,
        "n_total": result.n_total,
        "n_published": result.n_published,
        "n_reported": int(np.count_nonzero(result.reported)),
    }


def write_sim_summary_json(path: str | Path, config: SimConfig, result: SimResult) -> None:
    write_text(path, json_dumps(sim_summary_document(config, result)))


def write_effects_csv(path: str | Path, records: Sequence[EffectRecord]) -> None:
    """Write effect records in the effects CSV format, streamed in chunks of rows.

    ``records`` may be an ``EffectsTable``; a list of records becomes one.
    Rows with ns=1 leave their three numbers empty.
    """
    table = records if isinstance(records, EffectsTable) else EffectsTable.from_records(records)
    numbers = (table.ratio, table.ci_low, table.ci_high)

    def lines(start: int, stop: int) -> list[str]:
        ids = _csv_cells(table.study_ids[start:stop])
        labels = _csv_cells(table.labels[start:stop])
        # A table holds a few distinct levels: format each once.
        levels = table.level[start:stop].tolist()
        level_texts = {level: repr(level) for level in set(levels)}
        levels = list(map(level_texts.__getitem__, levels))
        # tolist() yields Python floats, whose !r is their shortest round-trip text.
        rows = zip(ids, labels, *(column[start:stop].tolist() for column in numbers), levels)
        texts = [
            f"{study_id},{label},{r!r},{lo!r},{hi!r},{level},0\n"
            for study_id, label, r, lo, hi, level in rows
        ]
        for row in np.flatnonzero(table.ns[start:stop]).tolist():
            texts[row] = f"{ids[row]},{labels[row]},,,,{levels[row]},1\n"
        return texts

    _write_chunked(Path(path), ",".join(EFFECTS_HEADER), len(table), lines)
