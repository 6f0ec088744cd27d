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
import math
from collections.abc import Callable, Sequence
from dataclasses import asdict
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path

import numpy as np

from metaudit.effect_audit import AuditReport, EffectRecord
from metaudit.hacksim import SimConfig, SimResult
from metaudit.searchspace import SearchSpace, SpaceSummary, StudyCounts

COUNTS_HEADER = ["study_id", "outcomes", "predictors", "lags", "covariates"]
COUNTS_HEADER_NAMED = COUNTS_HEADER + ["covariate_names"]
EFFECTS_HEADER = ["study_id", "label", "ratio", "ci_low", "ci_high", "level", "ns"]
EFFECTS_HEADER_NO_LEVEL = [c for c in EFFECTS_HEADER if c != "level"]

REPORT_SCHEMA = "metaudit/1"


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


def _data_rows(path: Path):
    """Yield (line_number, cells) for each CSV record of ``path``.

    One ``csv.reader`` reads the whole file, so quoted cells may hold
    commas, quotes and line breaks.  Blank and '#' lines are skipped
    between records, never inside a quoted cell, and a record's line
    number is that of its first physical line.
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
        for cells in csv.reader(record_lines(handle)):
            row, first_line = first_line, 0
            yield row, cells


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


def read_counts_csv(path: str | Path) -> list[StudyCounts]:
    """Parse a study-counts CSV into StudyCounts rows.

    Header is matched case-insensitively; the trailing covariate_names
    column is optional and holds a semicolon-separated name list.  Lines
    starting with '#' are comments.  Overflow (covariates beyond the
    64-bit guard) propagates as SearchSpaceOverflowError so callers can
    distinguish it from malformed input.
    """
    path = Path(path)
    rows = _data_rows(path)
    try:
        _, header_cells = next(rows)
    except StopIteration:
        raise ParseError(
            f"{path}: empty file; expected header {','.join(COUNTS_HEADER)}"
        ) from None
    header = _match_header(header_cells, [COUNTS_HEADER_NAMED, COUNTS_HEADER], path)

    has_names = header is COUNTS_HEADER_NAMED
    studies = []
    for lineno, cells in rows:
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


def read_effects_csv(path: str | Path) -> list[EffectRecord]:
    """Parse an effects CSV into EffectRecord rows.

    The level column is optional (default 0.95) and may be left empty per
    row; rows with ns=1 may leave all numeric fields empty.
    """
    path = Path(path)
    rows = _data_rows(path)
    try:
        _, header_cells = next(rows)
    except StopIteration:
        raise ParseError(
            f"{path}: empty file; expected header {','.join(EFFECTS_HEADER)}"
        ) from None
    header = _match_header(header_cells, [EFFECTS_HEADER, EFFECTS_HEADER_NO_LEVEL], path)

    has_level = header is EFFECTS_HEADER
    records = []
    for lineno, cells in rows:
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(cells)}", row=lineno
            )
        if has_level:
            study_id, label, ratio, ci_low, ci_high, level_cell, ns_cell = cells
        else:
            study_id, label, ratio, ci_low, ci_high, ns_cell = cells
            level_cell = ""
        ns_cell = ns_cell.strip()
        if ns_cell not in ("0", "1", ""):
            raise ParseError(f"ns must be 0 or 1, got {ns_cell!r}", row=lineno, column="ns")
        level_cell = level_cell.strip()
        level = _parse_float(level_cell, lineno, "level") if level_cell else 0.95
        try:
            if ns_cell == "1":
                records.append(
                    EffectRecord(
                        study_id=study_id.strip(),
                        label=label.strip(),
                        confidence_level=level,
                        not_significant_flag=True,
                    )
                )
            else:
                records.append(
                    EffectRecord(
                        study_id=study_id.strip(),
                        label=label.strip(),
                        ratio=_parse_float(ratio, lineno, "ratio"),
                        ci_low=_parse_float(ci_low, lineno, "ci_low"),
                        ci_high=_parse_float(ci_high, lineno, "ci_high"),
                        confidence_level=level,
                    )
                )
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), row=lineno) from exc
    if not records:
        raise ParseError(f"{path}: no effect rows after the header")
    return records


def _format_json_float(value: float) -> str:
    if math.isfinite(value):
        return format(value, ".17g")
    return "null"


def _format_json_bool(value: bool) -> str:
    return "true" if value else "false"


def _format_json_none(value: None) -> str:
    return "null"


# Scalars dispatched on their exact type.  bool and None have no subclasses;
# float and int subclasses (np.float64, IntEnum) and other objects take the
# isinstance chain at the end of _json_text, which gives the same text.
_JSON_SCALARS = {
    float: _format_json_float,
    int: int.__repr__,
    str: encode_basestring,
    bool: _format_json_bool,
    type(None): _format_json_none,
}


def _json_text(value, pad: str) -> str:
    """JSON text of ``value`` whose closing bracket is indented by ``pad``."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        texts = _json_member_texts(value.values(), pad + "  ")
        return _json_dict_layout(tuple(value), pad) % tuple(texts)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        texts = _json_member_texts(value, pad + "  ")
        return _json_list_layout(len(value), pad) % tuple(texts)
    if isinstance(value, float):
        return _format_json_float(value)
    if isinstance(value, int):
        return str(value)
    return encode_basestring(str(value))


def _json_dict_layout(keys: tuple, pad: str) -> str:
    """%-template of a non-empty dict with these keys, one %s per value."""
    inner = pad + "  "
    items = [f"{inner}{encode_basestring(f'{key}')}: ".replace("%", "%%") + "%s" for key in keys]
    return "{\n" + ",\n".join(items) + "\n" + pad + "}"


def _json_list_layout(size: int, pad: str) -> str:
    """%-template of a non-empty list of ``size`` members."""
    inner = pad + "  "
    return "[\n" + ",\n".join([inner + "%s"] * size) + "\n" + pad + "]"


def _json_member_texts(members, pad: str) -> list[str]:
    texts = _json_scalar_texts(members)
    if texts is None:
        texts = _json_table_texts(members, pad)
    if texts is None:
        texts = [_json_text(member, pad) for member in members]
    return texts


def _json_scalar_texts(values) -> list[str] | None:
    """Texts of ``values`` if all are exact-type scalars, else None."""
    try:
        formats = [_JSON_SCALARS[kind] for kind in set(map(type, values))]
    except KeyError:
        return None
    if len(formats) == 1:
        return list(map(formats[0], values))
    return [_JSON_SCALARS[type(value)](value) for value in values]


def _json_table_texts(rows, pad: str) -> list[str] | None:
    """Texts of ``rows`` if all are flat containers of one layout, else None.

    A flat container holds only exact-type scalars.  Such a table (each of
    the pvalues, plot.points and reference_line lists of a report) is
    formatted a column at a time and filled into one layout per row.
    """
    kinds = set(map(type, rows))
    if kinds == {dict}:
        shapes = set(map(tuple, rows))
        if len(shapes) != 1 or () in shapes:
            return None
        keys = shapes.pop()
        layout = _json_dict_layout(keys, pad)
    elif kinds and kinds <= {list, tuple}:
        shapes = set(map(len, rows))
        if len(shapes) != 1 or 0 in shapes:
            return None
        keys = range(shapes.pop())
        layout = _json_list_layout(len(keys), pad)
    else:
        return None
    # itemgetter, not zip(*rows): zip would hold an iterator per row.
    texts = [_json_scalar_texts(list(map(itemgetter(key), rows))) for key in keys]
    if None in texts:
        return None
    return list(map(layout.__mod__, zip(*texts)))


def json_dumps(document) -> str:
    """Serialize to deterministic JSON: 17-significant-digit floats,
    insertion-ordered keys, two-space indent, trailing newline.

    Strings and keys are escaped as the stdlib ``json`` module escapes them
    (control characters included), so the output is always valid JSON.
    """
    return _json_text(document, "") + "\n"


def _write_text(path: Path, text: str) -> None:
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


def format_csv_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        # float.__repr__, not repr: NumPy 2 scalars repr as "np.float64(...)".
        return float.__repr__(value)
    return _csv_cell(str(value))


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines += [",".join(format_csv_value(v) for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def write_spaces_csv(
    path: str | Path, studies: list[StudyCounts], spaces: list[SearchSpace]
) -> None:
    rows = [
        (
            s.study_id,
            s.outcomes,
            s.predictors,
            s.lags,
            s.covariates,
            sp.space1,
            sp.space2,
            sp.space3,
        )
        for s, sp in zip(studies, spaces)
    ]
    write_csv(
        Path(path),
        ["study_id", "outcomes", "predictors", "lags", "covariates",
         "space1", "space2", "space3"],
        rows,
    )


def space_summary_document(summary: SpaceSummary) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "space1": asdict(summary.space1),
        "space2": asdict(summary.space2),
        "space3": asdict(summary.space3),
    }


def write_space_summary_json(path: str | Path, summary: SpaceSummary) -> None:
    _write_text(Path(path), json_dumps(space_summary_document(summary)))


def _test_result_section(result) -> dict | None:
    if result is None:
        return None
    return {
        "statistic": result.statistic,
        "p_value": result.p_value,
        "df": result.df,
        "method": result.method,
        "verdict": result.verdict,
    }


def build_report_document(
    report: AuditReport,
    digests: list[dict],
    studies: list[StudyCounts] | None = None,
    spaces: list[SearchSpace] | None = None,
    summary: SpaceSummary | None = None,
) -> dict:
    """Assemble the schema-versioned report JSON document."""
    notes = [
        "p-values derive from reported ratio confidence intervals via the "
        "log-scale normal approximation.",
        "the bilinearity diagnostic is a reconstruction: ordinary least "
        "squares of sorted p-values on rank and rank squared, with a t test "
        "on the quadratic term.",
    ]
    if report.plot.excluded_ns_count:
        notes.append(
            f"{report.plot.excluded_ns_count} records flagged not-significant "
            "were excluded from the plot and all diagnostics."
        )
    document = {
        "schema": REPORT_SCHEMA,
        "inputs_digest": digests,
        "spaces": None,
        "space_summary": space_summary_document(summary) if summary else None,
        "pvalues": [
            {"study_id": rec.study_id, "p": rec.p, "rank": rec.rank}
            for rec in report.pvalues
        ],
        "plot": {
            "n": report.plot.n,
            "excluded_ns_count": report.plot.excluded_ns_count,
            "points": [[rank, p] for rank, p in report.plot.points],
            "reference_line": [[rank, r] for rank, r in report.plot.reference_line],
        },
        "tests": {
            "uniformity": _test_result_section(report.uniformity),
            "bilinearity": _test_result_section(report.bilinearity),
            "hockey_stick": (
                None
                if report.hockey_stick is None
                else {
                    "breakpoint": report.hockey_stick.breakpoint,
                    "left_slope": report.hockey_stick.left_slope,
                    "right_slope": report.hockey_stick.right_slope,
                    "sse": report.hockey_stick.sse,
                }
            ),
        },
        "multiplicity": (
            None
            if report.multiplicity is None
            else {
                "alpha": report.multiplicity.alpha,
                "m": report.multiplicity.m,
                "adjusted_alpha": report.multiplicity.adjusted_alpha,
                "n_significant_raw": report.multiplicity.n_significant_raw,
                "n_significant_adjusted": report.multiplicity.n_significant_adjusted,
            }
        ),
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
    _write_text(Path(path), json_dumps(document))


def write_plot_csv(path: str | Path, report: AuditReport) -> None:
    # audit computes p and the reference with math on Python floats, whose
    # !r is format_csv_value's; ranks are ints.
    lines = ["rank,p,reference"]
    lines += [
        f"{rank},{p!r},{ref!r}"
        for (rank, p), (_, ref) in zip(report.plot.points, report.plot.reference_line)
    ]
    _write_text(Path(path), "\n".join(lines) + "\n")


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
    for rec in document["pvalues"]:
        lines.append(f"| {rec['rank']} | {rec['study_id']} | {_fmt(rec['p'])} |")
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
    _write_text(Path(path), "\n".join(lines) + "\n")


def write_sim_csv(path: str | Path, result: SimResult) -> None:
    """One row per published study, in replicate order."""
    published = result.published
    columns = [c[published] for c in (result.replicate, result.study, result.p, result.estimate)]

    def lines(start: int, stop: int) -> list[str]:
        # tolist() yields ints and Python floats, whose !r is format_csv_value's.
        rows = zip(*(column[start:stop].tolist() for column in columns))
        return [f"{replicate},{study},{p!r},{estimate!r}\n" for replicate, study, p, estimate in rows]

    _write_chunked(Path(path), "replicate,study,p,estimate", len(columns[0]), lines)


def sim_summary_document(config: SimConfig, result: SimResult) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "config": {
            "n_studies": config.n_studies,
            "tests_per_study": config.tests_per_study,
            "correlation": config.correlation,
            "true_effect": config.true_effect,
            "selection_rule": config.selection_rule,
            "alpha": config.alpha,
            "censor_at_alpha": config.censor_at_alpha,
            "replicates": config.replicates,
            "seed": config.seed,
        },
        "publication_rate": result.publication_rate,
        "bias": result.bias,
        "abs_bias": result.abs_bias,
        "mean_abs_estimate": result.mean_abs_estimate,
        "n_total": result.n_total,
        "n_published": result.n_published,
        "n_reported": len(result.reported_pvalues),
    }


def write_sim_summary_json(path: str | Path, config: SimConfig, result: SimResult) -> None:
    _write_text(Path(path), json_dumps(sim_summary_document(config, result)))


def write_effects_csv(path: str | Path, records: list[EffectRecord]) -> None:
    """Serialize effect records in the effects CSV format."""
    rows = []
    for rec in records:
        if rec.not_significant_flag:
            rows.append((rec.study_id, rec.label, "", "", "", rec.confidence_level, 1))
        else:
            rows.append(
                (
                    rec.study_id,
                    rec.label,
                    rec.ratio,
                    rec.ci_low,
                    rec.ci_high,
                    rec.confidence_level,
                    0,
                )
            )
    write_csv(Path(path), EFFECTS_HEADER, rows)


def write_effect_rows_csv(
    path: str | Path,
    study_ids: Sequence[str],
    label: str,
    ratio: Sequence[float],
    ci_low: Sequence[float],
    ci_high: Sequence[float],
    confidence_level: float,
) -> None:
    """Effects CSV of numeric columns: study ids, one label for every row, intervals.

    The same bytes as ``write_effects_csv`` for the equivalent records,
    without building them.
    """
    label = _csv_cell(label)
    tail = f",{confidence_level!r},0\n"
    columns = [np.asarray(column, dtype=float) for column in (ratio, ci_low, ci_high)]

    def lines(start: int, stop: int) -> list[str]:
        ids = study_ids[start:stop]
        # The emit step's ids never need quotes: scan the chunk's text once,
        # and quote cell by cell only when some cell does.
        if _needs_quotes("".join(ids)):
            ids = [_csv_cell(study_id) for study_id in ids]
        rows = zip(ids, *(column[start:stop].tolist() for column in columns))
        return [f"{study_id},{label},{r!r},{lo!r},{hi!r}{tail}" for study_id, r, lo, hi in rows]

    _write_chunked(Path(path), ",".join(EFFECTS_HEADER), len(study_ids), lines)
