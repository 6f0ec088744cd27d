"""Command-line front end: metaudit space | audit | plot | simulate.

Exit codes: 0 success, 2 input or configuration error (``InputError``,
``OSError``), 3 numeric overflow, 4 no usable records after filtering.
Any other exception is a bug: it propagates with its traceback, exit 1.
Set METAUDIT_NO_COLOR to disable terminal styling.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import math
import os
import sys
from pathlib import Path

from metaudit import fileio
from metaudit.effect_audit import (
    EffectsTable,
    NoPlottableRecordsError,
    audit,
    build_pvalue_plot,
    effects_from_statistics,
)
from metaudit.hacksim import SELECTION_RULES, SimConfig, SimResult, run_simulation
from metaudit.searchspace import SearchSpaceOverflowError, summarize_spaces
from metaudit.statkernel import InputError
from metaudit.svgplot import render_pvalue_plot

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_OVERFLOW = 3
EXIT_EMPTY = 4

# Standard error used when projecting simulated z statistics onto the
# ratio/interval form that the audit pipeline ingests.
EMITTED_EFFECT_SE = 0.1
EMITTED_EFFECT_LEVEL = 0.95


def _styled(stream, text: str, code: int) -> str:
    """``text`` in ANSI style ``code`` when ``stream`` is a terminal and colour is on."""
    tty = hasattr(stream, "isatty") and stream.isatty()
    if os.environ.get("METAUDIT_NO_COLOR") or not tty:
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _fail(message: str) -> None:
    print(_styled(sys.stderr, "error:", 31), message, file=sys.stderr)


def _warn(message: str) -> None:
    print(_styled(sys.stderr, "warning:", 33), message, file=sys.stderr)


def _info(message: str) -> None:
    print(_styled(sys.stdout, message, 1))


class _WarningLines(logging.Handler):
    """Prints each WARNING the package logs as a ``warning:`` line; added once, on import."""

    def emit(self, record: logging.LogRecord) -> None:
        _warn(record.getMessage())


logging.getLogger("metaudit").addHandler(_WarningLines(logging.WARNING))


def _write_outputs(args: argparse.Namespace, outputs: list[tuple]) -> list[str]:
    """Make the output directory, then call ``writer(path, *data)`` for each
    ``(format, file name, writer, *data)`` that ``--format`` selects, in order.

    Returns the paths written.
    """
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, name, writer, *data in outputs:
        if args.format in (None, kind):
            writer(outdir / name, *data)
            written.append(str(outdir / name))
    return written


def cmd_space(args: argparse.Namespace) -> int:
    studies = fileio.read_counts_csv(args.input)
    summary = summarize_spaces(studies)
    written = _write_outputs(args, [
        ("csv", "spaces.csv", fileio.write_spaces_csv, studies),
        ("json", "space_summary.json", fileio.write_space_summary_json, summary),
        ("md", "spaces.md", fileio.write_spaces_markdown, studies),
    ])
    _info(f"space: {len(studies)} studies -> " + ", ".join(written))
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    digests: list[dict] = []  # of the bytes each reader parsed
    table = fileio.read_effects_csv(args.input, digests=digests)
    counts = fileio.read_counts_csv(args.counts, digests=digests) if args.counts else None
    report = audit(table, counts, args.alpha)
    document = fileio.build_report_document(report, digests)
    written = _write_outputs(args, [
        ("json", "report.json", fileio.write_report_json, document),
        ("csv", "plot_data.csv", fileio.write_plot_csv, report),
        ("md", "report.md", fileio.write_report_markdown, report),
    ])
    _info(
        f"audit: {report.plot.n} p-values "
        f"({report.plot.excluded_ns_count} excluded) -> " + ", ".join(written)
    )
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    table = fileio.read_effects_csv(args.input)
    plot = build_pvalue_plot(table)
    svg = render_pvalue_plot(plot, alpha=args.alpha)
    target = Path(args.output)
    if target.suffix.lower() != ".svg":
        target = target / "pvalue_plot.svg"
    target.parent.mkdir(parents=True, exist_ok=True)
    fileio.write_text(target, svg)
    _info(f"plot: {plot.n} points -> {target}")
    return EXIT_OK


def _build_sim_config(args: argparse.Namespace) -> SimConfig:
    """The config file's fields, overridden by each flag given; flags share the field names."""
    values = fileio.read_sim_config(args.config) if args.config else {}
    for field in dataclasses.fields(SimConfig):
        if getattr(args, field.name) is not None:
            values[field.name] = getattr(args, field.name)
    return SimConfig(**values)


def _emitted_effects(result: SimResult) -> EffectsTable:
    """The effects table of the reported studies.

    A statistic whose ratio interval leaves the positive floating-point
    range raises InputError.
    """
    config, reported = result.config, result.reported
    # "k<K>-r<replicate, 6 digits>-s<study>"; one % template formats faster
    # than an f-string per row.
    study_ids = tuple(
        map(
            f"k{config.tests_per_study}-r%06d-s%d".__mod__,
            zip(result.replicate[reported].tolist(), result.study[reported].tolist()),
        )
    )
    labels = (f"simulated ({config.selection_rule})",) * len(study_ids)
    return effects_from_statistics(
        study_ids, labels, result.estimate[reported], EMITTED_EFFECT_SE, EMITTED_EFFECT_LEVEL
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    result = run_simulation(_build_sim_config(args))
    # Build the emitted columns and the emit target's directory first, so
    # that a statistic off the ratio scale fails before any file is written.
    if args.emit_effects:
        emitted = _emitted_effects(result)
        Path(args.emit_effects).parent.mkdir(parents=True, exist_ok=True)
    written = _write_outputs(args, [
        ("csv", "sim_results.csv", fileio.write_sim_csv, result),
        ("json", "sim_summary.json", fileio.write_sim_summary_json, result),
    ])
    if args.emit_effects:
        fileio.write_effects_csv(args.emit_effects, emitted)
        written.append(str(Path(args.emit_effects)))
    _info(f"simulate: {result.n_published}/{result.n_total} published -> " + ", ".join(written))
    return EXIT_OK


def _alpha(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0, 1), got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, with every subcommand and its arguments."""
    parser = argparse.ArgumentParser(
        prog="metaudit",
        description="Reliability auditing for meta-analyses of observational studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    space = sub.add_parser("space", help="count per-study analysis search spaces")
    space.add_argument("--input", required=True, help="counts CSV path")
    space.add_argument("--output", required=True, help="output directory")
    space.add_argument("--format", choices=["json", "csv", "md"])
    space.set_defaults(func=cmd_space)

    audit_cmd = sub.add_parser("audit", help="convert effects to p-values and run diagnostics")
    audit_cmd.add_argument("--input", required=True, help="effects CSV path")
    audit_cmd.add_argument("--counts", help="optional counts CSV for multiplicity")
    audit_cmd.add_argument("--alpha", type=_alpha, help="multiplicity threshold; needs --counts")
    audit_cmd.add_argument("--output", required=True, help="output directory")
    audit_cmd.add_argument("--format", choices=["json", "csv", "md"])
    audit_cmd.set_defaults(func=cmd_audit)

    plot = sub.add_parser("plot", help="render the p-value plot as SVG")
    plot.add_argument("--input", required=True, help="effects CSV path")
    plot.add_argument("--output", required=True, help="SVG path or output directory")
    plot.add_argument("--alpha", type=_alpha, default=0.05)
    plot.set_defaults(func=cmd_plot)

    # Each SimConfig flag's dest is its field name, and None when not given.
    simulate = sub.add_parser("simulate", help="run the selection-bias Monte Carlo")
    simulate.add_argument("--output", required=True, help="output directory")
    simulate.add_argument("--config", help="key=value config file")
    simulate.add_argument("--k", "--tests-per-study", dest="tests_per_study", metavar="K", type=int)
    simulate.add_argument("--replicates", type=int)
    simulate.add_argument("--correlation", type=float)
    simulate.add_argument("--true-effect", type=float)
    simulate.add_argument("--rule", dest="selection_rule", choices=SELECTION_RULES)
    simulate.add_argument("--alpha", type=float)
    simulate.add_argument("--censor", dest="censor_at_alpha", action="store_const", const=True)
    simulate.add_argument("--n-studies", type=int)
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--format", choices=["json", "csv"])
    simulate.add_argument(
        "--emit-effects",
        help="also write reported studies as an effects CSV for the audit pipeline",
    )
    simulate.set_defaults(func=cmd_simulate)
    return parser


# main's parser, built on first use and kept for the process: parse_args
# reads each argv into a fresh namespace, so no option carries over.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SearchSpaceOverflowError as exc:
        _fail(str(exc))
        return EXIT_OVERFLOW
    except NoPlottableRecordsError as exc:
        _fail(str(exc))
        return EXIT_EMPTY
    except (InputError, OSError) as exc:
        _fail(str(exc))
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
