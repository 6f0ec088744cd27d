"""Command-line front end: metaudit space | audit | plot | simulate.

Exit codes: 0 success, 2 input or configuration error, 3 numeric
overflow, 4 no usable records after filtering.  Set METAUDIT_NO_COLOR to
disable terminal styling.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from metaudit import fileio
from metaudit.effect_audit import (
    EffectsTable,
    NoPlottableRecordsError,
    audit,
    build_pvalue_plot,
    ratio_intervals,
)
from metaudit.fileio import ParseError
from metaudit.hacksim import SimConfig, SimResult, run_simulation
from metaudit.searchspace import (
    SearchSpaceOverflowError,
    StudyCounts,
    compute_spaces,
    summarize_spaces,
)
from metaudit.svgplot import render_pvalue_plot

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_OVERFLOW = 3
EXIT_EMPTY = 4

# Standard error used when projecting simulated z statistics onto the
# ratio/interval form that the audit pipeline ingests.
EMITTED_EFFECT_SE = 0.1
EMITTED_EFFECT_LEVEL = 0.95


def _use_color(stream) -> bool:
    if os.environ.get("METAUDIT_NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _fail(message: str) -> None:
    prefix = "error:"
    if _use_color(sys.stderr):
        prefix = f"\x1b[31m{prefix}\x1b[0m"
    print(f"{prefix} {message}", file=sys.stderr)


def _warn(message: str) -> None:
    prefix = "warning:"
    if _use_color(sys.stderr):
        prefix = f"\x1b[33m{prefix}\x1b[0m"
    print(f"{prefix} {message}", file=sys.stderr)


def _warn_duplicate_ids(study_ids: list[str], lines: list[int], source: str = "") -> None:
    """Warn when rows share a study id; every row is still used."""
    duplicates = len(study_ids) - len(set(study_ids))
    if not duplicates:
        return
    first_line: dict[str, int] = {}
    for line, study_id in zip(lines, study_ids):
        if study_id in first_line:
            _warn(
                f"{source}{duplicates} duplicate study ids (first: {study_id!r}, "
                f"rows {first_line[study_id]} and {line})"
            )
            return
        first_line[study_id] = line


def _read_effects(path: str) -> EffectsTable:
    table = fileio.read_effects_csv(path)
    _warn_duplicate_ids(table.study_ids, table.lines)
    return table


def _read_counts(path: str) -> list[StudyCounts]:
    lines: list[int] = []
    studies = fileio.read_counts_csv(path, lines)
    _warn_duplicate_ids([s.study_id for s in studies], lines, f"{path}: ")
    return studies


def _info(message: str) -> None:
    if _use_color(sys.stdout):
        message = f"\x1b[1m{message}\x1b[0m"
    print(message)


def _ensure_outdir(path: str) -> Path:
    outdir = Path(path)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _wanted(args, kind: str) -> bool:
    return args.format is None or args.format == kind


def cmd_space(args: argparse.Namespace) -> int:
    studies = _read_counts(args.input)
    spaces = [compute_spaces(s) for s in studies]
    summary = summarize_spaces(spaces)
    outdir = _ensure_outdir(args.output)
    written = []
    if _wanted(args, "csv"):
        path = outdir / "spaces.csv"
        fileio.write_spaces_csv(path, studies, spaces)
        written.append(path)
    if _wanted(args, "json"):
        path = outdir / "space_summary.json"
        fileio.write_space_summary_json(path, summary)
        written.append(path)
    if _wanted(args, "md"):
        path = outdir / "spaces.md"
        fileio.write_spaces_markdown(path, studies, spaces, summary)
        written.append(path)
    _info(f"space: {len(studies)} studies -> " + ", ".join(str(p) for p in written))
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    table = _read_effects(args.input)
    digests = [fileio.file_digest(args.input)]
    studies = spaces = summary = None
    if args.counts:
        studies = _read_counts(args.counts)
        spaces = [compute_spaces(s) for s in studies]
        summary = summarize_spaces(spaces)
        digests.append(fileio.file_digest(args.counts))
    report = audit(table, spaces=summary, alpha=args.alpha)
    document = fileio.build_report_document(
        report, digests, studies=studies, spaces=spaces, summary=summary
    )
    outdir = _ensure_outdir(args.output)
    written = []
    if _wanted(args, "json"):
        path = outdir / "report.json"
        fileio.write_report_json(path, document)
        written.append(path)
    if _wanted(args, "csv"):
        path = outdir / "plot_data.csv"
        fileio.write_plot_csv(path, report)
        written.append(path)
    if _wanted(args, "md"):
        path = outdir / "report.md"
        fileio.write_report_markdown(path, document)
        written.append(path)
    _info(
        f"audit: {report.plot.n} p-values "
        f"({report.plot.excluded_ns_count} excluded) -> "
        + ", ".join(str(p) for p in written)
    )
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    table = _read_effects(args.input)
    plot = build_pvalue_plot(table)
    svg = render_pvalue_plot(plot, alpha=args.alpha)
    target = Path(args.output)
    if target.suffix.lower() != ".svg":
        target = _ensure_outdir(args.output) / "pvalue_plot.svg"
    elif target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(svg)
    _info(f"plot: {plot.n} points -> {target}")
    return EXIT_OK


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

_CONFIG_FIELDS = {
    "n_studies": int,
    "tests_per_study": int,
    "correlation": float,
    "true_effect": float,
    "selection_rule": str,
    "alpha": float,
    "censor_at_alpha": lambda v: _BOOLEANS[v.lower()],
    "replicates": int,
    "seed": int,
}


def _read_config_file(path: str) -> dict:
    """The SimConfig fields of a key=value file; a ParseError names the line at fault."""
    values: dict = {}
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(
                    f"{path}: expected key=value, got {stripped!r}", row=lineno
                )
            key, _, raw = stripped.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _CONFIG_FIELDS:
                raise ParseError(f"{path}: unknown config key {key!r}", row=lineno)
            if key in values:
                raise ParseError(f"{path}: repeated config key {key!r}", row=lineno)
            try:
                values[key] = _CONFIG_FIELDS[key](raw)
            except (KeyError, ValueError):
                raise ParseError(f"{path}: bad value for {key}: {raw!r}", row=lineno) from None
    return values


def _build_sim_config(args: argparse.Namespace) -> SimConfig:
    values = _read_config_file(args.config) if args.config else {}
    overrides = {
        "n_studies": args.n_studies,
        "tests_per_study": args.k,
        "correlation": args.correlation,
        "true_effect": args.true_effect,
        "selection_rule": args.rule,
        "alpha": args.alpha,
        "replicates": args.replicates,
        "seed": args.seed,
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    if args.censor:
        values["censor_at_alpha"] = True
    return SimConfig(**values)


def _emitted_effects(config: SimConfig, result: SimResult) -> EffectsTable:
    """The effects table of the reported studies.

    ``ratio_intervals`` raises ValueError for a statistic whose interval
    leaves the positive floating-point range, as EffectRecord would.
    """
    reported = result.reported
    # "k<K>-r<replicate, 6 digits>-s<study>"; one % template formats faster
    # than an f-string per row.
    study_ids = list(
        map(
            f"k{config.tests_per_study}-r%06d-s%d".__mod__,
            zip(result.replicate[reported].tolist(), result.study[reported].tolist()),
        )
    )
    intervals = ratio_intervals(
        result.estimate[reported], EMITTED_EFFECT_SE, EMITTED_EFFECT_LEVEL
    )
    n = len(study_ids)
    return EffectsTable(
        study_ids, [f"simulated ({config.selection_rule})"] * n, *intervals,
        level=np.full(n, EMITTED_EFFECT_LEVEL), ns=np.zeros(n, dtype=bool),
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_sim_config(args)
    result = run_simulation(config)
    # Build the emitted columns and the emit target's directory first, so
    # that a statistic off the ratio scale fails before any file is written.
    if args.emit_effects:
        emitted = _emitted_effects(config, result)
        Path(args.emit_effects).parent.mkdir(parents=True, exist_ok=True)
    outdir = _ensure_outdir(args.output)
    written = []
    if _wanted(args, "csv"):
        path = outdir / "sim_results.csv"
        fileio.write_sim_csv(path, result)
        written.append(path)
    if _wanted(args, "json"):
        path = outdir / "sim_summary.json"
        fileio.write_sim_summary_json(path, config, result)
        written.append(path)
    if args.emit_effects:
        fileio.write_effects_csv(args.emit_effects, emitted)
        written.append(Path(args.emit_effects))
    _info(
        f"simulate: {result.n_published}/{result.n_total} published -> "
        + ", ".join(str(p) for p in written)
    )
    return EXIT_OK


def _alpha(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0, 1), got {text!r}")
    return value


def _space_arguments(space: argparse.ArgumentParser) -> None:
    space.add_argument("--input", required=True, help="counts CSV path")
    space.add_argument("--output", required=True, help="output directory")
    space.add_argument("--format", choices=["json", "csv", "md"], default=None)
    space.set_defaults(func=cmd_space)


def _audit_arguments(audit_cmd: argparse.ArgumentParser) -> None:
    audit_cmd.add_argument("--input", required=True, help="effects CSV path")
    audit_cmd.add_argument("--counts", default=None, help="optional counts CSV for multiplicity")
    audit_cmd.add_argument("--alpha", type=_alpha, default=0.05)
    audit_cmd.add_argument("--output", required=True, help="output directory")
    audit_cmd.add_argument("--format", choices=["json", "csv", "md"], default=None)
    audit_cmd.set_defaults(func=cmd_audit)


def _plot_arguments(plot: argparse.ArgumentParser) -> None:
    plot.add_argument("--input", required=True, help="effects CSV path")
    plot.add_argument("--output", required=True, help="SVG path or output directory")
    plot.add_argument("--alpha", type=_alpha, default=0.05)
    plot.set_defaults(func=cmd_plot)


def _simulate_arguments(simulate: argparse.ArgumentParser) -> None:
    simulate.add_argument("--output", required=True, help="output directory")
    simulate.add_argument("--config", default=None, help="key=value config file")
    simulate.add_argument("--k", "--tests-per-study", dest="k", type=int, default=None)
    simulate.add_argument("--replicates", type=int, default=None)
    simulate.add_argument("--correlation", type=float, default=None)
    simulate.add_argument("--true-effect", type=float, default=None)
    simulate.add_argument("--rule", choices=["report-min-p", "report-first-significant", "report-random"], default=None)
    simulate.add_argument("--alpha", type=float, default=None)
    simulate.add_argument("--censor", action="store_true")
    simulate.add_argument("--n-studies", dest="n_studies", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--format", choices=["json", "csv"], default=None)
    simulate.add_argument(
        "--emit-effects",
        default=None,
        help="also write reported studies as an effects CSV for the audit pipeline",
    )
    simulate.set_defaults(func=cmd_simulate)


# Subcommand name -> (help text, function that adds its arguments).
_SUBCOMMANDS = {
    "space": ("count per-study analysis search spaces", _space_arguments),
    "audit": ("convert effects to p-values and run diagnostics", _audit_arguments),
    "plot": ("render the p-value plot as SVG", _plot_arguments),
    "simulate": ("run the selection-bias Monte Carlo", _simulate_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; with ``command``, only that subcommand gets its arguments.

    Every subcommand is registered with its help text either way, so
    ``-h`` and errors about the command itself read the same.  With no
    ``command``, every subcommand is built in full.
    """
    parser = argparse.ArgumentParser(
        prog="metaudit",
        description="Reliability auditing for meta-analyses of observational studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_arguments(subparser)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level parser has no option that takes a value, so its first
    # argument not starting with '-' is the command (or an invalid choice,
    # which fails before any subcommand's arguments are read).
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except SearchSpaceOverflowError as exc:
        _fail(str(exc))
        return EXIT_OVERFLOW
    except NoPlottableRecordsError as exc:
        _fail(str(exc))
        return EXIT_EMPTY
    except (ParseError, OSError, ValueError) as exc:
        _fail(str(exc))
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
