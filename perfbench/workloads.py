"""Workload inputs and command passes for the metaudit benchmark.

Inputs come from NumPy and the stdlib ``csv`` writer only, never from
metaudit itself, so a change to the simulator cannot change another
workload's inputs.  Every generated file is valid under the documented
input contract: unique study ids, no byte-order mark, and labels that
contain commas are quoted.

A pass is the fixed command sequence one closed-loop caller runs; the
benchmark times each command and the pass as a whole.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

import checks

DATA = Path(__file__).resolve().parents[1] / "src" / "metaudit" / "data"

NAMES = ("audit-mixture", "simulate-sweep", "small-corpus")

EFFECTS_HEADER = ["study_id", "label", "ratio", "ci_low", "ci_high", "level", "ns"]

# (tests per study, replicates, correlation, true effect, rule, censor).
# K=1 is dominated by per-replicate stream setup and K=100 by drawing and
# selection; together they cover all three rules and both censor settings.
SWEEP = (
    (1, 20_000, 0.0, 0.0, "report-min-p", False),
    (10, 8_000, 0.5, 0.0, "report-first-significant", True),
    (10, 8_000, 0.0, 0.0, "report-random", False),
    (100, 4_000, 0.3, 0.2, "report-min-p", True),
)

MIXTURE_POINTS = 2_000
MIXTURE_NS_ROWS = 40
SMALL_POINTS = 58
SMALL_NS_ROWS = 2  # 60 rows in all
# Share of rows that are the max-|z| of ten null draws (selected results);
# the rest are single null draws.
SELECTED_SHARE = 0.3
SELECTED_DRAWS = 10


@dataclass
class Command:
    """One CLI invocation, the files it writes and how to check them."""

    argv: list[str]
    outputs: list[Path]
    check: Callable[[], None]
    points: int = 0  # ranked p-values an audit command reports
    k: int = 0  # tests per study of a simulate command
    records: int = 0  # studies a simulate command simulates

    @property
    def draws(self) -> int:
        """Normal draws a simulate command makes: one shared, K per study."""
        return self.records * (self.k + 1)


@dataclass
class Workload:
    commands: list[Command]
    items: int  # work items per pass, the numerator of items_per_s
    item_unit: str
    inputs: dict[str, str] = field(default_factory=dict)  # name -> sha256
    largest_audit: Path | None = None  # input the hockey-stick exponent pass scales


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_effects(path: Path, rng: np.random.Generator, numeric: int, ns_rows: int) -> None:
    """Selected results layered over nulls, with mixed SEs and levels.

    Writes ``numeric`` convertible rows and ``ns_rows`` rows flagged ns=1,
    interleaved at random.
    """
    rows = numeric + ns_rows
    selected = np.zeros(numeric, dtype=bool)
    selected[rng.permutation(numeric)[: round(SELECTED_SHARE * numeric)]] = True
    draws = rng.standard_normal((numeric, SELECTED_DRAWS))
    best = draws[np.arange(numeric), np.argmax(np.abs(draws), axis=1)]
    z = np.where(selected, best, draws[:, 0])
    se = np.exp(rng.uniform(np.log(0.03), np.log(0.5), numeric))
    levels = rng.choice([0.95, 0.90, 0.99], size=rows, p=[0.8, 0.1, 0.1])
    is_ns = np.zeros(rows, dtype=bool)
    is_ns[rng.permutation(rows)[:ns_rows]] = True
    cohorts = rng.integers(0, 40, rows)

    out = []
    j = 0
    for i in range(rows):
        level = float(levels[i])
        # Every third label carries a comma, which the writer must quote.
        label = f"cohort {cohorts[i]}, adults" if i % 3 == 0 else f"cohort {cohorts[i]}"
        if is_ns[i]:
            out.append([f"s{i:05d}", label, "", "", "", level, 1])
            continue
        crit = NormalDist().inv_cdf(0.5 * (1.0 + level))
        zi, si = float(z[j]), float(se[j])
        j += 1
        out.append([
            f"s{i:05d}", label,
            float(np.exp(zi * si)),
            float(np.exp((zi - crit) * si)),
            float(np.exp((zi + crit) * si)),
            level, 0,
        ])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(EFFECTS_HEADER)
        writer.writerows(out)


def _audit(inp: Path, out: Path, counts: Path | None) -> Command:
    argv = ["audit", "--input", str(inp), "--output", str(out)]
    if counts is not None:
        argv += ["--counts", str(counts)]
    return Command(
        argv,
        [out / "report.json", out / "plot_data.csv", out / "report.md"],
        lambda: checks.check_audit(out, inp, counts),
        points=checks.effect_rows(inp)[0],
    )


def _plot(inp: Path, svg: Path) -> Command:
    return Command(
        ["plot", "--input", str(inp), "--output", str(svg)],
        [svg],
        lambda: checks.check_plot(svg, inp),
    )


def _space(counts: Path, out: Path) -> Command:
    return Command(
        ["space", "--input", str(counts), "--output", str(out)],
        [out / "spaces.csv", out / "space_summary.json", out / "spaces.md"],
        lambda: checks.check_space(out, counts),
    )


def _simulate(spec: tuple, seed: int, out: Path, effects: Path) -> Command:
    k, replicates, rho, delta, rule, censor = spec
    argv = [
        "simulate", "--k", str(k), "--replicates", str(replicates),
        "--correlation", repr(rho), "--true-effect", repr(delta),
        "--rule", rule, "--seed", str(seed),
        "--output", str(out), "--emit-effects", str(effects),
    ]
    if censor:
        argv.append("--censor")
    return Command(
        argv,
        [out / "sim_results.csv", out / "sim_summary.json", effects],
        lambda: checks.check_simulate(out, effects, k, replicates, delta, censor),
        k=k,
        records=replicates,
    )


def build(name: str, seed: int, root: Path, scale: float = 1.0) -> Workload:
    """Write the workload's inputs under ``root`` and return its pass.

    ``scale`` shrinks every size for the benchmark's smoke test; runs that
    report metrics use 1.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    inputs = root / "inputs"
    outputs = root / "outputs"
    inputs.mkdir(parents=True)
    outputs.mkdir(parents=True)
    rng = np.random.default_rng(seed)

    def bundled(filename: str) -> Path:
        return Path(shutil.copyfile(DATA / filename, inputs / filename))

    if name == "audit-mixture":
        counts = bundled("nawrot_counts.csv")
        mixture = inputs / "mixture.csv"
        write_effects(
            mixture, rng,
            max(12, round(MIXTURE_POINTS * scale)), max(2, round(MIXTURE_NS_ROWS * scale)),
        )
        commands = [
            _audit(mixture, outputs / "audit", counts),
            _plot(mixture, outputs / "plot.svg"),
        ]
        files = [counts, mixture]
        items = sum(c.points for c in commands)
        unit = "ranked p-values"
        largest = mixture
    elif name == "simulate-sweep":
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(len(SWEEP))]
        specs = [(k, max(50, round(r * scale)), *rest) for k, r, *rest in SWEEP]
        commands = [
            _simulate(spec, s, outputs / f"sim{i}", outputs / f"sim{i}_effects.csv")
            for i, (spec, s) in enumerate(zip(specs, seeds))
        ]
        # The sweep has no input files; its input is the command parameters.
        sweep = inputs / "sweep.json"
        sweep.write_text(json.dumps({"specs": specs, "seeds": seeds}) + "\n", encoding="utf-8")
        files = [sweep]
        items = sum(c.draws for c in commands)
        unit = "normal draws"
        largest = None
    else:
        counts = bundled("nawrot_counts.csv")
        example = bundled("example_effects.csv")
        small = inputs / "small60.csv"
        write_effects(small, rng, SMALL_POINTS, SMALL_NS_ROWS)
        commands = [
            _space(counts, outputs / "space"),
            _audit(example, outputs / "audit_example", counts),
            _plot(example, outputs / "plot_example.svg"),
            _audit(small, outputs / "audit_small60", None),
        ]
        files = [counts, example, small]
        items = len(commands)
        unit = "commands"
        largest = small

    return Workload(
        commands=commands,
        items=items,
        item_unit=unit,
        inputs={f.name: sha256(f) for f in files},
        largest_audit=largest,
    )
