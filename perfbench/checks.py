"""Output checks for the metaudit benchmark.

Each check reads what one command wrote and raises ``CheckFailure`` when
it breaks a documented property.  Report bytes are not pinned, so a fix
that changes a diagnostic's value (the KS p-value method, say) is not a
failure; byte identity is instead checked between passes of one run.
Expected values come from the benchmark's own reading of the inputs, not
from metaudit.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

SVG_CIRCLE = "{http://www.w3.org/2000/svg}circle"
ALPHA = 0.05
# Breakpoints at which the reported hockey-stick SSE is compared with the
# benchmark's own two-segment fit.
SSE_SAMPLES = 20


class CheckFailure(Exception):
    """A command's output broke a property the benchmark checks."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _csv_rows(path: Path) -> list[list[str]]:
    """Data rows of a CSV file, skipping '#' comments, blank lines and the header."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = [
            row for row in csv.reader(handle)
            if row and "".join(row).strip() and not row[0].startswith("#")
        ]
    return rows[1:]


def effect_rows(path: Path) -> tuple[int, int]:
    """(convertible rows, rows flagged ns=1) of an effects CSV."""
    flags = [row[-1].strip() for row in _csv_rows(path)]
    ns = sum(1 for f in flags if f == "1")
    return len(flags) - ns, ns


def median_space3(counts: Path) -> float:
    """Median total-analyses count: outcomes*predictors*lags*2^covariates."""
    space3 = sorted(
        int(o) * int(p) * int(lag) * (1 << int(c))
        for _, o, p, lag, c, *_ in _csv_rows(counts)
    )
    return float(statistics.median(space3))


def _line_sse(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    resid = yc - (xc @ yc) / (xc @ xc) * xc
    return float(resid @ resid)


def two_segment_sse(p: np.ndarray, k: int) -> float:
    """SSE of two least-squares lines split after the k-th ranked p-value."""
    x = np.arange(1, len(p) + 1, dtype=float)
    return _line_sse(x[:k], p[:k]) + _line_sse(x[k:], p[k:])


def check_audit(outdir: Path, effects: Path, counts: Path | None) -> None:
    n, ns = effect_rows(effects)
    doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    ranks = [rec["rank"] for rec in doc["pvalues"]]
    p = [rec["p"] for rec in doc["pvalues"]]
    _require(ranks == list(range(1, n + 1)), f"ranks are not 1..{n}")
    _require(all(0.0 < v <= 1.0 for v in p), "a p-value lies outside (0, 1]")
    _require(all(a <= b for a, b in zip(p, p[1:])), "p-values are not non-decreasing")
    _require(doc["plot"]["n"] == n, f"plot n {doc['plot']['n']} != {n} convertible rows")
    _require(
        doc["plot"]["excluded_ns_count"] == ns,
        f"excluded_ns_count {doc['plot']['excluded_ns_count']} != {ns} ns rows",
    )

    hockey = doc["tests"]["hockey_stick"]
    if n >= 6:
        _require(hockey is not None, "no hockey-stick fit")
        _require(2 <= hockey["breakpoint"] <= n - 2, f"breakpoint {hockey['breakpoint']} outside [2, {n - 2}]")
        sse = hockey["sse"]
        _require(sse is not None and math.isfinite(sse), "hockey-stick SSE is not finite")
        values = np.array(p)
        ks = np.unique(np.linspace(2, n - 2, SSE_SAMPLES).astype(int))
        reference = min(two_segment_sse(values, int(k)) for k in ks)
        _require(
            sse <= reference * (1 + 1e-9) + 1e-12,
            f"hockey-stick SSE {sse!r} exceeds a sampled two-segment fit {reference!r}",
        )

    if counts is not None:
        m = doc["multiplicity"]["m"]
        expected = median_space3(counts)
        _require(m == expected, f"multiplicity m {m!r} != median space3 {expected!r}")

    _require(len(_csv_rows(outdir / "plot_data.csv")) == n, "plot_data.csv does not hold n rows")
    _require((outdir / "report.md").stat().st_size > 0, "report.md is empty")


def check_plot(svg: Path, effects: Path) -> None:
    n, _ = effect_rows(effects)
    try:
        root = ET.parse(svg).getroot()
    except ET.ParseError as exc:
        raise CheckFailure(f"{svg.name} does not parse: {exc}") from None
    circles = len(root.findall(f".//{SVG_CIRCLE}"))
    _require(circles == n, f"{svg.name} has {circles} points, expected {n}")


def check_space(outdir: Path, counts: Path) -> None:
    studies = len(_csv_rows(counts))
    rows = _csv_rows(outdir / "spaces.csv")
    _require(len(rows) == studies, f"spaces.csv has {len(rows)} rows, expected {studies}")
    for row in rows:
        space1, space2, space3 = (int(v) for v in row[5:8])
        _require(space3 == space1 * space2, f"{row[0]}: space3 != space1 * space2")
    json.loads((outdir / "space_summary.json").read_text(encoding="utf-8"))
    _require((outdir / "spaces.md").stat().st_size > 0, "spaces.md is empty")


def check_simulate(
    outdir: Path, effects: Path, k: int, replicates: int, delta: float, censor: bool
) -> None:
    summary = json.loads((outdir / "sim_summary.json").read_text(encoding="utf-8"))
    n_total, n_published = summary["n_total"], summary["n_published"]
    _require(n_total == replicates, f"n_total {n_total} != {replicates} replicates x 1 study")
    rows = len(_csv_rows(outdir / "sim_results.csv"))
    _require(rows == n_published, f"sim_results.csv has {rows} rows, n_published is {n_published}")
    emitted = len(_csv_rows(effects))
    expected = n_published if censor else n_total
    _require(emitted == expected, f"{effects.name} has {emitted} rows, expected {expected}")
    if k == 1 and delta == 0.0:
        # Under the null with one test, p is uniform: publication ~ Binomial(n, alpha).
        rate = n_published / n_total
        sigma = math.sqrt(ALPHA * (1 - ALPHA) / n_total)
        _require(abs(rate - ALPHA) <= 5 * sigma, f"K=1 null publication rate {rate} is not within 5 sigma of {ALPHA}")
