"""Acceptance suite: one test per shipped acceptance criterion.

Each test is self-contained and asserts the full contract for its criterion,
so a plain ``pytest -v tests/test_acceptance.py`` prints one pass/fail line
per criterion.  The expensive simulation pipelines run once in module-scoped
fixtures and are rerun from scratch by the determinism criterion.
"""

import csv
import json
import math
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

from metaudit import (
    EffectRecord,
    SimConfig,
    bilinearity_test,
    hockey_stick_fit,
    ks_uniform_test,
    p_from_ratio_ci,
    run_simulation,
)
from metaudit.cli import main
from metaudit.effect_audit import PValuePlot
from metaudit.fileio import bundled_data_path
from metaudit.statkernel import (
    RankDeficiencyError,
    ols_fit,
    quantile_type6,
    std_normal_quantile,
)
from tests.conftest import CORPUS_ROWS, CORPUS_SUMMARY

COUNTS = str(bundled_data_path("nawrot_counts.csv"))

HOCKEY_PVALUES = [
    0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007,
    0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
]

SIM_LAW_ARGS = ["simulate", "--k", "10", "--replicates", "100000", "--seed", "42"]
NULL_CAL_ARGS = ["simulate", "--k", "1", "--replicates", "100000", "--seed", "42"]
SIM_FILES = ("sim_results.csv", "sim_summary.json")


def plot_from_pvalues(pvalues):
    return PValuePlot(0, len(pvalues), np.array(sorted(pvalues), dtype=float))


def exact_quadratic_fit(pvalues):
    """Solve the rank/rank^2 normal equations in exact rational arithmetic.

    Returns (beta, inverse_diagonal, rss) as Fractions, computed by
    Gauss-Jordan elimination on the normal equations augmented with the
    identity, so the coefficient estimates carry no floating-point error.
    """
    ordered = sorted(pvalues)
    n = len(ordered)
    rows = [[Fraction(1), Fraction(i), Fraction(i * i)] for i in range(1, n + 1)]
    y = [Fraction(p) for p in ordered]
    k = 3
    aug = [
        [sum(rows[r][i] * rows[r][j] for r in range(n)) for j in range(k)]
        + [Fraction(1 if i == j else 0) for j in range(k)]
        + [sum(rows[r][i] * y[r] for r in range(n))]
        for i in range(k)
    ]
    for col in range(k):
        pivot = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    beta = [aug[i][-1] for i in range(k)]
    inverse_diagonal = [aug[i][k + i] for i in range(k)]
    rss = sum(
        (yy - sum(b * x for b, x in zip(beta, row))) ** 2
        for row, yy in zip(rows, y)
    )
    return beta, inverse_diagonal, rss


def run_mixture_pipeline(base: Path) -> dict[str, Path]:
    """Build the seeded 50/50 selected-vs-honest study mixture and audit it.

    60 studies come from a censoring searcher running 10 tests each (only
    significant minima survive) and 60 from honest single-test studies; the
    merged effects file is piped through the audit command.
    """
    selected = base / "selected_effects.csv"
    honest = base / "honest_effects.csv"
    code = main(
        ["simulate", "--k", "10", "--replicates", "300", "--seed", "5", "--censor",
         "--output", str(base / "sim_selected"), "--emit-effects", str(selected)]
    )
    assert code == 0
    code = main(
        ["simulate", "--k", "1", "--replicates", "60", "--seed", "6",
         "--output", str(base / "sim_honest"), "--emit-effects", str(honest)]
    )
    assert code == 0
    selected_lines = selected.read_text(encoding="utf-8").splitlines()
    honest_lines = honest.read_text(encoding="utf-8").splitlines()
    assert len(selected_lines) >= 61, "need at least 60 published selected studies"
    assert len(honest_lines) == 61
    mixture = base / "mixture_effects.csv"
    mixture.write_text(
        "\n".join([selected_lines[0]] + selected_lines[1:61] + honest_lines[1:61])
        + "\n",
        encoding="utf-8",
    )
    audit_dir = base / "audit"
    code = main(["audit", "--input", str(mixture), "--output", str(audit_dir)])
    assert code == 0
    return {
        "selected_effects.csv": selected,
        "honest_effects.csv": honest,
        "mixture_effects.csv": mixture,
        "sim_selected/sim_results.csv": base / "sim_selected" / "sim_results.csv",
        "sim_selected/sim_summary.json": base / "sim_selected" / "sim_summary.json",
        "sim_honest/sim_results.csv": base / "sim_honest" / "sim_results.csv",
        "sim_honest/sim_summary.json": base / "sim_honest" / "sim_summary.json",
        "audit/report.json": audit_dir / "report.json",
        "audit/plot_data.csv": audit_dir / "plot_data.csv",
        "audit/report.md": audit_dir / "report.md",
    }


@pytest.fixture(scope="module")
def sim_law_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("sim_law")
    start = time.perf_counter()
    code = main(SIM_LAW_ARGS + ["--output", str(outdir)])
    elapsed = time.perf_counter() - start
    assert code == 0
    return {"outdir": outdir, "elapsed": elapsed}


@pytest.fixture(scope="module")
def null_calibration_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("null_cal")
    code = main(NULL_CAL_ARGS + ["--output", str(outdir)])
    assert code == 0
    return {"outdir": outdir}


@pytest.fixture(scope="module")
def mixture_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("mixture")
    return run_mixture_pipeline(base)


def test_criterion_1_corpus_space_reproduction(tmp_path):
    """All 42 search-space values for the bundled 14-study corpus are exact."""
    outdir = tmp_path / "spaces"
    start = time.perf_counter()
    code = main(["space", "--input", COUNTS, "--output", str(outdir)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0

    with (outdir / "spaces.csv").open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        parsed = {
            row["study_id"]: (int(row["space1"]), int(row["space2"]), int(row["space3"]))
            for row in reader
        }
    assert len(parsed) == 14
    checked = 0
    for study_id, *_counts, space1, space2, space3 in CORPUS_ROWS:
        assert parsed[study_id] == (space1, space2, space3)
        checked += 3
    assert checked == 42
    # Spot anchors frozen from the published corpus.
    assert parsed["12 Barnett"][2] == 229376
    assert parsed["42 Mann"][2] == 301056
    assert parsed["43 Peters"][2] == 448


def test_criterion_2_quantile_summary_reproduction(tmp_path):
    """The five-number summaries of all three spaces match the frozen values."""
    outdir = tmp_path / "spaces"
    code = main(["space", "--input", COUNTS, "--output", str(outdir)])
    assert code == 0
    summary = json.loads((outdir / "space_summary.json").read_text(encoding="utf-8"))
    expected = {
        "space1": (10.0, 21.5, 44.0, 167.0, 588.0),
        "space2": (32.0, 32.0, 128.0, 640.0, 8192.0),
        "space3": (448.0, 2600.0, 6784.0, 94208.0, 638976.0),
    }
    assert expected == CORPUS_SUMMARY
    for name, values in expected.items():
        block = summary[name]
        got = (
            block["minimum"],
            block["lower_quartile"],
            block["median"],
            block["upper_quartile"],
            block["maximum"],
        )
        assert got == values, f"{name}: {got} != {values}"


def test_criterion_3_ci_to_p_consistency():
    """Ratio 1.003 with CI [0.99659, 1.00946] converts to p = 0.36 +/- 0.005."""
    record = EffectRecord(
        "milojevic", ratio=1.003, ci_low=0.99659, ci_high=1.00946
    )
    assert p_from_ratio_ci(record) == pytest.approx(0.36, abs=0.005)


def test_criterion_4_bilinearity_properties():
    """Linear input accepts at p >= 0.999; the two-regime fixture rejects at
    p < 0.01 and matches an exact rational OLS oracle to 1e-9."""
    linear = plot_from_pvalues([0.03 + 0.06 * i for i in range(1, 15)])
    assert bilinearity_test(linear).p_value >= 0.999

    hockey = plot_from_pvalues(HOCKEY_PVALUES)
    result = bilinearity_test(hockey)
    assert result.p_value < 0.01

    beta, inverse_diagonal, rss = exact_quadratic_fit(HOCKEY_PVALUES)
    sigma2 = float(rss) / (14 - 3)
    t_exact = float(beta[2]) / math.sqrt(sigma2 * float(inverse_diagonal[2]))
    assert result.statistic == pytest.approx(t_exact, rel=1e-9)

    design = [[1.0, float(i), float(i * i)] for i in range(1, 15)]
    fit = ols_fit(design, sorted(HOCKEY_PVALUES))
    for got, exact in zip(fit.coefficients, beta):
        assert abs(got - float(exact)) < 1e-9
    assert fit.rss == pytest.approx(float(rss), rel=1e-9)


def test_criterion_5_simulation_law(sim_law_run):
    """With 10 tests per study and min-p selection under the null, the
    publication rate equals 1 - 0.95^10 within 0.01, in under a minute."""
    assert sim_law_run["elapsed"] < 60.0
    summary = json.loads(
        (sim_law_run["outdir"] / "sim_summary.json").read_text(encoding="utf-8")
    )
    assert summary["publication_rate"] == pytest.approx(1 - 0.95 ** 10, abs=0.01)


def test_criterion_6_null_calibration(null_calibration_run):
    """A single honest test per study yields uniform reported p-values and
    zero selection bias."""
    result = run_simulation(SimConfig(tests_per_study=1, replicates=100000, seed=42))
    assert len(result.p[result.reported]) == 100000
    assert ks_uniform_test(result.p[result.reported].tolist()).p_value > 0.01
    assert result.bias == pytest.approx(0.0, abs=0.01)

    summary = json.loads(
        (null_calibration_run["outdir"] / "sim_summary.json").read_text(encoding="utf-8")
    )
    assert summary["bias"] == result.bias


def test_criterion_7_end_to_end_mixture_shape(mixture_run):
    """A 50/50 mixture of selected and honest studies audits to a bilinear
    (hockey-stick) p-value plot: quadratic rejection plus a steep wrist."""
    document = json.loads(mixture_run["audit/report.json"].read_text(encoding="utf-8"))
    assert document["plot"]["n"] == 120
    assert document["tests"]["bilinearity"]["p_value"] < 0.01
    fit = document["tests"]["hockey_stick"]
    assert fit["right_slope"] > 3 * fit["left_slope"]


def test_criterion_8_determinism(sim_law_run, null_calibration_run, mixture_run, tmp_path):
    """Rerunning the three simulation pipelines with the same seeds produces
    byte-identical output files."""
    rerun_law = tmp_path / "law"
    assert main(SIM_LAW_ARGS + ["--output", str(rerun_law)]) == 0
    for name in SIM_FILES:
        assert (rerun_law / name).read_bytes() == (
            sim_law_run["outdir"] / name
        ).read_bytes(), f"simulation-law rerun differs in {name}"

    rerun_null = tmp_path / "null"
    assert main(NULL_CAL_ARGS + ["--output", str(rerun_null)]) == 0
    for name in SIM_FILES:
        assert (rerun_null / name).read_bytes() == (
            null_calibration_run["outdir"] / name
        ).read_bytes(), f"null-calibration rerun differs in {name}"

    rerun_mixture = run_mixture_pipeline(tmp_path / "mixture")
    for name, path in rerun_mixture.items():
        assert path.read_bytes() == mixture_run[name].read_bytes(), (
            f"mixture rerun differs in {name}"
        )


def test_criterion_9_invariant_suites():
    """Five randomized invariant suites, >= 100 seeded cases each."""

    def record_at(study_id, z, scale, level):
        z_crit = std_normal_quantile((1 + level) / 2)
        return EffectRecord(
            study_id,
            ratio=math.exp(z * scale),
            ci_low=math.exp((z - z_crit) * scale),
            ci_high=math.exp((z + z_crit) * scale),
            confidence_level=level,
        )

    # Suite 1: reciprocal invariance of the CI-to-p conversion.
    rng = Random(901)
    for case in range(120):
        z = rng.uniform(-3.5, 3.5)
        scale = rng.uniform(0.02, 0.5)
        level = rng.choice([0.90, 0.95, 0.99])
        record = record_at(f"fwd{case}", z, scale, level)
        mirrored = EffectRecord(
            f"rev{case}",
            ratio=1.0 / record.ratio,
            ci_low=1.0 / record.ci_high,
            ci_high=1.0 / record.ci_low,
            confidence_level=level,
        )
        assert abs(p_from_ratio_ci(record) - p_from_ratio_ci(mirrored)) < 1e-12

    # Suite 2: widening the interval strictly increases p.
    rng = Random(902)
    for case in range(120):
        z = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.5)
        scale = rng.uniform(0.02, 0.3)
        level = rng.choice([0.90, 0.95, 0.99])
        narrow = record_at(f"n{case}", z, scale, level)
        factor = rng.uniform(1.05, 3.0)
        wide = EffectRecord(
            f"w{case}",
            ratio=narrow.ratio,
            ci_low=narrow.ci_low / factor,
            ci_high=narrow.ci_high * factor,
            confidence_level=level,
        )
        assert p_from_ratio_ci(wide) > p_from_ratio_ci(narrow)

    # Suite 3: the KS statistic equals a brute-force scan of both
    # empirical-CDF gap candidates at every order statistic (n <= 20).
    rng = Random(903)
    for case in range(120):
        n = rng.randint(1, 20)
        style = case % 3
        values = []
        for _ in range(n):
            u = rng.uniform(0.001, 0.999)
            if style == 1:
                u = max(0.001, u ** 3)  # cluster near zero
            elif style == 2:
                u = round(u, 1) or 0.05  # force ties
            values.append(u)
        ordered = sorted(values)
        brute = max(
            max((i + 1) / n - v, v - i / n) for i, v in enumerate(ordered)
        )
        assert abs(ks_uniform_test(values).statistic - brute) < 1e-12

    # Suite 4: OLS recovers integer coefficients exactly on noiseless data.
    rng = Random(904)
    recovered = 0
    attempts = 0
    while recovered < 100:
        attempts += 1
        assert attempts < 1000, "rank-deficient draws should be rare"
        n = rng.randint(5, 12)
        k = rng.randint(1, 3)
        design = [[1.0] + [float(rng.randint(-5, 5)) for _ in range(k)] for _ in range(n)]
        beta = [float(rng.randint(-4, 4)) for _ in range(k + 1)]
        response = [sum(b * x for b, x in zip(beta, row)) for row in design]
        try:
            fit = ols_fit(design, response)
        except RankDeficiencyError:
            continue
        assert max(
            abs(got - expected) for got, expected in zip(fit.coefficients, beta)
        ) < 1e-9
        recovered += 1

    # Suite 5: quantile boundary clamps, monotonicity, and range.
    rng = Random(905)
    for _ in range(120):
        n = rng.randint(1, 15)
        data = [rng.uniform(-50.0, 50.0) for _ in range(n)]
        low = min(data)
        high = max(data)
        p_low = rng.uniform(0.0, 1.0 / (n + 1)) * 0.999
        p_high = 1.0 - rng.uniform(0.0, 1.0 / (n + 1)) * 0.999
        assert quantile_type6(data, p_low) == low
        assert quantile_type6(data, p_high) == high
        p_a, p_b = sorted((rng.random(), rng.random()))
        assert quantile_type6(data, p_a) <= quantile_type6(data, p_b)
        assert low <= quantile_type6(data, rng.random()) <= high


def test_hockey_stick_fit_matches_report(mixture_run):
    """The serialized hockey-stick fit equals a direct fit of the same plot."""
    document = json.loads(mixture_run["audit/report.json"].read_text(encoding="utf-8"))
    fit = hockey_stick_fit(plot_from_pvalues([row["p"] for row in document["pvalues"]]))
    assert fit.breakpoint == document["tests"]["hockey_stick"]["breakpoint"]
    assert fit.right_slope == document["tests"]["hockey_stick"]["right_slope"]
