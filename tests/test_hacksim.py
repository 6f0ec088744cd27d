"""Tests for the selection-bias Monte Carlo engine.

Distributional checks run against closed forms (the min-p complement law,
uniformity of unselected p-values) or high-precision quadrature oracles
(truncated-normal mean for censored publication); determinism checks
compare full result objects bit for bit.
"""

import itertools
import math
import random

import mpmath
import numpy as np
import pytest

from metaudit import hacksim
from metaudit.hacksim import (
    MAX_TOTAL_DRAWS,
    SELECTION_RULES,
    SimConfig,
    run_simulation,
)
from metaudit.statkernel import ks_uniform_test

mpmath.mp.dps = 30


def substream(seed, replicate):
    """Replicate ``replicate``'s stream: a new Philox generator keyed by (seed, replicate).

    Philox streams with distinct 128-bit keys never overlap, so every
    replicate is reproducible in isolation and in any execution order.
    """
    return np.random.Generator(np.random.Philox(key=(seed << 64) | replicate))


def simulate_study(config, stream):
    """The scalar reference for one study: its selected (p, estimate).

    Draws K equicorrelated z statistics through a shared factor,
    z_j = delta + sqrt(rho) * g + sqrt(1 - rho) * e_j, converts each to a
    two-sided p-value, and applies the configured selection rule.
    report-first-significant falls back to the first (pre-planned) test
    when no draw clears alpha.
    """
    k = config.tests_per_study
    shared = stream.standard_normal()
    noise = stream.standard_normal(k)
    load = math.sqrt(config.correlation)
    resid = math.sqrt(1.0 - config.correlation)
    z = [config.true_effect + load * shared + resid * e for e in noise]
    p = [math.erfc(abs(v) * math.sqrt(0.5)) for v in z]

    if config.selection_rule == "report-min-p":
        idx = min(range(k), key=p.__getitem__)
    elif config.selection_rule == "report-first-significant":
        idx = next((j for j in range(k) if p[j] < config.alpha), 0)
    else:
        idx = int(stream.integers(k))
    return p[idx], z[idx]


def records(result):
    """(replicate, study, p, estimate, published) per study, as Python values."""
    columns = (result.replicate, result.study, result.p, result.estimate, result.published)
    return list(zip(*(column.tolist() for column in columns)))


def selected_estimates(result):
    """The estimates of the reported studies, as Python floats."""
    return result.estimate[result.reported].tolist()


def scalar_records(config):
    """The scalar reference: simulate_study on each replicate's substream."""
    records = []
    for replicate in range(config.replicates):
        stream = substream(config.seed, replicate)
        for study in range(config.n_studies):
            p, estimate = simulate_study(config, stream)
            records.append((replicate, study, p, float(estimate), p < config.alpha))
    return records


@pytest.fixture(scope="module")
def k10_run():
    config = SimConfig(tests_per_study=10, replicates=100_000, seed=42)
    return config, run_simulation(config)


def assert_same_state(state, expected):
    """Equal Philox state dicts; their words are NumPy arrays or Python ints."""
    assert state.keys() == expected.keys()
    for name, value in expected.items():
        if isinstance(value, dict):
            assert_same_state(state[name], value)
        else:
            assert np.array_equal(state[name], value), name


class TestSimConfigValidation:
    def test_correlation_upper_bound_message(self):
        with pytest.raises(ValueError, match="correlation must be < 1"):
            SimConfig(correlation=1.0)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"correlation": -0.1}, "correlation"),
            ({"tests_per_study": 0}, "tests_per_study"),
            ({"replicates": 0}, "replicates"),
            ({"n_studies": 0}, "n_studies"),
            ({"alpha": 0.0}, "alpha"),
            ({"alpha": 1.0}, "alpha"),
            ({"selection_rule": "report-best"}, "selection_rule"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
            ({"true_effect": math.nan}, "true_effect"),
        ],
    )
    def test_rejects_bad_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_studies", True),
            ("tests_per_study", True),
            ("replicates", True),
            ("seed", True),
            ("seed", False),
            ("censor_at_alpha", "no"),
            ("censor_at_alpha", 1),
        ],
    )
    def test_rejects_a_value_of_the_wrong_type(self, field, value):
        # A bool is an int to isinstance, and any str is truthy.
        with pytest.raises(ValueError, match=f"{field} must be"):
            SimConfig(**{field: value})

    def test_defaults_are_valid(self):
        config = SimConfig()
        assert config.selection_rule in SELECTION_RULES
        assert config.total_draws() == 1000 * 1 * 2


class TestSimulateStudy:
    def test_single_test_reports_the_sole_draw(self):
        config = SimConfig(tests_per_study=1)
        p, estimate = simulate_study(config, substream(3, 0))
        assert 0 < p <= 1
        assert p == pytest.approx(math.erfc(abs(estimate) * math.sqrt(0.5)), rel=1e-15)

    def test_unselected_pvalues_are_uniform(self):
        config = SimConfig(tests_per_study=1, replicates=20_000, seed=5)
        result = run_simulation(config)
        assert ks_uniform_test(result.p[result.reported].tolist()).p_value > 0.01

    @pytest.mark.parametrize("k", [2, 10])
    def test_min_p_complement_law(self, k):
        config = SimConfig(tests_per_study=k, replicates=100_000, seed=21)
        result = run_simulation(config)
        for t in (0.01, 0.05, 0.2):
            empirical = sum(p <= t for p in result.p[result.reported].tolist()) / result.n_total
            assert empirical == pytest.approx(1 - (1 - t) ** k, abs=0.01)

    def test_near_perfect_correlation_collapses_to_single_test(self):
        config = SimConfig(
            tests_per_study=10, correlation=0.99, replicates=50_000, seed=11
        )
        result = run_simulation(config)
        # All ten statistics ride the shared factor, so searching them
        # buys almost nothing over the K=1 rate of alpha.
        assert result.publication_rate == pytest.approx(0.05, abs=0.03)

    def test_first_significant_falls_back_to_first_draw(self):
        common = dict(tests_per_study=5, replicates=50_000, seed=12)
        first = run_simulation(
            SimConfig(selection_rule="report-first-significant", **common)
        )
        minp = run_simulation(SimConfig(selection_rule="report-min-p", **common))
        # Publication rate obeys the same any-significant law either way.
        assert first.publication_rate == pytest.approx(
            minp.publication_rate, abs=0.01
        )
        # But when nothing clears alpha the fallback is the pre-planned
        # first test, whose p is uniform on [alpha, 1), not the minimum.
        fallback = [p for p in first.p[first.reported].tolist() if p >= 0.05]
        searched = [p for p in minp.p[minp.reported].tolist() if p >= 0.05]
        assert math.fsum(fallback) / len(fallback) > 0.45
        assert math.fsum(searched) / len(searched) < 0.25

    def test_random_rule_reports_an_unselected_test(self):
        config = SimConfig(
            tests_per_study=7,
            selection_rule="report-random",
            replicates=50_000,
            seed=13,
        )
        result = run_simulation(config)
        assert result.publication_rate == pytest.approx(config.alpha, abs=0.01)
        assert ks_uniform_test(result.p[result.reported].tolist()).p_value > 0.01


class TestRunSimulation:
    def test_bit_identical_reruns(self, k10_run):
        config, first = k10_run
        second = run_simulation(config)
        assert second.p[second.reported].tolist() == first.p[first.reported].tolist()
        assert selected_estimates(second) == selected_estimates(first)
        assert second.publication_rate == first.publication_rate
        assert second.bias == first.bias
        assert records(second) == records(first)

    def test_replicates_independent_of_execution_order(self):
        config = SimConfig(tests_per_study=4, replicates=200, seed=909)
        result = run_simulation(config)
        order = list(range(config.replicates))
        random.Random(1).shuffle(order)
        by_replicate = {}
        for replicate in order:
            by_replicate[replicate] = simulate_study(
                config, substream(config.seed, replicate)
            )
        replayed = [by_replicate[r] for r in range(config.replicates)]
        assert replayed == [(rec[2], rec[3]) for rec in records(result)]

    def test_publication_rate_ignores_censoring(self):
        base = dict(tests_per_study=10, replicates=5000, seed=8)
        censored = run_simulation(SimConfig(censor_at_alpha=True, **base))
        uncensored = run_simulation(SimConfig(censor_at_alpha=False, **base))
        assert censored.publication_rate == uncensored.publication_rate
        assert censored.n_total == uncensored.n_total == 5000
        assert len(censored.p[censored.reported]) == censored.n_published
        assert len(uncensored.p[uncensored.reported]) == 5000

    def test_censored_pvalues_all_below_alpha(self):
        config = SimConfig(
            tests_per_study=10, censor_at_alpha=True, replicates=5000, seed=8
        )
        result = run_simulation(config)
        assert result.p[result.reported].tolist()
        assert all(p < config.alpha for p in result.p[result.reported].tolist())

    def test_multiple_studies_per_replicate(self):
        config = SimConfig(n_studies=3, replicates=400, seed=2)
        result = run_simulation(config)
        assert result.n_total == 1200
        assert [rec[1] for rec in records(result)[:3]] == [0, 1, 2]

    def test_resource_cap_checked_before_running(self):
        config = SimConfig(replicates=500_000_001)
        assert config.total_draws() > MAX_TOTAL_DRAWS
        with pytest.raises(ValueError, match="resource limit"):
            run_simulation(config)

    def test_null_single_test_is_unbiased(self):
        config = SimConfig(tests_per_study=1, replicates=100_000, seed=77)
        result = run_simulation(config)
        assert result.bias == pytest.approx(0.0, abs=0.01)
        assert ks_uniform_test(result.p[result.reported].tolist()).p_value > 0.01

    def test_null_calibration_across_seeds(self):
        passes = 0
        for seed in range(100):
            config = SimConfig(tests_per_study=1, replicates=2000, seed=seed)
            result = run_simulation(config)
            if ks_uniform_test(result.p[result.reported].tolist()).p_value >= 0.01:
                passes += 1
        assert passes >= 98

    def test_absolute_bias_monotone_in_search_size(self):
        means = []
        for k in (1, 5, 10, 50):
            config = SimConfig(tests_per_study=k, replicates=20_000, seed=15)
            means.append(run_simulation(config).mean_abs_estimate)
        assert means == sorted(means)
        assert means[2] > 1.5

    def test_signed_selection_vanishes_under_symmetry(self, k10_run):
        _, result = k10_run
        # min-p selects the largest |z|; under the null its sign is a coin
        # flip, so the signed mean hides the selection that the absolute
        # mean exposes.
        assert result.bias == pytest.approx(0.0, abs=0.02)
        assert result.abs_bias > 1.5

    def test_censored_effect_inflation_matches_truncated_normal(self):
        config = SimConfig(
            true_effect=0.5, censor_at_alpha=True, replicates=100_000, seed=14
        )
        result = run_simulation(config)
        z_crit = 1.9599639845400545
        mu = mpmath.mpf("0.5")
        density = lambda x: mpmath.npdf(x - mu)
        num = mpmath.quad(lambda x: x * density(x), [z_crit, mpmath.inf])
        num += mpmath.quad(lambda x: x * density(x), [-mpmath.inf, -z_crit])
        mass = mpmath.quad(density, [z_crit, mpmath.inf])
        mass += mpmath.quad(density, [-mpmath.inf, -z_crit])
        oracle_bias = float(num / mass) - 0.5
        assert oracle_bias > 0
        assert result.bias == pytest.approx(oracle_bias, abs=0.05)
        assert result.publication_rate == pytest.approx(float(mass), abs=0.01)


class TestSelectionBias:
    def test_matches_reported_bias_field(self):
        config = SimConfig(tests_per_study=3, true_effect=0.2, replicates=2000, seed=4)
        result = run_simulation(config)
        estimates = selected_estimates(result)
        assert result.bias == math.fsum(estimates) / len(estimates) - config.true_effect

    def test_bias_is_nan_when_everything_censored(self):
        config = SimConfig(
            alpha=1e-6, censor_at_alpha=True, replicates=50, seed=1
        )
        result = run_simulation(config)
        assert result.n_published == 0
        assert selected_estimates(result) == []
        assert math.isnan(result.bias)


class TestBatchedMatchesScalar:
    """run_simulation against the scalar simulate_study/substream loop."""

    @pytest.mark.parametrize("rule", SELECTION_RULES)
    @pytest.mark.parametrize("n_studies", [1, 3])
    def test_records_equal_scalar_reference(self, rule, n_studies):
        grid = itertools.product(
            (1, 2, 10, 100), (0.0, 0.5, 0.999999), (0.0, 0.3, 40.0), (7, 2**64 - 1)
        )
        for k, rho, delta, seed in grid:
            config = SimConfig(
                n_studies=n_studies, tests_per_study=k, correlation=rho,
                true_effect=delta, selection_rule=rule, replicates=12, seed=seed,
            )
            assert records(run_simulation(config)) == scalar_records(config), config

    def test_saturated_erfc_ties_go_to_the_first_test(self):
        config = SimConfig(tests_per_study=6, true_effect=60.0, replicates=50, seed=3)
        result = run_simulation(config)
        for replicate, estimate in enumerate(selected_estimates(result)):
            stream = substream(config.seed, replicate)
            stream.standard_normal()
            z = [config.true_effect + e for e in stream.standard_normal(6).tolist()]
            assert all(math.erfc(abs(v) * math.sqrt(0.5)) == 0.0 for v in z)
            assert estimate == z[0]
        assert records(result) == scalar_records(config)

    @pytest.mark.parametrize("ulps", [0, 1])
    def test_alpha_on_a_drawn_p_value(self, ulps):
        # alpha is the smallest p drawn in one replicate.  Equal to it, no test
        # there clears p < alpha; one ulp higher, exactly that test does.
        base = dict(tests_per_study=8, correlation=0.2, replicates=40, seed=21)
        smallest = records(run_simulation(SimConfig(**base)))[20][2]
        alpha = math.nextafter(smallest, 1.0) if ulps else smallest
        config = SimConfig(selection_rule="report-first-significant", alpha=alpha, **base)
        result = run_simulation(config)
        assert records(result) == scalar_records(config)
        _, _, p, _, published = records(result)[20]
        assert published == bool(ulps)
        assert (p == smallest) == bool(ulps)

    def test_random_rule_draws_each_pick_after_its_study(self):
        config = SimConfig(
            n_studies=4, tests_per_study=7, selection_rule="report-random",
            replicates=60, seed=5,
        )
        assert records(run_simulation(config)) == scalar_records(config)

    @pytest.mark.parametrize("block_draws", [1, 7, 100])
    def test_blocks_do_not_change_results(self, monkeypatch, block_draws):
        config = SimConfig(
            n_studies=2, tests_per_study=5, selection_rule="report-random",
            replicates=90, censor_at_alpha=True, seed=17,
        )
        whole = run_simulation(config)
        monkeypatch.setattr(hacksim, "_BLOCK_DRAWS", block_draws)
        blocked = run_simulation(config)
        assert records(blocked) == records(whole)
        assert records(blocked) == scalar_records(config)
        for name in ("publication_rate", "bias", "abs_bias", "mean_abs_estimate"):
            assert getattr(blocked, name) == getattr(whole, name)

    @pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
    def test_rekey_leaves_the_substream_state(self, seed):
        philox = hacksim._RekeyedPhilox(seed)
        for replicate in (0, 1, 2**32, 2**63):
            stream = philox.rekey(replicate)
            reference = substream(seed, replicate)
            assert_same_state(philox.bit_generator.state, reference.bit_generator.state)
            # Draws, including the 32-bit buffer integers(k) uses, match too.
            assert stream.standard_normal(5).tolist() == reference.standard_normal(5).tolist()
            assert stream.integers(3, size=9).tolist() == reference.integers(3, size=9).tolist()
            assert_same_state(philox.bit_generator.state, reference.bit_generator.state)

    def test_views_yield_python_values_from_read_only_columns(self):
        result = run_simulation(SimConfig(tests_per_study=3, replicates=20, seed=2))
        assert type(result.n_total) is type(result.n_published) is int
        columns = (result.replicate, result.study, result.p, result.estimate, result.published)
        for column in columns:
            with pytest.raises(ValueError):
                column[0] = 0
