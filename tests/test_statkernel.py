"""Tests for the numerical primitives, checked against independent oracles.

Oracles used here: mpmath high-precision special functions for the normal
CDF, t survival function and Kolmogorov series; exact rational (Fraction)
normal-equation solves for least squares; brute-force enumeration over all
step discrepancies for the KS statistic.  The former pure-Python ``ols_fit``
is kept below as the reference the NumPy + ``fsum`` version must match bit
for bit.
"""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaudit.effect_audit import P_FLOOR
from metaudit.statkernel import (
    _EXACT_FIT_FACTOR,
    OlsFit,
    RankDeficiencyError,
    _two_sided_t_p,
    kolmogorov_sf,
    ks_uniform_test,
    ols_fit,
    quantile_type6,
    regularized_incomplete_beta,
    std_normal_cdf,
    std_normal_quantile,
    student_t_sf,
)
from metaudit.statkernel import TestResult as StatTestResult

mpmath.mp.dps = 40


def ols_fit_rows(design, response):
    """ols_fit of a row-major design: the design transposed to its columns."""
    return ols_fit([list(column) for column in zip(*design)], response)


def phi_oracle(x: float) -> float:
    return float(mpmath.ncdf(x))


def t_sf_oracle(t: float, df: float) -> float:
    x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
    half = mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf("0.5"), 0, x, regularized=True) / 2
    return float(half if t > 0 else 1 - half)


def kolmogorov_oracle(lam: float) -> float:
    if lam <= 0:
        return 1.0
    s = mpmath.nsum(
        lambda j: (-1) ** (j - 1) * mpmath.exp(-2 * j**2 * mpmath.mpf(lam) ** 2),
        [1, mpmath.inf],
    )
    return float(2 * s)


def ks_statistic_brute_force(values: list[float]) -> float:
    # Enumerate all 2n candidate discrepancies between the empirical CDF
    # steps and the U(0,1) CDF.
    ordered = sorted(values)
    n = len(ordered)
    candidates = []
    for i, v in enumerate(ordered, start=1):
        candidates.append(i / n - v)
        candidates.append(v - (i - 1) / n)
    return max(candidates)


def solve_exact(design: list[list[Fraction]], response: list[Fraction]) -> list[Fraction]:
    # Exact rational Gauss-Jordan on the normal equations.
    k = len(design[0])
    n = len(design)
    gram = [
        [sum(design[i][a] * design[i][b] for i in range(n)) for b in range(k)]
        for a in range(k)
    ]
    rhs = [sum(design[i][a] * response[i] for i in range(n)) for a in range(k)]
    aug = [gram[i][:] + [rhs[i]] for i in range(k)]
    for col in range(k):
        pivot_row = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [aug[r][j] - factor * aug[col][j] for j in range(k + 1)]
    return [aug[i][k] / aug[i][i] for i in range(k)]


class TestStdNormalCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_critical_value(self):
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    @pytest.mark.parametrize("x", [-8.0, -5.5, -2.0, -0.3, 0.7, 1.0, 3.25, 6.0, 8.0])
    def test_against_high_precision_oracle(self, x):
        assert std_normal_cdf(x) == pytest.approx(phi_oracle(x), abs=1e-9)

    @given(st.floats(min_value=-8, max_value=8, allow_nan=False))
    def test_reflection_identity(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_on_random_pairs(self):
        rng = random.Random(20240917)
        for _ in range(1000):
            a = rng.uniform(-10, 10)
            b = rng.uniform(-10, 10)
            lo, hi = min(a, b), max(a, b)
            assert std_normal_cdf(lo) <= std_normal_cdf(hi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            std_normal_cdf(bad)


class TestStdNormalQuantile:
    def test_median_is_zero(self):
        assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_upper_critical_value(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)

    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_round_trip_from_x(self, x):
        assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=1e-7)

    @pytest.mark.parametrize("p", [1e-10, 1e-4, 0.025, 0.31, 0.5, 0.84, 0.999, 1 - 1e-9])
    def test_cdf_round_trip_within_contract(self, p):
        assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7, math.nan])
    def test_rejects_outside_open_interval(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)


class TestStudentTSf:
    @pytest.mark.parametrize("df", [1, 2.5, 7, 100])
    def test_symmetry_point(self, df):
        assert student_t_sf(0.0, df) == 0.5

    @pytest.mark.parametrize("t", [0.25, 1.0, 2.0, 10.0])
    def test_df1_closed_form(self, t):
        exact = 0.5 - math.atan(t) / math.pi
        assert student_t_sf(t, 1) == pytest.approx(exact, rel=1e-8)

    def test_huge_df_matches_normal_tail(self):
        assert student_t_sf(1.959964, 1e6) == pytest.approx(0.025, abs=1e-4)

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 11, 30, 120, 1e4])
    @pytest.mark.parametrize("t", [0.5, 1.7, 4.0, -2.2])
    def test_against_incomplete_beta_oracle(self, df, t):
        assert student_t_sf(t, df) == pytest.approx(t_sf_oracle(t, df), rel=1e-8)

    @pytest.mark.parametrize("df", [0.5, 0.0, -3])
    def test_rejects_small_df(self, df):
        with pytest.raises(ValueError):
            student_t_sf(1.0, df)

    def test_rejects_non_finite_t(self):
        with pytest.raises(ValueError):
            student_t_sf(math.inf, 5)

    def test_incomplete_beta_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)


class TestOlsFit:
    def test_exact_line(self):
        design = [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]
        fit = ols_fit_rows(design, [2.0, 4.0, 6.0])
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-12)
        assert fit.coefficients[1] == pytest.approx(2.0, abs=1e-12)
        assert fit.rss == pytest.approx(0.0, abs=1e-20)

    def test_nested_exact_fit_quadratic_coefficient_vanishes(self):
        ranks = range(1, 15)
        design = [[1.0, float(i), float(i * i)] for i in ranks]
        response = [0.03 + 0.06 * i for i in ranks]
        fit = ols_fit_rows(design, response)
        assert abs(fit.coefficients[2]) < 1e-10
        assert fit.t_statistics[2] == 0.0
        assert fit.p_values[2] == 1.0

    def test_five_point_dataset_matches_exact_normal_equations(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ys = [1.0, 3.0, 2.0, 5.0, 4.0]
        design = [[1.0, x] for x in xs]
        exact = solve_exact(
            [[Fraction(1), Fraction(x)] for x in xs], [Fraction(y) for y in ys]
        )
        fit = ols_fit_rows(design, ys)
        assert fit.coefficients[0] == pytest.approx(float(exact[0]), abs=1e-10)
        assert fit.coefficients[1] == pytest.approx(float(exact[1]), abs=1e-10)
        # Exact continuation: rss and the slope t statistic.
        residuals = [
            Fraction(y) - exact[0] - exact[1] * Fraction(x) for x, y in zip(xs, ys)
        ]
        rss = sum(r * r for r in residuals)
        assert fit.rss == pytest.approx(float(rss), abs=1e-10)
        sigma2 = rss / 3
        sxx = sum((Fraction(x) - Fraction(3)) ** 2 for x in xs)
        se_slope = math.sqrt(float(sigma2 / sxx))
        assert fit.standard_errors[1] == pytest.approx(se_slope, rel=1e-10)
        assert fit.t_statistics[1] == pytest.approx(float(exact[1]) / se_slope, rel=1e-10)
        assert fit.df == 3

    def test_recovers_coefficients_exactly_on_noiseless_data(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(5, 25)
            beta = [rng.uniform(-3, 3) for _ in range(3)]
            design = [
                [1.0, rng.uniform(-5, 5), rng.uniform(-5, 5)] for _ in range(n)
            ]
            response = [
                beta[0] * row[0] + beta[1] * row[1] + beta[2] * row[2]
                for row in design
            ]
            fit = ols_fit_rows(design, response)
            for got, want in zip(fit.coefficients, beta):
                assert got == pytest.approx(want, abs=1e-9)
            assert fit.rss / fit.df == pytest.approx(0.0, abs=1e-18)

    def test_rank_deficiency_names_offending_column(self):
        design = [[1.0, x, 2.0 * x] for x in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(RankDeficiencyError) as excinfo:
            ols_fit_rows(design, [1.0, 2.0, 3.0, 4.0])
        assert excinfo.value.column == 2
        assert "column 2" in str(excinfo.value)

    def test_zero_column_reported(self):
        design = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
        with pytest.raises(RankDeficiencyError) as excinfo:
            ols_fit_rows(design, [1.0, 2.0, 3.0])
        assert excinfo.value.column == 1

    def test_rejects_too_few_rows(self):
        with pytest.raises(ValueError, match="more observations"):
            ols_fit([[1.0, 1.0], [2.0, 3.0]], [1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ols_fit([[1.0, math.nan, 1.0]], [1.0, 2.0, 3.0])

    def test_rejects_no_columns(self):
        with pytest.raises(ValueError, match="no columns"):
            ols_fit([], [1.0, 2.0, 3.0])

    def test_rejects_columns_of_unequal_lengths(self):
        with pytest.raises(ValueError, match="unequal lengths"):
            ols_fit([[1.0, 1.0, 1.0], [1.0, 2.0]], [1.0, 2.0, 3.0])

    def test_a_row_major_design_raises(self):
        # Five rows of two read as five columns of two entries each.
        with pytest.raises(ValueError, match="response length 5 != row count 2"):
            ols_fit([[1.0, float(x)] for x in range(5)], [0.0, 1.1, 1.9, 3.2, 3.9])
        # A square one reads as n columns of n entries: too few observations.
        with pytest.raises(ValueError, match="more observations"):
            ols_fit([[1.0, 2.0], [1.0, 3.0]], [1.0, 2.0])


def reference_ols_fit(design, response):
    """The pure-Python ols_fit that statkernel.ols_fit replaced, kept as its
    bit-for-bit reference: every sum is an fsum over a generator."""
    n = len(design)
    if n == 0:
        raise ValueError("design matrix has no rows")
    k = len(design[0])
    if k == 0:
        raise ValueError("design matrix has no columns")
    if any(len(row) != k for row in design):
        raise ValueError("design matrix rows have inconsistent lengths")
    if len(response) != n:
        raise ValueError(f"response length {len(response)} != row count {n}")
    if n <= k:
        raise ValueError(f"need more observations than regressors (n={n}, k={k})")
    for i, row in enumerate(design):
        for j, v in enumerate(row):
            if not math.isfinite(v):
                raise ValueError(f"non-finite design entry at row {i}, column {j}")
    for i, v in enumerate(response):
        if not math.isfinite(v):
            raise ValueError(f"non-finite response entry at row {i}")

    col_norms = []
    for j in range(k):
        norm = math.sqrt(math.fsum(design[i][j] ** 2 for i in range(n)))
        if norm == 0.0:
            raise RankDeficiencyError(j)
        col_norms.append(norm)
    xs = [[design[i][j] / col_norms[j] for j in range(k)] for i in range(n)]

    gram = [
        [math.fsum(xs[i][a] * xs[i][b] for i in range(n)) for b in range(k)]
        for a in range(k)
    ]
    xty = [math.fsum(xs[i][a] * response[i] for i in range(n)) for a in range(k)]

    lower = [[0.0] * k for _ in range(k)]
    for j in range(k):
        pivot = gram[j][j] - math.fsum(lower[j][m] ** 2 for m in range(j))
        if pivot <= 1e-10:
            raise RankDeficiencyError(j)
        lower[j][j] = math.sqrt(pivot)
        for i in range(j + 1, k):
            lower[i][j] = (
                gram[i][j] - math.fsum(lower[i][m] * lower[j][m] for m in range(j))
            ) / lower[j][j]

    def cholesky_solve(rhs):
        fwd = [0.0] * k
        for i in range(k):
            fwd[i] = (rhs[i] - math.fsum(lower[i][m] * fwd[m] for m in range(i))) / lower[i][i]
        back = [0.0] * k
        for i in reversed(range(k)):
            back[i] = (
                fwd[i] - math.fsum(lower[m][i] * back[m] for m in range(i + 1, k))
            ) / lower[i][i]
        return back

    scaled_coefs = cholesky_solve(xty)
    coefficients = [scaled_coefs[j] / col_norms[j] for j in range(k)]

    residuals = [
        response[i] - math.fsum(design[i][j] * coefficients[j] for j in range(k))
        for i in range(n)
    ]
    rss = math.fsum(r * r for r in residuals)
    df = n - k

    inv_diag_scaled = []
    for j in range(k):
        unit = [0.0] * k
        unit[j] = 1.0
        inv_diag_scaled.append(cholesky_solve(unit)[j])

    response_norm = math.sqrt(math.fsum(v * v for v in response))
    noise_floor = _EXACT_FIT_FACTOR * (1.0 + response_norm)
    exact_fit = rss <= noise_floor * noise_floor * n

    standard_errors, t_statistics, p_values = [], [], []
    sigma2 = rss / df
    for j in range(k):
        if exact_fit:
            standard_errors.append(0.0)
            if abs(scaled_coefs[j]) <= noise_floor:
                t_statistics.append(0.0)
                p_values.append(1.0)
            else:
                t_statistics.append(math.copysign(math.inf, scaled_coefs[j]))
                p_values.append(0.0)
            continue
        se = math.sqrt(sigma2 * inv_diag_scaled[j]) / col_norms[j]
        standard_errors.append(se)
        t = coefficients[j] / se
        t_statistics.append(t)
        p_values.append(_two_sided_t_p(t, df))

    return OlsFit(
        coefficients=coefficients,
        standard_errors=standard_errors,
        t_statistics=t_statistics,
        p_values=p_values,
        df=df,
        rss=rss,
    )


def ols_outcome(fit, design, response):
    """repr of every field of the fit, or the exception's type, message and column."""
    try:
        return repr(fit(design, response))
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "column", None))


# Floats whose libm pow(v, 2) and v * v differ on at least one common
# platform: ols_fit must keep squaring column entries with Python's **.
POW_SQUARE_DIFFERS = [
    -1.3897331162287718, 10.503521725417835, 0.006367980238317985,
    -0.0025449072619175327, -2386.6520724665706, 3002.2341554005347,
    0.11165297380758935, -71.19140901630793,
]


def random_ols_case(rng: random.Random):
    """One random (design, response) pair; about a tenth are invalid inputs."""
    n = rng.randint(4, 40) if rng.random() < 0.9 else int(4 * 125 ** rng.random())
    k = rng.randint(1, min(3, n - 1))
    shape = rng.random()
    if shape < 0.25:
        # The bilinearity design {1, i, i^2} on sorted p-values, as floats or ints.
        cast = int if rng.random() < 0.3 else float
        offset = rng.choice([0, 0, 1000, 2**26])
        design = [[cast(1), cast(i + offset), cast((i + offset) ** 2)][:k] for i in range(1, n + 1)]
        response = sorted(rng.random() for _ in range(n))
    else:
        scales = [10 ** rng.uniform(-5, 5) for _ in range(k)]
        design = [[rng.uniform(-1, 1) * s for s in scales] for _ in range(n)]
        if rng.random() < 0.5:
            for row in design:
                row[0] = 1.0
        for _ in range(rng.randint(0, 3)):
            design[rng.randrange(n)][rng.randrange(k)] = rng.choice(POW_SQUARE_DIFFERS)
        y_scale = 10 ** rng.uniform(-5, 5)
        response = [rng.gauss(0, 1) * y_scale for _ in range(n)]
        if rng.random() < 0.15:
            # Exact fit: the response is a combination of the columns.
            beta = [rng.uniform(-3, 3) for _ in range(k)]
            response = [sum(b * v for b, v in zip(beta, row)) for row in design]
    fault = rng.random()
    if fault < 0.04 and k > 1:
        # Rank deficient: a column that is a multiple of another, or all zero.
        a, b = rng.sample(range(k), 2)
        factor = rng.choice([0.0, 2.0, -0.5])
        for row in design:
            row[b] = factor * row[a]
    elif fault < 0.07:
        bad = rng.choice([math.nan, math.inf, -math.inf])
        if rng.random() < 0.5:
            design[rng.randrange(n)][rng.randrange(k)] = bad
        else:
            response[rng.randrange(n)] = bad
    return design, response


class TestOlsFitMatchesReference:
    def test_ten_thousand_random_fits_match_bit_for_bit(self):
        rng = random.Random(20240611)
        outcomes = {"fit": 0, "error": 0}
        for _ in range(10_000):
            design, response = random_ols_case(rng)
            want = ols_outcome(reference_ols_fit, design, response)
            assert ols_outcome(ols_fit_rows, design, response) == want, (design, response)
            outcomes["fit" if isinstance(want, str) else "error"] += 1
        # Both the fitting and the rejecting paths were exercised.
        assert outcomes["fit"] > 8_000 and outcomes["error"] > 300

    def test_pow_and_product_squares_differ_on_a_column(self):
        # A column made of the values whose pow and product squares differ:
        # a norm from v * v would change the scaled design's bits.
        column = POW_SQUARE_DIFFERS * 3
        design = [[1.0, v] for v in column]
        response = [0.5 * v + 0.01 * i for i, v in enumerate(column)]
        assert repr(ols_fit_rows(design, response)) == repr(reference_ols_fit(design, response))

    @pytest.mark.parametrize(
        "design, response",
        [
            ([[1.0, 1.0], [1.0, math.nan], [1.0, math.inf]], [1.0, 2.0, 3.0]),
            ([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]], [1.0, -math.inf, math.nan]),
            ([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], [1.0, 2.0, 3.0]),
            ([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]], [1.0, 2.0, 3.0]),
        ],
    )
    def test_invalid_inputs_raise_as_the_reference(self, design, response):
        want = ols_outcome(reference_ols_fit, design, response)
        assert not isinstance(want, str)
        assert ols_outcome(ols_fit_rows, design, response) == want


class TestKsUniformTest:
    def test_centered_grid_n10(self):
        values = [(2 * i - 1) / 20 for i in range(1, 11)]
        result = ks_uniform_test(values)
        assert result.statistic == pytest.approx(0.05, abs=1e-15)
        assert result.method == "ks-uniform"
        assert result.df is None

    def test_single_midpoint(self):
        assert ks_uniform_test([0.5]).statistic == pytest.approx(0.5, abs=1e-15)

    def test_all_values_at_one(self):
        # Mass entirely at 1.0: the empirical CDF is 0 everywhere below 1,
        # so the sup distance to the uniform CDF is the full unit gap.
        result = ks_uniform_test([1.0, 1.0, 1.0, 1.0])
        assert result.statistic == pytest.approx(
            ks_statistic_brute_force([1.0, 1.0, 1.0, 1.0]), abs=1e-15
        )
        assert result.statistic == pytest.approx(1.0, abs=1e-15)

    def test_matches_brute_force_on_random_samples(self):
        rng = random.Random(31337)
        for _ in range(100):
            n = rng.randint(1, 20)
            values = [rng.random() for _ in range(n)]
            got = ks_uniform_test(values).statistic
            assert got == pytest.approx(ks_statistic_brute_force(values), abs=1e-12)

    @pytest.mark.parametrize("lam", [0.05, 0.3, 0.7, 1.0, 1.17, 1.18, 1.5, 2.5, 4.0])
    def test_tail_function_against_series_oracle(self, lam):
        assert kolmogorov_sf(lam) == pytest.approx(kolmogorov_oracle(lam), abs=1e-12)

    def test_pvalue_bounds(self):
        result = ks_uniform_test([0.62])
        assert isinstance(result, StatTestResult)
        assert 0.0 <= result.p_value <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_uniform_test([])

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ks_uniform_test([0.5, bad])

    def test_float32_array_is_tested_as_its_float64_values(self):
        # A float32 array once raised "values must lie in [0, 1]" naming its first, valid, value.
        values = np.array([0.1, 0.4, 0.45, 0.8], dtype=np.float32)
        assert ks_uniform_test(values) == ks_uniform_test(values.tolist())
        with pytest.raises(ValueError, match=r"^values must lie in \[0, 1\], got .*1\.5"):
            ks_uniform_test(np.array([0.1, 1.5], dtype=np.float32))


def reference_ks_uniform_test(values):
    """The per-point loop that ks_uniform_test's NumPy statistic replaced, kept as its reference."""
    n = len(values)
    if n == 0:
        raise ValueError("ks_uniform_test needs at least one value")
    for v in values:
        if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
            raise ValueError(f"values must lie in [0, 1], got {v!r}")
    ordered = sorted(values)
    d = 0.0
    for i, v in enumerate(ordered, start=1):
        d = max(d, i / n - v, v - (i - 1) / n)
    sqrt_n = math.sqrt(n)
    lam = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d
    return StatTestResult(statistic=d, p_value=kolmogorov_sf(lam), method="ks-uniform")


KS_INPUTS = {
    "random": lambda rng, n: [rng.random() for _ in range(n)],
    "tied": lambda rng, n: [rng.choice((0.1, 0.25, 0.5, 0.75)) for _ in range(n)],
    "grid": lambda rng, n: [i / n for i in range(1, n + 1)],
    "zeros": lambda rng, n: [0.0] * n,
    "ones": lambda rng, n: [1.0] * n,
    "floor": lambda rng, n: [P_FLOOR if rng.random() < 0.5 else rng.random() for _ in range(n)],
}


class TestKsUniformMatchesReference:
    @pytest.mark.parametrize("kind", sorted(KS_INPUTS))
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 2000])
    def test_same_bits(self, kind, n):
        values = KS_INPUTS[kind](random.Random(f"ks-{kind}-{n}"), n)
        expected = reference_ks_uniform_test(values)
        for given_values in (values, np.array(values)):
            result = ks_uniform_test(given_values)
            assert type(result.statistic) is float
            assert (repr(result.statistic), repr(result.p_value)) == (
                repr(expected.statistic), repr(expected.p_value)
            )

    def test_ints_and_float_subclasses_are_accepted(self):
        values = [0, 1, True, np.float64(0.5), 0.25]
        assert ks_uniform_test(values) == reference_ks_uniform_test(values)

    @pytest.mark.parametrize("bad", ["0.5", math.nan, -0.1, 1.5])
    def test_same_error(self, bad):
        values = [0.2, 0.7, bad, 0.9]
        for given_values in (values, np.array(values, dtype=object), np.array(values)):
            with pytest.raises(ValueError) as expected:
                reference_ks_uniform_test(given_values)
            with pytest.raises(ValueError) as got:
                ks_uniform_test(given_values)
            assert str(got.value) == str(expected.value)


SPACE1_COLUMN = [28, 24, 95, 156, 40, 10, 300, 80, 588, 14, 14, 48, 200, 40]
SPACE3_COLUMN = [
    229376, 3072, 3040, 638976, 1280, 640, 9600, 20480,
    301056, 448, 7168, 49152, 6400, 5120,
]


class TestQuantileType6:
    def test_total_analyses_lower_quartile(self):
        assert quantile_type6(SPACE3_COLUMN, 0.25) == pytest.approx(2600.0)

    def test_total_analyses_upper_quartile(self):
        assert quantile_type6(SPACE3_COLUMN, 0.75) == pytest.approx(94208.0)

    def test_questions_lower_quartile(self):
        assert quantile_type6(SPACE1_COLUMN, 0.25) == pytest.approx(21.5)

    def test_boundaries_hit_extremes(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert quantile_type6(values, 0.0) == 1.0
        assert quantile_type6(values, 1.0) == 9.0

    def test_monotone_in_p(self):
        rng = random.Random(5)
        values = [rng.uniform(0, 100) for _ in range(17)]
        grid = [i / 50 for i in range(51)]
        results = [quantile_type6(values, p) for p in grid]
        assert results == sorted(results)

    def test_rejects_empty_and_bad_p(self):
        with pytest.raises(ValueError):
            quantile_type6([], 0.5)
        with pytest.raises(ValueError):
            quantile_type6([1.0], 1.5)


@settings(max_examples=200)
@given(
    st.floats(min_value=-6, max_value=6, allow_nan=False),
    st.floats(min_value=-6, max_value=6, allow_nan=False),
)
def test_cdf_monotone_property(a, b):
    lo, hi = min(a, b), max(a, b)
    assert std_normal_cdf(lo) <= std_normal_cdf(hi)


def test_test_result_rejects_bad_pvalue():
    with pytest.raises(ValueError):
        StatTestResult(statistic=1.0, p_value=1.5)
