"""Numerical primitives shared by the auditing modules.

Everything here is a pure function of its arguments, built on the math
stdlib: standard normal CDF and quantile, Student's t survival function,
ordinary least squares with per-coefficient t tests, a one-sample
Kolmogorov-Smirnov uniformity test, and (n+1)-position
linear-interpolation quantiles.  ``ols_fit`` forms its elementwise terms
with NumPy and adds every sum with ``math.fsum``, whose exactly rounded
result does not depend on the order of the terms, so its bits are those
of the equivalent pure-Python loops.  The package's ``InputError`` and
the int, real and bool field checks of its value types are defined here too:
this module imports nothing from the package, so every module can import
them without a cycle.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SQRT_HALF = math.sqrt(0.5)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_EPS = sys.float_info.epsilon

# Degenerate (exact-fit) OLS regressions make the t statistic a 0/0 ratio of
# rounding noise; fits whose residual norm is below this multiple of machine
# epsilon are treated as exact and coefficients are snapped to 0 or +-inf.
_EXACT_FIT_FACTOR = 1e4 * _EPS


class InputError(ValueError):
    """Bad input or configuration: a malformed file, a bad parameter, a value off its scale."""


class RankDeficiencyError(ValueError):
    """Design matrix column is (numerically) linearly dependent on earlier ones."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(
            f"design matrix is rank deficient: column {column} is linearly "
            "dependent on the preceding columns"
        )


def _check_int(
    name: str,
    value: object,
    low: int,
    high: float = math.inf,
    kind: str = "a positive integer",
    error: type[ValueError] = ValueError,
) -> None:
    """Raise ``error`` naming the field unless ``value`` is an int, not a bool, in [low, high]."""
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= high:
        raise error(f"{name} must be {kind}, got {value!r}")


def _check_real(
    name: str, value: object, error: type[ValueError] = ValueError, between: tuple | None = None
) -> None:
    """Raise ``error`` naming the field unless ``value`` is an int or float, not a bool,
    that lies in the open interval ``between`` = (low, high) when that is given.

    Float subclasses such as ``np.float64`` pass, and the value is kept as
    given; an int past the largest float is rejected.
    """
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or isinstance(value, int) and not abs(value) <= sys.float_info.max
    ):
        raise error(f"{name} must be a real number, got {value!r}")
    if between is not None and not between[0] < value < between[1]:
        raise error(f"{name} must lie in ({between[0]}, {between[1]}), got {value!r}")


def _check_bool(name: str, value: object, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the field unless ``value`` is a bool (``np.bool_`` is not)."""
    if not isinstance(value, bool):
        raise error(f"{name} must be a bool, got {value!r}")


def _unit_interval_array(name: str, values: Sequence[float]) -> np.ndarray:
    """``values`` as a float64 array; the first value outside [0, 1] raises ValueError naming it.

    Bool, int and float arrays of any width, ints, bools and float subclasses
    are taken; NaN and any other type are not.
    """
    real_array = isinstance(values, np.ndarray) and values.dtype.kind in "biuf"
    v = values.astype(float, copy=False) if real_array else None
    if v is None or not ((0.0 <= v) & (v <= 1.0)).all():
        for value in values if v is None else v:
            if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        v = np.array(values, dtype=float)
    return v


@dataclass(frozen=True)
class TestResult:
    """Outcome of one diagnostic test.

    ``df`` is present exactly when the reference distribution is Student's t.
    ``verdict`` is set when a threshold rule overrides interpretation (for
    example "insufficient data" on very short inputs).
    """

    statistic: float
    p_value: float
    df: float | None = None
    method: str = ""
    verdict: str | None = None

    def __post_init__(self) -> None:
        _check_real("statistic", self.statistic)
        _check_real("p_value", self.p_value)
        if self.df is not None:
            _check_real("df", self.df)
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value} outside [0, 1]")


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit with per-coefficient inference (df = n - k)."""

    coefficients: list[float]
    standard_errors: list[float]
    t_statistics: list[float]
    p_values: list[float]
    df: int
    rss: float


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF, absolute error below 1e-9 for |x| <= 8.

    Evaluated through the complementary error function, which keeps the
    tails accurate to machine precision.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on the open interval (0, 1).

    Uses the stdlib rational approximation plus one Newton refinement
    against ``std_normal_cdf``, so the round trip holds to well below the
    contracted 1e-9 in probability space.
    """
    if not (isinstance(p, (int, float)) and 0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly between 0 and 1, got {p!r}")
    x = statistics.NormalDist().inv_cdf(p)
    pdf = math.exp(-0.5 * x * x) / _SQRT_TWO_PI
    if pdf > 1e-300:
        x -= (std_normal_cdf(x) - p) / pdf
    return x


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Lentz's algorithm for the incomplete-beta continued fraction.
    # Iteration count grows like sqrt(max(a, b)) when x sits near the
    # a/(a+b) crossover, hence the generous cap.
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 4001):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):  # one Lentz update per coefficient
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), relative error <= 1e-8."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """Upper tail P(T > t) for Student's t with ``df`` degrees of freedom."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if not (math.isfinite(df) and df >= 1.0):
        raise ValueError(f"df must be a real number >= 1, got {df!r}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x)
    return tail if t > 0.0 else 1.0 - tail


def _two_sided_t_p(t: float, df: int) -> float:
    if math.isinf(t):
        return 0.0
    return min(1.0, 2.0 * student_t_sf(abs(t), df))


def ols_fit(columns: Sequence[Sequence[float]], response: Sequence[float]) -> OlsFit:
    """Ordinary least squares of ``response`` on the design whose j-th column is ``columns[j]``.

    The columns must already contain any intercept column and be of one
    length n.  Their entries are used as given, so pass Python numbers
    (NumPy scalars square differently).  Solves the normal equations on
    column-equilibrated data via Cholesky; a failing pivot identifies the
    offending column.  Residual variance uses divisor n - k and each
    coefficient gets a two-sided t test on n - k degrees of freedom.

    Exact fits (residual norm at rounding level) would make t a ratio of
    noise terms, so there each t is snapped to 0 when the coefficient is
    itself at rounding level and to signed infinity otherwise.
    """
    k = len(columns)
    if k == 0:
        raise ValueError("design matrix has no columns")
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError("design matrix columns have unequal lengths")
    if len(response) != n:
        raise ValueError(f"response length {len(response)} != row count {n}")
    if n <= k:
        raise ValueError(f"need more observations than regressors (n={n}, k={k})")
    x = np.asarray(columns, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    # The transposed view lists entries row by row, as the design does.
    bad = np.argwhere(~np.isfinite(x.T))
    if len(bad):
        i, j = bad[0].tolist()
        raise ValueError(f"non-finite design entry at row {i}, column {j}")
    bad = np.flatnonzero(~np.isfinite(y))
    if len(bad):
        raise ValueError(f"non-finite response entry at row {bad[0]}")

    # Terms are formed elementwise (NumPy's * and / round as Python's do) and
    # every sum is math.fsum, the exactly rounded sum, so the bits do not
    # depend on a summation order.  Squares of the given entries use
    # Python's operators: float ** 2 is libm pow, not always v * v, and
    # int squares are exact.
    col_norms: list[float] = []
    for j in range(k):
        norm = math.sqrt(math.fsum([v ** 2 for v in columns[j]]))
        if norm == 0.0:
            raise RankDeficiencyError(j)
        col_norms.append(norm)
    xs = x / np.array(col_norms)[:, None]

    gram = [[0.0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1):
            gram[a][b] = gram[b][a] = math.fsum((xs[a] * xs[b]).tolist())
    xty = [math.fsum((xs[a] * y).tolist()) for a in range(k)]

    # Cholesky on the unit-diagonal Gram matrix; pivots near zero flag the
    # first column explained by its predecessors.
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

    def cholesky_solve(rhs: list[float]) -> list[float]:
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

    # zip reuses its row tuple, so the n k-term sums allocate no containers.
    fitted = list(map(math.fsum, zip(*(x * np.array(coefficients)[:, None]).tolist())))
    residuals = y - np.array(fitted)
    rss = math.fsum((residuals * residuals).tolist())
    df = n - k

    inv_diag_scaled = []
    for j in range(k):
        unit = [0.0] * k
        unit[j] = 1.0
        inv_diag_scaled.append(cholesky_solve(unit)[j])

    response_norm = math.sqrt(math.fsum([v * v for v in response]))
    noise_floor = _EXACT_FIT_FACTOR * (1.0 + response_norm)
    exact_fit = rss <= noise_floor * noise_floor * n

    standard_errors: list[float] = []
    t_statistics: list[float] = []
    p_values: list[float] = []
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


def kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution at ``lam``.

    Uses the theta-function form for small arguments and the alternating
    exponential series otherwise; both agree to machine precision at the
    1.18 switch point.
    """
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        q = math.exp(-math.pi * math.pi / (8.0 * lam * lam))
        total = q + q**9 + q**25 + q**49
        return max(0.0, min(1.0, 1.0 - _SQRT_TWO_PI / lam * total))
    total = 0.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += term if j % 2 == 1 else -term
        if term < 1e-17:
            break
    return max(0.0, min(1.0, 2.0 * total))


def ks_uniform_test(values: Sequence[float]) -> TestResult:
    """One-sample Kolmogorov-Smirnov test against the uniform distribution.

    The statistic is the exact sup-norm distance between the empirical CDF
    and U(0, 1), max over order statistics of max(i/n - v(i), v(i) - (i-1)/n).
    The p-value applies the asymptotic Kolmogorov tail to the small-sample
    rescaling (sqrt(n) + 0.12 + 0.11/sqrt(n)) * D.  It is an approximation:
    against the exact finite-n CDF (Marsaglia, Tsang & Wang 2003, in
    rational arithmetic on a grid of D with step 1/60) its largest absolute
    error was 0.019 at n = 5, 0.022 at n = 10 and 0.019 at n = 20.
    """
    n = len(values)
    if n == 0:
        raise ValueError("ks_uniform_test needs at least one value")
    # i/n, (i-1)/n and the differences are single IEEE operations, as in
    # the scalar formula, and max is exact, so D has the scalar bits.
    v = np.sort(_unit_interval_array("values", values))
    i = np.arange(1, n + 1)
    d = max(0.0, (i / n - v).max().item(), (v - (i - 1) / n).max().item())
    sqrt_n = math.sqrt(n)
    lam = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d
    return TestResult(statistic=d, p_value=kolmogorov_sf(lam), method="ks-uniform")


def quantile_type6(values: Sequence[float], p: float) -> float:
    """Sample quantile with (n+1)-position linear interpolation.

    Position h = (n + 1) * p is clamped to [1, n]; the result interpolates
    between the floor(h)-th and next order statistics.  This convention is
    what the cross-study summary tables are locked to.
    """
    n = len(values)
    if n == 0:
        raise ValueError("quantile of empty list")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    ordered = sorted(values)
    h = (n + 1) * p
    h = min(max(h, 1.0), float(n))
    lo = int(math.floor(h))
    frac = h - lo
    if lo >= n:
        return float(ordered[n - 1])
    return ordered[lo - 1] + frac * (ordered[lo] - ordered[lo - 1])
