"""Monte Carlo engine for selection-driven publication bias.

Each simulated study runs K correlated tests and reports one of them
according to a selection rule; searching a large test space and reporting
the best draw produces small p-values whose attached estimates are biased
away from the true effect, and mixtures of selected and honest studies
reproduce the bent p-value plots the audit diagnostics look for.

Each study draws a shared factor g and K noise terms e_j (standard
normal), forms z_j = delta + sqrt(rho) * g + sqrt(1 - rho) * e_j and
p_j = erfc(|z_j| / sqrt(2)), and reports one (p_j, z_j): the smallest p
(report-min-p), the first p below alpha or else the first test's
(report-first-significant), or a test picked by one integers(K) draw after
the study's normals (report-random).

Reproducibility contract: every replicate draws from its own
counter-based Philox stream keyed by (seed, replicate index), so
identical configs give bit-identical results regardless of execution
order, and aggregation always reduces in replicate order.

``run_simulation`` keeps one Philox generator and re-keys it in place for
each replicate.  It draws a block of replicates, selects across the whole
block with NumPy, and stores the selected studies as columns; a block
holds about 2**16 draws, so memory grows with the number of studies, not
with the draws.  The tests keep a scalar, study-by-study simulator as its
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from metaudit.statkernel import InputError, _check_int, _check_real

_SQRT_HALF = math.sqrt(0.5)

SELECTION_RULES = ("report-min-p", "report-first-significant", "report-random")

# Pre-flight budget: replicates * n_studies * (tests_per_study + 1) draws.
MAX_TOTAL_DRAWS = 10**9

U64_MAX = 2**64 - 1

# Normal draws per block of replicates (a whole replicate if it is larger).
# Larger blocks run no faster, and their temporaries outgrow the result
# columns: for 200k studies at K = 10, the peak is 35 MiB at 2**20, 7.4 at 2**16.
_BLOCK_DRAWS = 2**16

# Selection works on x = |z| * sqrt(1/2), where p = erfc(x).  math.erfc is
# accurate to a few ulps but not promised to be monotone, so every x within
# _X_TOL * (1 + x) of a decision is settled by math.erfc itself: that shift
# in x moves erfc by at least ~1e-9 relative, far above its rounding error.
_X_TOL = 1e-9
# From here on erfc(x) nears the subnormal range (from x ~ 26.55) and 0 (from
# x ~ 27.3), where distinct x can give equal p; min-p compares them exactly.
_X_SATURATE = 26.0


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation scenario.

    ``tests_per_study`` is the size K of the search space each analyst
    explores; ``correlation`` is the equicorrelation among a study's K test
    statistics; ``true_effect`` shifts every statistic on the z scale, with
    0 the null.  ``censor_at_alpha`` drops studies whose selected p-value
    fails the publication screen from the reported lists.  A field of the
    wrong type or out of its range raises InputError naming it, and the
    config is frozen after the check.
    """

    n_studies: int = 1
    tests_per_study: int = 1
    correlation: float = 0.0
    true_effect: float = 0.0
    selection_rule: str = "report-min-p"
    alpha: float = 0.05
    censor_at_alpha: bool = False
    replicates: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_studies", "tests_per_study", "replicates"):
            _check_int(name, getattr(self, name), 1, error=InputError)
        _check_int("seed", self.seed, 0, U64_MAX, "a 64-bit unsigned integer", InputError)
        for name in ("correlation", "true_effect", "alpha"):
            _check_real(name, getattr(self, name), InputError)
        if not 0.0 <= self.correlation < 1.0:
            raise InputError(
                f"correlation must be < 1 and >= 0, got {self.correlation!r}"
            )
        if not math.isfinite(self.true_effect):
            raise InputError(f"true_effect must be finite, got {self.true_effect!r}")
        if self.selection_rule not in SELECTION_RULES:
            raise InputError(
                f"selection_rule must be one of {', '.join(SELECTION_RULES)}, "
                f"got {self.selection_rule!r}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not isinstance(self.censor_at_alpha, bool):
            raise InputError(f"censor_at_alpha must be a bool, got {self.censor_at_alpha!r}")

    def total_draws(self) -> int:
        return self.replicates * self.n_studies * (self.tests_per_study + 1)


@dataclass(frozen=True, eq=False)
class SimResult:
    """Aggregated outcome of a simulation run.

    One entry per simulated study in replicate order, stored as read-only
    columns: ``replicate``, ``study``, ``p`` (selected p-value),
    ``estimate`` (selected z statistic) and ``published`` (p < alpha).
    ``reported`` masks the reported studies: the published ones when the
    run's ``config`` censors at alpha, all studies otherwise.
    ``bias`` is the signed mean estimate minus the true effect;
    ``mean_abs_estimate`` exposes the magnitude summary that the signed
    mean hides under the null.
    """

    replicate: np.ndarray = field(repr=False)
    study: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    estimate: np.ndarray = field(repr=False)
    published: np.ndarray = field(repr=False)
    config: SimConfig
    publication_rate: float
    bias: float
    abs_bias: float
    mean_abs_estimate: float

    @property
    def n_total(self) -> int:
        return len(self.p)

    @property
    def n_published(self) -> int:
        return int(np.count_nonzero(self.published))

    @property
    def reported(self) -> np.ndarray:
        """Boolean mask of the reported studies."""
        return self.published if self.config.censor_at_alpha else np.ones(self.n_total, dtype=bool)


class _RekeyedPhilox:
    """One Philox generator whose key is reset in place per replicate.

    ``rekey(r)`` puts the generator in the state of a new
    ``Philox(key=(seed << 64) | r)``: key words (r, seed), counter 0, empty
    output and 32-bit buffers.  That is several times cheaper than building
    a new generator.
    """

    def __init__(self, seed: int) -> None:
        self.bit_generator = np.random.Philox(0)
        self.generator = np.random.Generator(self.bit_generator)
        # Python ints, not uint64 arrays: the Philox.state setter reads each
        # word by index, and indexing an ndarray builds a NumPy scalar per
        # word, which made a re-key about three times as costly.
        self._key = [0, seed]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": self._key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rekey(self, replicate: int) -> np.random.Generator:
        self._key[0] = replicate
        self.bit_generator.state = self._state
        return self.generator


def _min_p_index(x: np.ndarray) -> np.ndarray:
    """Per row, the first index of the smallest erfc(x)."""
    best = x.argmax(axis=1)
    top = x[np.arange(len(x)), best]
    near = (x >= (top - _X_TOL * (1.0 + top))[:, None]) | (x >= _X_SATURATE)
    for row in np.flatnonzero(np.count_nonzero(near, axis=1) > 1):
        candidates = np.flatnonzero(near[row])
        p = [math.erfc(v) for v in x[row, candidates].tolist()]
        best[row] = candidates[p.index(min(p))]
    return best


def _significance_bounds(alpha: float) -> tuple[float, float]:
    """Adjacent doubles lo < hi with erfc(lo) >= alpha > erfc(hi)."""
    lo, hi = 0.0, 40.0  # erfc(0) = 1 >= alpha; erfc(40) = 0 < alpha
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if math.erfc(mid) < alpha:
            hi = mid
        else:
            lo = mid


def _first_significant_index(x: np.ndarray, alpha: float) -> np.ndarray:
    """Per row, the first index with erfc(x) < alpha, or 0 if there is none."""
    lo, hi = _significance_bounds(alpha)
    significant = x > hi + _X_TOL * (1.0 + hi)
    unsure = (x >= lo - _X_TOL * (1.0 + lo)) & ~significant
    for row, col in zip(*np.nonzero(unsure)):
        significant[row, col] = math.erfc(x[row, col]) < alpha
    return np.where(significant.any(axis=1), significant.argmax(axis=1), 0)


def run_simulation(config: SimConfig) -> SimResult:
    """Run the configured number of independent replicates.

    Identical configs produce bit-identical results: each replicate uses
    its keyed stream and all floating-point reductions run in replicate
    order, so the results equal those of simulating the studies one by one
    in replicate order.  A config of more than ``MAX_TOTAL_DRAWS`` draws
    raises InputError before any is made.
    """
    if config.total_draws() > MAX_TOTAL_DRAWS:
        raise InputError(
            f"resource limit: replicates * n_studies * (tests_per_study + 1) = "
            f"{config.total_draws()} draws exceeds the cap of {MAX_TOTAL_DRAWS}"
        )
    k, n_studies = config.tests_per_study, config.n_studies
    width = n_studies * (k + 1)
    n_total = config.replicates * n_studies
    load = math.sqrt(config.correlation)
    resid = math.sqrt(1.0 - config.correlation)
    rule = config.selection_rule
    philox = _RekeyedPhilox(config.seed)

    pvalues = np.empty(n_total)
    estimates = np.empty(n_total)
    per_block = max(1, _BLOCK_DRAWS // width)
    draws = np.empty((min(per_block, config.replicates), width))
    for start in range(0, config.replicates, per_block):
        stop = min(start + per_block, config.replicates)
        block = draws[: stop - start]
        studies = block.reshape(-1, k + 1)
        if rule == "report-random":
            # Each study's normals, then its pick.
            study_rows = iter(studies)
            picks = []
            for replicate in range(start, stop):
                stream = philox.rekey(replicate)
                for normals in islice(study_rows, n_studies):
                    stream.standard_normal(out=normals)
                    picks.append(stream.integers(k))
        else:
            for row, replicate in zip(block, range(start, stop)):
                philox.rekey(replicate).standard_normal(out=row)
        # (delta + load * g) + resid * e, in place; + and * commute exactly,
        # so the bits are those of the per-study formula.
        z = resid * studies[:, 1:]
        z += config.true_effect + load * studies[:, :1]
        x = np.abs(z)
        x *= _SQRT_HALF
        if rule == "report-min-p":
            chosen = _min_p_index(x)
        elif rule == "report-first-significant":
            chosen = _first_significant_index(x, config.alpha)
        else:
            chosen = np.array(picks)
        rows = np.arange(len(z))
        span = slice(start * n_studies, stop * n_studies)
        estimates[span] = z[rows, chosen]
        pvalues[span] = np.fromiter(map(math.erfc, x[rows, chosen].tolist()), float, len(rows))

    published = pvalues < config.alpha
    reported = published if config.censor_at_alpha else slice(None)
    selected = estimates[reported]
    if len(selected):
        mean_estimate = math.fsum(selected.tolist()) / len(selected)
        mean_abs = math.fsum(np.abs(selected).tolist()) / len(selected)
        bias = mean_estimate - config.true_effect
        abs_bias = mean_abs - abs(config.true_effect)
    else:
        bias = abs_bias = mean_abs = math.nan

    columns = (
        np.repeat(np.arange(config.replicates), n_studies),
        np.tile(np.arange(n_studies), config.replicates),
        pvalues,
        estimates,
        published,
    )
    for column in columns:
        column.flags.writeable = False
    return SimResult(
        *columns,
        config=config,
        publication_rate=int(np.count_nonzero(published)) / n_total,
        bias=bias,
        abs_bias=abs_bias,
        mean_abs_estimate=mean_abs,
    )
