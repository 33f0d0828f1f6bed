"""Kolmogorov-Smirnov comparator: statistic, simple-null critical values,
and Monte Carlo calibrated critical values for the regression setting.

Simple-null criticals invert the Kolmogorov limit distribution and apply
Stephens' finite-sample scale sqrt(n) + 0.12 + 0.11/sqrt(n), which is
accurate to within Monte Carlo noise for n >= 25.  When model parameters
are estimated (the regression pipeline), criticals are instead calibrated
by simulating the full null pipeline (Lilliefors), because published
location-scale tables do not match the leverage-standardized residuals
tested here.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

try:
    from fcntl import LOCK_EX, flock
except ImportError:  # no advisory file locks (Windows): puts are not serialised
    flock = None

from .numerics import eval_vectorized
from .results import TestResult, ks_decision
from .sampling import Normal, SeedSpec, check_count, check_row_trials, first_stream, seed_blocks

if TYPE_CHECKING:
    from .regression import LinearModelSpec

__all__ = [
    "ks_statistic",
    "kolmogorov_sf",
    "kolmogorov_critical",
    "ks_critical_simple",
    "run_ks_test",
    "CalibrationCache",
    "lilliefors_critical",
]


def ks_statistic(data, null_cdf: Callable) -> float | np.ndarray:
    """Two-sided sup gap between the empirical CDF and a hypothesized CDF.

    D = max_j max(j/n - F(z_(j)), F(z_(j)) - (j-1)/n) over the sorted data.
    A vector gives a float; a (B, n) block gives the B statistics of its
    rows, with the CDF evaluated once over the whole block.  NaN data
    raises ValueError.
    """
    x = np.sort(np.asarray(data, dtype=np.float64), axis=-1)
    if x.ndim not in (1, 2):
        raise ValueError("ks_statistic takes a vector or a (B, n) block")
    if x.size == 0:
        raise ValueError("ks_statistic requires nonempty data")
    if np.isnan(x[..., -1]).any():  # np.sort puts NaN last
        raise ValueError("ks_statistic requires data without NaN")
    n = x.shape[-1]
    f = eval_vectorized(null_cdf, x)
    j = np.arange(1, n + 1, dtype=np.float64)
    d_plus = np.max(j / n - f, axis=-1)
    d_minus = np.max(f - (j - 1.0) / n, axis=-1)
    if x.ndim == 1:
        return max(float(d_plus), float(d_minus), 0.0)
    return np.maximum(np.maximum(d_plus, d_minus), 0.0)


# terms of the alternating series that kolmogorov_sf sums
_KOLMOGOROV_TERMS = 100


def kolmogorov_sf(x: float) -> float:
    """Upper tail of the Kolmogorov limit distribution, 2 sum (-1)^{k-1} e^{-2k^2x^2}."""
    if x <= 0.0:
        return 1.0
    k = np.arange(1, _KOLMOGOROV_TERMS + 1, dtype=np.float64)
    with np.errstate(under="ignore"):
        s = 2.0 * float(np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k * k * x * x)))
    return min(max(s, 0.0), 1.0)


@functools.lru_cache(maxsize=64)
def kolmogorov_critical(alpha: float) -> float:
    """K with kolmogorov_sf(K) = alpha, by bisection on the alternating series.

    Cached: a power study asks for the same alpha once per row.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    lo, hi = 1e-3, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_sf(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _stephens_scale(n: int) -> float:
    """sqrt(n) + 0.12 + 0.11/sqrt(n): D times this is close to the
    Kolmogorov limit law already at small n (Stephens, JRSS B 1970)."""
    rn = math.sqrt(n)
    return rn + 0.12 + 0.11 / rn


def ks_critical_simple(n: int, alpha: float) -> float:
    """Finite-n corrected critical D for a fully specified null."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return kolmogorov_critical(alpha) / _stephens_scale(n)


def run_ks_test(data, null_cdf: Callable, critical: float) -> TestResult:
    """Decision wrapper: reject iff D exceeds the supplied critical value.

    The reported p-value is the asymptotic simple-null one and is only
    meaningful when critical came from ks_critical_simple.
    """
    d = ks_statistic(data, null_cdf)
    n = len(np.atleast_1d(np.asarray(data)))
    return ks_decision(d, critical, kolmogorov_sf(_stephens_scale(n) * d), "ks")


# ---------------------------------------------------------------------------
# Calibrated critical values for the regression pipeline
# ---------------------------------------------------------------------------


class CalibrationCache:
    """Line-oriented on-disk store of calibrated criticals.

    One record per line: n,alpha,k,trials,master_seed,critical, with k the
    design's coefficient count in plain digits.  The file is derivable
    from scratch and never authoritative; a missing or stale entry just
    triggers recalibration.  So does a damaged one: a malformed record, a
    record of an earlier format (a design id where k stands), or a torn
    final line without its newline, is skipped on load and never used as a
    critical value.  Concurrent writers are serialised by an exclusive
    lock on the file where the platform has one.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple, float] = {}
        self._load()

    @staticmethod
    def _key(n: int, alpha: float, k: int, trials: int, master_seed: int) -> tuple:
        # alphas that pick the same order statistic share a critical
        return (int(n), _critical_rank(alpha, trials), int(k), int(trials), int(master_seed))

    def _load(self) -> None:
        if not self.path.exists():
            return
        # the text after the last newline is a torn append, never a record
        for line in self.path.read_text().split("\n")[:-1]:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 6:
                continue
            n, alpha, k, trials, master_seed, critical = parts
            try:
                if k != str(int(k)):
                    continue  # not a k as put writes it: an earlier format's design id
                key = self._key(int(n), float(alpha), int(k), int(trials), int(master_seed))
                self._entries[key] = float(critical)
            except (ValueError, OverflowError):
                continue  # a malformed record is recalibrated, never used

    def get(self, n: int, alpha: float, k: int, trials: int, master_seed: int) -> float | None:
        return self._entries.get(self._key(n, alpha, k, trials, master_seed))

    def put(self, n: int, alpha: float, k: int, trials: int, master_seed: int, critical: float) -> None:
        key = self._key(n, alpha, k, trials, master_seed)
        if self._entries.get(key) == critical:
            return
        self._entries[key] = critical
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as fh:
            # one put at a time across processes: another writer's append
            # must not land between this read and the truncate below
            if flock is not None:
                flock(fh.fileno(), LOCK_EX)
            fh.seek(0)
            kept = fh.read()
            if not kept.endswith(b"\n"):
                # drop a torn final append, so this record starts a line of its
                # own and does not turn the fragment into a loadable record
                kept = kept[: kept.rfind(b"\n") + 1]
                fh.truncate(len(kept))
            record = f"{n},{float(alpha)!r},{k},{trials},{master_seed},{critical!r}\n"
            if not kept:
                record = "# n,alpha,k,trials,master_seed,critical\n" + record
            fh.write(record.encode())


def _critical_rank(alpha: float, trials: int) -> int:
    """The order statistic, ceil((1 - alpha) * trials), that calibrates alpha."""
    return math.ceil((1.0 - alpha) * trials)


def lilliefors_critical(
    model: "LinearModelSpec",
    n: int,
    alpha: float,
    trials: int,
    master_seed: int,
    cache: CalibrationCache | None = None,
) -> float:
    """Critical D from simulating the full null regression pipeline.

    Each trial draws a fresh design and N(0, 1) errors at the canonical
    null of model's design (beta = 0, sigma2 = 1, the same k), fits by
    least squares, standardizes residuals by their estimated standard
    deviation, and records the KS distance to the standard normal
    (regression.null_trial_ks_distance); the empirical (1 - alpha) quantile
    (ceil((1-alpha)*trials)-th order statistic) is returned.  Trial t draws
    from stream first_stream(n, calibration=True) + t, so the value is a pure
    function of (master_seed, n, the rank alpha picks, trials, k): models
    that share k share one critical, bit for bit, and cache entries are
    portable across runs.  The trials run in blocks (sampling.seed_blocks),
    which never changes a draw.
    """
    from .regression import null_trial_ks_distance, trial_words

    n = check_count("n", n)
    trials = check_row_trials("trials", trials)
    if trials < 1000:
        raise ValueError("calibration needs at least 1000 trials")
    SeedSpec(master_seed)  # a float seed would share the cache records of its integer part
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if n <= model.k:
        raise ValueError(f"calibration needs n > {model.k} (more observations than coefficients), got n = {n}")
    if cache is not None:
        hit = cache.get(n, alpha, model.k, trials, master_seed)
        if hit is not None:
            return hit
    first = first_stream(n, calibration=True)
    errors = Normal()
    blocks = seed_blocks(master_seed, first, first + trials, trial_words(model, n, errors), errors)
    distances = np.concatenate([null_trial_ks_distance(model, n, seed, count) for seed, count in blocks])
    distances.sort()
    rank = _critical_rank(alpha, trials)  # 1 <= rank <= trials, as 0 < alpha < 1
    critical = float(distances[rank - 1])
    if cache is not None:
        cache.put(n, alpha, model.k, trials, master_seed, critical)
    return critical
