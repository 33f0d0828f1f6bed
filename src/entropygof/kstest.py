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
from .results import TestResult, check_dataset, ks_decision
from .sampling import Normal, SeedSpec, check_count, check_row_trials, first_stream, seed_blocks

if TYPE_CHECKING:
    from .regression import LinearModelSpec

__all__ = [
    "ks_statistic",
    "ks_bands",
    "kolmogorov_sf",
    "kolmogorov_critical",
    "ks_critical_simple",
    "run_ks_test",
    "CalibrationCache",
    "lilliefors_critical",
]


def ks_statistic(data, null_cdf: Callable, bands: tuple[np.ndarray, ...] | None = None) -> float | np.ndarray:
    """Two-sided sup gap between the empirical CDF and a hypothesized CDF.

    D = max_j max(j/n - F(z_(j)), F(z_(j)) - (j-1)/n) over the sorted data.
    A vector gives a float; a (B, n) block gives the B statistics of its
    rows, with the CDF evaluated once over the whole block.  NaN data
    raises ValueError.

    With bands, ks_bands(null_cdf, n, critical) for the data's n, each row
    is decided rather than measured: it gives +inf where D > critical, 0.0
    where D <= critical, and D itself where an order statistic lies within
    about _BAND_MARGIN (in probability) of a band bound, so that
    `> critical` is the same row for row as on D.  Bands of another length
    raise ValueError.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"ks_statistic takes a vector or a (B, n) block, got shape {x.shape}")
    x = np.sort(x, axis=-1)
    if x.size == 0:
        raise ValueError("ks_statistic requires nonempty data")
    if np.isnan(x[..., -1]).any():  # np.sort puts NaN last
        raise ValueError("ks_statistic requires data without NaN")
    if bands is None:
        return _sup_gap(x, null_cdf)
    n = x.shape[-1]
    if any(len(band) != n for band in bands):
        raise ValueError(f"bands of length {len(bands[0])} do not fit data of n = {n}")
    low_reject, low_accept, high_accept, high_reject = bands
    rows = x.reshape(-1, n)
    reject = ((rows <= low_reject) | (rows >= high_reject)).any(axis=-1)
    settled = reject | ((rows >= low_accept) & (rows <= high_accept)).all(axis=-1)
    d = np.where(reject, np.inf, 0.0)
    margin = np.flatnonzero(~settled)
    if margin.size:
        d[margin] = _sup_gap(rows[margin] if x.ndim == 2 else x, null_cdf)
    return d if x.ndim == 2 else float(d[0])


def _sup_gap(x: np.ndarray, null_cdf: Callable) -> float | np.ndarray:
    """D of sorted data, a vector or a (B, n) block."""
    n = x.shape[-1]
    f = eval_vectorized(null_cdf, x)
    j = np.arange(1, n + 1, dtype=np.float64)
    d_plus = np.max(j / n - f, axis=-1)
    d_minus = np.max(f - (j - 1.0) / n, axis=-1)
    if x.ndim == 1:
        return max(float(d_plus), float(d_minus), 0.0)
    return np.maximum(np.maximum(d_plus, d_minus), 0.0)


# ---------------------------------------------------------------------------
# KS acceptance bands (Massey, JASA 1951): D > c iff some order statistic
# x_(j) leaves [F^-1(j/n - c), F^-1((j-1)/n + c)]
# ---------------------------------------------------------------------------

# Margin, in probability, between a band bound and the CDF values it
# certifies; order statistics closer than about this to a bound get the
# exact D.  It is far above the CDFs' rounding (about 1e-12) and equals the
# margin audit's delta (ROADMAP item 7).
_BAND_MARGIN = 1e-6
_DBL_MAX = np.finfo(np.float64).max
# flips the magnitude bits of a negative double, so that its bits read as an
# int64 order as the doubles do (and back again)
_MAGNITUDE = np.int64(2**63 - 1)


def _flip(bits: np.ndarray) -> np.ndarray:
    return bits ^ ((bits >> 63) & _MAGNITUDE)


def ks_bands(null_cdf: Callable, n: int, critical: float) -> tuple[np.ndarray, ...]:
    """(low_reject, low_accept, high_accept, high_reject): the KS acceptance
    bands of null_cdf at n and a critical D > 0, read-only, each of length n.

    j/n - F(x_(j)) > c iff F(x_(j)) lies below about phi_j = j/n - c, and
    F(x_(j)) - (j-1)/n > c iff it lies above about psi_j = (j-1)/n + c.  So
    with F non-decreasing to within delta/2 (delta = _BAND_MARGIN), a row
    certainly rejects when some x_(j) <= low_reject[j], where F < phi_j -
    delta, or x_(j) >= high_reject[j], where F >= psi_j + delta; it
    certainly does not when every x_(j) lies in [low_accept[j],
    high_accept[j]], where phi_j + delta <= F < psi_j - delta.  A bound
    that no double in [-DBL_MAX, DBL_MAX] certifies is NaN, which no data
    passes.  The decisions need null_cdf to be non-decreasing to within
    delta / 2 and a number at every point, as the package's CDFs are.
    """
    if check_count("n", n) < 1:
        raise ValueError("n must be >= 1")
    if not critical > 0.0:
        raise ValueError(f"critical must be positive, got {critical}")
    j = np.arange(1, n + 1, dtype=np.float64)
    phi, psi = j / n - critical, (j - 1.0) / n + critical
    targets = np.concatenate([phi - _BAND_MARGIN, phi + _BAND_MARGIN, psi - _BAND_MARGIN, psi + _BAND_MARGIN])
    below, above = _bracket(null_cdf, targets)
    bands = (below[:n], above[n : 2 * n], below[2 * n : 3 * n], above[3 * n :])
    for band in bands:
        band.flags.writeable = False
    return bands


def _bracket(null_cdf: Callable, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doubles lo with F(lo) < p and hi with F(hi) >= p, per target, NaN
    where the search holds none.

    Bisects over the ordered bits of the doubles in [-DBL_MAX, DBL_MAX],
    from the CDF at both ends, until the two bounds are adjacent doubles or
    their CDF values lie within _BAND_MARGIN: about 30 steps near the
    bulk, one CDF call over all targets each.
    """
    lo = np.full(p.shape, _flip(np.array(-_DBL_MAX).view(np.int64)))
    hi = np.full(p.shape, np.array(_DBL_MAX).view(np.int64))
    f_lo = eval_vectorized(null_cdf, _flip(lo).view(np.float64))
    f_hi = eval_vectorized(null_cdf, _flip(hi).view(np.float64))
    # a target at or below F(-DBL_MAX) has hi there, one above F(DBL_MAX) lo there
    low, high = f_lo >= p, f_hi < p
    hi[low], f_hi[low] = lo[low], f_lo[low]
    lo[high], f_lo[high] = hi[high], f_hi[high]
    while True:
        open_ = np.flatnonzero((f_lo < p) & (p <= f_hi) & (lo + 1 < hi) & (f_hi - f_lo > _BAND_MARGIN))
        if not open_.size:
            break
        a, b = lo[open_], hi[open_]
        mid = (a >> 1) + (b >> 1) + (a & b & 1)  # floor((a + b) / 2), without overflow
        f_mid = eval_vectorized(null_cdf, _flip(mid).view(np.float64))
        left = f_mid < p[open_]
        lo[open_[left]], f_lo[open_[left]] = mid[left], f_mid[left]
        hi[open_[~left]], f_hi[open_[~left]] = mid[~left], f_mid[~left]
    lo_x, hi_x = _flip(lo).view(np.float64), _flip(hi).view(np.float64)
    return np.where(f_lo < p, lo_x, np.nan), np.where(f_hi >= p, hi_x, np.nan)


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

    A ks-simple study asks for one alpha once per sample size, and the CLI
    once per test.  Cached, because a call is 200 bisection steps over the
    100-term series: a few milliseconds.
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
    if check_count("n", n) < 1:
        raise ValueError("n must be >= 1")
    return kolmogorov_critical(alpha) / _stephens_scale(n)


def run_ks_test(data, null_cdf: Callable, critical: float) -> TestResult:
    """Decision wrapper: reject iff D exceeds the supplied critical value.

    The reported p-value is the asymptotic simple-null one and is only
    meaningful when critical came from ks_critical_simple.
    """
    x = check_dataset("data", data)
    d = ks_statistic(x, null_cdf)
    return ks_decision(d, critical, kolmogorov_sf(_stephens_scale(len(x)) * d), "ks")


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


def check_calibration_trials(name: str, trials) -> int:
    """check_row_trials of a calibration's trial count, at least 1000."""
    trials = check_row_trials(name, trials)
    if trials < 1000:
        raise ValueError(f"calibration needs at least 1000 trials, got {name} = {trials}")
    return trials


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
    trials = check_calibration_trials("trials", trials)
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
