"""Kolmogorov-Smirnov comparator: statistic, simple-null critical values,
and Monte Carlo calibrated critical values for the regression setting.

Simple-null criticals invert the Kolmogorov limit distribution and apply
the finite-sample denominator sqrt(n) + 0.12 + 0.11/sqrt(n), which is
accurate to within Monte Carlo noise for n >= 25.  When model parameters
are estimated (the regression pipeline), criticals are instead calibrated
by simulating the full null pipeline, because published location-scale
tables do not match the leverage-standardized residuals tested here.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

try:
    from fcntl import LOCK_EX, flock
except ImportError:  # no advisory file locks (Windows): puts are not serialised
    flock = None

from .results import TestResult
from .sampling import SeedSpec, seed_blocks

if TYPE_CHECKING:
    from .regression import LinearModelSpec

__all__ = [
    "ks_statistic",
    "kolmogorov_sf",
    "kolmogorov_critical",
    "ks_critical_simple",
    "run_ks_test",
    "KsCriticalTable",
    "CalibrationCache",
    "lilliefors_calibrate",
    "lilliefors_critical",
    "CAL_STREAM_BASE",
]

# calibration streams live far above harness row streams (row_idx * 2^32 + trial)
CAL_STREAM_BASE = 1 << 62


def ks_statistic(data, null_cdf: Callable) -> float | np.ndarray:
    """Two-sided sup gap between the empirical CDF and a hypothesized CDF.

    D = max_j max(j/n - F(z_(j)), F(z_(j)) - (j-1)/n) over the sorted data.
    A vector gives a float; a (B, n) block gives the B statistics of its
    rows, with the CDF evaluated once over the whole block.
    """
    x = np.sort(np.asarray(data, dtype=np.float64), axis=-1)
    if x.ndim not in (1, 2):
        raise ValueError("ks_statistic takes a vector or a (B, n) block")
    if x.size == 0:
        raise ValueError("ks_statistic requires nonempty data")
    n = x.shape[-1]
    try:
        f = np.asarray(null_cdf(x), dtype=np.float64)
        if f.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        f = np.array([float(null_cdf(float(v))) for v in x.ravel()]).reshape(x.shape)
    j = np.arange(1, n + 1, dtype=np.float64)
    d_plus = np.max(j / n - f, axis=-1)
    d_minus = np.max(f - (j - 1.0) / n, axis=-1)
    if x.ndim == 1:
        return max(float(d_plus), float(d_minus), 0.0)
    return np.maximum(np.maximum(d_plus, d_minus), 0.0)


def kolmogorov_sf(x: float, terms: int = 100) -> float:
    """Upper tail of the Kolmogorov limit distribution, 2 sum (-1)^{k-1} e^{-2k^2x^2}."""
    if x <= 0.0:
        return 1.0
    k = np.arange(1, terms + 1, dtype=np.float64)
    with np.errstate(under="ignore"):
        s = 2.0 * float(np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k * k * x * x)))
    return min(max(s, 0.0), 1.0)


@functools.lru_cache(maxsize=64)
def kolmogorov_critical(alpha: float, terms: int = 100) -> float:
    """K with kolmogorov_sf(K) = alpha, by bisection on the alternating series.

    Cached: a power study asks for the same alpha once per row.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    lo, hi = 1e-3, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_sf(mid, terms) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ks_critical_simple(n: int, alpha: float) -> float:
    """Finite-n corrected critical D for a fully specified null."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k_alpha = kolmogorov_critical(alpha)
    rn = math.sqrt(n)
    return k_alpha / (rn + 0.12 + 0.11 / rn)


def run_ks_test(data, null_cdf: Callable, critical: float) -> TestResult:
    """Decision wrapper: reject iff D exceeds the supplied critical value.

    The reported p-value is the asymptotic simple-null one and is only
    meaningful when critical came from ks_critical_simple.
    """
    if not critical > 0.0:
        raise ValueError("critical must be positive")
    d = ks_statistic(data, null_cdf)
    n = len(np.atleast_1d(np.asarray(data)))
    rn = math.sqrt(n)
    p_value = kolmogorov_sf((rn + 0.12 + 0.11 / rn) * d)
    return TestResult(
        statistic=d,
        critical=critical,
        p_value=p_value,
        reject=bool(d > critical),
        method="ks",
    )


# ---------------------------------------------------------------------------
# Calibrated critical values for the regression pipeline
# ---------------------------------------------------------------------------


@dataclass
class KsCriticalTable:
    """Calibrated critical D values per sample size at one alpha."""

    alpha: float
    entries: dict[int, float] = field(default_factory=dict)

    def critical_for(self, n: int) -> float:
        try:
            return self.entries[n]
        except KeyError:
            raise LookupError(
                f"no calibrated critical for n={n} at alpha={self.alpha}; "
                f"run lilliefors_critical (or the CLI calibrate command) first"
            ) from None


class CalibrationCache:
    """Line-oriented on-disk store of calibrated criticals.

    One record per line: n,alpha,design_hash,trials,master_seed,critical.
    The file is derivable from scratch and never authoritative; a missing
    or stale entry just triggers recalibration.  So does a damaged one: a
    malformed record, or a torn final line without its newline, is skipped
    on load and never used as a critical value.  Concurrent writers are
    serialised by an exclusive lock on the file where the platform has one.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple, float] = {}
        self._load()

    @staticmethod
    def _key(n: int, alpha: float, design_hash: str, trials: int, master_seed: int) -> tuple:
        return (int(n), format(float(alpha), ".10g"), design_hash, int(trials), int(master_seed))

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
            n, alpha, design_hash, trials, master_seed, critical = parts
            try:
                key = self._key(int(n), float(alpha), design_hash, int(trials), int(master_seed))
                self._entries[key] = float(critical)
            except ValueError:
                continue  # a malformed record is recalibrated, never used

    def get(self, n: int, alpha: float, design_hash: str, trials: int, master_seed: int) -> float | None:
        return self._entries.get(self._key(n, alpha, design_hash, trials, master_seed))

    def put(
        self, n: int, alpha: float, design_hash: str, trials: int, master_seed: int, critical: float
    ) -> None:
        key = self._key(n, alpha, design_hash, trials, master_seed)
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
            record = f"{n},{format(float(alpha), '.10g')},{design_hash},{trials},{master_seed},{critical!r}\n"
            if not kept:
                record = "# n,alpha,design_hash,trials,master_seed,critical\n" + record
            fh.write(record.encode())


def design_hash(model: "LinearModelSpec") -> str:
    """Stable id of the design-generation rule (criticals do not depend on beta/sigma2)."""
    text = f"intercept+uniform01,k={len(model.beta)}"
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def lilliefors_calibrate(
    n: int,
    alpha: float,
    model: "LinearModelSpec",
    trials: int,
    seed: SeedSpec,
) -> float:
    """Critical D from simulating the full null regression pipeline.

    Each trial draws a fresh design and normal errors, fits by least
    squares, standardizes residuals by their estimated standard deviation,
    and records the KS distance to the standard normal; the empirical
    (1 - alpha) quantile (ceil((1-alpha)*trials)-th order statistic) is
    returned.  Deterministic given seed; trial t uses stream_id + t.  The
    trials run in blocks (sampling.seed_blocks), which never changes a draw.
    """
    from .regression import null_trial_ks_distance

    if trials < 1000:
        raise ValueError("calibration needs at least 1000 trials")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    first = seed.stream_id
    distances = np.concatenate(
        [null_trial_ks_distance(model, n, seeds) for seeds in seed_blocks(seed.master_seed, first, first + trials, n)]
    )
    distances.sort()
    rank = math.ceil((1.0 - alpha) * trials)  # alpha -> 1 gives rank 0: criticals degenerate to 0
    if rank <= 0:
        return 0.0
    return float(distances[rank - 1])


def lilliefors_critical(
    model: "LinearModelSpec",
    n: int,
    alpha: float,
    trials: int,
    master_seed: int,
    cache: CalibrationCache | None = None,
) -> float:
    """Cache-aware calibrated critical with the canonical stream layout.

    Calibration streams start at CAL_STREAM_BASE + n * 2**32, so the value
    is a pure function of (master_seed, n, alpha, trials, design rule) and
    on-disk cache entries are portable across runs.
    """
    dh = design_hash(model)
    if cache is not None:
        hit = cache.get(n, alpha, dh, trials, master_seed)
        if hit is not None:
            return hit
    base = SeedSpec(master_seed, CAL_STREAM_BASE + n * (1 << 32))
    critical = lilliefors_calibrate(n, alpha, model, trials, base)
    if cache is not None:
        cache.put(n, alpha, dh, trials, master_seed, critical)
    return critical
