"""Monte Carlo power-study engine: seeded trial streams, deterministic
reduction, CSV/SVG emission, and a flat key-value config format.

Trial t of row r (rows enumerate alternative-by-sample-size cells) always
draws from stream r * 2**32 + t of the study's master seed, so results are
bit-identical for any worker count, execution order and block size.  Calibration
runs for the KS regression test use a disjoint stream range (see kstest).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .kstest import CalibrationCache, KsCriticalTable, ks_critical_simple, ks_statistic, lilliefors_critical
from .maxent import solve_maxent
from .moments import null_constraint, standardize
from .numerics import chi2_1_critical, normal_cdf
from .regression import (
    DegenerateTrialError,
    LinearModelSpec,
    ols_fit,
    ratio_transform,
    simulate_model,
    standardized_residuals,
)
from .sampling import (
    ARProcess,
    Cauchy,
    CenteredLogNormal,
    DistributionSpec,
    Exponential,
    MAProcess,
    Normal,
    SeedSpec,
    StudentT,
    Uniform,
    cdf,
    sample,
    seed_blocks,
    spec_label,
)

__all__ = [
    "TEST_KINDS",
    "PowerStudyConfig",
    "PowerRow",
    "PowerTable",
    "run_power_study",
    "emit_power_csv",
    "read_power_csv",
    "emit_power_svg",
    "parse_distribution",
    "load_config",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 123456789
_ROW_STRIDE = 1 << 32

CSV_HEADER = "test,alternative,n,alpha,trials,rejections,power,se"


@dataclass(frozen=True)
class TestKind:
    """One test of a power study, defined once.

    context(config, cache) runs once per study, before any trial, and
    returns what every trial needs (it travels to the workers inside each
    chunk); statistic(context, alt, n, seeds) runs the block of trials
    named by a list of seeds and returns one statistic per trial;
    critical(context, alpha, n) is a row's critical value.  A trial
    rejects when its statistic exceeds the critical value.  Entries call
    the layer functions by their names in this module, so tracing that
    rebinds those names sees every call.
    """

    regression: bool
    min_n: int
    context: Callable
    statistic: Callable
    critical: Callable


def _chi2_critical(context, alpha: float, n: int) -> float:
    return chi2_1_critical(alpha)


def _et_simple_context(config: PowerStudyConfig, cache) -> tuple:
    # the quadrature target is computed here once and shipped as an exact float
    return null_constraint(config.null_spec)


def _et_simple_statistic(context, alt: DistributionSpec, n: int, seeds: list[SeedSpec]):
    mu, sigma, constraint = context
    g = constraint.values(standardize(sample(alt, n, seeds), mu, sigma))
    return np.array([solve_maxent(row).statistic for row in g])


def _ks_simple_context(config: PowerStudyConfig, cache) -> Callable:
    return partial(cdf, config.null_spec)


def _ks_simple_statistic(null_cdf, alt: DistributionSpec, n: int, seeds: list[SeedSpec]):
    return ks_statistic(sample(alt, n, seeds), null_cdf)


def _ks_simple_critical(context, alpha: float, n: int) -> float:
    return ks_critical_simple(n, alpha)


def _et_regression_context(config: PowerStudyConfig, cache) -> LinearModelSpec:
    return config.null_spec


def _et_regression_statistic(model: LinearModelSpec, alt: DistributionSpec, n: int, seeds: list[SeedSpec]):
    y, X = simulate_model(model, n, seeds, error_process=alt)
    z = ratio_transform(ols_fit(y, X).residuals)
    return np.array([solve_maxent(row).statistic for row in np.sin(z)])


def _ks_regression_context(config: PowerStudyConfig, cache) -> tuple:
    return config.null_spec, ensure_lilliefors_table(config, cache)


def _ks_regression_statistic(context, alt: DistributionSpec, n: int, seeds: list[SeedSpec]):
    y, X = simulate_model(context[0], n, seeds, error_process=alt)
    return ks_statistic(standardized_residuals(ols_fit(y, X)), normal_cdf)


def _ks_regression_critical(context, alpha: float, n: int) -> float:
    return context[1].critical_for(n)


TEST_KINDS: dict[str, TestKind] = {
    # name: TestKind(regression, min_n, context, statistic, critical)
    "et-simple": TestKind(False, 2, _et_simple_context, _et_simple_statistic, _chi2_critical),
    "ks-simple": TestKind(False, 1, _ks_simple_context, _ks_simple_statistic, _ks_simple_critical),
    "et-regression": TestKind(True, 4, _et_regression_context, _et_regression_statistic, _chi2_critical),
    "ks-regression": TestKind(True, 4, _ks_regression_context, _ks_regression_statistic, _ks_regression_critical),
}

# the nulls of a simple study have a marginal distribution; et-simple's
# context also needs a CF constraint for its null, which null_constraint checks
_SIMPLE_NULLS = (Normal, Uniform, Exponential, Cauchy, StudentT, CenteredLogNormal)


@dataclass(frozen=True)
class PowerStudyConfig:
    """Everything needed to reproduce one rejection-rate grid."""

    test: str
    alternatives: tuple[DistributionSpec, ...]
    sample_sizes: tuple[int, ...]
    alpha: float = 0.05
    trials: int = 10000
    master_seed: int = DEFAULT_SEED
    null_spec: Union[DistributionSpec, LinearModelSpec] = Normal(0.0, 1.0)
    labels: tuple[str, ...] | None = None
    lilliefors_trials: int = 20000

    def __post_init__(self) -> None:
        if self.test not in TEST_KINDS:
            raise ValueError(f"test must be one of {tuple(TEST_KINDS)}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.trials < 100:
            raise ValueError("trials must be at least 100")
        if not self.alternatives:
            raise ValueError("at least one alternative is required")
        kind = TEST_KINDS[self.test]
        if not self.sample_sizes or any(n < kind.min_n for n in self.sample_sizes):
            raise ValueError(f"{self.test} needs sample sizes >= {kind.min_n}")
        if kind.regression and not isinstance(self.null_spec, LinearModelSpec):
            raise ValueError("regression tests need a LinearModelSpec null")
        if not kind.regression and not isinstance(self.null_spec, _SIMPLE_NULLS):
            raise ValueError("simple tests need an iid distribution null, not a model or a process")
        if any(isinstance(alt, LinearModelSpec) for alt in self.alternatives):
            raise ValueError("alternatives are distributions or error processes, not model specs")
        if self.labels is not None and len(self.labels) != len(self.alternatives):
            raise ValueError("labels must match alternatives one-to-one")

    def row_label(self, alt_index: int) -> str:
        if self.labels is not None:
            return self.labels[alt_index]
        return spec_label(self.alternatives[alt_index])


@dataclass(frozen=True)
class PowerRow:
    test: str
    alternative: str
    n: int
    alpha: float
    trials: int
    rejections: int
    failures: int = 0

    @property
    def power(self) -> float:
        return self.rejections / self.trials

    @property
    def se(self) -> float:
        p = self.power
        return math.sqrt(p * (1.0 - p) / self.trials)


@dataclass
class PowerTable:
    rows: list[PowerRow] = field(default_factory=list)

    def alternatives(self) -> list[str]:
        seen: list[str] = []
        for row in self.rows:
            if row.alternative not in seen:
                seen.append(row.alternative)
        return seen

    def lookup(self, alternative: str, n: int) -> PowerRow:
        for row in self.rows:
            if row.alternative == alternative and row.n == n:
                return row
        raise LookupError(f"no row ({alternative!r}, n={n})")


# ---------------------------------------------------------------------------
# Study engine
# ---------------------------------------------------------------------------


def _block_outcome(statistic: Callable, context, alt, n: int, seeds: list[SeedSpec], critical) -> tuple[int, int]:
    """(rejections, failures) of one block of trials.

    A degenerate trial spoils its block's call, so that block runs again
    one trial at a time: each degenerate trial counts as one failure,
    whatever the block size.
    """
    try:
        return int(np.count_nonzero(statistic(context, alt, n, seeds) > critical)), 0
    except DegenerateTrialError:
        if len(seeds) == 1:
            return 0, 1
        outcomes = [_block_outcome(statistic, context, alt, n, [seed], critical) for seed in seeds]
        return sum(r for r, _ in outcomes), sum(f for _, f in outcomes)


def _run_chunk(payload) -> tuple[int, int]:
    """(rejections, failures) over one contiguous trial range; worker-safe.

    The range runs in blocks (sampling.seed_blocks); trial t still draws
    from its own stream, so the counts do not depend on the blocks.
    """
    test, alt, n, master_seed, row_idx, t_start, t_stop, context, critical = payload
    statistic = TEST_KINDS[test].statistic
    base = row_idx * _ROW_STRIDE
    rejections = failures = 0
    for seeds in seed_blocks(master_seed, base + t_start, base + t_stop, n):
        r, f = _block_outcome(statistic, context, alt, n, seeds, critical)
        rejections += r
        failures += f
    return rejections, failures


def ensure_lilliefors_table(
    config: PowerStudyConfig, cache: CalibrationCache | None = None
) -> KsCriticalTable:
    """Calibrated criticals for every sample size of a ks-regression study."""
    entries = {
        n: lilliefors_critical(
            config.null_spec, n, config.alpha, config.lilliefors_trials, config.master_seed, cache
        )
        for n in config.sample_sizes
    }
    return KsCriticalTable(alpha=config.alpha, entries=entries)


def run_power_study(
    config: PowerStudyConfig,
    workers: int = 1,
    cache: CalibrationCache | None = None,
    progress: Callable[[PowerRow], None] | None = None,
) -> PowerTable:
    """Rejection-rate grid over (alternative, n); deterministic given the seed.

    Trials draw from per-trial streams (row index * 2**32 + trial index), so
    the output is identical for any worker count.  Degenerate trials
    (DegenerateTrialError) are tallied per row, and a rate above 0.1% aborts
    the run; any other error propagates.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    kind = TEST_KINDS[config.test]
    context = kind.context(config, cache)

    rows: list[PowerRow] = []
    row_specs = [
        (alt_idx, alt, n)
        for alt_idx, alt in enumerate(config.alternatives)
        for n in config.sample_sizes
    ]
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for row_idx, (alt_idx, alt, n) in enumerate(row_specs):
            critical = kind.critical(context, config.alpha, n)
            bounds = np.linspace(0, config.trials, (workers if pool else 1) + 1).astype(int)
            payloads = [
                (config.test, alt, n, config.master_seed, row_idx, int(lo), int(hi), context, critical)
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            if pool:
                results = list(pool.map(_run_chunk, payloads))
            else:
                results = [_run_chunk(p) for p in payloads]
            rejections = sum(r for r, _ in results)
            failures = sum(f for _, f in results)
            if failures > 0.001 * config.trials:
                raise RuntimeError(
                    f"row ({config.row_label(alt_idx)!r}, n={n}): {failures} trial failures "
                    f"out of {config.trials} exceeds the 0.1% budget"
                )
            row = PowerRow(
                test=config.test,
                alternative=config.row_label(alt_idx),
                n=n,
                alpha=config.alpha,
                trials=config.trials,
                rejections=rejections,
                failures=failures,
            )
            rows.append(row)
            if progress is not None:
                progress(row)
    finally:
        if pool:
            pool.shutdown()
    return PowerTable(rows=rows)


# ---------------------------------------------------------------------------
# CSV / SVG emission
# ---------------------------------------------------------------------------


def emit_power_csv(table: PowerTable, path: str | Path) -> None:
    """Write the fixed 8-column schema; numeric reals at 6 significant digits."""
    if not table.rows:
        raise ValueError("refusing to write an empty power table")
    lines = [CSV_HEADER]
    for r in table.rows:
        if "," in r.alternative:
            raise ValueError(f"row label {r.alternative!r} may not contain commas")
        lines.append(
            f"{r.test},{r.alternative},{r.n},{r.alpha:.6g},{r.trials},{r.rejections},{r.power:.6g},{r.se:.6g}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_power_csv(path: str | Path) -> PowerTable:
    """Parse a file produced by emit_power_csv back into a PowerTable."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized power CSV header in {path}")
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        test, alternative, n, alpha, trials, rejections, _power, _se = line.split(",")
        rows.append(
            PowerRow(
                test=test,
                alternative=alternative,
                n=int(n),
                alpha=float(alpha),
                trials=int(trials),
                rejections=int(rejections),
            )
        )
    return PowerTable(rows=rows)


_SVG_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)
_SVG_W, _SVG_H = 720, 460
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 60, 170, 30, 50


def emit_power_svg(table: PowerTable, path: str | Path) -> None:
    """Self-contained SVG: one power polyline per alternative over n, plus a
    dashed red reference line at the significance level."""
    if not table.rows:
        raise ValueError("refusing to plot an empty power table")
    ns = sorted({r.n for r in table.rows})
    alpha = table.rows[0].alpha
    x0, x1 = _SVG_ML, _SVG_W - _SVG_MR
    y0, y1 = _SVG_H - _SVG_MB, _SVG_MT
    span = max(ns) - min(ns)

    def sx(n: int) -> float:
        if span == 0:
            return 0.5 * (x0 + x1)
        return x0 + (x1 - x0) * (n - min(ns)) / span

    def sy(p: float) -> float:
        return y0 + (y1 - y0) * p

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(tick)
        parts.append(f'<line x1="{x0 - 4}" y1="{y:.1f}" x2="{x0}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{y + 4:.1f}" text-anchor="end">{tick:g}</text>')
    for n in ns:
        x = sx(n)
        parts.append(f'<line x1="{x:.1f}" y1="{y0}" x2="{x:.1f}" y2="{y0 + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{y0 + 18}" text-anchor="middle">{n}</text>')
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_SVG_H - 12}" text-anchor="middle">sample size n</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">rejection rate</text>'
    )
    # significance reference line
    ya = sy(alpha)
    parts.append(
        f'<line x1="{x0}" y1="{ya:.1f}" x2="{x1}" y2="{ya:.1f}" stroke="#d62728" '
        f'stroke-dasharray="6,4"/>'
    )
    parts.append(f'<text x="{x1 + 6}" y="{ya + 4:.1f}" fill="#d62728">alpha = {alpha:g}</text>')
    for i, alt in enumerate(table.alternatives()):
        color = _SVG_PALETTE[i % len(_SVG_PALETTE)]
        pts = sorted(
            ((r.n, r.power) for r in table.rows if r.alternative == alt), key=lambda t: t[0]
        )
        coords = " ".join(f"{sx(n):.1f},{sy(p):.1f}" for n, p in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        for n, p in pts:
            parts.append(f'<circle cx="{sx(n):.1f}" cy="{sy(p):.1f}" r="2.5" fill="{color}"/>')
        ly = y1 + 16 * i + 10
        parts.append(f'<line x1="{x1 + 10}" y1="{ly}" x2="{x1 + 34}" y2="{ly}" stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{x1 + 40}" y="{ly + 4}">{alt}</text>')
    parts.append(f'<text x="{x0}" y="{_SVG_MT - 10}" font-size="14">{table.rows[0].test}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Flat key-value config files
# ---------------------------------------------------------------------------


def parse_distribution(text: str, innovation: DistributionSpec | None = None) -> DistributionSpec:
    """Parse the colon grammar: tag:param:param (e.g. normal:0:1, ar:0.5:0.25).

    AR/MA entries take their innovation from the surrounding context
    (regression configs use Normal(0, sqrt(sigma2))).
    """
    parts = [p.strip() for p in text.strip().split(":")]
    tag, args = parts[0].lower(), parts[1:]
    try:
        vals = [float(a) for a in args]
    except ValueError as exc:
        raise ValueError(f"bad distribution parameters in {text!r}") from exc
    if tag in ("normal", "n"):
        mu = vals[0] if vals else 0.0
        sigma = vals[1] if len(vals) > 1 else 1.0
        return Normal(mu, sigma)
    if tag == "uniform":
        if len(vals) != 2:
            raise ValueError("uniform needs low:high")
        return Uniform(vals[0], vals[1])
    if tag in ("exponential", "expo"):
        rate = vals[0] if vals else 1.0
        shift = vals[1] if len(vals) > 1 else 0.0
        return Exponential(rate, shift)
    if tag == "cauchy":
        loc = vals[0] if vals else 0.0
        scale = vals[1] if len(vals) > 1 else 1.0
        return Cauchy(loc, scale)
    if tag == "t":
        if not vals:
            raise ValueError("t needs dof")
        scale = vals[1] if len(vals) > 1 else 1.0
        return StudentT(int(vals[0]), scale)
    if tag == "clognormal":
        if len(vals) != 1:
            raise ValueError("clognormal needs sigma2_log")
        return CenteredLogNormal(vals[0])
    if tag == "ar":
        if not vals:
            raise ValueError("ar needs coefficients")
        return ARProcess(tuple(vals), innovation or Normal(0.0, 1.0))
    if tag == "ma":
        if not vals:
            raise ValueError("ma needs coefficients")
        return MAProcess(tuple(vals), innovation or Normal(0.0, 1.0))
    raise ValueError(f"unknown distribution tag {tag!r} in {text!r}")


def _split_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def load_config(path: str | Path) -> PowerStudyConfig:
    """Read a study config: '#' comments, one 'key = value' per line,
    comma-separated lists, distribution entries in the colon grammar."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        pairs[key.strip().lower()] = value.strip()
    return config_from_pairs(pairs)


def config_from_pairs(pairs: dict[str, str]) -> PowerStudyConfig:
    missing = [k for k in ("test", "alternatives", "sample_sizes") if k not in pairs]
    if missing:
        raise ValueError(f"config is missing required keys: {', '.join(missing)}")
    test = pairs["test"].strip().lower()
    if test not in TEST_KINDS:
        raise ValueError(f"config field 'test' must be one of {tuple(TEST_KINDS)}")
    alpha = float(pairs.get("alpha", "0.05"))
    trials = int(pairs.get("trials", "10000"))
    master_seed = int(pairs.get("master_seed", str(DEFAULT_SEED)))
    sample_sizes = tuple(int(v) for v in _split_list(pairs["sample_sizes"]))
    labels = tuple(_split_list(pairs["labels"])) if "labels" in pairs else None

    if TEST_KINDS[test].regression:
        beta = tuple(float(v) for v in _split_list(pairs.get("beta", "1, 5")))
        sigma2 = float(pairs.get("sigma2", "4"))
        innovation = Normal(0.0, math.sqrt(sigma2))
        null_spec: Union[DistributionSpec, LinearModelSpec] = LinearModelSpec(
            beta=beta, sigma2=sigma2, error_process=innovation
        )
        alternatives = tuple(
            parse_distribution(item, innovation=innovation)
            for item in _split_list(pairs["alternatives"])
        )
    else:
        null_spec = parse_distribution(pairs.get("null", "normal:0:1"))
        alternatives = tuple(parse_distribution(item) for item in _split_list(pairs["alternatives"]))

    return PowerStudyConfig(
        test=test,
        alternatives=alternatives,
        sample_sizes=sample_sizes,
        alpha=alpha,
        trials=trials,
        master_seed=master_seed,
        null_spec=null_spec,
        labels=labels,
        lilliefors_trials=int(pairs.get("lilliefors_trials", "20000")),
    )
