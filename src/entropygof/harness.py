"""Monte Carlo power-study engine: seeded trial streams, deterministic
reduction, CSV/SVG emission, and a flat key-value config format.

Trial t of row r (rows enumerate alternative-by-sample-size cells) always
draws from stream sampling.first_stream(r) + t of the study's master seed,
and the trials run in blocks named by their first stream and a count
(sampling.seed_blocks), so results are bit-identical for any worker count,
execution order and block size.  Calibration runs for the KS regression
test use a disjoint stream range (first_stream, kstest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .kstest import (
    CalibrationCache,
    check_calibration_trials,
    ks_bands,
    ks_critical_simple,
    ks_statistic,
    lilliefors_critical,
)
from .maxent import solve_maxent
from .moments import null_constraint, standardize
from .numerics import chi2_1_critical, normal_cdf
from .regression import (
    DEFAULT_MODEL,
    DegenerateTrialError,
    LinearModelSpec,
    ols_fit,
    ratio_transform,
    residual_ks_distance,
    simulate_model,
    standardized_residuals,  # unused here; perfbench/study.py wraps this name
    trial_words,
)
from .sampling import (
    Cauchy,
    CenteredLogNormal,
    DistributionSpec,
    Exponential,
    Normal,
    SeedSpec,
    StudentT,
    Uniform,
    cdf,
    check_count,
    check_row_trials,
    first_stream,
    parse_distribution,
    sample,
    seed_blocks,
    spec_label,
    uniform_words,
)

__all__ = [
    "TEST_KINDS",
    "PowerStudyConfig",
    "PowerRow",
    "PowerTable",
    "run_power_study",
    "emit_power_csv",
    "emit_power_svg",
    "load_config",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 123456789

CSV_HEADER = "test,alternative,n,alpha,trials,rejections,power,se"


@dataclass(frozen=True)
class TestKind:
    """One test of a power study, defined once.

    nulls are the null_spec types a study of the kind accepts; a
    regression kind takes a LinearModelSpec.  critical(config, cache, n) is
    the critical value at sample size n, the one place it is stated; a
    trial rejects when its statistic exceeds it.
    statistic(context, alt, n, seed, trials) runs the block of trials on
    streams seed.stream_id, ..., seed.stream_id + trials - 1 of
    seed.master_seed and returns one statistic per trial, reading
    context(config, n, critical), which travels to the workers inside each
    chunk.  One rule holds for every kind: with critical None the
    statistics are the exact ones the library computes, and with a number
    they are the decisions at that critical: +inf, 0.0 or, near it, the
    exact statistic, so `> critical` counts the same trials.  The contexts
    are (mu, sigma, constraint, critical) for et-simple, (null_cdf, bands)
    for ks-simple, (model, critical) for et-regression and (model, bands)
    for ks-regression, where bands is kstest.ks_bands at the critical, or
    None; the entropy kinds decide in maxent.solve_maxent, the KS kinds in
    kstest.ks_statistic.  Entries call the layer functions by their names
    in this module, so tracing that rebinds those names sees every call.
    """

    nulls: tuple[type, ...]
    min_n: int
    context: Callable
    statistic: Callable
    critical: Callable

    @property
    def regression(self) -> bool:
        return self.nulls == (LinearModelSpec,)


def _et_simple_context(config: PowerStudyConfig, n: int, critical: float | None):
    return (*null_constraint(config.null_spec), critical)


def _et_simple_statistic(context, alt: DistributionSpec, n: int, seed: SeedSpec, trials: int):
    mu, sigma, constraint, critical = context
    g = constraint.values(standardize(sample(alt, n, seed, trials), mu, sigma))
    return solve_maxent(g, critical=critical).statistic


def _bands(null_cdf: Callable, n: int, critical: float | None):
    return None if critical is None else ks_bands(null_cdf, n, critical)


def _ks_simple_context(config: PowerStudyConfig, n: int, critical: float | None):
    null_cdf = partial(cdf, config.null_spec)
    return null_cdf, _bands(null_cdf, n, critical)


def _ks_simple_statistic(context, alt: DistributionSpec, n: int, seed: SeedSpec, trials: int):
    null_cdf, bands = context
    return ks_statistic(sample(alt, n, seed, trials), null_cdf, bands)


def _et_regression_statistic(context, alt: DistributionSpec, n: int, seed: SeedSpec, trials: int):
    model, critical = context
    y, X = simulate_model(model, n, seed, alt, trials)
    z = ratio_transform(ols_fit(y, X).residuals)
    return solve_maxent(np.sin(z), critical=critical).statistic


def _ks_regression_statistic(context, alt: DistributionSpec, n: int, seed: SeedSpec, trials: int):
    model, bands = context
    return residual_ks_distance(*simulate_model(model, n, seed, alt, trials), bands)


def ensure_lilliefors_table(config: PowerStudyConfig, cache: CalibrationCache | None, n: int) -> float:
    """The calibrated critical of a ks-regression study at sample size n.

    perfbench/study.py wraps this name as its calibration layer.
    """
    model, trials = config.null_spec, config.lilliefors_trials
    return lilliefors_critical(model, n, config.alpha, trials, config.master_seed, cache)


def _chi2_critical(config: PowerStudyConfig, cache, n: int) -> float:
    return chi2_1_critical(config.alpha)


def _ks_simple_critical(config: PowerStudyConfig, cache, n: int) -> float:
    return ks_critical_simple(n, config.alpha)


def _et_regression_context(config: PowerStudyConfig, n: int, critical: float | None):
    return config.null_spec, critical


def _ks_regression_context(config: PowerStudyConfig, n: int, critical: float | None):
    return config.null_spec, _bands(normal_cdf, n, critical)


# et-simple's nulls have a CF constraint (moments.null_constraint); ks-simple's
# have a marginal distribution (sampling.cdf)
_ET_NULLS = (Normal, Cauchy)
_KS_NULLS = (Normal, Uniform, Exponential, Cauchy, StudentT, CenteredLogNormal)

TEST_KINDS: dict[str, TestKind] = {
    # name: TestKind(nulls, min_n, context, statistic, critical)
    "et-simple": TestKind(_ET_NULLS, 2, _et_simple_context, _et_simple_statistic, _chi2_critical),
    "ks-simple": TestKind(_KS_NULLS, 1, _ks_simple_context, _ks_simple_statistic, _ks_simple_critical),
    "et-regression": TestKind((LinearModelSpec,), 4, _et_regression_context, _et_regression_statistic, _chi2_critical),
    # the lambda looks ensure_lilliefors_table up at each call, so a rebinding of the name is seen
    "ks-regression": TestKind(
        (LinearModelSpec,), 4, _ks_regression_context, _ks_regression_statistic, lambda *a: ensure_lilliefors_table(*a)
    ),
}


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
        for name in ("trials", "lilliefors_trials"):
            object.__setattr__(self, name, check_row_trials(name, getattr(self, name)))
        if self.trials < 100:
            raise ValueError("trials must be at least 100")
        if self.test == "ks-regression":  # its study calibrates only after the first row's trials
            check_calibration_trials("lilliefors_trials", self.lilliefors_trials)
        SeedSpec(self.master_seed)  # every trial stream is keyed by an unsigned 64-bit master seed
        if not self.alternatives:
            raise ValueError("at least one alternative is required")
        kind = TEST_KINDS[self.test]
        object.__setattr__(self, "sample_sizes", tuple(check_count("sample_sizes entry", n) for n in self.sample_sizes))
        if not self.sample_sizes or any(n < kind.min_n for n in self.sample_sizes):
            raise ValueError(f"{self.test} needs sample sizes >= {kind.min_n}")
        if len(set(self.sample_sizes)) < len(self.sample_sizes):
            # two rows with one (alternative, n) key would report different results
            raise ValueError(f"sample sizes repeat in {self.sample_sizes}; give each n once")
        if not isinstance(self.null_spec, kind.nulls):
            accepted = ", ".join(cls.__name__ for cls in kind.nulls)
            raise ValueError(f"{self.test} takes a null of type {accepted}, got {self.null_spec!r}")
        if kind.regression and min(self.sample_sizes) <= self.null_spec.k:
            k = self.null_spec.k  # more observations than coefficients
            raise ValueError(f"{self.test} needs sample sizes > k = {k}, got {min(self.sample_sizes)}")
        if any(isinstance(alt, LinearModelSpec) for alt in self.alternatives):
            raise ValueError("alternatives are distributions or error processes, not model specs")
        if self.labels is not None and len(self.labels) != len(self.alternatives):
            raise ValueError("labels must match alternatives one-to-one")
        names = [self.row_label(i) for i in range(len(self.alternatives))]
        for name in names:
            _check_label(name)  # before the study runs, not when its CSV is written
        shared = sorted({name for name in names if names.count(name) > 1})
        if shared:
            # an AR or MA label omits the innovation, so distinct alternatives can collide
            raise ValueError(f"alternatives share the row labels {shared}; give distinct labels")

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


# ---------------------------------------------------------------------------
# Study engine
# ---------------------------------------------------------------------------


def _block_statistics(statistic: Callable, context, alt, n: int, seed: SeedSpec, trials: int) -> np.ndarray:
    """The statistics of the block's trials; NaN marks a degenerate trial.

    A degenerate trial spoils its block's call, so that block runs again
    as two halves, down to single trials: each degenerate trial is one
    NaN, whatever the block size, at about 2 log2 B calls per such trial.
    """
    try:
        return statistic(context, alt, n, seed, trials)
    except DegenerateTrialError:
        if trials == 1:
            return np.full(1, np.nan)
        half = trials // 2
        halves = ((seed, half), (SeedSpec(seed.master_seed, seed.stream_id + half), trials - half))
        return np.concatenate([_block_statistics(statistic, context, alt, n, *part) for part in halves])


def _run_chunk(payload) -> np.ndarray:
    """The statistics of the trials on streams first, ..., stop - 1, in
    trial order; worker-safe.

    The range runs in blocks sized by the uniform words a trial draws and
    by whether alt steps over time (sampling.seed_blocks); trial t still
    draws from its own stream, so the statistics do not depend on the blocks.
    """
    test, alt, n, master_seed, first, stop, context = payload
    kind = TEST_KINDS[test]
    # a regression kind's context starts with the model, whose design is drawn first
    words = trial_words(context[0], n, alt) if kind.regression else uniform_words(alt, n)
    blocks = seed_blocks(master_seed, first, stop, words, alt)
    return np.concatenate([_block_statistics(kind.statistic, context, alt, n, *block) for block in blocks])


def run_power_study(
    config: PowerStudyConfig,
    workers: int = 1,
    cache: CalibrationCache | None = None,
    progress: Callable[[PowerRow], None] | None = None,
) -> PowerTable:
    """Rejection-rate grid over (alternative, n); deterministic given the seed.

    Trials draw from per-trial streams (sampling.first_stream: row index *
    2**32 + trial index), so the output is identical for any worker count.
    Each n's critical value is taken once, after the first row's statistics
    are in and before that row is decided, so a study whose first row
    raises does not calibrate first.  So the first row reads the exact
    context, TestKind.context(config, n, None), and every later row the
    context of its n at that n's critical, built once per n a later row
    has; each chunk carries only its row's context.  The trial chunks
    return statistics and the decisions are made here.  Degenerate trials
    (DegenerateTrialError) are tallied per row, and a rate above 0.1%
    aborts the run; any other error propagates.
    """
    workers = check_count("workers", workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    kind = TEST_KINDS[config.test]
    first_n = config.sample_sizes[0]  # the first row's n
    contexts = {first_n: kind.context(config, first_n, None)}

    rows: list[PowerRow] = []
    row_specs = [
        (alt_idx, alt, n)
        for alt_idx, alt in enumerate(config.alternatives)
        for n in config.sample_sizes
    ]
    pool = None
    if workers > 1:  # only a pool run loads multiprocessing, socket and subprocess
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for row_idx, (alt_idx, alt, n) in enumerate(row_specs):
            base = first_stream(row_idx)
            bounds = np.linspace(0, config.trials, (workers if pool else 1) + 1).astype(int)
            payloads = [
                (config.test, alt, n, config.master_seed, base + int(lo), base + int(hi), contexts[n])
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            stats = np.concatenate(list((pool.map if pool else map)(_run_chunk, payloads)))
            failures = int(np.count_nonzero(np.isnan(stats)))
            if failures > 0.001 * config.trials:
                raise RuntimeError(
                    f"row ({config.row_label(alt_idx)!r}, n={n}): {failures} trial failures "
                    f"out of {config.trials} exceeds the 0.1% budget"
                )
            if row_idx == 0:  # a study whose trials raise does so before it calibrates
                criticals = {size: kind.critical(config, cache, size) for size in config.sample_sizes}
                later = {size for _, _, size in row_specs[1:]}
                contexts = {size: kind.context(config, size, criticals[size]) for size in later}
            row = PowerRow(
                test=config.test,
                alternative=config.row_label(alt_idx),
                n=n,
                alpha=config.alpha,
                trials=config.trials,
                rejections=int(np.count_nonzero(stats > criticals[n])),
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


def _check_label(label: str) -> None:
    """A row label is one CSV field of one line."""
    if any(c in label for c in ",\r\n"):
        raise ValueError(f"row label {label!r} may not contain commas or line breaks")


def power_csv_line(r: PowerRow) -> str:
    """One row in the CSV_HEADER columns; numeric reals at 6 significant digits."""
    _check_label(r.alternative)
    return f"{r.test},{r.alternative},{r.n},{r.alpha:.6g},{r.trials},{r.rejections},{r.power:.6g},{r.se:.6g}"


def emit_power_csv(table: PowerTable, path: str | Path) -> None:
    """Write the fixed 8-column schema, one power_csv_line per row."""
    if not table.rows:
        raise ValueError("refusing to write an empty power table")
    Path(path).write_text("\n".join([CSV_HEADER, *map(power_csv_line, table.rows)]) + "\n")


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
        # a label is XML text; xml.sax.saxutils.escape would import urllib.request, some MB of RSS
        label = alt.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{x1 + 40}" y="{ly + 4}">{label}</text>')
    parts.append(f'<text x="{x0}" y="{_SVG_MT - 10}" font-size="14">{table.rows[0].test}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Flat key-value config files
# ---------------------------------------------------------------------------


def _split_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def load_config(path: str | Path) -> PowerStudyConfig:
    """Read a study config: '#' comments, one 'key = value' per line,
    comma-separated lists, distribution entries in the colon grammar."""
    pairs: dict[str, str] = {}
    linenos: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in pairs:
            raise ValueError(f"{path}: key {key!r} is given on lines {linenos[key]} and {lineno}; give it once")
        pairs[key], linenos[key] = value.strip(), lineno
    return config_from_pairs(pairs)


# optional keys that set the PowerStudyConfig field of the same name
_FIELD_KEYS = {"alpha": float, "trials": int, "master_seed": int, "lilliefors_trials": int}
_STUDY_KEYS = {"test", "alternatives", "sample_sizes", "labels", "alpha", "trials", "master_seed"}
# the keys only some kinds read: a regression null is a model, and ks-regression calibrates
_KIND_KEYS = {"et-simple": {"null"}, "ks-simple": {"null"}, "et-regression": {"beta", "sigma2"},
              "ks-regression": {"beta", "sigma2", "lilliefors_trials"}}
_TYPE_NAMES = {float: "a number", int: "an integer"}


def _parse(key: str, text: str, convert: type):
    """text as convert, or a ValueError that names the key and the type, as
    parse_distribution's errors quote the entry."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"config key {key!r} takes {_TYPE_NAMES[convert]}: {exc}") from exc


def config_from_pairs(pairs: dict[str, str]) -> PowerStudyConfig:
    """The study a config file's key-value pairs describe.  Keys a file
    leaves out take the PowerStudyConfig (and regression DEFAULT_MODEL)
    defaults; a key the study does not read is an error."""
    missing = [k for k in ("test", "alternatives", "sample_sizes") if k not in pairs]
    if missing:
        raise ValueError(f"config is missing required keys: {', '.join(missing)}")
    test = pairs["test"].strip().lower()
    if test not in TEST_KINDS:
        raise ValueError(f"config field 'test' must be one of {tuple(TEST_KINDS)}")
    regression = TEST_KINDS[test].regression
    unread = sorted(set(pairs) - _STUDY_KEYS - _KIND_KEYS[test])
    if unread:
        raise ValueError(f"config keys not read by a {test} study: {', '.join(unread)}")
    kw = {key: _parse(key, pairs[key], convert) for key, convert in _FIELD_KEYS.items() if key in pairs}
    if "labels" in pairs:
        kw["labels"] = tuple(_split_list(pairs["labels"]))

    innovation = None
    if regression:
        beta, sigma2 = DEFAULT_MODEL.beta, DEFAULT_MODEL.sigma2
        if "beta" in pairs:
            beta = tuple(_parse("beta", v, float) for v in _split_list(pairs["beta"]))
        if "sigma2" in pairs:
            sigma2 = _parse("sigma2", pairs["sigma2"], float)
        kw["null_spec"] = LinearModelSpec(beta, sigma2)
        innovation = kw["null_spec"].error_process
    elif "null" in pairs:
        kw["null_spec"] = parse_distribution(pairs["null"])
    return PowerStudyConfig(
        test=test,
        alternatives=tuple(parse_distribution(a, innovation) for a in _split_list(pairs["alternatives"])),
        sample_sizes=tuple(_parse("sample_sizes", v, int) for v in _split_list(pairs["sample_sizes"])),
        **kw,
    )
