"""Deterministic random sampling and the menu of study distributions.

Streams are built on numpy's counter-based Philox generator: the pair
(master_seed, stream_id) is the 128-bit Philox key, so every stream is
fully determined by its SeedSpec and distinct stream ids are independent
by construction.  A block of trials is the SeedSpec of its first stream
and a count: row b draws stream stream_id + b, and one Philox re-keyed per
row yields them all (uniform_block).  first_stream states which streams a
study draws.  All continuous draws are derived from uniforms on the open
interval (0, 1), and normals come from the package's own quantile function.

What is bit-stable: the uniforms, wherever the Philox/Lemire equality test
in tests/test_sampling.py passes; the draws and statistics, for one numpy
build, one CPU dispatch level and one BLAS kernel (numpy's SIMD log, exp
and tan, and the BLAS kernel, can move their last bits); and the power CSVs
and Lilliefors criticals, on every dispatch level and kernel tried so far
(README, reproducibility contract).
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import MISSING, astuple, dataclass, field, fields
from typing import Iterator, Union

import numpy as np

from .numerics import elementwise, normal_cdf, normal_quantile

__all__ = [
    "SeedSpec",
    "Normal",
    "Uniform",
    "Exponential",
    "Cauchy",
    "StudentT",
    "CenteredLogNormal",
    "ARProcess",
    "MAProcess",
    "DistributionSpec",
    "sample",
    "sample_using",
    "first_stream",
    "check_count",
    "check_row_trials",
    "seed_blocks",
    "uniform_block",
    "uniform_shape",
    "uniform_words",
    "cdf",
    "centered_lognormal_params",
    "spec_label",
    "parse_distribution",
]

_U64_MAX = 2**64 - 1
# uniform words (64 bits each) per block of trials: a block holds
# max(1, _BLOCK_WORDS // w) trials that draw w words each, with 4 times the
# budget when their AR errors step over time (seed_blocks).  The budget
# bounds the draw's temporaries, which set peak memory, while a wide block
# shares numpy's fixed cost per call among many rows (README, Layout)
_BLOCK_WORDS = 32768


@dataclass(frozen=True)
class SeedSpec:
    """(master_seed, stream_id) pair naming one reproducible random stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            # a float key would be truncated, and share the stream of its integer part
            if not (isinstance(v, numbers.Integral) and 0 <= v <= _U64_MAX):
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=np.array((self.master_seed, self.stream_id), dtype=np.uint64)))


def first_stream(row: int, calibration: bool = False) -> int:
    """The stream layout, which every power CSV rests on: trial t of row r
    of a power study (an alternative-by-n cell) draws stream r * 2**32 + t
    of the master seed, and trial t of the Lilliefors calibration at sample
    size n (calibration=True, row n) draws 2**62 + n * 2**32 + t."""
    return (1 << 62 if calibration else 0) + (row << 32)


def check_count(name: str, value) -> int:
    """A count of trials, observations or workers, as a Python int.

    A float would run int(value) of them and report value, and a numpy
    integer would overflow in the stream arithmetic of first_stream.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_row_trials(name: str, trials: int) -> int:
    """check_count of a count of trials that may not run past the 2**32
    streams of its row of first_stream's layout into the next row's."""
    trials = check_count(name, trials)
    if trials > 1 << 32:
        raise ValueError(f"{name} = {trials} exceeds 2**32, the streams of one row (sampling.first_stream)")
    return trials


@functools.cache
def _keep_heap() -> None:
    """Keep the memory that blocks free in this process's heap, once per
    process: glibc would trim the top of the heap back to the kernel above
    128 KiB free and send arrays of 128 KiB or more to mmap, so that every
    block faults its temporaries' pages in afresh.  Both thresholds go to
    the ceilings that glibc's own dynamic policy reaches on 64-bit, and the
    freed heap kept can never exceed the peak that the blocks already
    reached.  A libc without mallopt (macOS, Windows) is left as it is;
    musl's is a stub.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def seed_blocks(
    master_seed: int, first: int, stop: int, words: int, spec: DistributionSpec
) -> Iterator[tuple[SeedSpec, int]]:
    """The streams first, ..., stop - 1 of master_seed as blocks
    (SeedSpec(master_seed, lo), count) of max(1, budget // words) trials
    (fewer in the last) that each draw `words` uniform words (uniform_words,
    regression.trial_words) and whose values, or errors, follow spec.

    The budget is _BLOCK_WORDS, or 4 times that when spec's AR recursion
    steps over time (an ARProcess that is not a random walk): a block of at
    least _AR_STEP_ROWS rows then steps at every preset n, and the draw's
    temporaries stay within a few MB (README, Layout).  Both block loops,
    the power study's and the Lilliefors calibration's, walk their range
    here, so the first walk in a process also keeps its heap (_keep_heap).
    """
    _keep_heap()
    steps = isinstance(spec, ARProcess) and not spec.is_random_walk
    block = max(1, (4 * _BLOCK_WORDS if steps else _BLOCK_WORDS) // words)
    for lo in range(first, stop, block):
        yield SeedSpec(master_seed, lo), min(block, stop - lo)


def uniform_block(seed: SeedSpec, trials: int, count: int) -> np.ndarray:
    """(trials, count) uniforms strictly inside (0, 1): row b holds the
    first count of stream seed.stream_id + b of seed.master_seed.

    One Philox serves the block: each row sets its key, a zero counter and
    an empty buffer, and its raw 64-bit words fill the row.  A row equals
    (Generator.integers(0, 2**53) + 0.5) * 2**-53 on its stream's
    SeedSpec.generator() bit for bit: for that power-of-two range numpy uses
    Lemire's method, which never rejects and returns raw >> 11
    (tests/test_sampling.py checks this on the installed numpy).
    """
    last = seed.stream_id + trials - 1
    if trials < 1:
        raise ValueError(f"a block needs at least one trial, got trials = {trials}")
    if last > _U64_MAX:
        raise ValueError(f"a block of {trials} trials from stream {seed.stream_id} ends at stream {last} > 2**64 - 1")
    bits = np.random.Philox(0)  # seeded only to skip OS entropy: each row replaces the state
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": None},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    raw = np.empty((trials, count), dtype=np.uint64)
    for b in range(trials):
        state["state"]["key"] = (seed.master_seed, seed.stream_id + b)
        bits.state = state
        raw[b] = bits.random_raw(count)
    return ((raw >> 11) + 0.5) * 2.0**-53


# ---------------------------------------------------------------------------
# Distribution specifications
# ---------------------------------------------------------------------------


def _require_finite(spec) -> None:
    """Reject a spec whose numeric parameters (or coefficients) are not all finite."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, numbers.Real) and not math.isfinite(v) for v in values):
            raise ValueError(f"{type(spec).__name__} {f.name} must be finite")


def _check_process(spec) -> None:
    """The check of ARProcess and MAProcess: the coefficients (the first
    field) become a non-empty tuple of finite floats, and the innovation
    is an iid distribution."""
    name = fields(spec)[0].name
    object.__setattr__(spec, name, tuple(float(c) for c in getattr(spec, name)))
    if not getattr(spec, name):
        raise ValueError(f"{type(spec).__name__} needs at least one coefficient")
    _require_finite(spec)
    if isinstance(spec.innovation, _SERIAL):
        raise ValueError("process innovations must be an iid distribution")


@dataclass(frozen=True)
class Normal:
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError("Normal sigma must be positive")
        _require_finite(self)


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError("Uniform requires low < high")
        _require_finite(self)


@dataclass(frozen=True)
class Exponential:
    rate: float = 1.0
    shift: float = 0.0

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError("Exponential rate must be positive")
        _require_finite(self)


@dataclass(frozen=True)
class Cauchy:
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError("Cauchy scale must be positive")
        _require_finite(self)


@dataclass(frozen=True)
class StudentT:
    dof: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.dof % 1 != 0 or self.dof < 2:
            raise ValueError("StudentT dof must be an integer >= 2")
        if not self.scale > 0:
            raise ValueError("StudentT scale must be positive")
        _require_finite(self)
        # the dof sets an array shape and the label's digits
        object.__setattr__(self, "dof", int(self.dof))


_MAX_SIGMA2_LOG = 2.0 * math.log(sys.float_info.max)


@dataclass(frozen=True)
class CenteredLogNormal:
    """Lognormal with log-location 0 and log-variance sigma2_log, shifted to mean 0."""

    sigma2_log: float

    def __post_init__(self) -> None:
        if not self.sigma2_log > 0:
            raise ValueError("sigma2_log must be positive")
        _require_finite(self)
        if self.sigma2_log > _MAX_SIGMA2_LOG:  # the shift exp(sigma2_log / 2) would overflow
            raise ValueError(f"CenteredLogNormal sigma2_log must be at most 2 ln(DBL_MAX) = {_MAX_SIGMA2_LOG:.6g}")

    @property
    def shift(self) -> float:
        return math.exp(0.5 * self.sigma2_log)


@dataclass(frozen=True)
class ARProcess:
    """Autoregression e_t = sum_i rho[i] * e_{t-i-1} + u_t.

    rho == (1,) is treated as a random walk: no burn-in, path starts at the
    first innovation.  All other coefficient lists get a 100-step burn-in
    from a zero start to wash out the initial condition.
    """

    rho: tuple[float, ...]
    innovation: "DistributionSpec" = field(default_factory=Normal)

    def __post_init__(self) -> None:
        _check_process(self)

    @property
    def is_random_walk(self) -> bool:
        return self.rho == (1.0,)


@dataclass(frozen=True)
class MAProcess:
    """Moving average e_t = u_t + sum_i theta[i] * u_{t-i-1}.

    len(theta) pre-sample innovations are drawn from the same stream so the
    first output term is well defined.
    """

    theta: tuple[float, ...]
    innovation: "DistributionSpec" = field(default_factory=Normal)

    def __post_init__(self) -> None:
        _check_process(self)


DistributionSpec = Union[
    Normal,
    Uniform,
    Exponential,
    Cauchy,
    StudentT,
    CenteredLogNormal,
    ARProcess,
    MAProcess,
]

_AR_BURN_IN = 100
# blocks of at least this many rows run the AR recursion one time step at a
# time across all rows; narrower ones run it row by row.  seed_blocks gives
# trials with such errors 4 times the word budget, so every full AR block is
# this wide at the preset n; the row path serves a chunk's tail, a halved
# spoiled block, a single trial and wider trials (n > 1998 at k = 2)
# (README, Layout)
_AR_STEP_ROWS = 32


def _ar_recurse(rho: tuple[float, ...], u: np.ndarray) -> np.ndarray:
    """Run the AR recursion along the last axis of u from a zero start.

    Both paths add the lags to the innovation in the order x + rho[0]*e_{t-1}
    + rho[1]*e_{t-2} + ..., one IEEE operation at a time, so they agree bit
    for bit; a matmul or sum() would reorder or compensate the additions.
    """
    rows = u.reshape(-1, u.shape[-1])
    p = len(rho)
    if len(rows) >= _AR_STEP_ROWS:
        # numpy's fixed cost per step is shared by the rows of the block
        innov = np.ascontiguousarray(rows.T)
        y = np.zeros((len(innov) + p, len(rows)))
        coef = np.array(rho[::-1])[:, None]
        prod = np.empty((p, len(rows)))
        # Python floats overflow to inf and nan silently; so does this loop
        with np.errstate(over="ignore", invalid="ignore"):
            for t, x in enumerate(innov):
                np.multiply(coef, y[t : t + p], out=prod)
                step = y[t + p]
                np.add(x, prod[-1], out=step)
                for k in range(p - 2, -1, -1):
                    step += prod[k]
        # C order, as the per-row path returns: later reductions sum in memory order
        return np.ascontiguousarray(y[p:].T).reshape(u.shape)
    paths: list[list[float]] = []
    if p == 1:
        (r0,) = rho
        for innov in rows.tolist():
            out = []
            prev = 0.0
            for x in innov:
                prev = r0 * prev + x
                out.append(prev)
            paths.append(out)
    else:
        lags = tuple((r, -1 - i) for i, r in enumerate(rho))
        for innov in rows.tolist():
            path = [0.0] * p
            for x in innov:
                for r, k in lags:
                    x += r * path[k]
                path.append(x)
            paths.append(path[p:])
    return np.array(paths).reshape(u.shape)


def uniform_shape(spec: DistributionSpec, n: int) -> tuple[int, ...]:
    """Shape of the uniforms that n values of spec consume, in stream order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(spec, (Normal, Uniform, Exponential, Cauchy, CenteredLogNormal)):
        return (n,)
    if isinstance(spec, StudentT):
        # numerator normals first, then dof rows of denominator normals
        return (spec.dof + 1, n)
    if isinstance(spec, ARProcess):
        return uniform_shape(spec.innovation, n if spec.is_random_walk else n + _AR_BURN_IN)
    if isinstance(spec, MAProcess):
        return uniform_shape(spec.innovation, n + len(spec.theta))
    raise TypeError(f"unknown distribution spec {spec!r}")


def uniform_words(spec: DistributionSpec, n: int) -> int:
    """The 64-bit words that n values of spec draw from their stream."""
    return math.prod(uniform_shape(spec, n))


def _map(spec: DistributionSpec, u: np.ndarray) -> np.ndarray:
    """Values of spec from uniforms of shape uniform_shape(spec, n); a
    leading axis of u stacks trials, and each trial's values are those of
    its own uniforms."""
    if isinstance(spec, Normal):
        return spec.mu + spec.sigma * normal_quantile(u)
    if isinstance(spec, Uniform):
        return spec.low + (spec.high - spec.low) * u
    if isinstance(spec, Exponential):
        return spec.shift - np.log(u) / spec.rate
    if isinstance(spec, Cauchy):
        return spec.loc + spec.scale * np.tan(np.pi * (u - 0.5))
    if isinstance(spec, StudentT):
        z = normal_quantile(u)
        chi2 = np.sum(z[..., 1:, :] ** 2, axis=-2)
        return spec.scale * z[..., 0, :] / np.sqrt(chi2 / spec.dof)
    if isinstance(spec, CenteredLogNormal):
        z = normal_quantile(u)
        return np.exp(math.sqrt(spec.sigma2_log) * z) - spec.shift
    if isinstance(spec, ARProcess):
        e = _map(spec.innovation, u)
        if spec.is_random_walk:
            return np.cumsum(e, axis=-1)
        return _ar_recurse(spec.rho, e)[..., _AR_BURN_IN:]
    if isinstance(spec, MAProcess):
        q = len(spec.theta)
        e = _map(spec.innovation, u)
        n = e.shape[-1] - q
        out = e[..., q:].copy()
        for i, theta in enumerate(spec.theta, start=1):
            out += theta * e[..., q - i : q - i + n]
        return out
    raise TypeError(f"unknown distribution spec {spec!r}")


def sample_using(spec: DistributionSpec, n: int, u: np.ndarray) -> np.ndarray:
    """The (B, n) values of spec that a (B, count) block of uniforms from
    uniform_block gives, with count = uniform_words(spec, n); the variate
    map runs once over the whole block."""
    return _map(spec, u.reshape((len(u),) + uniform_shape(spec, n)))


def sample(spec: DistributionSpec, n: int, seed: SeedSpec, trials: int | None = None) -> np.ndarray:
    """Draw n values of spec from the stream named by seed.

    Deterministic: identical (spec, n, seed) always yields bit-identical
    output, independent of anything else the process has sampled.  Given
    trials, it returns the (trials, n) block whose row b is bit-identical
    to sample(spec, n, SeedSpec(seed.master_seed, seed.stream_id + b)):
    each row is drawn from its own stream.
    """
    x = sample_using(spec, n, uniform_block(seed, 1 if trials is None else trials, uniform_words(spec, n)))
    return x[0] if trials is None else x


# ---------------------------------------------------------------------------
# Marginal CDFs (iid specs only; serial processes have no single marginal)
# ---------------------------------------------------------------------------


def _student_t_cdf(t: np.ndarray, dof: int) -> np.ndarray:
    """CDF of Student's t with integer dof via the finite trigonometric sums."""
    x = np.abs(t)
    theta = np.arctan(x / math.sqrt(dof))
    s, c = np.sin(theta), np.cos(theta)
    # A(t|dof) = sin * sum (even dof) or (2/pi)(theta + sin*cos * sum) (odd), where sum
    # = sum_{j < dof // 2} d_j cos^{2j}, d_0 = 1, d_j = d_{j-1} (2j - 1 + odd) / (2j + odd)
    odd = dof % 2
    acc = np.ones_like(x)
    term = np.ones_like(x)
    coef = 1.0
    for j in range(1, dof // 2):
        coef *= (2.0 * j - 1.0 + odd) / (2.0 * j + odd)
        term = term * c * c
        acc += coef * term
    a = (2.0 / math.pi) * (theta + s * c * acc) if odd else s * acc
    return 0.5 * (1.0 + np.sign(t) * a)


@elementwise
def cdf(spec: DistributionSpec, x: np.ndarray) -> np.ndarray:
    """Marginal CDF of an iid spec at x, under the elementwise
    contract; rejects AR/MA process specs."""
    if isinstance(spec, (ARProcess, MAProcess)):
        raise TypeError("serial processes have no single marginal CDF here")
    # scaling x overflows to +-inf only where the CDF is 0 or 1, which it
    # then gives exactly
    with np.errstate(over="ignore"):
        if isinstance(spec, Normal):
            out = normal_cdf((x - spec.mu) / spec.sigma)
        elif isinstance(spec, Uniform):
            out = np.clip((x - spec.low) / (spec.high - spec.low), 0.0, 1.0)
        elif isinstance(spec, Exponential):
            # fmax, not where: a value far below the shift would overflow expm1
            out = -np.expm1(-spec.rate * np.fmax(x - spec.shift, 0.0))
        elif isinstance(spec, Cauchy):
            out = 0.5 + np.arctan((x - spec.loc) / spec.scale) / np.pi
        elif isinstance(spec, StudentT):
            out = _student_t_cdf(x / spec.scale, spec.dof)
        elif isinstance(spec, CenteredLogNormal):
            sig = math.sqrt(spec.sigma2_log)
            shifted = x + spec.shift
            out = np.where(shifted > 0.0, normal_cdf(np.log(np.maximum(shifted, 1e-300)) / sig), 0.0)
        else:
            raise TypeError(f"unknown distribution spec {spec!r}")
    return out


def centered_lognormal_params(target_variance: float) -> tuple[float, float]:
    """Log-variance and mean shift for a mean-zero lognormal of given variance.

    Solves (e^s - 1) e^s = target_variance for s = sigma2_log with
    log-location fixed at 0; the sampler subtracts shift = e^{s/2}.
    """
    if not target_variance > 0:
        raise ValueError("target_variance must be positive")
    es = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * target_variance))
    sigma2_log = math.log(es)
    return sigma2_log, math.sqrt(es)


# The colon grammar: tag -> spec class.  The parameters after the tag are
# the class's dataclass fields in order, with the dataclass defaults, except
# that ar and ma take one or more coefficients and no innovation.
_GRAMMAR = {
    "normal": Normal,
    "uniform": Uniform,
    "exponential": Exponential,
    "cauchy": Cauchy,
    "t": StudentT,
    "clognormal": CenteredLogNormal,
    "ar": ARProcess,
    "ma": MAProcess,
}
_ALIASES = {"n": "normal", "expo": "exponential"}
_TAGS = {cls: tag for tag, cls in _GRAMMAR.items()}
_SERIAL = (ARProcess, MAProcess)


def spec_label(spec: DistributionSpec) -> str:
    """Short text form of a spec in the colon grammar parse_distribution reads.

    An AR or MA label holds the coefficients, not the innovation.
    Comma-free by construction, so labels are safe inside CSV fields.
    """
    if type(spec) not in _TAGS:
        return repr(spec)
    values = astuple(spec)[0] if isinstance(spec, _SERIAL) else astuple(spec)
    return ":".join([_TAGS[type(spec)], *(str(v) if isinstance(v, int) else f"{v:g}" for v in values)])


def parse_distribution(text: str, innovation: DistributionSpec | None = None) -> DistributionSpec:
    """Parse the colon grammar: tag:param:param (e.g. normal:0:1, ar:0.5:0.25).

    AR/MA entries take their innovation from the surrounding context
    (regression configs use Normal(0, sqrt(sigma2))), else the class default.
    """
    tag, *args = (p.strip() for p in text.strip().split(":"))
    tag = _ALIASES.get(tag.lower(), tag.lower())
    if tag not in _GRAMMAR:
        raise ValueError(f"unknown distribution tag {tag!r} in {text!r}")
    cls = _GRAMMAR[tag]
    serial = cls in _SERIAL
    params = fields(cls)[:1] if serial else fields(cls)
    usage = tag + "".join(f":{f.name}" if f.default is MISSING else f"[:{f.name}]" for f in params)
    usage += "[:...]" if serial else ""
    try:
        vals = [float(a) for a in args]
    except ValueError as exc:
        raise ValueError(f"bad parameters in {text!r}; expected {usage}") from exc
    if serial and vals:
        vals = [tuple(vals)] if innovation is None else [tuple(vals), innovation]
    elif serial or not sum(f.default is MISSING for f in params) <= len(vals) <= len(params):
        raise ValueError(f"wrong number of parameters in {text!r}; expected {usage}")
    try:
        return cls(*vals)
    except ValueError as exc:
        # a spec's own check names the entry, as the grammar's errors do
        raise ValueError(f"{text!r}: {exc}") from exc
