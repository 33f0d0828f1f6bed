"""Deterministic random sampling and the menu of study distributions.

Streams are built on numpy's counter-based Philox generator: the pair
(master_seed, stream_id) is the 128-bit Philox key, so every stream is
fully determined by its SeedSpec and distinct stream ids are independent
by construction.  All continuous draws are derived from uniforms on the
open interval (0, 1); normals come from the package's own quantile
function so that output is bit-identical across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

import numpy as np

from .numerics import normal_cdf, normal_quantile

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
    "seed_blocks",
    "uniform_open01",
    "cdf",
    "centered_lognormal_params",
    "spec_label",
]

_U64_MAX = 2**64 - 1
# values per block of trials (B = _BLOCK_ELEMENTS // n trials of n values);
# larger blocks run little faster and raise peak memory (README, Layout)
_BLOCK_ELEMENTS = 4096


@dataclass(frozen=True)
class SeedSpec:
    """(master_seed, stream_id) pair naming one reproducible random stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not (0 <= v <= _U64_MAX):
                raise ValueError(f"{name} must be an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def seed_blocks(master_seed: int, first: int, stop: int, n: int) -> Iterator[list[SeedSpec]]:
    """The streams first, ..., stop - 1 of master_seed, in blocks of
    max(1, _BLOCK_ELEMENTS // n) seeds for trials of n values each."""
    block = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(first, stop, block):
        yield [SeedSpec(master_seed, t) for t in range(lo, min(lo + block, stop))]


def uniform_open01(gen: np.random.Generator, size: int | tuple) -> np.ndarray:
    """Uniform draws strictly inside (0, 1) with 53-bit resolution."""
    return (gen.integers(0, 1 << 53, size=size, dtype=np.uint64) + 0.5) * 2.0**-53


# ---------------------------------------------------------------------------
# Distribution specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Normal:
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError("Normal sigma must be positive")


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError("Uniform requires low < high")


@dataclass(frozen=True)
class Exponential:
    rate: float = 1.0
    shift: float = 0.0

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError("Exponential rate must be positive")


@dataclass(frozen=True)
class Cauchy:
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError("Cauchy scale must be positive")


@dataclass(frozen=True)
class StudentT:
    dof: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        if int(self.dof) != self.dof or self.dof < 2:
            raise ValueError("StudentT dof must be an integer >= 2")
        if not self.scale > 0:
            raise ValueError("StudentT scale must be positive")


@dataclass(frozen=True)
class CenteredLogNormal:
    """Lognormal with log-location 0 and log-variance sigma2_log, shifted to mean 0."""

    sigma2_log: float

    def __post_init__(self) -> None:
        if not self.sigma2_log > 0:
            raise ValueError("sigma2_log must be positive")

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
        object.__setattr__(self, "rho", tuple(float(r) for r in self.rho))
        if len(self.rho) == 0:
            raise ValueError("ARProcess needs at least one coefficient")
        if isinstance(self.innovation, (ARProcess, MAProcess)):
            raise ValueError("process innovations must be an iid distribution")

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
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        if len(self.theta) == 0:
            raise ValueError("MAProcess needs at least one coefficient")
        if isinstance(self.innovation, (ARProcess, MAProcess)):
            raise ValueError("process innovations must be an iid distribution")


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


def _ar_recurse(rho: tuple[float, ...], u: np.ndarray) -> np.ndarray:
    """Run the AR recursion along the last axis of u from a zero start;
    plain floats keep the loop fast."""
    paths: list[list[float]] = []
    for innov in u.reshape(-1, u.shape[-1]).tolist():
        out: list[float] = []
        if len(rho) == 1:
            (r0,) = rho
            prev = 0.0
            for x in innov:
                prev = r0 * prev + x
                out.append(prev)
        else:
            state = [0.0] * len(rho)
            for x in innov:
                val = x
                for r, s in zip(rho, state):
                    val += r * s
                state.pop()
                state.insert(0, val)
                out.append(val)
        paths.append(out)
    return np.array(paths).reshape(u.shape)


def _draw(spec: DistributionSpec, n: int, gen: np.random.Generator) -> np.ndarray:
    """The uniforms that n values of spec consume from gen, in stream order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(spec, (Normal, Uniform, Exponential, Cauchy, CenteredLogNormal)):
        return uniform_open01(gen, n)
    if isinstance(spec, StudentT):
        # numerator normals first, then dof rows of denominator normals
        return uniform_open01(gen, (spec.dof + 1, n))
    if isinstance(spec, ARProcess):
        return _draw(spec.innovation, n if spec.is_random_walk else n + _AR_BURN_IN, gen)
    if isinstance(spec, MAProcess):
        return _draw(spec.innovation, n + len(spec.theta), gen)
    raise TypeError(f"unknown distribution spec {spec!r}")


def _map(spec: DistributionSpec, u: np.ndarray) -> np.ndarray:
    """Values of spec from the uniforms _draw returned; a leading axis of u
    stacks trials, and each trial's values are those of its own draw."""
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


def sample_using(
    spec: DistributionSpec, n: int, gen: np.random.Generator | Sequence[np.random.Generator]
) -> np.ndarray:
    """Draw n values of spec, consuming state from an existing generator.

    Given B generators it returns a (B, n) block: row b is drawn from
    generator b, and the variate map then runs once over the whole block.
    """
    if isinstance(gen, np.random.Generator):
        return _map(spec, _draw(spec, n, gen))
    return _map(spec, np.stack([_draw(spec, n, g) for g in gen]))


def sample(spec: DistributionSpec, n: int, seed: SeedSpec | Sequence[SeedSpec]) -> np.ndarray:
    """Draw n values of spec from the stream named by seed.

    Deterministic: identical (spec, n, seed) always yields bit-identical
    output, independent of anything else the process has sampled.  Given a
    sequence of B seeds it returns a (B, n) block whose row b is
    bit-identical to sample(spec, n, seeds[b]): each row is drawn from its
    own stream.
    """
    if isinstance(seed, SeedSpec):
        return sample_using(spec, n, seed.generator())
    return sample_using(spec, n, [s.generator() for s in seed])


# ---------------------------------------------------------------------------
# Marginal CDFs (iid specs only; serial processes have no single marginal)
# ---------------------------------------------------------------------------


def _student_t_cdf(t: np.ndarray, dof: int) -> np.ndarray:
    """CDF of Student's t with integer dof via the finite trigonometric sums."""
    x = np.abs(t)
    theta = np.arctan(x / math.sqrt(dof))
    s, c = np.sin(theta), np.cos(theta)
    if dof % 2 == 1:
        # A(t|dof) = (2/pi)(theta + sin*cos * sum c_j cos^{2j}), c_0=1, c_j = c_{j-1}*2j/(2j+1)
        acc = np.zeros_like(x)
        term = np.ones_like(x)
        coef = 1.0
        for j in range((dof - 1) // 2):
            if j > 0:
                coef *= (2.0 * j) / (2.0 * j + 1.0)
                term = term * c * c
            acc += coef * term
        a = (2.0 / math.pi) * (theta + s * c * acc)
    else:
        # A(t|dof) = sin * sum d_j cos^{2j}, d_0=1, d_j = d_{j-1}*(2j-1)/(2j)
        acc = np.zeros_like(x)
        term = np.ones_like(x)
        coef = 1.0
        for j in range(dof // 2):
            if j > 0:
                coef *= (2.0 * j - 1.0) / (2.0 * j)
                term = term * c * c
            acc += coef * term
        a = s * acc
    return 0.5 * (1.0 + np.sign(t) * a)


def cdf(spec: DistributionSpec, x) -> np.ndarray | float:
    """Marginal CDF of an iid spec at x; rejects AR/MA process specs."""
    if isinstance(spec, (ARProcess, MAProcess)):
        raise TypeError("serial processes have no single marginal CDF here")
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if isinstance(spec, Normal):
        out = normal_cdf((arr - spec.mu) / spec.sigma)
    elif isinstance(spec, Uniform):
        out = np.clip((arr - spec.low) / (spec.high - spec.low), 0.0, 1.0)
    elif isinstance(spec, Exponential):
        out = np.where(arr >= spec.shift, -np.expm1(-spec.rate * (arr - spec.shift)), 0.0)
    elif isinstance(spec, Cauchy):
        out = 0.5 + np.arctan((arr - spec.loc) / spec.scale) / np.pi
    elif isinstance(spec, StudentT):
        out = _student_t_cdf(arr / spec.scale, spec.dof)
    elif isinstance(spec, CenteredLogNormal):
        sig = math.sqrt(spec.sigma2_log)
        shifted = arr + spec.shift
        out = np.where(shifted > 0.0, normal_cdf(np.log(np.maximum(shifted, 1e-300)) / sig), 0.0)
    else:
        raise TypeError(f"unknown distribution spec {spec!r}")
    out = np.atleast_1d(out)
    return float(out[0]) if scalar else out


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


def spec_label(spec: DistributionSpec) -> str:
    """Short text form of a spec in the colon grammar the config parser reads.

    Comma-free by construction, so labels are safe inside CSV fields.
    """
    if isinstance(spec, Normal):
        return f"normal:{spec.mu:g}:{spec.sigma:g}"
    if isinstance(spec, Uniform):
        return f"uniform:{spec.low:g}:{spec.high:g}"
    if isinstance(spec, Exponential):
        return f"exponential:{spec.rate:g}:{spec.shift:g}"
    if isinstance(spec, Cauchy):
        return f"cauchy:{spec.loc:g}:{spec.scale:g}"
    if isinstance(spec, StudentT):
        return f"t:{spec.dof:d}:{spec.scale:g}"
    if isinstance(spec, CenteredLogNormal):
        return f"clognormal:{spec.sigma2_log:g}"
    if isinstance(spec, ARProcess):
        return "ar:" + ":".join(f"{r:g}" for r in spec.rho)
    if isinstance(spec, MAProcess):
        return "ma:" + ":".join(f"{t:g}" for t in spec.theta)
    return repr(spec)
