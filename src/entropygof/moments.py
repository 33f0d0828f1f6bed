"""Moment constraints g(z) = k(z) - c derived from characteristic functions,
and the entropy test built on them.

A simple null hypothesis with characteristic function phi determines the
per-observation kernel 2 sin(z)/z (the line integral of e^{itz} over
t in (-1, 1)) and the target constant c = integral of phi(it) over the
same interval.  Agreement in expectation between kernel and target is
exactly agreement of the empirical and hypothesized characteristic
functions after integrating out t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .maxent import solve_maxent
from .numerics import elementwise, integrate
from .results import TestResult, check_dataset, chi2_1_decision
from .sampling import Cauchy, Normal

__all__ = [
    "MomentConstraint",
    "sinc_kernel",
    "normal_cf_integral",
    "build_standard_normal_constraint",
    "build_cauchy_sin_constraint",
    "build_cf_constraint",
    "null_constraint",
    "standardize",
    "run_et_test",
]


@dataclass(frozen=True)
class MomentConstraint:
    """Per-observation kernel k and target constant c encoding g(z) = k(z) - c."""

    kernel: Callable[[np.ndarray], np.ndarray]
    target: float
    label: str

    def values(self, data) -> np.ndarray:
        """Evaluate g over a data vector."""
        return np.asarray(self.kernel(np.asarray(data, dtype=np.float64))) - self.target


@elementwise
def sinc_kernel(z):
    """2 sin(z)/z with the removable singularity filled (value 2 at z = 0),
    under numerics' elementwise contract."""
    # two-term Taylor guard avoids 0/0 and catastrophic cancellation; it
    # runs only on the values it fills, since z * z overflows on large ones
    small = np.abs(z) < 1e-6
    out = 2.0 * np.sin(z)
    np.divide(out, z, out=out, where=~small)
    t = z[small]
    out[small] = 2.0 * (1.0 - t * t / 6.0)
    return out


def normal_cf_integral(mu: float, sigma: float) -> float:
    """Integral over (-1, 1) of the normal characteristic function at it.

    Only the real part cos(t mu) exp(-sigma^2 t^2 / 2) survives the
    symmetric integration; the imaginary part is odd in t.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    s2 = sigma * sigma

    def integrand(t):
        return np.cos(t * mu) * np.exp(-0.5 * s2 * t * t)

    return integrate(integrand, -1.0, 1.0)


def build_standard_normal_constraint() -> MomentConstraint:
    """Constraint whose expectation vanishes iff the data are standard normal."""
    return MomentConstraint(
        kernel=sinc_kernel,
        target=normal_cf_integral(0.0, 1.0),
        label="cf-normal(0,1)",
    )


def build_cauchy_sin_constraint() -> MomentConstraint:
    """sin-moment constraint for a standard Cauchy null.

    The derivative-of-CF construction integrates to a zero target over
    (-1, 1): sin is odd and the Cauchy CF contribution cancels.
    """
    return MomentConstraint(kernel=np.sin, target=0.0, label="sin-cauchy(0,1)")


def build_cf_constraint(cf_real: Callable, label: str = "cf-custom") -> MomentConstraint:
    """Constraint for any simple null whose CF at it is real and integrable.

    cf_real maps t to the (real) hypothesized characteristic function value;
    its integral over (-1, 1) becomes the target for the 2 sin(z)/z kernel.
    """
    target = integrate(cf_real, -1.0, 1.0)
    return MomentConstraint(kernel=sinc_kernel, target=target, label=label)


def null_constraint(null: Normal | Cauchy) -> tuple[float, float, MomentConstraint]:
    """Location, scale and standardized-data constraint of a simple null.

    Data are standardized by (location, scale) before the constraint is
    evaluated; the normal and Cauchy families are supported.
    """
    if isinstance(null, Normal):
        return null.mu, null.sigma, build_standard_normal_constraint()
    if isinstance(null, Cauchy):
        return null.loc, null.scale, build_cauchy_sin_constraint()
    raise ValueError("the simple entropy test supports normal or cauchy nulls")


def standardize(data, mu: float, sigma: float) -> np.ndarray:
    """Elementwise (z - mu) / sigma."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return (np.asarray(data, dtype=np.float64) - mu) / sigma


def run_et_test(data, constraint: MomentConstraint, alpha: float = 0.05) -> TestResult:
    """Entropy test of a simple null encoded by a moment constraint.

    Solves the constrained maximum-entropy problem on g(z_j) and compares
    2n sum pi ln(n pi) to the chi-square(1) critical value.  An infeasible
    constraint -- all g on one side of zero -- counts as an infinite
    statistic and hence a rejection.
    """
    statistic = solve_maxent(constraint.values(check_dataset("data", data))).statistic
    return chi2_1_decision(statistic, alpha, f"et[{constraint.label}]")
