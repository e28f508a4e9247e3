"""Contrast nonlinearities and the orthonormalized K construction.

A chosen nonlinearity G is corrected by a quadratic polynomial and
normalized,

    K(x) = (G(x) + alpha x^2 + beta x + gamma) / delta,

so that K is orthogonal to 1, x, x^2 under the standard normal weight and
has unit Gaussian norm.  The closed forms are

    alpha = (1/2) (E[G(Z)] - E[Z^2 G(Z)])
    beta  = -E[Z G(Z)]
    gamma = (1/2) (E[Z^2 G(Z)] - 3 E[G(Z)])
    delta = +-sqrt(E[(G + alpha x^2 + beta x + gamma)(Z)^2])

with the sign of delta chosen so K is bounded below (its growing tail is
nonnegative).  From K come the sample constraint value c = mean K(y), the
final fastICA contrast (mean G(y) - E[G(Z)])^2, the fourth-moment contrast,
and the Taylor-level negentropy (1/2)||c||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable

import numpy as np

from .errors import DegenerateGError
from .quadrature import gaussian_weighted_rule

#: Grid used when the tail test cannot decide the sign of delta.
_SIGN_GRID = np.linspace(-12.0, 12.0, 4001)


@dataclass(frozen=True)
class GFunction:
    """A contrast nonlinearity with first and second derivatives."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    deriv2: Callable[[np.ndarray], np.ndarray]
    quadratic_growth: bool = True  # |G(x)| <= B (1 + x^2)


def logcosh(alpha: float = 1.0) -> GFunction:
    """G(x) = (1/alpha) log cosh(alpha x), alpha in [1, 2]."""
    if not 1.0 <= alpha <= 2.0:
        raise ValueError(f"logcosh alpha must be in [1, 2], got {alpha!r}")
    return _logcosh(float(alpha))


# The factories are memoized so that equal arguments give the same GFunction,
# and the caches keyed by K (the feasible range) hit across calls.
@cache
def _logcosh(a: float) -> GFunction:
    def value(x):
        x = np.asarray(x, dtype=float)
        # log cosh(ax) = |ax| + log((1 + exp(-2|ax|)) / 2), overflow-safe
        ax = np.abs(a * x)
        return (ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)) / a

    return GFunction(
        name=f"logcosh({a:g})",
        value=value,
        deriv=lambda x: np.tanh(a * np.asarray(x, dtype=float)),
        deriv2=lambda x: a * (1.0 - np.tanh(a * np.asarray(x, dtype=float)) ** 2),
    )


@cache
def negexp() -> GFunction:
    """G(x) = -exp(-x^2 / 2)."""

    def value(x):
        x = np.asarray(x, dtype=float)
        return -np.exp(-0.5 * x * x)

    def deriv(x):
        x = np.asarray(x, dtype=float)
        return x * np.exp(-0.5 * x * x)

    def deriv2(x):
        x = np.asarray(x, dtype=float)
        return (1.0 - x * x) * np.exp(-0.5 * x * x)

    return GFunction(name="negexp", value=value, deriv=deriv, deriv2=deriv2)


@cache
def quartic() -> GFunction:
    """G(x) = x^4; admitted for the kurtosis-style contrast and K checks."""
    return GFunction(
        name="quartic",
        value=lambda x: np.asarray(x, dtype=float) ** 4,
        deriv=lambda x: 4.0 * np.asarray(x, dtype=float) ** 3,
        deriv2=lambda x: 12.0 * np.asarray(x, dtype=float) ** 2,
        quadratic_growth=False,
    )


GFAMILIES = {"logcosh": logcosh, "negexp": negexp, "quartic": quartic}


@dataclass(frozen=True)
class KFunction:
    """Orthonormalized correction of a GFunction."""

    g: GFunction
    alpha: float
    beta: float
    gamma: float
    delta: float

    def from_g_values(self, x, gv):
        """K(x) from gv = G(x) already evaluated, so a caller that also
        needs G(x) evaluates it once."""
        return (gv + self.alpha * x * x + self.beta * x + self.gamma) / self.delta

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.from_g_values(x, self.g.value(x))

    @property
    def tail_degree(self) -> int:
        """Polynomial degree of K's growth at infinity."""
        return 2 if self.g.quadratic_growth else 4

    @property
    def tail_coeff(self) -> float:
        """Coefficient of the tail-dominant power of K."""
        return (self.alpha if self.g.quadratic_growth else 1.0) / self.delta


def _delta_sign(numerator) -> float:
    """Sign making the growing tail of K nonnegative (K bounded below).

    When the tails disagree in sign (odd-dominated numerator), fall back to
    the sign giving the larger minimum over the reference grid.
    """
    n_plus = float(numerator(30.0))
    n_minus = float(numerator(-30.0))
    if n_plus > 0 and n_minus > 0:
        return 1.0
    if n_plus < 0 and n_minus < 0:
        return -1.0
    vals = numerator(_SIGN_GRID)
    return 1.0 if float(vals.min() + vals.max()) >= 0.0 else -1.0


def build_k(g: GFunction) -> KFunction:
    """Construct the K function for g under the default Gaussian rule."""
    rule = gaussian_weighted_rule()
    x, w = rule.nodes, rule.weights
    gv = g.value(x)
    m0 = float(w @ gv)
    m1 = float(w @ (x * gv))
    m2 = float(w @ (x * x * gv))
    alpha = 0.5 * (m0 - m2)
    beta = -m1
    gamma = 0.5 * (m2 - 3.0 * m0)
    # K's numerator, exactly: dividing by 1.0 rounds nothing
    numerator = KFunction(g=g, alpha=alpha, beta=beta, gamma=gamma, delta=1.0)
    norm_sq = float(w @ numerator(x) ** 2)
    if norm_sq < 1e-14:
        raise DegenerateGError(
            f"{g.name}: G is absorbed by the quadratic correction (norm^2 = "
            f"{norm_sq:.2e}); K would be 0/0"
        )
    delta = _delta_sign(numerator) * math.sqrt(norm_sq)
    return replace(numerator, delta=delta)


def c_value(y, k: KFunction) -> float:
    """Empirical constraint value, the sample mean of K(y)."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("sample must be nonempty")
    if not np.all(np.isfinite(y)):
        raise ValueError("sample must be finite")
    return float(np.mean(k(y)))


def gaussian_expectation(g: GFunction) -> float:
    """E[G(Z)] for Z ~ N(0, 1), by Gaussian quadrature."""
    return gaussian_weighted_rule().apply(g.value)


def fastica_contrast(y, g: GFunction) -> float:
    """The final sample contrast (mean G(y) - E[G(Z)])^2, with E[G(Z)] by
    Gaussian quadrature."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("sample must be nonempty")
    return float((np.mean(g.value(y)) - gaussian_expectation(g)) ** 2)


def kurtosis_contrast(y) -> float:
    """|mean(y^4) - 3|, the fourth-moment contrast."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("sample must be nonempty")
    y2 = y * y  # y**4 takes numpy's slow general power path
    return float(abs(np.mean(y2 * y2) - 3.0))


def hat_j_from_c(c) -> float:
    """Taylor-level negentropy (1/2)||c||^2."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return 0.5 * float(c @ c)
