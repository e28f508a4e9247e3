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
nonnegative).  G must be even, as in fastICA's one-unit contrast, so that
w and -w score alike; :func:`build_k` rejects any other G.  From K come
the sample constraint value c = mean K(y), the final fastICA contrast
(mean G(y) - E[G(Z)])^2, the fourth-moment contrast, and the Taylor-level
negentropy (1/2)||c||^2.

Each G also carries ``derivs(x)``, returning G'(x) and G''(x) together:
fastICA's fixed-point step needs both at the same points, and logcosh and
negexp compute their shared factor, tanh(a x) or exp(-x^2 / 2), once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable

import numpy as np

from .errors import DegenerateGError
from .quadrature import gaussian_weighted_rule

@dataclass(frozen=True)
class GFunction:
    """A contrast nonlinearity G; ``derivs(x)`` returns (G'(x), G''(x))."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    derivs: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
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
        # log cosh(ax) = |ax| + log((1 + exp(-2|ax|)) / 2), overflow-safe.
        # The steps after |ax| run in place in one result array, in the plain
        # expression's order, so the bits are its bits; at a = 1 the product
        # a * x and the division by a are exact no-ops and are skipped
        ax = np.abs(x if a == 1.0 else a * x)
        out = np.multiply(ax, -2.0, out=np.empty_like(ax))
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out += ax
        out -= math.log(2.0)
        if a != 1.0:
            out /= a
        return out if out.ndim else out[()]  # a scalar for 0-d x, as a ufunc gives

    def derivs(x):
        t = np.tanh(a * np.asarray(x, dtype=float))
        return t, a * (1.0 - t**2)

    return GFunction(name=f"logcosh({a:g})", value=value, derivs=derivs)


@cache
def negexp() -> GFunction:
    """G(x) = -exp(-x^2 / 2)."""

    def value(x):
        x = np.asarray(x, dtype=float)
        return -np.exp(-0.5 * x * x)

    def derivs(x):
        x = np.asarray(x, dtype=float)
        e = np.exp(-0.5 * x * x)
        return x * e, (1.0 - x * x) * e

    return GFunction(name="negexp", value=value, derivs=derivs)


@cache
def quartic() -> GFunction:
    """G(x) = x^4; admitted for the kurtosis-style contrast and K checks."""
    return GFunction(
        name="quartic",
        value=lambda x: np.asarray(x, dtype=float) ** 4,
        derivs=lambda x: (4.0 * np.asarray(x, dtype=float) ** 3,
                          12.0 * np.asarray(x, dtype=float) ** 2),
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

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (self.g.value(x) + self.alpha * x * x + self.beta * x + self.gamma) / self.delta

    @property
    def tail_degree(self) -> int:
        """Polynomial degree of K's growth at infinity."""
        return 2 if self.g.quadratic_growth else 4

    @property
    def tail_coeff(self) -> float:
        """Coefficient of the tail-dominant power of K."""
        return (self.alpha if self.g.quadratic_growth else 1.0) / self.delta


def _delta_sign(numerator) -> float:
    """Sign making the growing tail of K nonnegative (K bounded below); K is
    even, so one tail decides it."""
    return 1.0 if float(numerator(30.0)) > 0 else -1.0


def build_k(g: GFunction) -> KFunction:
    """Construct the K function for g under the default Gaussian rule.

    Raises ``ValueError`` if G is not even: if |G(x) - G(-x)| exceeds 1e-12
    of max |G| on the rule's nodes, which are exactly symmetric.
    """
    x, w = gaussian_weighted_rule()
    gv = g.value(x)
    asymmetry = float(np.abs(gv - gv[::-1]).max())
    if asymmetry > 1e-12 * float(np.abs(gv).max()):
        raise ValueError(f"{g.name}: G must be even, but |G(x) - G(-x)| reaches "
                         f"{asymmetry:.3g} on the Gaussian rule's nodes")
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
    x, w = gaussian_weighted_rule()
    return float(w @ g.value(x))


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
