"""One-dimensional deterministic quadrature.

Two rules cover every integral in the package:

* :func:`gaussian_weighted_rule` builds a Gauss-Hermite rule rescaled to the
  standard normal weight, so that ``sum(w_i * f(x_i))`` approximates
  ``E[f(Z)]`` for ``Z ~ N(0, 1)``.  The rule is exact for polynomials of
  degree ``2*order - 1``.
* :func:`integrate_interval` is a nested composite Simpson rule with panel
  doubling and a Richardson error estimate, for integrands whose weight is
  not the Gaussian density.

Node and weight computation uses Newton refinement of the Hermite roots on
the weighted recurrence ``q_j(z) = H~_j(z) exp(-z^2/2)`` (orthonormal
Hermite times the square-root weight), which stays O(1) in magnitude at any
order, so no matrix eigensolver is needed and orders of several hundred are
routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError

#: Default order for Gaussian-weighted rules.  Integrands include exp(y(x))
#: perturbations of the normal density and products of up to three
#: quadratically bounded factors, so high polynomial exactness is cheap
#: insurance.
DEFAULT_ORDER = 200

#: Default support for interval integration of densities.  All densities
#: handled here are sub-Gaussian-tailed; mass outside [-12, 12] is < 1e-30.
DENSITY_SUPPORT = (-12.0, 12.0)


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable set of nodes and positive weights.

    The weights absorb the normal density: applying the rule to
    ``f(x) = 1`` yields 1 within 1e-12.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("weights must all be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("gaussian-weighted rule must integrate 1 to 1")

    def apply(self, f) -> float:
        """Apply the rule to a vectorized function ``f``."""
        return float(self.weights @ np.asarray(f(self.nodes), dtype=float))


def _weighted_hermite_pair(z: float, n: int) -> tuple[float, float]:
    """Evaluate (q_n, q_{n-1}) at z, q_j = orthonormal Hermite * exp(-z^2/2)."""
    q1 = math.pi ** -0.25 * math.exp(-0.5 * z * z)
    q2 = 0.0
    for j in range(1, n + 1):
        q1, q2 = z * math.sqrt(2.0 / j) * q1 - math.sqrt((j - 1.0) / j) * q2, q1
    return q1, q2


def _hermite_nodes_weights(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for weight exp(-x^2), by Newton with asymptotic guesses."""
    m = (order + 1) // 2
    roots = np.empty(m)
    wts = np.empty(m)
    z = 0.0
    for i in range(m):
        # asymptotic initial guesses, largest root inward
        if i == 0:
            z = math.sqrt(2 * order + 1) - 1.85575 * (2 * order + 1) ** (-1.0 / 6.0)
        elif i == 1:
            z -= 1.14 * order ** 0.426 / z
        elif i == 2:
            z = 1.86 * z - 0.86 * roots[0]
        elif i == 3:
            z = 1.91 * z - 0.91 * roots[1]
        else:
            z = 2.0 * z - roots[i - 2]
        if i == m - 1 and order % 2:
            z = 0.0  # middle root of an odd-order rule is exactly 0
        else:
            for _ in range(200):
                qn, qn1 = _weighted_hermite_pair(z, order)
                # d/dz q_n = sqrt(2n) q_{n-1} - z q_n
                dq = math.sqrt(2.0 * order) * qn1 - z * qn
                step = qn / dq
                step = max(-1.0, min(1.0, step))
                z_prev, z = z, z - step
                if abs(z - z_prev) <= 1e-15 * max(1.0, abs(z)):
                    break
        roots[i] = z
        _, qn1 = _weighted_hermite_pair(z, order)
        # w = 2 exp(-z^2) / (H~'_n)^2 with H~'_n = sqrt(2n) H~_{n-1};
        # computed in log space so far-tail weights underflow gracefully.
        log_w = -z * z - math.log(order) - 2.0 * math.log(abs(qn1))
        wts[i] = math.exp(log_w) if log_w > -745.0 else 0.0
    if order % 2:
        xs = np.concatenate([-roots[: m - 1], [0.0], roots[: m - 1][::-1]])
        ws = np.concatenate([wts[: m - 1], [wts[m - 1]], wts[: m - 1][::-1]])
    else:
        xs = np.concatenate([-roots, roots[::-1]])
        ws = np.concatenate([wts, wts[::-1]])
    return xs, ws


def gaussian_weighted_rule(order: int = DEFAULT_ORDER) -> QuadratureRule:
    """Gauss-Hermite rule rescaled to the standard normal weight.

    ``sum(w_i f(x_i))`` approximates ``integral phi(x) f(x) dx`` and is exact
    for polynomials of degree <= 2*order - 1.  Nodes whose weight underflows
    double precision (possible beyond order ~350) are dropped; they cannot
    contribute at machine precision.
    """
    if not isinstance(order, (int, np.integer)) or order < 2:
        raise ValueError(f"order must be an integer >= 2, got {order!r}")
    return _cached_gaussian_rule(int(order))


@lru_cache(maxsize=32)
def _cached_gaussian_rule(order: int) -> QuadratureRule:
    """Build and validate each order once; the shared arrays are read-only.

    Callers validate ``order`` first: the cache compares keys by value, so
    200.0 would otherwise hit the entry for 200.
    """
    xs, ws = _hermite_nodes_weights(order)
    nodes = xs * math.sqrt(2.0)
    weights = ws / math.sqrt(math.pi)
    keep = weights > 0.0
    rule = QuadratureRule(nodes=nodes[keep], weights=weights[keep])
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def _evaluate(f, xs: np.ndarray) -> np.ndarray:
    """f on every point of xs in one vectorized call; its errors propagate."""
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError("integrand must return one value per point")
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand is not finite on the interval")
    return vals


def _composite_simpson(vals: np.ndarray, h: float) -> float:
    return h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum())


def integrate_interval(
    f,
    lo: float,
    hi: float,
    tol: float = 1e-10,
    *,
    initial_panels: int = 16,
    max_points: int = 1 << 22,
) -> float:
    """Integrate f over [lo, hi] to absolute tolerance tol.

    ``f`` is vectorized: it maps an array of points to an array of values
    of the same shape, and whatever it raises propagates.

    Composite Simpson with panel doubling; convergence requires the
    Richardson error estimate |S_k - S_{k-1}| / 15 <= tol on two consecutive
    doublings, which protects against narrow features invisible to coarse
    grids.  Raises :class:`AccuracyError` (carrying the best estimate and
    its error bound) if the point budget is exhausted.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not tol > 0:
        raise ValueError("tol must be positive")
    n = int(initial_panels)
    if n % 2:
        n += 1
    xs = np.linspace(lo, hi, n + 1)
    vals = _evaluate(f, xs)
    s_prev = _composite_simpson(vals, (hi - lo) / n)
    agreements = 0
    best = s_prev
    err = math.inf
    while 2 * n + 1 <= max_points:
        n *= 2
        h = (hi - lo) / n
        mid = np.linspace(lo + h, hi - h, n // 2)  # new midpoints only
        mid_vals = _evaluate(f, mid)
        merged = np.empty(n + 1)
        merged[0::2] = vals
        merged[1::2] = mid_vals
        vals = merged
        s = _composite_simpson(vals, h)
        err = abs(s - s_prev) / 15.0
        best = s
        if err <= tol:
            agreements += 1
            if agreements >= 2:
                return s
        else:
            agreements = 0
        s_prev = s
    raise AccuracyError(
        f"integrate_interval did not reach tol={tol:g} within {max_points} points "
        f"(best estimate {best:.17g}, error bound {err:.3g})",
        best_estimate=best,
        error_bound=err,
    )
