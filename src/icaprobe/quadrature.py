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
order, so orders of several hundred are routine.  Each root's Newton run
starts from an asymptotic guess built out of the two roots above it, which
makes the roots the unique fixed point of a sweep that runs all the Newton
runs at once in numpy arrays.  A matrix eigensolver (Golub & Welsch 1969)
supplies only the sweep's first input: the sweeps repeat until one returns
its input bit for bit, so the eigenvalues' rounding never reaches the
result, which is the one a root-by-root build gives.
"""

from __future__ import annotations

import math
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

#: Point budget of :func:`integrate_interval`.
MAX_POINTS = 1 << 22


def _recurrence(n: int) -> tuple[np.ndarray, list[float]]:
    """Coefficients sqrt(2/j) and sqrt((j-1)/j), j = 1..n, of the q_j recurrence."""
    a = np.array([math.sqrt(2.0 / j) for j in range(1, n + 1)])
    return a, [math.sqrt((j - 1.0) / j) for j in range(1, n + 1)]


def _weighted_hermite_pairs(
    z: np.ndarray, recurrence: tuple[np.ndarray, list[float]]
) -> tuple[np.ndarray, np.ndarray]:
    """(q_n, q_{n-1}) at every z, q_j = orthonormal Hermite * exp(-z^2/2).

    Each step is ``(z * sqrt(2/j)) * q_{j-1} - sqrt((j-1)/j) * q_{j-2}``,
    rounded exactly as the same expression in Python floats; ``exp`` comes
    from :mod:`math`, whose rounding numpy's ``exp`` need not share.
    """
    a, b = recurrence
    q1 = math.pi ** -0.25 * np.array([math.exp(v) for v in (-0.5 * z * z).tolist()])
    q2 = np.zeros_like(z)
    t = np.empty_like(z)
    for row, b_j in zip(np.multiply.outer(a, z), b):
        np.multiply(q2, b_j, out=q2)
        np.multiply(row, q1, out=t)
        np.subtract(t, q2, out=q2)
        q1, q2 = q2, q1
    return q1, q2


def _newton(z: np.ndarray, order: int, recurrence: tuple[np.ndarray, list[float]]) -> np.ndarray:
    """Newton on q_order from every start in z at once.

    Per root: the step is clipped to [-1, 1], the root stops once it moves
    by at most 1e-15 * max(1, |z|) and is frozen, and no root takes more
    than 200 steps.  NaN steps clip to 1 and NaN roots never stop, as with
    Python's ``min``/``max`` on floats.
    """
    z = z.copy()
    live = np.arange(z.size)
    scale = math.sqrt(2.0 * order)
    for _ in range(200):
        if not live.size:
            break
        z_prev = z[live]
        qn, qn1 = _weighted_hermite_pairs(z_prev, recurrence)
        # d/dz q_n = sqrt(2n) q_{n-1} - z q_n
        step = qn / (scale * qn1 - z_prev * qn)
        step = np.where(step < 1.0, step, 1.0)
        step = np.where(step > -1.0, step, -1.0)
        z_new = z_prev - step
        z[live] = z_new
        magnitude = np.abs(z_new)
        done = np.abs(z_new - z_prev) <= 1e-15 * np.where(magnitude > 1.0, magnitude, 1.0)
        live = live[~done]
    return z


def _starts(roots: np.ndarray, order: int) -> np.ndarray:
    """Asymptotic Newton start for root i out of roots i-1 and i-2."""
    z = np.empty_like(roots)
    z[0] = math.sqrt(2 * order + 1) - 1.85575 * (2 * order + 1) ** (-1.0 / 6.0)
    if roots.size > 1:
        z[1] = roots[0] - 1.14 * order ** 0.426 / roots[0]
    if roots.size > 2:
        z[2] = 1.86 * roots[1] - 0.86 * roots[0]
    if roots.size > 3:
        z[3] = 1.91 * roots[2] - 0.91 * roots[1]
    z[4:] = 2.0 * roots[3:-1] - roots[2:-2]
    return z


def _hermite_nodes_weights(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for weight exp(-x^2), largest root first by Newton.

    Root i starts Newton from a guess built out of roots i-1 and i-2, so
    the roots are the fixed point S of the sweep F that runs every root's
    Newton from the start its two predecessors give.  S is unique: after k
    sweeps from any input the first k roots equal S bit for bit, so a sweep
    whose output equals its input is S, and m + 1 sweeps always reach it.
    Eigenvalues of the Jacobi matrix put the input within rounding of S,
    and two or three sweeps suffice.  A root whose start did not change
    bit for bit keeps its last result instead of rerunning Newton.
    """
    m = (order + 1) // 2
    h = order // 2  # positive roots; an odd order adds the root 0
    # the squared positive roots are the zeros of the Laguerre polynomial
    # L_h^(alpha), alpha = -1/2 (even order) or 1/2 (odd), whose Jacobi
    # matrix has diagonal 2k + alpha + 1 and off-diagonal sqrt(k (k + alpha))
    alpha = 0.5 if order % 2 else -0.5
    k = np.arange(1.0, h)
    off = np.sqrt(k * (k + alpha))
    jacobi = np.zeros((h, h))  # filled in place: no h x h temporaries
    jacobi.flat[:: h + 1] = 2.0 * np.arange(h) + alpha + 1.0
    jacobi.flat[1 :: h + 1] = off
    jacobi.flat[h :: h + 1] = off
    roots = np.zeros(m)
    roots[:h] = np.sqrt(np.linalg.eigvalsh(jacobi))[::-1]
    recurrence = _recurrence(order)
    starts = _starts(roots, order)[:h]
    rerun = np.arange(h)
    with np.errstate(all="ignore"):  # early sweeps may start far off
        for _ in range(m + 1):
            swept = roots.copy()
            swept[rerun] = _newton(starts[rerun], order, recurrence)
            if swept.tobytes() == roots.tobytes():
                break
            roots = swept
            new_starts = _starts(roots, order)[:h]
            rerun = np.flatnonzero(new_starts.view(np.int64) != starts.view(np.int64))
            starts = new_starts
    _, qn1 = _weighted_hermite_pairs(roots, recurrence)
    wts = np.empty(m)
    for i, (z, q) in enumerate(zip(roots.tolist(), qn1.tolist())):
        # w = 2 exp(-z^2) / (H~'_n)^2 with H~'_n = sqrt(2n) H~_{n-1};
        # computed in log space so far-tail weights underflow gracefully.
        log_w = -z * z - math.log(order) - 2.0 * math.log(abs(q))
        wts[i] = math.exp(log_w) if log_w > -745.0 else 0.0
    if order % 2:
        xs = np.concatenate([-roots[: m - 1], [0.0], roots[: m - 1][::-1]])
        ws = np.concatenate([wts[: m - 1], [wts[m - 1]], wts[: m - 1][::-1]])
    else:
        xs = np.concatenate([-roots, roots[::-1]])
        ws = np.concatenate([wts, wts[::-1]])
    return xs, ws


def gaussian_weighted_rule(order: int = DEFAULT_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule rescaled to the standard normal weight.

    Returns ``(nodes, weights)``, both read-only and shared by every
    caller: ``weights @ f(nodes)`` approximates ``integral phi(x) f(x) dx``
    and is exact for polynomials of degree <= 2*order - 1.  Nodes whose
    weight underflows double precision (possible beyond order ~350) are
    dropped; they cannot contribute at machine precision.
    """
    if not isinstance(order, (int, np.integer)) or order < 2:
        raise ValueError(f"order must be an integer >= 2, got {order!r}")
    return _cached_gaussian_rule(int(order))


@lru_cache(maxsize=32)
def _cached_gaussian_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Build and validate each order once; the shared arrays are read-only.

    Callers validate ``order`` first: the cache compares keys by value, so
    200.0 would otherwise hit the entry for 200.
    """
    xs, ws = _hermite_nodes_weights(order)
    nodes = xs * math.sqrt(2.0)
    weights = ws / math.sqrt(math.pi)
    keep = weights > 0.0
    nodes, weights = nodes[keep], weights[keep]
    if not np.all(np.diff(nodes) > 0):
        raise ValueError("nodes must be strictly increasing")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("gaussian-weighted rule must integrate 1 to 1")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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
) -> float:
    """Integrate f over [lo, hi] to absolute tolerance tol, which must be
    positive and finite.

    ``f`` is vectorized: it maps an array of points to an array of values
    of the same shape, and whatever it raises propagates.

    Composite Simpson with panel doubling; convergence requires the
    Richardson error estimate |S_k - S_{k-1}| / 15 <= tol on two consecutive
    doublings, which protects against narrow features invisible to coarse
    grids.  Raises :class:`AccuracyError` (carrying the best estimate and
    its error bound) if the :data:`MAX_POINTS` budget is exhausted.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    n = int(initial_panels)
    if n % 2:
        n += 1
    xs = np.linspace(lo, hi, n + 1)
    vals = _evaluate(f, xs)
    s_prev = _composite_simpson(vals, (hi - lo) / n)
    agreements = 0
    best = s_prev
    err = math.inf
    while 2 * n + 1 <= MAX_POINTS:
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
        f"integrate_interval did not reach tol={tol:g} within {MAX_POINTS} points "
        f"(best estimate {best:.17g}, error bound {err:.3g})",
        best_estimate=best,
        error_bound=err,
    )
