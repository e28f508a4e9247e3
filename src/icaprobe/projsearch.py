"""Direction sweeps and derivative-free direction optimization.

The half-circle sweep evaluates the contrast ladder (m-spacing negentropy,
surrogate negentropy J[f0], the fastICA sample contrast, and the
fourth-moment contrast) over directions w = (sin theta, cos theta) for
theta on a uniform grid in [0, pi); antipodal directions give reflected
projections with identical contrasts, so the half circle suffices.
Optimization over arbitrary dimension is deterministic and RADICAL-style
(Learned-Miller & Fisher, JMLR 2003): an exhaustive angle grid over one
great circle at a time, then a golden-section refinement of the best
grid angle, since the m-spacing objective is too rough for a local search
from a single start.  :func:`mspacing_components` deflates with it: each
m-spacing direction is sought in the complement of those found before.
Data are plain whitened (n, p) arrays D, directions are unit vectors in
whitened coordinates, and a projection is ``D @ w``.  At n >= 2^14 the
sweep splits its directions over the process's CPUs, bit for bit: each
direction's arithmetic is the same on any thread, and memory is
O(CPUs · n) while the sweep runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .contrast import GFunction, build_k, gaussian_expectation, logcosh
from .entropy import ETA_1, mspacing_negentropy, resolve_m
from .errors import ConvergenceError, OptimizationError
from .maxent import solve_f0

ALL_CONTRASTS = ("j_mspacing", "j_f0", "j_hat_star", "j_kurtosis")

#: Angles per great circle in optimize_direction: 1-degree steps over [0, pi).
GRID_SIZE = 180

#: Width in radians at which the golden-section refinement stops.
ANGLE_TOL = 1e-7

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Points from which sweep splits its directions over the CPUs.  Below it a
#: direction's work is mostly interpreter time under the GIL, and threads
#: slow the sweep down (n = 2000: 0.014 s serial, 0.032 s on two threads).
THREADED_MIN_N = 1 << 14


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class UnsupportedDimensionError(ValueError):
    """Sweeps are a 2-d diagnostic; use optimize_direction beyond that."""


@dataclass(frozen=True)
class SweepResult:
    """Per-direction contrast values over a theta grid in [0, pi)."""

    thetas: np.ndarray
    values: dict  # name -> array aligned with thetas
    c: np.ndarray  # constraint value mean K(y) of each direction, passed to solve_f0
    f0_failed: np.ndarray  # bool mask where solve_f0 did not converge
    f0_iterations: np.ndarray  # Newton steps of each J[f0] solve, 0 where it failed
    f0_rule_size: np.ndarray  # nodes of the rule that settled it, 0 where it failed
    f0_halvings: np.ndarray  # line-search halvings of each J[f0] solve, 0 where it failed

    def argmax(self, name: str) -> tuple[float, float]:
        """(theta*, value) of the named contrast, skipping failed entries."""
        vals = self.values[name]
        if np.all(np.isnan(vals)):
            raise ValueError(f"no finite values for contrast {name!r}")
        i = int(np.nanargmax(vals))
        return float(self.thetas[i]), float(vals[i])


def sweep(
    D: np.ndarray,
    grid_size: int = 360,
    g: GFunction | None = None,
    m: int | None = None,
) -> SweepResult:
    """Evaluate the whole contrast ladder on a uniform grid over [0, pi).

    Every direction gets all of :data:`ALL_CONTRASTS`, with K built from
    ``g`` (logcosh by default) and one spacing for every m-spacing
    estimate, resolved from ``m`` by :func:`~icaprobe.entropy.resolve_m`
    before the first direction.  Each direction makes one projection
    y = D w, one sort (the m-spacing estimate) and one pass of G, whose
    mean gives the fastICA contrast.  The polynomial moments need no pass
    of their own: mean y^2 and mean y^4 are quadratic and quartic forms in
    w = (sin theta, cos theta) over the second and fourth moments of D,
    computed once.  They give the fourth-moment contrast |mean y^4 - 3|
    and, with mean G(y), the constraint value c = mean K(y) = (mean G(y) +
    alpha mean y^2 + gamma) / delta, since K is even.  These agree with
    :func:`~icaprobe.contrast.kurtosis_contrast` and
    :func:`~icaprobe.contrast.c_value` on the projection to rounding for
    whitened D, the sweep's contract.  On data far from the origin or
    strongly anisotropic, the terms of the forms are large and cancel at
    some theta, and the closed form loses accuracy with that cancellation.
    At n >= :data:`THREADED_MIN_N` the per-direction work (projection,
    sort, pass of G) is split over the CPUs the process may run on, as
    strided blocks of the grid, one on the calling thread; numpy releases
    the GIL for it.  Each direction's arithmetic is unchanged, so every
    output is the same bit for bit on any number of CPUs; memory is
    O(CPUs · n) while the directions run.  A worker's ``ValueError``
    reaches the caller.  The c of all directions go to one
    :func:`~icaprobe.maxent.solve_f0` call and are returned as ``c``.
    J[f0] entries where the surrogate solver fails are NaN with the failure
    flag set; they are reported, never fabricated.
    """
    n, p = D.shape
    if p != 2:
        raise UnsupportedDimensionError(f"sweep needs p = 2 (got {p}); use optimize_direction")
    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    m = resolve_m(m, n)
    if g is None:
        g = logcosh()
    k = build_k(g)
    g_gauss = gaussian_expectation(g)
    thetas = np.arange(grid_size) * (math.pi / grid_size)
    ws = np.array([[math.sin(theta), math.cos(theta)] for theta in thetas])
    values = {name: np.empty(grid_size) for name in ALL_CONTRASTS}
    g_means = np.empty(grid_size)

    def direction(i):
        y = D @ ws[i]
        values["j_mspacing"][i] = mspacing_negentropy(y, m)  # rejects non-finite y
        g_means[i] = np.mean(g.value(y))
        values["j_hat_star"][i] = (g_means[i] - g_gauss) ** 2

    workers = min(_cpu_count(), grid_size) if n >= THREADED_MIN_N else 1
    if workers == 1:
        for i in range(grid_size):
            direction(i)
    else:
        from concurrent.futures import ThreadPoolExecutor

        def block(start):
            for i in range(start, grid_size, workers):
                direction(i)

        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(block, b) for b in range(1, workers)]
            block(0)
            for future in futures:
                future.result()  # a worker's ValueError reaches the caller
    x1, x2 = D[:, 0], D[:, 1]
    x11, x12, x22 = x1 * x1, x1 * x2, x2 * x2
    s, t = ws[:, 0], ws[:, 1]  # sin and cos of theta
    mean_y2 = s * s * np.mean(x11) + 2.0 * s * t * np.mean(x12) + t * t * np.mean(x22)
    mean_y4 = (
        s**4 * np.mean(x11 * x11)
        + 4.0 * s**3 * t * np.mean(x11 * x12)
        + 6.0 * s**2 * t**2 * np.mean(x11 * x22)
        + 4.0 * s * t**3 * np.mean(x12 * x22)
        + t**4 * np.mean(x22 * x22)
    )
    values["j_kurtosis"] = np.abs(mean_y4 - 3.0)
    cs = (g_means + k.alpha * mean_y2 + k.gamma) / k.delta
    f0_failed = np.zeros(grid_size, dtype=bool)
    f0_iterations = np.zeros(grid_size, dtype=int)
    f0_rule_size = np.zeros(grid_size, dtype=int)
    f0_halvings = np.zeros(grid_size, dtype=int)
    for i, d in enumerate(solve_f0(cs, k)):
        if isinstance(d, ConvergenceError):
            values["j_f0"][i] = math.nan
            f0_failed[i] = True
        else:
            values["j_f0"][i] = ETA_1 - d.entropy
            f0_iterations[i], f0_halvings[i] = d.iterations, d.halvings
            f0_rule_size[i] = d.rule_size
    return SweepResult(
        thetas=thetas, values=values, c=cs, f0_failed=f0_failed,
        f0_iterations=f0_iterations, f0_rule_size=f0_rule_size, f0_halvings=f0_halvings,
    )


def _complement(w: np.ndarray) -> np.ndarray:
    """Rows spanning w's complement: the Householder reflection taking e_p
    to w without its last row, so e_1 ... e_{p-1} at w = e_p."""
    h = np.eye(len(w))
    v = w - h[-1]
    vv = float(v @ v)
    if vv > 0.0:
        h -= (2.0 / vv) * np.outer(v, v)
    return h[:-1]


def _golden_max(f, a: float, b: float) -> tuple[float, float]:
    """Maximize f on [a, b] by golden section until b - a < ANGLE_TOL."""
    c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a >= ANGLE_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def optimize_direction(D: np.ndarray, contrast) -> np.ndarray:
    """Maximize an even objective, ``contrast(w) == contrast(-w)``, over
    the unit sphere, and return the unit vector that attains it.

    From w = e_p, a sweep takes each row u of an orthonormal basis of w's
    complement: ``contrast(cos t w + sin t u)`` is evaluated for t on
    :data:`GRID_SIZE` angles in [0, pi), which by evenness covers the
    great circle, and the best angle is refined by golden section within
    one grid step down to :data:`ANGLE_TOL`; w moves there if the value
    improves.  Sweeps repeat until one moves w by less than a grid step.
    At p = 2 the one circle is the whole sphere and t is the sweep's
    theta, so one sweep is exact; at p = 1 the sphere is ±e_1, one
    evaluation.  At p = 2 the result is [sin theta, cos theta] with theta
    in [0, pi), the sweep's form of the direction.  Non-finite values are
    skipped; raises :class:`OptimizationError` if no direction gives a
    finite value.
    """
    p = D.shape[1]
    step = math.pi / GRID_SIZE
    grid = np.arange(GRID_SIZE) * step
    w, best = np.eye(p)[-1], -math.inf
    if p == 1:  # e_1 has no complement to search
        best = float(contrast(w))
    while p > 1:
        start = w
        for u in _complement(start):

            def value(t, w=w, u=u):
                v = float(contrast(math.cos(t) * w + math.sin(t) * u))
                return v if math.isfinite(v) else -math.inf

            vals = [value(t) for t in grid]
            i = int(np.argmax(vals))
            t, f = _golden_max(value, grid[i] - step, grid[i] + step)
            if vals[i] >= f:
                t, f = grid[i], vals[i]
            if f > best:
                w, best = math.cos(t) * w + math.sin(t) * u, f
        if p == 2 or abs(start @ w) > math.cos(step):
            break
    if not math.isfinite(best):
        raise OptimizationError("no direction gave a finite objective")
    if p == 2:
        theta = math.atan2(w[0], w[1]) % math.pi
        return np.array([np.sin(theta), np.cos(theta)])
    return w


def mspacing_components(D: np.ndarray, components: int) -> np.ndarray:
    """Sequential m-spacing directions, each in the orthogonal complement.

    Row k of the returned (components, p) array maximizes the m-spacing
    negentropy by :func:`optimize_direction` over the complement of rows
    0 ... k-1; the last of p rows is that complement itself.  Each row is
    signed so that its largest-magnitude entry (the first, on a tie) is
    positive: the complement's sign would otherwise follow rounding in the
    rows before it.  Raises ``ValueError`` unless 1 <= components <= p.
    """
    p = D.shape[1]
    if components < 1:
        raise ValueError("n_components must be >= 1")
    if components > p:
        raise ValueError(f"asked for {components} components in {p} dimensions")
    rows = []
    for _ in range(components):
        if rows:
            basis = np.linalg.svd(np.vstack(rows))[2][len(rows):].T  # (p, p-k)
        else:
            basis = np.eye(p)
        if basis.shape[1] == 1:
            w = basis[:, 0]
        else:
            sub = D @ basis  # white already: the basis columns are orthonormal
            w = basis @ optimize_direction(sub, lambda u: mspacing_negentropy(sub @ u))
        rows.append(w)
    W = np.vstack(rows)
    lead = W[np.arange(components), np.argmax(np.abs(W), axis=1)]
    return W * np.sign(lead)[:, None]
