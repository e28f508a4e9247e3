"""Direction sweeps and derivative-free direction optimization.

The half-circle sweep evaluates the contrast ladder (m-spacing negentropy,
surrogate negentropy J[f0], the fastICA sample contrast, and the
fourth-moment contrast) over directions w = (sin theta, cos theta) for
theta on a uniform grid in [0, pi); antipodal directions give reflected
projections with identical contrasts, so the half circle suffices.
Optimization over arbitrary dimension uses Nelder-Mead on hyperspherical
angles with stratified restarts, since the m-spacing objective is not
smooth enough for single-start local search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contrast import (
    GFunction,
    build_k,
    c_value,
    fastica_contrast,
    kurtosis_contrast,
    logcosh,
)
from .entropy import ETA_1, MSpacingConfig, mspacing_negentropy
from .errors import ConvergenceError, OptimizationError
from .maxent import solve_f0
from .whiten import Direction, WhitenedData
from .rng import ReproducibleStream

ALL_CONTRASTS = ("j_mspacing", "j_f0", "j_hat_star", "j_kurtosis")

#: Nelder-Mead coefficients: reflection, expansion, contraction, shrink.
NM_COEFFS = (1.0, 2.0, 0.5, 0.5)
NM_DIAMETER_TOL = 1e-7

#: Stratified Nelder-Mead starts per optimize_direction call.
RESTARTS = 8


class UnsupportedDimensionError(ValueError):
    """Sweeps are a 2-d diagnostic; use optimize_direction beyond that."""


@dataclass(frozen=True)
class SweepResult:
    """Per-direction contrast values over a theta grid in [0, pi)."""

    thetas: np.ndarray
    values: dict  # name -> array aligned with thetas
    f0_failed: np.ndarray  # bool mask where solve_f0 did not converge

    def argmax(self, name: str) -> tuple[float, float]:
        """(theta*, value) of the named contrast, skipping failed entries."""
        vals = self.values[name]
        if np.all(np.isnan(vals)):
            raise ValueError(f"no finite values for contrast {name!r}")
        i = int(np.nanargmax(vals))
        return float(self.thetas[i]), float(vals[i])


def sweep(
    D: WhitenedData,
    grid_size: int = 360,
    g: GFunction | None = None,
    mspacing: MSpacingConfig = MSpacingConfig(),
) -> SweepResult:
    """Evaluate the whole contrast ladder on a uniform grid over [0, pi).

    Every direction gets all of :data:`ALL_CONTRASTS`, with K built from
    ``g`` (logcosh by default).  J[f0] entries where the surrogate solver
    fails are NaN with the failure flag set; they are reported, never
    fabricated.
    """
    if D.n_components != 2:
        raise UnsupportedDimensionError(
            f"sweep needs p = 2 (got {D.n_components}); use optimize_direction"
        )
    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    if g is None:
        g = logcosh()
    k = build_k(g)
    thetas = np.arange(grid_size) * (math.pi / grid_size)
    values = {name: np.empty(grid_size) for name in ALL_CONTRASTS}
    f0_failed = np.zeros(grid_size, dtype=bool)
    for i, theta in enumerate(thetas):
        y = D.values @ np.array([math.sin(theta), math.cos(theta)])
        values["j_mspacing"][i] = mspacing_negentropy(y, mspacing)
        values["j_hat_star"][i] = fastica_contrast(y, g)
        values["j_kurtosis"][i] = kurtosis_contrast(y)
        try:
            values["j_f0"][i] = ETA_1 - solve_f0(c_value(y, k), k).entropy
        except ConvergenceError:
            values["j_f0"][i] = math.nan
            f0_failed[i] = True
    return SweepResult(thetas=thetas, values=values, f0_failed=f0_failed)


def angles_to_unit(angles: np.ndarray) -> np.ndarray:
    """Map p-1 hyperspherical angles to a unit vector in R^p.

    For p = 2 this is (sin t, cos t), matching the sweep convention.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    w = np.array([1.0])
    for t in angles[::-1]:
        w = np.concatenate([math.sin(t) * w, [math.cos(t)]])
    return w


def _nelder_mead(fn, x0: np.ndarray, step: float, max_iter: int = 400):
    """Minimize fn from x0; returns (x_best, f_best)."""
    refl, expa, contr, shrink = NM_COEFFS
    n = len(x0)
    simplex = [np.array(x0, dtype=float)]
    for i in range(n):
        v = np.array(x0, dtype=float)
        v[i] += step
        simplex.append(v)
    fvals = [fn(v) for v in simplex]
    for _ in range(max_iter):
        order = np.argsort(fvals)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        spread = max(np.linalg.norm(v - simplex[0]) for v in simplex[1:])
        if spread < NM_DIAMETER_TOL:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        xr = centroid + refl * (centroid - worst)
        fr = fn(xr)
        if fvals[0] <= fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[0]:
            xe = centroid + expa * (xr - centroid)
            fe = fn(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + contr * (worst - centroid)
            fc = fn(xc)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = xc, fc
            else:
                best = simplex[0]
                simplex = [best] + [best + shrink * (v - best) for v in simplex[1:]]
                fvals = [fvals[0]] + [fn(v) for v in simplex[1:]]
    i = int(np.argmin(fvals))
    return simplex[i], fvals[i]


def optimize_direction(D: WhitenedData, contrast, seed: int = 0) -> Direction:
    """Maximize a direction objective over the unit sphere.

    ``contrast`` maps a unit vector to a float.  Nelder-Mead runs on p-1
    hyperspherical angles from :data:`RESTARTS` stratified random starts;
    the best restart wins.  Raises :class:`OptimizationError` if no
    restart produces a finite value.
    """
    p = D.n_components
    n_angles = p - 1
    stream = ReproducibleStream(seed)

    def objective(angles):
        val = contrast(angles_to_unit(angles))
        return -val if np.isfinite(val) else math.inf

    best_x, best_f = None, math.inf
    for r in range(RESTARTS):
        first = (r + float(stream.uniforms(1)[0])) * math.pi / RESTARTS
        rest = stream.uniforms(max(0, n_angles - 1)) * math.pi
        x0 = np.concatenate([[first], rest])
        x, f = _nelder_mead(objective, x0, step=math.pi / 10.0)
        if f < best_f:
            best_x, best_f = x, f
    if best_x is None or not np.isfinite(best_f):
        raise OptimizationError("no restart produced a finite objective")
    w = angles_to_unit(best_x)
    if p == 2:
        theta = math.atan2(w[0], w[1]) % math.pi
        return Direction.from_angle(theta)
    return Direction(w=w)
