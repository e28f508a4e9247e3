"""Deflation fastICA and the Amari recovery metric.

Loadings are found one at a time by the fixed-point update

    w+ = normalize( (1/n) D^T G'(D w) - mean(G''(D w)) w )

with Gram-Schmidt projection against previously accepted rows after every
step, restarting from fresh seeded directions when an attempt fails to
converge.  Convergence uses |<w_{t+1}, w_t>| >= 1 - TOL, which tolerates
the sign-flip oscillation inherent to the update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contrast import GFunction, fastica_contrast
from .errors import StepDegenerateError
from .rng import ReproducibleStream

#: An attempt has converged once |<w_{t+1}, w_t>| >= 1 - TOL.
TOL = 1e-6

#: Fixed-point steps per attempt.
MAX_ITER = 200

#: Seeded restarts per component after the first attempt.
RESTARTS = 5


@dataclass(frozen=True)
class Loadings:
    """Per-component unit rows with convergence diagnostics."""

    W: np.ndarray  # (n_components, p)
    converged: np.ndarray  # (n_components,) bool
    iterations: np.ndarray  # (n_components,) int

    def __post_init__(self):
        gram = self.W @ self.W.T
        if np.abs(gram - np.eye(self.W.shape[0])).max() > 1e-8:
            raise ValueError("loadings rows must be orthonormal")


def fixed_point_step(w: np.ndarray, D: np.ndarray, g: GFunction) -> np.ndarray:
    """One fastICA fixed-point update of a unit direction in whitened data D."""
    d1, d2 = g.derivs(D @ w)
    update = D.T @ d1 / D.shape[0] - float(np.mean(d2)) * w
    norm = float(np.linalg.norm(update))
    if norm < 1e-12:
        raise StepDegenerateError("fixed-point update collapsed to zero")
    return update / norm


def _orthogonalize(w: np.ndarray, accepted: list[np.ndarray]) -> np.ndarray:
    for v in accepted:
        w = w - (w @ v) * v
    return w


def deflation(D: np.ndarray, n_components: int, g: GFunction, seed: int) -> Loadings:
    """Extract n_components loadings of whitened D, restarts drawn from seed.

    The fixed-point map can attract to any stationary direction of the
    contrast, so every seeded restart is run and the converged candidate
    with the largest sample contrast wins, implementing the argmax the
    update approximates.  Rows with no converged restart are flagged, not
    raised: the last candidate is kept so output rows stay orthonormal.
    """
    p = D.shape[1]
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    if n_components > p:
        raise ValueError(f"asked for {n_components} components in {p} dimensions")
    stream = ReproducibleStream(seed)
    accepted: list[np.ndarray] = []
    conv_flags = []
    iter_counts = []
    for _ in range(n_components):
        best = None  # (contrast, w, iters)
        fallback = None
        for _ in range(RESTARTS + 1):
            w = _orthogonalize(stream.unit_vector(p), accepted)
            norm = np.linalg.norm(w)
            if norm < 1e-8:
                continue  # restart landed in the span of accepted rows
            w = w / norm
            converged = False
            iters = 0
            try:
                for iters in range(1, MAX_ITER + 1):
                    w_new = _orthogonalize(fixed_point_step(w, D, g), accepted)
                    norm = np.linalg.norm(w_new)
                    if norm < 1e-12:
                        raise StepDegenerateError("projection annihilated the update")
                    w_new = w_new / norm
                    done = abs(float(w_new @ w)) >= 1.0 - TOL
                    w = w_new
                    if done:
                        converged = True
                        break
            except StepDegenerateError:
                continue
            if converged:
                contrast = fastica_contrast(D @ w, g)
                if best is None or contrast > best[0]:
                    best = (contrast, w, iters)
            else:
                fallback = (w, iters)
        if best is not None:
            accepted.append(best[1])
            conv_flags.append(True)
            iter_counts.append(best[2])
        else:
            if fallback is None:  # every restart degenerated
                w = _orthogonalize(stream.unit_vector(p), accepted)
                fallback = (w / np.linalg.norm(w), 0)
            accepted.append(fallback[0])
            conv_flags.append(False)
            iter_counts.append(fallback[1])
    return Loadings(
        W=np.vstack(accepted),
        converged=np.array(conv_flags, dtype=bool),
        iterations=np.array(iter_counts, dtype=int),
    )


def amari_error(W: np.ndarray, A: np.ndarray) -> float:
    """Amari index of P = W A, in [0, d-1]; 0 iff P is a scaled permutation."""
    W = np.asarray(W, dtype=float)
    A = np.asarray(A, dtype=float)
    if W.shape != A.shape or W.shape[0] != W.shape[1]:
        raise ValueError("need square matrices of equal size")
    P = np.abs(W @ A)
    d = P.shape[0]
    row_max = P.max(axis=1)
    col_max = P.max(axis=0)
    if row_max.min() <= 0.0 or col_max.min() <= 0.0:
        raise ValueError("product W A is singular")
    row_term = (P.sum(axis=1) / row_max - 1.0).sum()
    col_term = (P.sum(axis=0) / col_max - 1.0).sum()
    return float((row_term + col_term) / (2.0 * d))
