"""Centering and whitening of observation matrices.

Whitening maps an n x p~ observation matrix (rows are observations) to an
n x p matrix D with p = min(p~, n - 1) and sample covariance
(1/(n-1)) D^T D = I_p.  The transform comes from an eigendecomposition of
the sample covariance: when no direction is dropped the symmetric square
root C^{-1/2} is used, which is rotation-free (near-identity for
near-white data); rank-deficient directions are dropped and the reduced
map V_keep diag(1/sqrt(lambda)) is used instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError

#: Eigenvalues below this multiple of the largest are treated as rank
#: deficiency; keeping them would amplify noise directions by >= 1e6.
RANK_THRESHOLD = 1e-12


@dataclass(frozen=True)
class WhitenedData:
    """Whitened matrix with its transform and the removed mean."""

    values: np.ndarray  # (n, p)
    transform: np.ndarray  # (p~, p): centered raw -> whitened
    center: np.ndarray  # (p~,)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        n = values.shape[0]
        col_means = values.mean(axis=0)
        if np.abs(col_means).max() > 1e-10:
            raise ValueError("whitened columns must have zero mean")
        cov = values.T @ values / (n - 1)
        if np.abs(cov - np.eye(values.shape[1])).max() > 1e-8:
            raise ValueError("whitened data must have unit sample covariance")
        object.__setattr__(self, "values", values)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_components(self) -> int:
        return self.values.shape[1]


def whiten(X) -> WhitenedData:
    """Center and whiten an n x p~ observation matrix, dropping
    rank-deficient directions.

    Raises ``ValueError`` unless X is a finite 2-d matrix with n >= 2 and
    p~ >= 1, and :class:`DegenerateDataError` when it has no variance at
    all (all rows identical).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("values must be a 2-d matrix")
    n, p_raw = X.shape
    if n < 2 or p_raw < 1:
        raise ValueError(f"need n >= 2 and p >= 1, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("values must be finite")
    center = X.mean(axis=0)
    Xc = X - center
    cov = Xc.T @ Xc / (n - 1)
    lam, V = np.linalg.eigh(cov)
    lam_max = lam[-1]
    if lam_max <= 0.0:
        raise DegenerateDataError("input has zero variance in every direction")
    keep = lam > RANK_THRESHOLD * lam_max
    # sample covariance has rank <= n - 1; cap kept directions accordingly
    if keep.sum() > n - 1:
        order = np.argsort(lam)[::-1]
        keep = np.zeros_like(keep)
        keep[order[: n - 1]] = True
    if keep.all():
        # full rank: symmetric (rotation-free) square root
        transform = (V / np.sqrt(lam)) @ V.T
    else:
        Vk = V[:, keep]
        transform = Vk / np.sqrt(lam[keep])
    return WhitenedData(values=Xc @ transform, transform=transform, center=center)

