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

import numpy as np

from .errors import DegenerateDataError

#: Eigenvalues below this multiple of the largest are treated as rank
#: deficiency; keeping them would amplify noise directions by >= 1e6.
RANK_THRESHOLD = 1e-12

#: Largest entry of |(1/(n-1)) D^T D - I| that whitening must reach.
COV_TOL = 1e-8

#: Kept directions whose eigenvalue is below this multiple of the largest
#: are rejected as nearly collinear.  A kept direction with eigenvalue
#: ratio r whitens to within about C eps / r; C reached 2.2 over columns x
#: and x + s N(0, 1), s = 1e-4 ... 1e-3, beside independent columns
#: (n = 300 ... 1e5, p = 2 ... 5, 10 draws each).  So at 4 eps / COV_TOL
#: (8.9e-8) every accepted input meets COV_TOL, and whether an input is
#: accepted depends on its eigenvalue ratio, not on how the covariance
#: check happens to round.
COLLINEAR_RATIO = 4.0 * np.finfo(float).eps / COV_TOL


def whiten(X) -> tuple[np.ndarray, np.ndarray]:
    """Center and whiten an n x p~ observation matrix, dropping
    rank-deficient directions.

    Returns ``(D, transform)``: the (n, p) whitened matrix and the (p~, p)
    map from the centered input to it.  Raises ``ValueError`` unless X is
    a finite 2-d matrix with n >= 2 and p~ >= 1, and
    :class:`DegenerateDataError` when it has no variance at all (all rows
    identical) or when its columns are nearly collinear: a kept direction
    has an eigenvalue ratio below :data:`COLLINEAR_RATIO`, or D misses unit
    sample covariance by more than :data:`COV_TOL`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("values must be a 2-d matrix")
    n, p_raw = X.shape
    if n < 2 or p_raw < 1:
        raise ValueError(f"need n >= 2 and p >= 1, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("values must be finite")
    mean = X.mean(axis=0)
    Xc = X - mean
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
    ratio = lam[keep].min() / lam_max
    if ratio < COLLINEAR_RATIO:
        raise DegenerateDataError(
            f"columns are nearly collinear: the smallest/largest covariance eigenvalue "
            f"ratio {ratio:.3g} is below {COLLINEAR_RATIO:.3g}, where whitening cannot "
            f"promise unit covariance within {COV_TOL:g}"
        )
    if keep.all():
        # full rank: symmetric (rotation-free) square root
        transform = (V / np.sqrt(lam)) @ V.T
    else:
        Vk = V[:, keep]
        transform = Vk / np.sqrt(lam[keep])
    D = Xc @ transform
    # one centering pass leaves each column a mean of up to n ulps of its
    # offset (numpy's axis-0 mean sums row by row), carried through the
    # transform; a missed or wrong centering leaves the offset itself
    mean_tol = 1e-10 + n * np.finfo(float).eps * (np.abs(mean) @ np.abs(transform))
    if np.any(np.abs(D.mean(axis=0)) > mean_tol):
        raise ValueError("whitened columns must have zero mean")
    cov_err = np.abs(D.T @ D / (n - 1) - np.eye(D.shape[1])).max()
    if cov_err > COV_TOL:
        raise DegenerateDataError(
            f"columns are nearly collinear: the smallest/largest covariance eigenvalue "
            f"ratio {ratio:.3g} leaves a whitening error of {cov_err:.3g} (> {COV_TOL:g})"
        )
    return D, transform

