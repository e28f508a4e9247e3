"""Entropy estimation and reference values.

The workhorse is the m-spacing estimator on sorted samples,

    H_{m,n}(y) = (1/n) sum_{i=1}^{n-m} log((n/m) (y_(i+m) - y_(i)))
                 - psi(m) + log(m),

with psi the standard digamma function, consistent when m -> infinity and
m/n -> 0.  The sqrt rule m = floor(sqrt(n)) satisfies both.  Gaussian
entropy eta(sigma^2) = (1/2)(1 + log(2 pi sigma^2)) supplies the negentropy
reference, and a Gaussian-kernel density estimate supports figure output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegenerateSampleError

#: Relative spacing below which ties are clamped.
TIE_EPS = 1e-12

#: Fraction of clamped spacings beyond which the sample is rejected.
TIE_REJECT_FRACTION = 0.10

#: Most grid-by-sample kernel elements kde holds at once, so its memory
#: stays O(grid + n) instead of O(grid * n).
KDE_BLOCK_ELEMENTS = 1 << 22


def gaussian_entropy(variance: float) -> float:
    """eta(sigma^2) = (1/2)(1 + log(2 pi sigma^2))."""
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance!r}")
    return 0.5 * (1.0 + math.log(2.0 * math.pi * variance))


#: eta(1), the entropy of the standard normal.
ETA_1 = gaussian_entropy(1.0)


def digamma(x: float) -> float:
    """Standard digamma psi(x) for x > 0."""
    x = float(x)
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    return float(special.digamma(x))


@dataclass(frozen=True)
class MSpacingConfig:
    """Spacing parameter choice: an explicit m, or None for the sqrt rule."""

    m: int | None = None

    def __post_init__(self):
        if self.m is not None and self.m < 3:
            raise ValueError("explicit m must be >= 3")

    def resolve(self, n: int) -> int:
        m = int(math.isqrt(n)) if self.m is None else self.m
        if not 3 <= m <= n - 1:
            raise ValueError(f"m={m} outside valid range [3, {n - 1}] for n={n}")
        return m


def mspacing_entropy(y, cfg: MSpacingConfig = MSpacingConfig()) -> float:
    """m-spacing entropy estimate of a one-dimensional sample."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    if not np.all(np.isfinite(y)):
        raise ValueError("sample must be finite")
    n = y.shape[0]
    m = cfg.resolve(n)
    ys = np.sort(y)
    spacings = ys[m:] - ys[:-m]
    span = ys[-1] - ys[0]
    if span <= 0.0:
        raise DegenerateSampleError("all sample values identical")
    floor = TIE_EPS * span
    clamped = spacings < floor
    if clamped.mean() > TIE_REJECT_FRACTION:
        raise DegenerateSampleError(
            f"{clamped.mean():.0%} of spacings are ties; sample is not from a "
            "continuous density"
        )
    spacings = np.maximum(spacings, floor)
    return float(np.log(spacings * (n / m)).sum() / n - digamma(m) + math.log(m))


def mspacing_negentropy(y, cfg: MSpacingConfig = MSpacingConfig()) -> float:
    """J_{m,n}(y) = eta(1) - H_{m,n}(y), for unit-variance projections."""
    return ETA_1 - mspacing_entropy(y, cfg)


def silverman_bandwidth(y: np.ndarray) -> float:
    """1.06 sigma-hat n^(-1/5)."""
    return 1.06 * float(np.std(y, ddof=1)) * len(y) ** -0.2


def kde(y, grid) -> np.ndarray:
    """Gaussian-kernel density estimate on grid, with Silverman's bandwidth."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] < 2:
        raise ValueError("need a 1-d sample with n >= 2")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    h = silverman_bandwidth(y)
    if not h > 0:
        raise DegenerateSampleError("Silverman bandwidth is zero; constant sample")
    # Each row is summed on its own, so blocking over grid rows leaves
    # every value bit-identical to the one-matrix form.
    rows = max(1, KDE_BLOCK_ELEMENTS // len(y))
    sums = np.empty(grid.size)
    for start in range(0, grid.size, rows):
        u = (grid[start : start + rows, None] - y[None, :]) / h
        kernel = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        sums[start : start + rows] = kernel.sum(axis=1)
    return sums / (len(y) * h)
