"""Entropy estimation and reference values.

The workhorse is the m-spacing estimator on sorted samples,

    H_{m,n}(y) = (1/n) sum_{i=1}^{n-m} log((n/m) (y_(i+m) - y_(i)))
                 - psi(m) + log(m),

with psi the digamma function, taken in closed form at the integer m.  It
is consistent when m -> infinity and m/n -> 0, and the sqrt rule
m = floor(sqrt(n)) satisfies both.  Gaussian entropy
eta(sigma^2) = (1/2)(1 + log(2 pi sigma^2)) supplies the negentropy
reference, and a Gaussian-kernel density estimate supports figure output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DegenerateSampleError

#: Relative spacing below which ties are clamped.
TIE_EPS = 1e-12

#: Fraction of clamped spacings beyond which the sample is rejected.
TIE_REJECT_FRACTION = 0.10


def gaussian_entropy(variance: float) -> float:
    """eta(sigma^2) = (1/2)(1 + log(2 pi sigma^2))."""
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance!r}")
    return 0.5 * (1.0 + math.log(2.0 * math.pi * variance))


#: eta(1), the entropy of the standard normal.
ETA_1 = gaussian_entropy(1.0)


@cache
def digamma(m: int) -> float:
    """psi(m) = sum_{j<m} 1/j - gamma for a positive integer m.

    Memoized: a sweep asks for the same m once per direction.
    """
    x = float(m)
    if not (x >= 1 and x.is_integer()):
        raise ValueError(f"digamma requires a positive integer, got {m!r}")
    return math.fsum(1.0 / j for j in range(1, int(x))) - np.euler_gamma


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
    """Gaussian-kernel density estimate on grid, with Silverman's bandwidth h.

    Each grid point x sums the kernel only over the sorted samples with
    |y - x| <= T h, where d is the distance from x to its nearest sample in
    bandwidths and T = sqrt(d^2 + 2 log n + 106 log 2).  Each omitted term
    is below exp(-T^2 / 2) and there are at most n of them, so the omitted
    mass is below 2^-53 exp(-d^2 / 2), the nearest sample's own term, which
    the window always holds: the result is the full sum to within 2^-53
    relative, wherever the grid points are.  Memory is O(n + grid).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] < 2:
        raise ValueError("need a 1-d sample with n >= 2")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(y)):
        raise ValueError("sample must be finite")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite")
    h = silverman_bandwidth(y)
    if not h > 0:
        raise DegenerateSampleError("Silverman bandwidth is zero; constant sample")
    n = len(y)
    ys = np.sort(y)
    right = np.searchsorted(ys, grid).clip(1, n - 1)
    d = np.minimum(np.abs(grid - ys[right - 1]), np.abs(grid - ys[right])) / h
    half = h * np.sqrt(d * d + (2.0 * math.log(n) + 106.0 * math.log(2.0)))
    lo = np.searchsorted(ys, grid - half, side="left")
    hi = np.searchsorted(ys, grid + half, side="right")
    sums = np.empty(grid.size)
    for i in range(grid.size):
        u = (grid[i] - ys[lo[i] : hi[i]]) / h
        sums[i] = np.exp(-0.5 * u * u).sum()
    return sums / (n * h * math.sqrt(2.0 * math.pi))
