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


def resolve_m(m: int | None, n: int) -> int:
    """The spacing for n samples: m, or the sqrt rule isqrt(n) when m is
    None.  Raises ``ValueError`` unless 3 <= m <= n - 1."""
    if m is None:
        m = math.isqrt(n)
    if not 3 <= m <= n - 1:
        raise ValueError(f"m={m} outside valid range [3, {n - 1}] for n={n}")
    return m


def mspacing_entropy(y, m: int | None = None) -> float:
    """m-spacing entropy estimate of a one-dimensional sample; m is
    resolved by :func:`resolve_m`."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    n = y.shape[0]
    m = resolve_m(m, n)
    ys = np.sort(y)
    # np.sort puts NaN last and -inf first, so the two ends tell whether
    # the sample is finite
    if not (math.isfinite(ys[0]) and math.isfinite(ys[-1])):
        raise ValueError("sample must be finite")
    span = ys[-1] - ys[0]
    if span <= 0.0:
        raise DegenerateSampleError("all sample values identical")
    floor = TIE_EPS * span
    # the spacings are clamped (only when there are ties), scaled and
    # logged in place, in the order of the plain expression
    spacings = ys[m:] - ys[:-m]
    ties = np.count_nonzero(spacings < floor)
    if ties / spacings.size > TIE_REJECT_FRACTION:
        raise DegenerateSampleError(
            f"{ties / spacings.size:.0%} of spacings are ties; sample is not from a "
            "continuous density"
        )
    if ties:
        np.maximum(spacings, floor, out=spacings)
    spacings *= n / m
    np.log(spacings, out=spacings)
    return float(spacings.sum() / n - digamma(m) + math.log(m))


def mspacing_negentropy(y, m: int | None = None) -> float:
    """J_{m,n}(y) = eta(1) - H_{m,n}(y), for unit-variance projections."""
    return ETA_1 - mspacing_entropy(y, m)


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
    relative, wherever the grid points are.  Memory is O(n + grid) for the
    sorted copy and the window bounds, plus two scratch arrays as long as
    the widest window, which every grid point reuses.
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
    u_buf = np.empty(int((hi - lo).max()))  # the widest window
    e_buf = np.empty_like(u_buf)
    sums = np.empty(grid.size)
    for i in range(grid.size):
        u, e = u_buf[: hi[i] - lo[i]], e_buf[: hi[i] - lo[i]]
        np.subtract(grid[i], ys[lo[i] : hi[i]], out=u)
        u /= h
        np.multiply(u, -0.5, out=e)
        e *= u
        np.exp(e, out=e)
        sums[i] = e.sum()
    return sums / (n * h * math.sqrt(2.0 * math.pi))
