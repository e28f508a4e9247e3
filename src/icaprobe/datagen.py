"""Reproducible test-data generators.

The banded-Gaussian generator draws two-dimensional standard normal points
and iterates: remove points whose first coordinate falls in a forbidden
vertical band, whiten the survivors, top up with fresh draws, and repeat
until a full sample survives with no point in a band.  Band membership is
always checked in the coordinate frame current at the time of the check
(i.e. after the most recent in-loop whitening); the frame choice is
recorded in :data:`BAND_CHECK_FRAME` for output metadata.

The default bands are chosen so that the removed mass is visually obvious
at n = 2000 while its signed K-moment under the logcosh correction nearly
cancels, which is what lets the final fastICA contrast overlook the
structured direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError
from .rng import ALGORITHM as RNG_ALGORITHM
from .rng import ReproducibleStream
from .whiten import whiten

#: Frame in which band membership is evaluated (see module docstring).
BAND_CHECK_FRAME = "current-whitened"

DEFAULT_BANDS = ((-0.9, -0.4), (0.4, 0.9))


@dataclass(frozen=True)
class BandSpec:
    """Disjoint open intervals of forbidden first coordinates."""

    intervals: tuple = DEFAULT_BANDS

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        for lo, hi in ivs:
            if not lo < hi:
                raise ValueError(f"band ({lo}, {hi}) needs lo < hi")
        for (_, hi1), (lo2, _) in zip(sorted(ivs), sorted(ivs)[1:]):
            if hi1 > lo2:
                raise ValueError("bands must be pairwise disjoint")
        object.__setattr__(self, "intervals", ivs)

    @property
    def total_width(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Boolean mask of values lying strictly inside any band."""
        x = np.asarray(x, dtype=float)
        mask = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            mask |= (x > lo) & (x < hi)
        return mask


@dataclass(frozen=True)
class GenConfig:
    n: int = 2000
    bands: BandSpec = field(default_factory=BandSpec)
    seed: int = 42
    max_rounds: int = 100

    def __post_init__(self):
        if self.n < 10:
            raise ValueError("n must be >= 10")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


def gen_banded_gaussian(cfg: GenConfig) -> np.ndarray:
    """Generate the banded two-dimensional Gaussian sample.

    Returns a (cfg.n, 2) array of points, none of whose first coordinates
    lies in a band (in the check frame).  Same config, same bytes.
    """
    stream = ReproducibleStream(cfg.seed)

    def draw(count: int) -> np.ndarray:
        return stream.normals(2 * count).reshape(count, 2)

    pts = draw(cfg.n)
    if not cfg.bands.intervals:
        return pts
    # acceptance probability must be positive: a fresh point avoids bands
    # whenever the Gaussian leaves mass outside them, always true for
    # finite-width bands, so only an empty-interval misconfiguration could
    # stall the top-up; the round budget guards everything else.
    for _ in range(cfg.max_rounds):
        in_band = cfg.bands.contains(pts[:, 0])
        if not in_band.any() and len(pts) == cfg.n:
            return pts
        survivors = pts[~in_band]
        if len(survivors) < 3:
            raise GenerationError(
                "bands remove almost every point; widen the acceptance region",
                achieved=len(survivors),
            )
        pts = whiten(survivors).values
        need = cfg.n - len(pts)
        if need > 0:
            pts = np.vstack([pts, draw(need)])
    raise GenerationError(
        f"no clean sample of size {cfg.n} within {cfg.max_rounds} rounds",
        achieved=int((~cfg.bands.contains(pts[:, 0])).sum()),
    )


SOURCE_KINDS = ("uniform", "gaussian", "two-point")


@dataclass(frozen=True)
class MixConfig:
    n: int
    kinds: tuple  # one entry per source, from SOURCE_KINDS
    mixing: np.ndarray  # (p, p), applied to source vectors
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        kinds = tuple(self.kinds)
        for kind in kinds:
            if kind not in SOURCE_KINDS:
                raise ValueError(f"unknown source kind {kind!r}")
        mixing = np.asarray(self.mixing, dtype=float)
        if mixing.shape != (len(kinds), len(kinds)):
            raise ValueError("mixing matrix must be square, one row per source")
        if abs(np.linalg.det(mixing)) < 1e-12:
            raise ValueError("mixing matrix must be nonsingular")
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "mixing", mixing)


def rotation_2d(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def gen_mixed_sources(cfg: MixConfig) -> tuple[np.ndarray, np.ndarray]:
    """Draw independent unit-variance sources and mix them.

    Returns the observed data (rows = observations of A s) and the true
    mixing matrix A.
    """
    stream = ReproducibleStream(cfg.seed)
    cols = []
    for kind in cfg.kinds:
        if kind == "gaussian":
            cols.append(stream.normals(cfg.n))
        elif kind == "uniform":
            # U(-sqrt(3), sqrt(3)) has unit variance
            cols.append((stream.uniforms(cfg.n) * 2.0 - 1.0) * np.sqrt(3.0))
        else:  # two-point
            cols.append(np.where(stream.uniforms(cfg.n) < 0.5, -1.0, 1.0))
    S = np.column_stack(cols)
    return S @ cfg.mixing.T, cfg.mixing
