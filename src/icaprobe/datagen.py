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

from dataclasses import dataclass

import numpy as np

from .errors import GenerationError
from .rng import ALGORITHM as RNG_ALGORITHM
from .rng import ReproducibleStream, _integer
from .whiten import whiten

#: Frame in which band membership is evaluated (see module docstring).
BAND_CHECK_FRAME = "current-whitened"

DEFAULT_BANDS = ((-0.9, -0.4), (0.4, 0.9))


def _in_band(x: np.ndarray, bands) -> np.ndarray:
    """Boolean mask of values lying strictly inside any (lo, hi) band."""
    mask = np.zeros(x.shape, dtype=bool)
    for lo, hi in bands:
        mask |= (x > lo) & (x < hi)
    return mask


@dataclass(frozen=True)
class GenConfig:
    n: int = 2000
    bands: tuple = DEFAULT_BANDS  # disjoint open intervals (lo, hi) of forbidden x1
    seed: int = 42
    max_rounds: int = 100

    def __post_init__(self):
        bands = tuple((float(lo), float(hi)) for lo, hi in self.bands)
        for lo, hi in bands:
            if not lo < hi:
                raise ValueError(f"band ({lo}, {hi}) needs lo < hi")
        for (_, hi1), (lo2, _) in zip(sorted(bands), sorted(bands)[1:]):
            if hi1 > lo2:
                raise ValueError("bands must be pairwise disjoint")
        object.__setattr__(self, "bands", bands)
        for name in ("n", "max_rounds"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
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
    if not cfg.bands:
        return pts
    # acceptance probability must be positive: a fresh point avoids bands
    # whenever the Gaussian leaves mass outside them, always true for
    # finite-width bands, so only an empty-interval misconfiguration could
    # stall the top-up; the round budget guards everything else.
    for _ in range(cfg.max_rounds):
        in_band = _in_band(pts[:, 0], cfg.bands)
        if not in_band.any() and len(pts) == cfg.n:
            return pts
        # rebinding drops the old sample before whitening allocates its own
        pts = pts[~in_band]
        if len(pts) < 3:
            raise GenerationError(
                "bands remove almost every point; widen the acceptance region",
                achieved=len(pts),
            )
        pts, _ = whiten(pts)
        need = cfg.n - len(pts)
        if need > 0:
            pts = np.vstack([pts, draw(need)])
    raise GenerationError(
        f"no clean sample of size {cfg.n} within {cfg.max_rounds} rounds",
        achieved=int((~_in_band(pts[:, 0], cfg.bands)).sum()),
    )


SOURCE_KINDS = ("uniform", "gaussian", "two-point")


def rotation_2d(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def gen_mixed_sources(n: int, kinds, mixing, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw n samples of unit-variance sources, one independent source per
    entry of ``kinds`` (from :data:`SOURCE_KINDS`), and mix them.

    Returns the observed data (rows = observations of A s) and the true
    mixing matrix A = ``mixing``, square and nonsingular.
    """
    n = _integer("n", n)
    if n < 2:
        raise ValueError("n must be >= 2")
    for kind in kinds:
        if kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {kind!r}")
    mixing = np.asarray(mixing, dtype=float)
    if mixing.shape != (len(kinds), len(kinds)):
        raise ValueError("mixing matrix must be square, one row per source")
    if abs(np.linalg.det(mixing)) < 1e-12:
        raise ValueError("mixing matrix must be nonsingular")
    stream = ReproducibleStream(seed)
    cols = []
    for kind in kinds:
        if kind == "gaussian":
            cols.append(stream.normals(n))
        elif kind == "uniform":
            # U(-sqrt(3), sqrt(3)) has unit variance
            cols.append((stream.uniforms(n) * 2.0 - 1.0) * np.sqrt(3.0))
        else:  # two-point
            cols.append(np.where(stream.uniforms(n) < 0.5, -1.0, 1.0))
    S = np.column_stack(cols)
    return S @ mixing.T, mixing
