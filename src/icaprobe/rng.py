"""Reproducible random streams.

All randomness in the package flows through :class:`ReproducibleStream`: a
Philox4x64 counter-based generator keyed directly by the 64-bit seed, with
uniforms taken as (k + 0.5) / 2^53 from the integer stream and normal
deviates produced by the inverse CDF.  Both choices are made for exact
cross-implementation reproducibility: Philox is a published, keyable
algorithm, and inverse-CDF sampling consumes exactly one uniform per
deviate, unlike rejection-based normal samplers.
"""

from __future__ import annotations

import numpy as np

#: Versioned identifier recorded in output metadata.
ALGORITHM = "philox4x64-u53-ndtri/v1"

_U53 = np.uint64(1) << np.uint64(53)


class ReproducibleStream:
    """Stateful deterministic stream of uniforms and normals."""

    def __init__(self, seed: int):
        if not 0 <= int(seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms strictly inside (0, 1): (k + 0.5) / 2^53, k uniform in
        [0, 2^53).  The midpoint is exact only for k < 2^52 (above, k + 0.5
        rounds to the even neighbour), so the top draw, which rounds to 1.0,
        is mapped to the largest double below 1."""
        raw = self._gen.integers(0, _U53, size=n, dtype=np.uint64)
        u = (raw.astype(np.float64) + 0.5) / float(_U53)
        return np.minimum(u, np.nextafter(1.0, 0.0), out=u)

    def normals(self, n: int) -> np.ndarray:
        """n standard normal deviates via the inverse CDF."""
        # imported here: scipy.special is slow to import, and only sampling needs it
        from scipy.special import ndtri

        return ndtri(self.uniforms(n))

    def unit_vector(self, p: int) -> np.ndarray:
        """A direction uniform on the (p-1)-sphere."""
        while True:
            v = self.normals(p)
            norm = np.linalg.norm(v)
            if norm > 1e-12:
                return v / norm
