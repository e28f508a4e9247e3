"""Reproducible random streams.

All randomness in the package flows through :class:`ReproducibleStream`: a
Philox4x64 counter-based generator keyed directly by the 64-bit seed, with
uniforms taken as (k + 0.5) / 2^53 from the integer stream and normal
deviates produced by the inverse CDF.  Both choices are made for exact
cross-implementation reproducibility: Philox is a published, keyable
algorithm, and inverse-CDF sampling consumes exactly one uniform per
deviate, unlike rejection-based normal samplers.

The inverse CDF is a numpy port of Cephes' ``ndtri`` (S. L. Moshier,
*Methods and Programs for Mathematical Functions*, 1989), the routine
behind ``scipy.special.ndtri``, with the same coefficients and the same
order of operations, so it returns the same bits and numpy is the only
run-time dependency.  Its two tail logarithms, log y and log x, are taken
per element with ``math.log``, the C library's log that Cephes calls:
numpy's vectorised log may differ from it in the last bit, and with it
some tail deviates would.

``normals`` draws its uniforms in blocks of :data:`_NORMAL_BLOCK` and fills
one output array, so that ``_ndtri``'s temporaries and its per-element log
lists are bounded by the block, not by n.  The blocks leave the stream
unchanged: every uniform is one 64-bit Philox draw, and the generator keeps
its position between calls, so k uniforms drawn in blocks are the k drawn
by one call, and each deviate depends on its own uniform only.
"""

from __future__ import annotations

import math
import operator

import numpy as np

#: Versioned identifier recorded in output metadata.
ALGORITHM = "philox4x64-u53-ndtri/v1"

_U53 = np.uint64(1) << np.uint64(53)

#: Uniforms turned into normals per step of :meth:`ReproducibleStream.normals`.
_NORMAL_BLOCK = 1 << 16

# Cephes ndtri.c: exp(-2), sqrt(2 pi), and the rational approximations,
# highest power first; each denominator has an implied leading 1.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
# central branch, in (y - 1/2)^2 for exp(-2) < y <= 1 - exp(-2)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# tail, in z = 1/x with x = sqrt(-2 log y) in [2, 8): exp(-32) < y <= exp(-2)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# far tail, x >= 8: y <= exp(-32)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _rational(x: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """x polevl(x, p) / p1evl(x, q), Horner's rule in Cephes' order."""
    num = p[0] * x
    num += p[1]
    for c in p[2:]:
        num *= x
        num += c
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num *= x
    num /= den
    return num


def _log(y: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, y.tolist()), np.float64, y.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of a 1-d array of u strictly inside (0, 1)."""
    out = np.empty_like(u)
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    mid = y > _EXP_M2
    if mid.any():
        t = u[mid] - 0.5
        out[mid] = (t + t * _rational(t * t, _P0, _Q0)) * _S2PI
    tail = ~mid
    if tail.any():
        x = np.sqrt(-2.0 * _log(y[tail]))
        x0 = x - _log(x) / x
        z = 1.0 / x
        far = x >= 8.0  # y <= exp(-32): so rare that almost every call skips the masks
        if far.any():
            for sel, p, q in ((~far, _P1, _Q1), (far, _P2, _Q2)):
                x0[sel] -= _rational(z[sel], p, q)
        else:
            x0 -= _rational(z, _P1, _Q1)
        # the lower tail is negative; the upper tail was folded onto it
        out[tail] = np.where(upper[tail], x0, -x0)
    return out


def _integer(name: str, value) -> int:
    """value as a Python int; a float, even 2000.0, is rejected, not cut."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class ReproducibleStream:
    """Stateful deterministic stream of uniforms and normals."""

    def __init__(self, seed: int):
        seed = _integer("seed", seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = seed
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
        """n standard normal deviates via the inverse CDF, one block of
        uniforms at a time."""
        out = np.empty(n)
        for start in range(0, n, _NORMAL_BLOCK):
            stop = min(start + _NORMAL_BLOCK, n)
            out[start:stop] = _ndtri(self.uniforms(stop - start))
        return out

    def unit_vector(self, p: int) -> np.ndarray:
        """A direction uniform on the (p-1)-sphere."""
        if p < 1:
            raise ValueError(f"a unit vector needs p >= 1, got {p}")
        while True:
            v = self.normals(p)
            norm = np.linalg.norm(v)
            if norm > 1e-12:
                return v / norm
