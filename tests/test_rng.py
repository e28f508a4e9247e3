import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icaprobe
from icaprobe.rng import _NORMAL_BLOCK, ReproducibleStream, _ndtri

E2 = np.exp(-2.0)
E32 = np.exp(-32.0)


def _neighbours(y, steps=3):
    """y and its `steps` nearest doubles on each side."""
    out = [y]
    lo = hi = y
    for _ in range(steps):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
        out += [lo, hi]
    return out


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def test_ndtri_port_equals_scipy_bit_for_bit_on_stream_draws():
    # scipy is the reference only; the package itself never imports it
    from scipy.special import ndtri

    for seed in (7, 42, 0, 1):
        u = ReproducibleStream(seed).uniforms(1_000_000)
        got, want = _ndtri(u), ndtri(u)
        assert _same_bits(got, want), (seed, np.flatnonzero(got != want)[:5])


def test_ndtri_port_equals_scipy_at_the_branch_edges():
    from scipy.special import ndtri

    # the central branch ends at exp(-2) and 1 - exp(-2); the tail switches
    # polynomials at x = sqrt(-2 log y) = 8, that is y = exp(-32), on both
    # the lower tail and the upper tail folded onto it
    y = np.array(
        _neighbours(E2) + _neighbours(1.0 - E2) + _neighbours(E32, 40)
        + _neighbours(1.0 - E32) + [0.5, 0.5 / 2.0**53, np.nextafter(1.0, 0.0)]
    )
    x = np.sqrt(-2.0 * np.log(np.minimum(y, 1.0 - y)))
    assert (x < 8.0).any() and (x >= 8.0).any()
    assert ((y > E2) & (y < 1.0 - E2)).any() and (y <= E2).any() and (y >= 1.0 - E2).any()
    assert _same_bits(_ndtri(y), ndtri(y))


def test_ndtri_port_at_the_extreme_draws_and_on_no_draws():
    from scipy.special import ndtri

    # the smallest and largest uniforms the stream can return
    y = np.array([0.5 / 2.0**53, np.nextafter(1.0, 0.0)])
    got = _ndtri(y)
    assert _same_bits(got, ndtri(y))
    assert got[0] < -8.0 < 8.0 < got[1]
    empty = _ndtri(np.empty(0))
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_unit_vector_rejects_a_dimension_below_one():
    # normals(0) has norm 0, so the redraw loop would never end: the check
    # must come before any draw.  A subprocess bounds the wait if it does not
    probe = (
        "from icaprobe.rng import ReproducibleStream\n"
        "for p in (0, -1):\n"
        "    try:\n"
        "        ReproducibleStream(0).unit_vector(p)\n"
        "    except ValueError as err:\n"
        "        print(err)\n"
    )
    src = str(Path(icaprobe.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.splitlines()
    assert out == ["a unit vector needs p >= 1, got 0", "a unit vector needs p >= 1, got -1"]
    v = ReproducibleStream(0).unit_vector(1)
    assert v.shape == (1,) and abs(v[0]) == 1.0


@pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0), "3", None])
def test_a_seed_that_is_not_an_integer_is_rejected(seed):
    # int(1.5) would silently key the stream with 1
    with pytest.raises(ValueError, match="seed must be an integer"):
        ReproducibleStream(seed)


@pytest.mark.parametrize("seed", [5, np.int64(5), np.uint64(5), np.int32(5)])
def test_python_and_numpy_integer_seeds_key_the_same_stream(seed):
    stream = ReproducibleStream(seed)
    assert stream.seed == 5 and type(stream.seed) is int
    assert _same_bits(stream.uniforms(4), ReproducibleStream(5).uniforms(4))


def test_seed_range_is_still_checked():
    assert ReproducibleStream(np.uint64(2**64 - 1)).seed == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            ReproducibleStream(seed)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("n", [_NORMAL_BLOCK - 1, _NORMAL_BLOCK, _NORMAL_BLOCK + 1, 3 * _NORMAL_BLOCK + 7])
def test_blocked_normals_equal_one_call_of_the_inverse_cdf(seed, n):
    got = ReproducibleStream(seed).normals(n)
    assert got.shape == (n,)
    assert _same_bits(got, _ndtri(ReproducibleStream(seed).uniforms(n)))


def test_normals_split_across_calls_continue_the_same_stream():
    # the first call ends inside a block, the second crosses the block edge
    a, b = _NORMAL_BLOCK - 5, 11
    stream = ReproducibleStream(3)
    split = np.concatenate([stream.normals(a), stream.normals(b)])
    assert _same_bits(split, ReproducibleStream(3).normals(a + b))


def test_no_normals_is_an_empty_float_array():
    z = ReproducibleStream(0).normals(0)
    assert z.shape == (0,) and z.dtype == np.float64
