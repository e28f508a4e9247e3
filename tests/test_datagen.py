from types import SimpleNamespace

import numpy as np
import pytest

from icaprobe import datagen
from icaprobe.datagen import (
    BAND_CHECK_FRAME,
    RNG_ALGORITHM,
    GenConfig,
    gen_banded_gaussian,
    gen_mixed_sources,
    rotation_2d,
)
from icaprobe.errors import GenerationError
from icaprobe.rng import ReproducibleStream


def test_empty_bands_gives_plain_gaussian():
    cfg = GenConfig(n=5000, bands=(), seed=3)
    data = gen_banded_gaussian(cfg)
    assert data.shape == (5000, 2)
    # first two moments match the standard Gaussian within 4/sqrt(n)
    bound = 4.0 / np.sqrt(5000)
    assert np.abs(data.mean(axis=0)).max() < bound
    assert np.abs(data.var(axis=0) - 1.0).max() < 4.0 * bound
    # identical to the raw stream: nothing was removed or re-whitened
    direct = ReproducibleStream(3).normals(10000).reshape(5000, 2)
    assert np.array_equal(data, direct)


def test_default_bands_leave_no_points_inside():
    cfg = GenConfig(n=2000, seed=42)
    data = gen_banded_gaussian(cfg)
    assert data.shape == (2000, 2)
    assert not datagen._in_band(data[:, 0], cfg.bands).any()


def test_determinism_bitwise():
    cfg = GenConfig(n=1500, seed=7)
    a = gen_banded_gaussian(cfg)
    b = gen_banded_gaussian(cfg)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = gen_banded_gaussian(GenConfig(n=500, seed=1))
    b = gen_banded_gaussian(GenConfig(n=500, seed=2))
    assert not np.array_equal(a, b)


def test_round_budget_failure_reports_achieved():
    cfg = GenConfig(n=2000, seed=5, max_rounds=1)
    with pytest.raises(GenerationError) as exc:
        gen_banded_gaussian(cfg)
    assert 0 <= exc.value.achieved <= 2000


def test_band_spec_validation():
    with pytest.raises(ValueError, match="needs lo < hi"):
        GenConfig(bands=((0.5, 0.1),))
    with pytest.raises(ValueError, match="pairwise disjoint"):
        GenConfig(bands=((0.0, 0.5), (0.4, 0.9)))
    cfg = GenConfig(bands=[(-1, -0.5), [0.5, 1]])
    assert cfg.bands == ((-1.0, -0.5), (0.5, 1.0))
    mask = datagen._in_band(np.array([-0.7, -0.5, 0.0, 0.7, 2.0]), cfg.bands)
    assert mask.tolist() == [True, False, False, True, False]


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n=5)
    with pytest.raises(ValueError):
        GenConfig(n=100, max_rounds=0)


def test_metadata_constants_exported():
    assert "philox" in RNG_ALGORITHM
    assert BAND_CHECK_FRAME == "current-whitened"


def test_normal_stream_is_pinned():
    # RNG_ALGORITHM promises these bits; a change of sampler must bump it
    got = [float.hex(float(v)) for v in ReproducibleStream(42).normals(3)]
    assert got == ["0x1.d50dbe89fde84p-1", "-0x1.c2e8709160f64p-1", "0x1.1d8af555817f4p+0"]


def test_top_uniform_draw_stays_below_one():
    # (k + 0.5) / 2^53 is exact only for k < 2^52; k = 2^53 - 1 rounds to 1.0
    stream = ReproducibleStream(0)
    raw = np.array([0, 2**52, 2**52 + 1, 2**53 - 1], dtype=np.uint64)
    stream._gen = SimpleNamespace(integers=lambda *args, **kwargs: raw.copy())
    u = stream.uniforms(4)
    # 2^52 + 0.5 and 2^52 + 1.5 round to the even 2^52 and 2^52 + 2
    assert u.tolist() == [2.0**-54, 0.5, 0.5 + 2.0**-52, np.nextafter(1.0, 0.0)]
    assert np.all((u > 0.0) & (u < 1.0))
    z = stream.normals(4)
    assert np.all(np.isfinite(z)) and z[-1] > 8.0


def test_mixed_sources_identity_gaussian():
    data, mixing = gen_mixed_sources(20000, ("gaussian", "gaussian"), np.eye(2), seed=11)
    assert np.array_equal(mixing, np.eye(2))
    cov = data.T @ data / (20000 - 1)
    assert np.abs(cov - np.eye(2)).max() < 0.05


def test_mixed_sources_rotation_ground_truth():
    data, mixing = gen_mixed_sources(4000, ("uniform", "uniform"), rotation_2d(np.pi / 6), seed=12)
    # unmixing recovers bounded support: rotate back, check range ~ sqrt(3)
    sources = data @ np.linalg.inv(mixing).T
    assert np.abs(sources).max() < np.sqrt(3.0) + 1e-9
    assert np.abs(sources.std(axis=0) - 1.0).max() < 0.05


def test_two_point_sources_binary():
    data, _ = gen_mixed_sources(1000, ("two-point", "two-point"), np.eye(2), seed=13)
    assert set(np.unique(data)) == {-1.0, 1.0}


def test_mix_config_validation():
    for n, kinds, mixing, message in [
        (1, ("uniform",), np.eye(1), "n must be >= 2"),
        (100, ("uniform", "weird"), np.eye(2), "unknown source kind"),
        (100, ("uniform", "uniform"), np.zeros((2, 2)), "nonsingular"),
        (100, ("uniform",), np.eye(2), "one row per source"),
    ]:
        with pytest.raises(ValueError, match=message):
            gen_mixed_sources(n, kinds, mixing)
