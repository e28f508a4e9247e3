import numpy as np
import pytest

from icaprobe.datagen import (
    BAND_CHECK_FRAME,
    RNG_ALGORITHM,
    BandSpec,
    GenConfig,
    MixConfig,
    gen_banded_gaussian,
    gen_mixed_sources,
    rotation_2d,
)
from icaprobe.errors import GenerationError
from icaprobe.rng import ReproducibleStream


def test_empty_bands_gives_plain_gaussian():
    cfg = GenConfig(n=5000, bands=BandSpec(intervals=()), seed=3)
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
    assert not cfg.bands.contains(data[:, 0]).any()


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
    with pytest.raises(ValueError):
        BandSpec(intervals=((0.5, 0.1),))
    with pytest.raises(ValueError):
        BandSpec(intervals=((0.0, 0.5), (0.4, 0.9)))
    spec = BandSpec(intervals=((-1.0, -0.5), (0.5, 1.0)))
    assert spec.total_width == pytest.approx(1.0)
    mask = spec.contains(np.array([-0.7, 0.0, 0.7, 2.0]))
    assert mask.tolist() == [True, False, True, False]


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


def test_mixed_sources_identity_gaussian():
    cfg = MixConfig(n=20000, kinds=("gaussian", "gaussian"), mixing=np.eye(2), seed=11)
    data, mixing = gen_mixed_sources(cfg)
    assert np.array_equal(mixing, np.eye(2))
    cov = data.T @ data / (cfg.n - 1)
    assert np.abs(cov - np.eye(2)).max() < 0.05


def test_mixed_sources_rotation_ground_truth():
    cfg = MixConfig(n=4000, kinds=("uniform", "uniform"), mixing=rotation_2d(np.pi / 6), seed=12)
    data, mixing = gen_mixed_sources(cfg)
    # unmixing recovers bounded support: rotate back, check range ~ sqrt(3)
    sources = data @ np.linalg.inv(mixing).T
    assert np.abs(sources).max() < np.sqrt(3.0) + 1e-9
    assert np.abs(sources.std(axis=0) - 1.0).max() < 0.05


def test_two_point_sources_binary():
    cfg = MixConfig(n=1000, kinds=("two-point", "two-point"), mixing=np.eye(2), seed=13)
    data, _ = gen_mixed_sources(cfg)
    assert set(np.unique(data)) == {-1.0, 1.0}


def test_mix_config_validation():
    with pytest.raises(ValueError):
        MixConfig(n=100, kinds=("uniform", "weird"), mixing=np.eye(2))
    with pytest.raises(ValueError):
        MixConfig(n=100, kinds=("uniform", "uniform"), mixing=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        MixConfig(n=100, kinds=("uniform",), mixing=np.eye(2))
