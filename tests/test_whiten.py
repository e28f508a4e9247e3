import numpy as np
import pytest
from hypothesis import given, strategies as st

from icaprobe.errors import DegenerateDataError
from icaprobe.whiten import WhitenedData, whiten


def sample_cov(values):
    return values.T @ values / (len(values) - 1)


def test_already_white_data_is_fixed_point(rng):
    # exact identity covariance by construction (symmetric inverse root)
    raw = rng.standard_normal((400, 2))
    raw -= raw.mean(axis=0)
    lam, V = np.linalg.eigh(sample_cov(raw))
    exact = raw @ ((V / np.sqrt(lam)) @ V.T)
    out = whiten(exact)
    assert np.abs(sample_cov(out.values) - np.eye(2)).max() < 1e-8
    # symmetric square root of I is I: values equal input up to rounding
    assert np.abs(out.values - exact).max() < 1e-8


def test_diagonal_scaling_removed(rng):
    base = rng.standard_normal((300, 2))
    scaled = (base - base.mean(axis=0)) @ np.diag([2.0, 5.0])
    out = whiten(scaled)
    assert np.abs(sample_cov(out.values) - np.eye(2)).max() < 1e-8


def test_correlated_gaussian_off_diagonal_vanishes():
    gen = np.random.default_rng(7)
    cov = np.array([[2.0, 1.2], [1.2, 1.5]])
    raw = gen.multivariate_normal([1.0, -2.0], cov, size=100)
    out = whiten(raw)
    c = sample_cov(out.values)
    assert abs(c[0, 1]) < 1e-8
    assert np.abs(np.diag(c) - 1.0).max() < 1e-8
    assert np.abs(out.values.mean(axis=0)).max() < 1e-10


def test_rank_deficient_dimension_dropped(rng):
    x = rng.standard_normal(200)
    raw = np.column_stack([x, 2.0 * x, rng.standard_normal(200)])
    out = whiten(raw)
    assert out.n_components == 2
    assert out.transform.shape == (3, 2)


def test_more_variables_than_samples(rng):
    raw = rng.standard_normal((5, 8))
    out = whiten(raw)
    assert out.n_components <= 4


def test_zero_variance_rejected():
    with pytest.raises(DegenerateDataError):
        whiten(np.ones((50, 2)))


def test_rewhitening_is_stable(rng):
    raw = rng.standard_normal((500, 3)) @ np.diag([3.0, 1.0, 0.2])
    once = whiten(raw)
    twice = whiten(once.values)
    assert np.abs(sample_cov(twice.values) - np.eye(3)).max() < 1e-8


@given(theta=st.floats(0, 2 * np.pi, allow_nan=False))
def test_projection_mean_and_variance(theta):
    gen = np.random.default_rng(11)
    out = whiten(gen.standard_normal((256, 2)) @ np.array([[1.0, 0.4], [0.0, 1.0]]))
    y = out.values @ np.array([np.sin(theta), np.cos(theta)])
    assert abs(y.mean()) < 1e-10
    assert abs(y @ y / (len(y) - 1) - 1.0) < 1e-8


def test_raw_data_validation():
    for raw, message in [
        (np.array([[1.0, np.inf], [0.0, 1.0]]), "values must be finite"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "values must be finite"),
        (np.ones((1, 3)), "need n >= 2"),
        (np.ones((3, 0)), "need n >= 2"),
        (np.ones(5), "2-d matrix"),
    ]:
        with pytest.raises(ValueError, match=message):
            whiten(raw)


def test_whitened_invariants_enforced():
    with pytest.raises(ValueError):
        WhitenedData(
            values=np.ones((10, 2)),
            transform=np.eye(2),
            center=np.zeros(2),
        )
