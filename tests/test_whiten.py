import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from icaprobe.errors import DegenerateDataError
from icaprobe.whiten import COV_TOL, whiten


def sample_cov(values):
    return values.T @ values / (len(values) - 1)


def test_already_white_data_is_fixed_point(rng):
    # exact identity covariance by construction (symmetric inverse root)
    raw = rng.standard_normal((400, 2))
    raw -= raw.mean(axis=0)
    lam, V = np.linalg.eigh(sample_cov(raw))
    exact = raw @ ((V / np.sqrt(lam)) @ V.T)
    out, _ = whiten(exact)
    assert np.abs(sample_cov(out) - np.eye(2)).max() < 1e-8
    # symmetric square root of I is I: values equal input up to rounding
    assert np.abs(out - exact).max() < 1e-8


def test_diagonal_scaling_removed(rng):
    base = rng.standard_normal((300, 2))
    scaled = (base - base.mean(axis=0)) @ np.diag([2.0, 5.0])
    out, _ = whiten(scaled)
    assert np.abs(sample_cov(out) - np.eye(2)).max() < 1e-8


def test_correlated_gaussian_off_diagonal_vanishes():
    gen = np.random.default_rng(7)
    cov = np.array([[2.0, 1.2], [1.2, 1.5]])
    raw = gen.multivariate_normal([1.0, -2.0], cov, size=100)
    out, transform = whiten(raw)
    c = sample_cov(out)
    assert abs(c[0, 1]) < 1e-8
    assert np.abs(np.diag(c) - 1.0).max() < 1e-8
    assert np.abs(out.mean(axis=0)).max() < 1e-10
    # the transform maps the centered input to the output
    assert np.array_equal(out, (raw - raw.mean(axis=0)) @ transform)


def test_rank_deficient_dimension_dropped(rng):
    x = rng.standard_normal(200)
    raw = np.column_stack([x, 2.0 * x, rng.standard_normal(200)])
    out, transform = whiten(raw)
    assert out.shape == (200, 2)
    assert transform.shape == (3, 2)


def test_more_variables_than_samples(rng):
    raw = rng.standard_normal((5, 8))
    out, _ = whiten(raw)
    assert out.shape[1] <= 4


def test_zero_variance_rejected():
    with pytest.raises(DegenerateDataError):
        whiten(np.ones((50, 2)))


def test_rewhitening_is_stable(rng):
    raw = rng.standard_normal((500, 3)) @ np.diag([3.0, 1.0, 0.2])
    once, _ = whiten(raw)
    twice, _ = whiten(once)
    assert np.abs(sample_cov(twice) - np.eye(3)).max() < 1e-8


@given(theta=st.floats(0, 2 * np.pi, allow_nan=False))
def test_projection_mean_and_variance(theta):
    gen = np.random.default_rng(11)
    out, _ = whiten(gen.standard_normal((256, 2)) @ np.array([[1.0, 0.4], [0.0, 1.0]]))
    y = out @ np.array([np.sin(theta), np.cos(theta)])
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


def test_whitened_invariants_enforced(rng):
    # eigenvalue ratio ~2.5e-11 passes RANK_THRESHOLD (1e-12), but whitening
    # cannot reach unit covariance within 1e-8: the input is at fault
    x = rng.standard_normal(2000)
    raw = np.column_stack([x, x + 1e-5 * rng.standard_normal(2000)])
    with pytest.raises(DegenerateDataError, match="nearly collinear") as exc:
        whiten(raw)
    assert "smallest/largest covariance eigenvalue ratio" in str(exc.value)


def test_covariance_check_guards_behind_the_ratio_check(rng, monkeypatch):
    # with the ratio check off, the same input reaches the covariance check,
    # which rejects it with the whitening error it measured
    # (the package's own ``whiten`` attribute is the function, not the module)
    monkeypatch.setattr(sys.modules["icaprobe.whiten"], "COLLINEAR_RATIO", 0.0)
    x = rng.standard_normal(2000)
    raw = np.column_stack([x, x + 1e-5 * rng.standard_normal(2000)])
    with pytest.raises(DegenerateDataError, match="leaves a whitening error"):
        whiten(raw)


@pytest.mark.parametrize("seed", range(6))
def test_nearly_collinear_verdict_does_not_depend_on_the_draw(seed):
    # columns x and x + 1e-4 N(0, 1), eigenvalue ratio ~2.5e-9: whitening
    # misses unit covariance by up to 7e-8, above or below 1e-8 depending
    # on the draw, and the verdict rests on the ratio, so every draw is
    # rejected alike
    gen = np.random.default_rng(seed)
    x = gen.standard_normal(2000)
    raw = np.column_stack([x, x + 1e-4 * gen.standard_normal(2000)])
    with pytest.raises(DegenerateDataError, match=r"ratio 2\.[4-8]\de-09 is below 8\.88e-08"):
        whiten(raw)


def test_well_conditioned_columns_near_the_ratio_pass(rng):
    # x and x + 2e-3 N(0, 1): ratio ~1e-6, above COLLINEAR_RATIO, whitens
    # within COV_TOL
    x = rng.standard_normal(2000)
    raw = np.column_stack([x, x + 2e-3 * rng.standard_normal(2000)])
    D, _ = whiten(raw)
    assert np.abs(sample_cov(D) - np.eye(2)).max() < COV_TOL


@pytest.mark.parametrize("offset", [3e5, 1e6])
def test_data_far_from_the_origin_whitens(offset, rng):
    # one centering pass leaves column means of some ulps of the offset,
    # which the zero-mean check must allow for
    raw = offset + rng.standard_normal((2000, 2))
    D, _ = whiten(raw)
    assert np.allclose(sample_cov(D), np.eye(2), atol=1e-8)
    assert np.abs(D.mean(axis=0)).max() < 1e-6
