import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icaprobe.contrast import fastica_contrast, logcosh
from icaprobe.datagen import gen_mixed_sources, rotation_2d
from icaprobe import fastica
from icaprobe.fastica import Loadings, amari_error, deflation, fixed_point_step
from icaprobe.rng import ReproducibleStream
from icaprobe.whiten import whiten


@pytest.fixture(scope="module")
def uniform_pair():
    raw, mixing = gen_mixed_sources(10_000, ("uniform", "uniform"), rotation_2d(np.pi / 6), seed=31)
    return (*whiten(raw), mixing)


def total_unmixing(loadings, transform):
    """Rows mapping raw coordinates to recovered sources."""
    return loadings.W @ transform.T


def test_fixed_point_at_attractor(uniform_pair):
    data, transform, mixing = uniform_pair
    # the true unmixing direction is a fixed point attractor
    w_true = transform.T @ np.linalg.inv(mixing)[0]
    w_true = w_true / np.linalg.norm(w_true)
    w_next = fixed_point_step(w_true, data, logcosh())
    assert abs(float(w_next @ w_true)) > 1.0 - 1e-3


def test_fixed_point_sign_equivariance(uniform_pair):
    data, _, _ = uniform_pair
    w = np.array([0.6, 0.8])
    a = fixed_point_step(w, data, logcosh())
    b = fixed_point_step(-w, data, logcosh())
    assert np.allclose(a, -b, atol=1e-12)


def test_deflation_recovers_rotated_uniforms(uniform_pair):
    data, transform, mixing = uniform_pair
    loadings = deflation(data, 2, logcosh(), 5)
    assert loadings.converged.all()
    err = amari_error(total_unmixing(loadings, transform), mixing)
    assert err < 0.05


def test_deflation_on_gaussian_noise_has_tiny_contrast():
    raw = ReproducibleStream(77).normals(20_000).reshape(10_000, 2)
    data, _ = whiten(raw)
    loadings = deflation(data, 1, logcosh(), 3)
    y = data @ loadings.W[0]
    assert fastica_contrast(y, logcosh()) < 1e-3


def test_deflation_rows_orthonormal_regardless(uniform_pair, monkeypatch):
    data, _, _ = uniform_pair
    # absurdly tight tolerance forces non-convergence; rows stay orthonormal
    monkeypatch.setattr(fastica, "TOL", 1e-17)
    monkeypatch.setattr(fastica, "MAX_ITER", 3)
    monkeypatch.setattr(fastica, "RESTARTS", 1)
    steps = []
    monkeypatch.setattr(
        fastica, "fixed_point_step", lambda *args: steps.append(1) or fixed_point_step(*args)
    )
    loadings = deflation(data, 2, logcosh(), 9)
    # both attempts at the first row run out of steps; the second row is
    # forced in two dimensions and converges in one step per attempt
    assert not loadings.converged[0] and loadings.iterations[0] == 3
    assert len(steps) == 2 * 3 + 2 * 1
    gram = loadings.W @ loadings.W.T
    assert np.abs(gram - np.eye(2)).max() < 1e-8
    assert loadings.iterations.shape == (2,)


def test_deflation_deterministic(uniform_pair):
    data, _, _ = uniform_pair
    a = deflation(data, 2, logcosh(), 11)
    b = deflation(data, 2, logcosh(), 11)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.iterations, b.iterations)


def test_config_validation(uniform_pair):
    data, _, _ = uniform_pair
    with pytest.raises(ValueError, match="n_components must be >= 1"):
        deflation(data, 0, logcosh(), 0)
    with pytest.raises(ValueError):
        Loadings(
            W=np.array([[1.0, 0.0], [1.0, 0.0]]),
            converged=np.array([True, True]),
            iterations=np.array([1, 1]),
        )


def test_too_many_components_rejected(uniform_pair):
    data, _, _ = uniform_pair
    with pytest.raises(ValueError):
        deflation(data, 3, logcosh(), 0)


def test_amari_identity_inverse():
    gen = np.random.default_rng(2)
    A = gen.standard_normal((3, 3)) + 3 * np.eye(3)
    assert amari_error(np.linalg.inv(A), A) == pytest.approx(0.0, abs=1e-12)


def test_amari_scaled_permutation_is_zero():
    A = np.eye(3)
    W = np.array([[0.0, -2.5, 0.0], [0.3, 0.0, 0.0], [0.0, 0.0, 7.0]])
    assert amari_error(W, A) == pytest.approx(0.0, abs=1e-15)


def test_amari_all_ones_is_maximal():
    # P = ones(2, 2): each row and column term contributes 1
    W = np.ones((2, 2))
    A = np.eye(2)
    # ones matrix is singular as a product only if W A is singular; the
    # metric itself is still defined through row/column maxima
    assert amari_error(W, A) == pytest.approx(1.0, abs=1e-15)


def test_amari_rejects_singular_product():
    with pytest.raises(ValueError):
        amari_error(np.zeros((2, 2)), np.eye(2))


@given(
    perm=st.permutations([0, 1, 2]),
    signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3),
)
@settings(max_examples=30)
def test_amari_invariant_under_row_permutation_and_sign(perm, signs):
    gen = np.random.default_rng(8)
    A = gen.standard_normal((3, 3)) + 3 * np.eye(3)
    W = np.linalg.inv(A) + 0.05 * gen.standard_normal((3, 3))
    W2 = (np.diag(signs) @ W)[list(perm)]
    assert amari_error(W2, A) == pytest.approx(amari_error(W, A), abs=1e-12)
