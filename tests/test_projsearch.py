import dataclasses
import math

import numpy as np
import pytest

from icaprobe.contrast import build_k, c_value, fastica_contrast, kurtosis_contrast, logcosh
from icaprobe.datagen import GenConfig, gen_banded_gaussian, gen_mixed_sources, rotation_2d
from icaprobe.entropy import ETA_1, mspacing_negentropy
from icaprobe.errors import OptimizationError
from icaprobe.maxent import _feasible_range, solve_f0
from icaprobe.projsearch import (
    SweepResult,
    UnsupportedDimensionError,
    optimize_direction,
    sweep,
)
from icaprobe.rng import ReproducibleStream
from icaprobe.whiten import whiten


@pytest.fixture(scope="module")
def gaussian_data():
    D, _ = whiten(ReproducibleStream(55).normals(4000).reshape(2000, 2))
    return D


@pytest.fixture(scope="module")
def banded_data():
    D, _ = whiten(gen_banded_gaussian(GenConfig(n=2000, seed=42)))
    return D


def test_sweep_shapes_and_grid(gaussian_data):
    res = sweep(gaussian_data, grid_size=16)
    assert len(res.thetas) == 16
    assert np.all(np.diff(res.thetas) > 0)
    assert res.thetas[0] == 0.0
    assert res.thetas[-1] < math.pi
    for name in ("j_mspacing", "j_f0", "j_hat_star", "j_kurtosis"):
        assert res.values[name].shape == (16,)


def test_sweep_requires_2d():
    data, _ = whiten(ReproducibleStream(56).normals(900).reshape(300, 3))
    with pytest.raises(UnsupportedDimensionError):
        sweep(data)


def test_sweep_gaussian_contrasts_flat(gaussian_data):
    # flat means noise-level: the squared contrast stays ~(sd/sqrt(n))^2,
    # orders below any structured value, and its spread stays a small
    # multiple of its own median (measured ~7x at this seed)
    res = sweep(gaussian_data, grid_size=64)
    jh = res.values["j_hat_star"]
    assert jh.max() < 1e-4
    assert jh.max() - jh.min() < 20.0 * np.median(jh)
    jm = res.values["j_mspacing"]
    assert jm.max() - jm.min() < 0.15


def test_sweep_matches_direct_evaluation(gaussian_data):
    res = sweep(gaussian_data, grid_size=16)
    k = build_k(logcosh())
    for i, theta in enumerate(res.thetas):
        y = gaussian_data @ np.array([math.sin(theta), math.cos(theta)])
        assert res.values["j_mspacing"][i] == mspacing_negentropy(y)
        assert res.values["j_hat_star"][i] == fastica_contrast(y, logcosh())
        assert res.values["j_kurtosis"][i] == kurtosis_contrast(y)
        assert res.values["j_f0"][i] == ETA_1 - solve_f0(c_value(y, k), k).entropy
    assert not res.f0_failed.any()


def test_sweep_evaluates_g_once_per_direction(gaussian_data):
    g = logcosh()
    n = gaussian_data.shape[0]
    sample_shapes = []

    def value(x):
        x = np.asarray(x, dtype=float)
        sample_shapes.append(x.shape)
        return g.value(x)

    # K's coefficients and the surrogate solver evaluate G on quadrature
    # nodes, never on n points
    sweep(gaussian_data, grid_size=16, g=dataclasses.replace(g, value=value))
    assert sample_shapes.count((n,)) == 16


def test_sweep_counterexample_separation(banded_data):
    res = sweep(banded_data, grid_size=180)
    theta_m, _ = res.argmax("j_mspacing")
    theta_f, _ = res.argmax("j_hat_star")
    sep = abs(theta_m - theta_f)
    sep = min(sep, math.pi - sep)
    assert sep > math.radians(20.0)
    assert not res.f0_failed.any()


def test_sweep_computes_the_feasible_range_once(banded_data):
    # solve_f0 checks the range before every solve; the cache keeps that
    # to one computation per K, however many directions the sweep has, and
    # a second sweep with the same G reuses it
    _feasible_range.cache_clear()
    sweep(banded_data)
    assert _feasible_range.cache_info().misses == 1
    sweep(banded_data)
    assert _feasible_range.cache_info().misses == 1


def test_sweep_argmax_skips_failures():
    res = SweepResult(
        thetas=np.array([0.0, 1.0, 2.0]),
        values={"j_f0": np.array([0.5, math.nan, 0.2])},
        f0_failed=np.array([False, True, False]),
    )
    theta, val = res.argmax("j_f0")
    assert theta == 0.0 and val == 0.5


def test_optimizer_quadratic_objective(gaussian_data):
    # quadratic form with known maximizer on the circle
    target = np.array([math.sin(1.234), math.cos(1.234)])
    M = np.outer(target, target)
    w = optimize_direction(gaussian_data, lambda w: float(w @ M @ w))
    assert abs(float(w @ target)) > 1.0 - 1e-6


def test_optimizer_skips_non_finite_values(gaussian_data):
    # NaN wherever |cos theta| >= 0.9, the start w = e_2 included; the
    # maximizer theta = 1.234 lies in the finite band
    target = np.array([math.sin(1.234), math.cos(1.234)])

    def objective(w):
        return float(w @ target) ** 2 if abs(w[1]) < 0.9 else math.nan

    w = optimize_direction(gaussian_data, objective)
    assert abs(float(w @ target)) > 1.0 - 1e-6


def test_optimizer_rejects_an_all_nan_objective(gaussian_data):
    with pytest.raises(OptimizationError):
        optimize_direction(gaussian_data, lambda w: math.nan)


def test_optimizer_at_p1_evaluates_the_only_direction_once():
    # the unit sphere in one dimension is {e_1, -e_1}: one value decides
    data, _ = whiten(ReproducibleStream(7).normals(500).reshape(500, 1))
    calls = []

    def objective(w):
        calls.append(w)
        return mspacing_negentropy(data @ w)

    assert optimize_direction(data, objective).tolist() == [1.0]
    assert len(calls) == 1
    with pytest.raises(OptimizationError, match="no direction gave a finite objective"):
        optimize_direction(data, lambda w: math.inf)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_optimizer_returns_a_unit_vector(p):
    data, _ = whiten(ReproducibleStream(60 + p).uniforms(600 * p).reshape(600, p))
    w = optimize_direction(data, lambda w: mspacing_negentropy(data @ w))
    assert isinstance(w, np.ndarray) and w.shape == (p,)
    assert abs(float(w @ w) - 1.0) <= 1e-12


def test_optimizer_at_p2_returns_the_angle_form(banded_data):
    # a best direction evaluated, as [sin theta, cos theta] bit for bit
    # with theta in [0, pi): the sweep's form of a direction
    for objective in (
        lambda w: mspacing_negentropy(banded_data @ w),
        lambda w: float(w[0] + 2.0 * w[1]) ** 2,  # maximum at theta = 0.46
        lambda w: float(w[1] - 1e-3 * w[0]) ** 2,  # maximum at theta = -1e-3 = pi - 1e-3
    ):
        seen = []

        def recorded(w, objective=objective):
            seen.append((objective(w), w))
            return seen[-1][0]

        w = optimize_direction(banded_data, recorded)
        top = max(v for v, _ in seen)
        thetas = [math.atan2(u[0], u[1]) % math.pi for v, u in seen if v == top]
        assert all(0.0 <= theta < math.pi for theta in thetas)
        assert w.tolist() in [[np.sin(theta), np.cos(theta)] for theta in thetas]
    assert thetas[0] == pytest.approx(math.pi - 1e-3, abs=1e-6)


def test_optimizer_evaluation_budget_at_p2(banded_data):
    # one exhaustive 180-point grid over the circle plus one golden-section
    # refinement
    calls = []

    def objective(w):
        calls.append(w)
        return mspacing_negentropy(banded_data @ w)

    optimize_direction(banded_data, objective)
    assert len(calls) <= 180 + 40


def test_optimizer_matches_sweep_argmax(banded_data):
    res = sweep(banded_data, grid_size=720)
    theta_sweep, _ = res.argmax("j_hat_star")
    w = optimize_direction(
        banded_data, lambda w: fastica_contrast(banded_data @ w, logcosh())
    )
    diff = abs(math.atan2(w[0], w[1]) % math.pi - theta_sweep)
    diff = min(diff, math.pi - diff)
    assert diff < math.radians(2.0)


def test_optimizer_recovers_source_axis():
    raw, mixing = gen_mixed_sources(8000, ("uniform", "uniform"), rotation_2d(0.6), seed=13)
    data, transform = whiten(raw)
    w = optimize_direction(data, lambda w: mspacing_negentropy(data @ w))
    # map back to raw coordinates and compare against the source axes
    w_raw = transform @ w
    recovered = mixing.T @ w_raw
    recovered = np.abs(recovered) / np.linalg.norm(recovered)
    assert recovered.max() > math.cos(math.radians(3.0))


def test_antipodal_contrast_invariance(banded_data):
    w = np.array([math.sin(0.77), math.cos(0.77)])
    y_plus = banded_data @ w
    y_minus = banded_data @ -w
    assert kurtosis_contrast(y_plus) == pytest.approx(kurtosis_contrast(y_minus), rel=1e-12)
    assert fastica_contrast(y_plus, logcosh()) == pytest.approx(
        fastica_contrast(y_minus, logcosh()), rel=1e-12
    )
    assert mspacing_negentropy(y_plus) == pytest.approx(
        mspacing_negentropy(y_minus), abs=1e-9
    )


def test_grid_refinement_monotone(banded_data):
    coarse = sweep(banded_data, grid_size=45)
    fine = sweep(banded_data, grid_size=90)
    # grids nest: every coarse theta appears in the fine grid
    assert fine.values["j_kurtosis"].max() >= coarse.values["j_kurtosis"].max() - 1e-12


def test_sweep_validation(gaussian_data):
    with pytest.raises(ValueError):
        sweep(gaussian_data, grid_size=4)


def test_sweep_flags_solver_failures_as_gaps():
    # heavy-tail injections push the constraint value past integrability
    # for a band of directions; those entries are NaN + flagged, and the
    # argmax is taken over the surviving grid points
    stream = ReproducibleStream(93)
    base = stream.normals(1000).reshape(500, 2)
    base[:6, 0] = np.array([8.0, -8.0, 9.0, -9.0, 10.0, -10.0])
    data, _ = whiten(base)
    res = sweep(data, grid_size=16)
    assert res.f0_failed.any()
    assert np.isnan(res.values["j_f0"][res.f0_failed]).all()
    assert np.isfinite(res.values["j_f0"][~res.f0_failed]).all()
    theta, val = res.argmax("j_f0")
    assert np.isfinite(val)


@pytest.mark.parametrize("p", [3, 4])
def test_optimizer_three_dimensional_recovery(p):
    # one uniform source among Gaussians; the great-circle sweeps of the
    # m-spacing objective must find its unmixing axis
    mix = np.eye(p)
    mix[0, 1], mix[1, 2] = 0.3, -0.2
    raw, mixing = gen_mixed_sources(6000, ("uniform",) + ("gaussian",) * (p - 1), mix, seed=19)
    data, transform = whiten(raw)
    w = optimize_direction(data, lambda w: mspacing_negentropy(data @ w))
    axis = np.linalg.inv(mixing)[0]
    w_raw = transform @ w
    cos = abs(axis @ w_raw) / (np.linalg.norm(axis) * np.linalg.norm(w_raw))
    assert cos > math.cos(math.radians(3.0))


def test_deflation_agrees_with_sweep_argmax(banded_data):
    from icaprobe.fastica import deflation

    res = sweep(banded_data, grid_size=360)
    theta_sweep, _ = res.argmax("j_hat_star")
    w = deflation(banded_data, 1, logcosh(), 0).W[0]
    theta_ica = math.atan2(w[0], w[1]) % math.pi
    diff = abs(theta_ica - theta_sweep)
    diff = min(diff, math.pi - diff)
    assert diff < math.radians(5.0)


def test_counterexample_robust_to_contrast_family(banded_data):
    # the separation persists with the other stock nonlinearity
    from icaprobe.contrast import negexp

    res = sweep(banded_data, grid_size=180, g=negexp())
    theta_m, _ = res.argmax("j_mspacing")
    theta_f, _ = res.argmax("j_hat_star")
    sep = abs(theta_m - theta_f)
    sep = min(sep, math.pi - sep)
    assert sep > math.radians(20.0)


def test_mspacing_optimizer_agrees_with_sweep_argmax(banded_data):
    res = sweep(banded_data, grid_size=360)
    theta_sweep, _ = res.argmax("j_mspacing")
    w = optimize_direction(banded_data, lambda w: mspacing_negentropy(banded_data @ w))
    diff = abs(math.atan2(w[0], w[1]) % math.pi - theta_sweep)
    diff = min(diff, math.pi - diff)
    assert diff < math.radians(5.0)
