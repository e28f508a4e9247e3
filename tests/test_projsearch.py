import dataclasses
import math

import numpy as np
import pytest

from icaprobe import projsearch
from icaprobe.contrast import (
    build_k,
    c_value,
    fastica_contrast,
    kurtosis_contrast,
    logcosh,
    negexp,
)
from icaprobe.datagen import GenConfig, gen_banded_gaussian, gen_mixed_sources, rotation_2d
from icaprobe.entropy import ETA_1, mspacing_negentropy
from icaprobe.errors import OptimizationError
from icaprobe.maxent import _feasible_range, solve_f0
from icaprobe.projsearch import (
    SweepResult,
    UnsupportedDimensionError,
    mspacing_components,
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


@pytest.fixture(scope="module")
def outlier_data():
    # heavy-tail injections along x1: c passes logcosh's upper bound for a
    # band of directions, and mean y^4 reaches ~22 at theta = pi/2
    base = ReproducibleStream(93).normals(1000).reshape(500, 2)
    base[:6, 0] = np.array([8.0, -8.0, 9.0, -9.0, 10.0, -10.0])
    D, _ = whiten(base)
    return D


def _assert_moments_agree(res, D, k):
    # the sweep's closed-form c and fourth-moment contrast against c_value
    # and kurtosis_contrast on each projection.  Measured over 360
    # directions on the Gaussian, banded and outlier data, for logcosh 1
    # and 2 and negexp: |c - c_value| <= 1.9e-15, and the kurtosis
    # contrast differs by <= 6.0e-16 of mean y^4 (kurtosis_contrast + 3)
    for i, theta in enumerate(res.thetas):
        y = D @ np.array([math.sin(theta), math.cos(theta)])
        assert abs(res.c[i] - c_value(y, k)) <= 4e-15
        kurt = kurtosis_contrast(y)
        assert abs(res.values["j_kurtosis"][i] - kurt) <= 2e-15 * (kurt + 3.0)


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
    # the sorted and G-based contrasts are the direct functions' bit for
    # bit; c and the kurtosis contrast come from D's moments in closed
    # form, so they agree to rounding, and J[f0] is the solve of that c
    res = sweep(gaussian_data, grid_size=16)
    k = build_k(logcosh())
    for i, theta in enumerate(res.thetas):
        y = gaussian_data @ np.array([math.sin(theta), math.cos(theta)])
        assert res.values["j_mspacing"][i] == mspacing_negentropy(y)
        assert res.values["j_hat_star"][i] == fastica_contrast(y, logcosh())
        assert res.values["j_f0"][i] == ETA_1 - solve_f0(res.c[i], k).entropy
    _assert_moments_agree(res, gaussian_data, k)
    assert not res.f0_failed.any()


@pytest.mark.parametrize("g", [logcosh(), logcosh(2.0), negexp()], ids=lambda g: g.name)
def test_sweep_moments_agree_on_whitened_data_with_outliers(outlier_data, g):
    # the closed form's terms grow with the outliers' fourth moments (mean
    # y^4 ~ 22 at theta = pi/2), and the agreement holds to the same bounds
    res = sweep(outlier_data, grid_size=360, g=g)
    assert res.values["j_kurtosis"].max() > 18.0
    _assert_moments_agree(res, outlier_data, build_k(g))


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


def test_argmax_hits_across_g_and_seeds():
    # README's table: per G, the seeds (0-9, n = 2000) at which each
    # contrast's argmax lies within 2 degrees (4 grid steps) of the
    # m-spacing argmax; the m-spacing argmax itself is on the band
    # (89.5-91 degrees) at every seed
    data = [whiten(gen_banded_gaussian(GenConfig(n=2000, seed=s)))[0] for s in range(10)]
    hits = {}
    for g in (logcosh(1.0), logcosh(2.0), negexp()):
        for name in ("j_hat_star", "j_f0", "j_kurtosis"):
            hits[g.name, name] = []
        for seed, D in enumerate(data):
            res = sweep(D, g=g)
            im = int(np.nanargmax(res.values["j_mspacing"]))
            assert 179 <= im <= 182
            for name in ("j_hat_star", "j_f0", "j_kurtosis"):
                steps = abs(int(np.nanargmax(res.values[name])) - im)
                if min(steps, 360 - steps) <= 4:
                    hits[g.name, name].append(seed)
    alpha2 = [0, 3, 4, 5, 6, 7, 8, 9]
    assert hits == {
        ("logcosh(1)", "j_hat_star"): [], ("logcosh(1)", "j_f0"): [],
        ("logcosh(1)", "j_kurtosis"): [],
        ("logcosh(2)", "j_hat_star"): alpha2, ("logcosh(2)", "j_f0"): alpha2,
        ("logcosh(2)", "j_kurtosis"): [],
        ("negexp", "j_hat_star"): [], ("negexp", "j_f0"): [], ("negexp", "j_kurtosis"): [],
    }


def test_sweep_computes_the_feasible_range_once(banded_data):
    # solve_f0 checks the range before every solve; the cache keeps that
    # to one computation per K, however many directions the sweep has, and
    # a second sweep with the same G reuses it
    _feasible_range.cache_clear()
    sweep(banded_data)
    assert _feasible_range.cache_info().misses == 1
    sweep(banded_data)
    assert _feasible_range.cache_info().misses == 1


def test_sweep_solves_every_direction_in_one_call(banded_data, monkeypatch):
    import icaprobe.projsearch as projsearch

    calls = []

    def counted(c, k, *rest):
        calls.append(np.array(c))
        return solve_f0(c, k, *rest)

    monkeypatch.setattr(projsearch, "solve_f0", counted)
    res = sweep(banded_data, grid_size=36)
    assert len(calls) == 1 and calls[0].shape == (36,)
    assert np.isfinite(res.values["j_f0"]).all()


def test_sweep_reports_solver_work(outlier_data):
    # per direction: the Newton steps and the rule size of the solve of
    # res.c, 0 where the solve failed.  The solve counts are those of the
    # sweep's own c: near the upper bound (row 13, c ~ 0.189) c_value's c,
    # which differs only by rounding, takes 26 Newton steps against 23
    res = sweep(outlier_data, grid_size=16)
    assert res.f0_failed.any() and not res.f0_failed.all()
    k = build_k(logcosh())
    for i in range(len(res.thetas)):
        if res.f0_failed[i]:
            assert res.f0_iterations[i] == 0 and res.f0_rule_size[i] == 0
            continue
        d = solve_f0(res.c[i], k)
        assert (res.f0_iterations[i], res.f0_rule_size[i]) == (d.iterations, d.rule_size)
    assert res.f0_rule_size.max() > 0


def test_sweep_argmax_skips_failures():
    res = SweepResult(
        thetas=np.array([0.0, 1.0, 2.0]),
        values={"j_f0": np.array([0.5, math.nan, 0.2])},
        c=np.array([0.01, 0.5, 0.02]),
        f0_failed=np.array([False, True, False]),
        f0_iterations=np.array([2, 0, 3]),
        f0_rule_size=np.array([200, 0, 200]),
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


def test_sweep_flags_solver_failures_as_gaps(outlier_data):
    # heavy-tail injections push the constraint value past integrability
    # for a band of directions; those entries are NaN + flagged, and the
    # argmax is taken over the surviving grid points
    res = sweep(outlier_data, grid_size=16)
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


def test_mspacing_components_sign_survives_rounding_moves(monkeypatch):
    # the last row at p = 4 is the SVD complement of the first three, and
    # its sign follows rounding: moving the found rows by 1e-15 flips it.
    # Signing each row by its largest-magnitude entry keeps every row
    mix = np.random.default_rng(4).standard_normal((4, 4))
    raw, _ = gen_mixed_sources(3000, ["uniform", "gaussian", "two-point", "uniform"], mix, seed=4)
    data, _ = whiten(raw)
    W = mspacing_components(data, 4)
    np.testing.assert_allclose(W[-1], [-0.5479394, -0.4802424, 0.67936242, -0.08715711], atol=1e-7)
    lead = W[np.arange(4), np.argmax(np.abs(W), axis=1)]
    assert (lead > 0).all()
    for scale in (1e-15, 2e-15):

        def nudged(sub, contrast, scale=scale):
            return optimize_direction(sub, contrast) + scale * np.arange(1, sub.shape[1] + 1)

        monkeypatch.setattr(projsearch, "optimize_direction", nudged)
        assert np.abs(mspacing_components(data, 4) - W).max() < 1e-14
