import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icaprobe.contrast import (
    GFunction,
    MonteCarloBaseline,
    build_k,
    c_value,
    fastica_contrast,
    gaussian_expectation,
    hat_j_from_c,
    kurtosis_contrast,
    logcosh,
    negexp,
    quartic,
)
from icaprobe.errors import DegenerateGError
from icaprobe.quadrature import gaussian_weighted_rule
from icaprobe.rng import ReproducibleStream


def k_residuals(k, rule):
    """The four orthonormality conditions under the given rule."""
    x, w = rule.nodes, rule.weights
    kx = k(x)
    return (
        float(w @ kx),
        float(w @ (x * kx)),
        float(w @ (x * x * kx)),
        float(w @ (kx * kx) - 1.0),
    )


def test_quartic_closed_form(rule200):
    # oracle: E Z^4 = 3, E Z^6 = 15 give alpha = (3 - 15)/2 = -6,
    # gamma = (15 - 9)/2 = 3; delta^2 = E He4(Z)^2 = 4! = 24
    k = build_k(quartic())
    assert k.alpha == pytest.approx(-6.0, abs=1e-10)
    assert k.beta == pytest.approx(0.0, abs=1e-10)
    assert k.gamma == pytest.approx(3.0, abs=1e-10)
    assert abs(k.delta) == pytest.approx(math.sqrt(24.0), abs=1e-10)
    assert k.delta > 0  # quartic tail keeps K bounded below with +delta
    he4_norm_sq = rule200.apply(lambda x: (x**4 - 6.0 * x * x + 3.0) ** 2)
    assert he4_norm_sq == pytest.approx(24.0, abs=1e-8)


@pytest.mark.parametrize("gname", ["logcosh", "negexp"])
def test_orthonormality_residuals(gname, rule200):
    g = logcosh() if gname == "logcosh" else negexp()
    k = build_k(g)
    for r in k_residuals(k, rule200):
        assert abs(r) < 1e-8
    # cross-check on an independent, finer rule
    fine = gaussian_weighted_rule(400)
    for r in k_residuals(k, fine):
        assert abs(r) < 1e-8


def test_delta_sign_negative_for_logcosh_and_negexp():
    # alpha < 0 for both; K must grow to +infinity so delta < 0
    for g in (logcosh(), negexp()):
        k = build_k(g)
        assert k.delta < 0
        assert k(30.0) > 0 and k(-30.0) > 0
        grid = np.linspace(-12, 12, 2001)
        assert k(grid).min() > -2.0  # bounded below


def test_pure_quadratic_is_degenerate():
    g = GFunction(
        name="square",
        value=lambda x: np.asarray(x, float) ** 2,
        deriv=lambda x: 2.0 * np.asarray(x, float),
        deriv2=lambda x: np.full_like(np.asarray(x, float), 2.0),
    )
    with pytest.raises(DegenerateGError):
        build_k(g)


def test_build_k_invariant_to_quadratic_shifts(k_logcosh):
    base = logcosh()
    shifted = GFunction(
        name="logcosh+quad",
        value=lambda x: base.value(x) + 0.7 * np.asarray(x, float) ** 2 - 1.3 * np.asarray(x, float) + 2.1,
        deriv=lambda x: base.deriv(x) + 1.4 * np.asarray(x, float) - 1.3,
        deriv2=lambda x: base.deriv2(x) + 1.4,
    )
    k2 = build_k(shifted)
    grid = np.linspace(-8, 8, 501)
    assert np.max(np.abs(k2(grid) - k_logcosh(grid))) < 1e-8


def test_odd_cubic_sign_tie_breaks_positive():
    g = GFunction(
        name="cubic",
        value=lambda x: np.asarray(x, float) ** 3,
        deriv=lambda x: 3.0 * np.asarray(x, float) ** 2,
        deriv2=lambda x: 6.0 * np.asarray(x, float),
    )
    k = build_k(g)
    # He3 / sqrt(6): beta = -E[Z^4] = -3, delta = sqrt(3!) with + sign
    assert k.beta == pytest.approx(-3.0, abs=1e-10)
    assert k.delta == pytest.approx(math.sqrt(6.0), abs=1e-10)


def test_two_constraint_family_cross_orthogonality(rule200):
    # the classical I = 2 pair (x^3, x^4): both K's orthonormal and
    # mutually orthogonal under the Gaussian weight
    g3 = GFunction(
        name="cubic",
        value=lambda x: np.asarray(x, float) ** 3,
        deriv=lambda x: 3.0 * np.asarray(x, float) ** 2,
        deriv2=lambda x: 6.0 * np.asarray(x, float),
    )
    k3 = build_k(g3)
    k4 = build_k(quartic())
    cross = rule200.apply(lambda x: k3(x) * k4(x))
    assert abs(cross) < 1e-10


def test_c_value_gaussian_sample_near_zero(k_logcosh):
    y = ReproducibleStream(21).normals(40_000)
    assert abs(c_value(y, k_logcosh)) < 3.0 / math.sqrt(len(y))


def test_c_value_constant_zero_quartic():
    k = build_k(quartic())
    val = c_value(np.zeros(10), k)
    assert val == pytest.approx(3.0 / math.sqrt(24.0), abs=1e-12)
    assert val == pytest.approx(0.6124, abs=1e-4)


def test_c_value_even_in_sample_sign(k_logcosh, rng):
    y = rng.standard_normal(500)
    assert c_value(y, k_logcosh) == pytest.approx(c_value(-y, k_logcosh), abs=1e-14)


def test_gaussian_expectation_logcosh():
    assert gaussian_expectation(logcosh()) == pytest.approx(0.3746, abs=1e-4)


def test_fastica_contrast_self_baseline_is_zero():
    base = MonteCarloBaseline(n_draws=5000, seed=99)
    z = base.sample()
    assert fastica_contrast(z, logcosh(), baseline=base) == 0.0


def test_fastica_contrast_mc_baseline_near_quadrature():
    y = (ReproducibleStream(92).uniforms(5000) - 0.5) * math.sqrt(12.0)
    quad = fastica_contrast(y, logcosh())
    mc = fastica_contrast(y, logcosh(), baseline=MonteCarloBaseline(n_draws=100_000, seed=7))
    # baseline noise ~ sd/sqrt(L) perturbs the root of the contrast
    assert mc == pytest.approx(quad, rel=0.2)
    assert mc != quad


def test_fastica_contrast_gaussian_small():
    y = ReproducibleStream(22).normals(100_000)
    val = fastica_contrast(y, logcosh())
    assert val < 1e-5  # (O(1/sqrt(n)) fluctuation)^2


def test_fastica_contrast_uniform_dominates_gaussian():
    n = 10_000
    stream = ReproducibleStream(23)
    uniform = (stream.uniforms(n) - 0.5) * math.sqrt(12.0)
    gaussian = stream.normals(n)
    v_unif = fastica_contrast(uniform, logcosh())
    v_gauss = fastica_contrast(gaussian, logcosh())
    assert v_unif > 10.0 * v_gauss


def test_kurtosis_contrast_cases():
    stream = ReproducibleStream(24)
    gauss = stream.normals(10_000)
    assert kurtosis_contrast(gauss) == pytest.approx(0.0, abs=0.1)
    unif = (stream.uniforms(10_000) - 0.5) * math.sqrt(12.0)
    # E X^4 = 9/5 for the unit-variance uniform
    assert kurtosis_contrast(unif) == pytest.approx(1.2, abs=0.05)
    pm1 = np.where(stream.uniforms(10_000) < 0.5, -1.0, 1.0)
    assert kurtosis_contrast(pm1) == pytest.approx(2.0, abs=0.01)
    # mean(y^4) = (16 + 1 + 1 + 16) / 4 = 8.5, exact in binary
    assert kurtosis_contrast([-2.0, -1.0, 1.0, 2.0]) == 5.5


def test_hat_j_arithmetic():
    assert hat_j_from_c(0.0) == 0.0
    assert hat_j_from_c(0.1) == pytest.approx(0.005, abs=1e-15)
    assert hat_j_from_c([0.3, 0.4]) == pytest.approx(0.125, abs=1e-15)


def test_proportionality_identity(k_logcosh):
    # hat_J * 2 delta^2 == (mean G - E_phi G)^2 exactly for samples with
    # 1/n moments (0, 1); an algebraic identity of the construction
    e_g = gaussian_expectation(logcosh())
    g = logcosh()
    stream = ReproducibleStream(25)
    for _ in range(25):
        y = stream.uniforms(300) * 4.0 - 1.0
        y = (y - y.mean()) / y.std()  # 1/n convention
        lhs = hat_j_from_c(c_value(y, k_logcosh)) * 2.0 * k_logcosh.delta**2
        rhs = (float(np.mean(g.value(y))) - e_g) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)


@given(st.permutations(list(range(40))))
@settings(max_examples=20)
def test_contrast_permutation_invariance(perm):
    # invariant up to summation-order rounding
    gen = np.random.default_rng(3)
    y = gen.standard_normal(40)
    assert fastica_contrast(y[perm], logcosh()) == pytest.approx(
        fastica_contrast(y, logcosh()), rel=1e-12, abs=1e-15
    )
    assert kurtosis_contrast(y[perm]) == pytest.approx(
        kurtosis_contrast(y), rel=1e-12
    )


def test_logcosh_parameter_validation():
    with pytest.raises(ValueError):
        logcosh(0.5)
    with pytest.raises(ValueError):
        logcosh(2.5)
    g = logcosh(2.0)
    assert g.value(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-15)


def test_logcosh_overflow_safe():
    g = logcosh()
    big = g.value(np.array([800.0]))[0]
    assert np.isfinite(big)
    assert big == pytest.approx(800.0 - math.log(2.0), abs=1e-9)


def test_empty_sample_rejected(k_logcosh):
    with pytest.raises(ValueError):
        c_value(np.array([]), k_logcosh)
    with pytest.raises(ValueError):
        kurtosis_contrast(np.array([]))
