import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icaprobe.contrast import (
    GFAMILIES,
    GFunction,
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
from icaprobe.fastica import fixed_point_step
from icaprobe.quadrature import gaussian_weighted_rule
from icaprobe.rng import ReproducibleStream


def k_residuals(k, rule):
    """The four orthonormality conditions under the given rule."""
    x, w = rule
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
    x, w = rule200
    he4_norm_sq = w @ (x**4 - 6.0 * x * x + 3.0) ** 2
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
        derivs=lambda x: (2.0 * np.asarray(x, float), np.full_like(np.asarray(x, float), 2.0)),
    )
    with pytest.raises(DegenerateGError):
        build_k(g)


def test_build_k_invariant_to_quadratic_shifts(k_logcosh):
    base = logcosh()

    def derivs(x):
        d1, d2 = base.derivs(x)
        return d1 + 1.4 * np.asarray(x, float), d2 + 1.4

    shifted = GFunction(
        name="logcosh+quad",
        value=lambda x: base.value(x) + 0.7 * np.asarray(x, float) ** 2 + 2.1,
        derivs=derivs,
    )
    k2 = build_k(shifted)
    grid = np.linspace(-8, 8, 501)
    assert np.max(np.abs(k2(grid) - k_logcosh(grid))) < 1e-8


def test_build_k_rejects_a_g_that_is_not_even():
    base = logcosh()
    shifted = GFunction(
        name="logcosh-shifted",
        value=lambda x: base.value(np.asarray(x, float) + 0.5),
        derivs=lambda x: base.derivs(np.asarray(x, float) + 0.5),
    )
    cubic = GFunction(
        name="cubic",
        value=lambda x: np.asarray(x, float) ** 3,
        derivs=lambda x: (3.0 * np.asarray(x, float) ** 2, 6.0 * np.asarray(x, float)),
    )
    x, _ = gaussian_weighted_rule()
    # the largest |G(x) - G(-x)| sits at the outermost nodes, +-x[0]
    for g, asymmetry in ((shifted, 1.0), (cubic, 2.0 * abs(x[0]) ** 3)):
        with pytest.raises(ValueError, match=f"{g.name}: G must be even") as err:
            build_k(g)
        assert f"reaches {asymmetry:.3g}" in str(err.value)
    # every family the CLI offers is even and builds
    others = [family() for name, family in GFAMILIES.items() if name != "logcosh"]
    for g in [logcosh(1.0), logcosh(1.5), logcosh(2.0), *others]:
        assert math.isfinite(build_k(g).delta)


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


def test_g_factories_return_one_object_per_argument():
    # K's caches (the feasible range) key on G by identity, so equal
    # arguments must give the same GFunction
    assert logcosh() is logcosh(1.0) is logcosh(1)
    assert logcosh(1.5) is logcosh(1.5) is not logcosh()
    assert negexp() is negexp()
    assert quartic() is quartic()
    assert build_k(logcosh()) == build_k(logcosh(1.0))


def test_gaussian_expectation_logcosh():
    assert gaussian_expectation(logcosh()) == pytest.approx(0.3746, abs=1e-4)


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


def _plain_logcosh(a):
    """logcosh(a) as plain numpy expressions, a new array at every step."""

    def value(x):
        ax = np.abs(a * x)
        return (ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)) / a

    return {
        "value": value,
        "deriv": lambda x: np.tanh(a * x),
        "deriv2": lambda x: a * (1.0 - np.tanh(a * x) ** 2),
    }


_PLAIN_G = {
    "logcosh1": (logcosh(1.0), _plain_logcosh(1.0)),
    "logcosh1.5": (logcosh(1.5), _plain_logcosh(1.5)),
    "logcosh2": (logcosh(2.0), _plain_logcosh(2.0)),
    "negexp": (negexp(), {
        "value": lambda x: -np.exp(-0.5 * x * x),
        "deriv": lambda x: x * np.exp(-0.5 * x * x),
        "deriv2": lambda x: (1.0 - x * x) * np.exp(-0.5 * x * x),
    }),
    "quartic": (quartic(), {
        "value": lambda x: x**4,
        "deriv": lambda x: 4.0 * x**3,
        "deriv2": lambda x: 12.0 * x**2,
    }),
}


def _part(g, part):
    """g's value, or the entry of ``derivs`` holding G' or G''."""
    if part == "value":
        return g.value
    return lambda x: g.derivs(x)[{"deriv": 0, "deriv2": 1}[part]]


def _g_inputs():
    x = 4.0 * ReproducibleStream(1010).normals(20_000)
    edges = [0.0, -0.0, 5e-324, -1e-300, 1e-8, -3.5, 20.0, -20.0, 400.0, -800.0]
    x[: len(edges)] = edges
    return {
        "1-d": x,
        "2-d": x.reshape(100, 200),
        "2-d transposed": x.reshape(100, 200).T,
        "2-d strided": x.reshape(100, 200)[:, ::3],
    }


@pytest.mark.parametrize("part", ["value", "deriv", "deriv2"])
@pytest.mark.parametrize("gname", list(_PLAIN_G))
def test_g_matches_its_plain_expression_bit_for_bit(gname, part):
    # each G writes into one array of its own; the bits, the shape and the
    # layout-free bytes are the plain expression's, the input is left as
    # it was, and the result shares no memory with it
    g, plain = _PLAIN_G[gname]
    for label, x in _g_inputs().items():
        before = x.copy()
        got, want = _part(g, part)(x), plain[part](x)
        assert got.shape == want.shape and got.dtype == want.dtype, label
        assert got.tobytes() == want.tobytes(), label
        assert x.tobytes() == before.tobytes(), label
        assert not np.shares_memory(got, x), label


@pytest.mark.parametrize("part", ["value", "deriv", "deriv2"])
@pytest.mark.parametrize("gname", list(_PLAIN_G))
def test_g_of_a_0d_input_is_a_scalar(gname, part):
    g, plain = _PLAIN_G[gname]
    for x in (0.37, -2.5, 0, np.float64(1.75), np.array(-0.6)):
        got, want = _part(g, part)(x), plain[part](np.asarray(x, dtype=float))
        assert type(got) is type(want) is np.float64
        assert got.tobytes() == want.tobytes()


def test_fixed_point_step_makes_one_derivs_call_per_step(rng):
    base = logcosh()
    calls = []
    counted = replace(base, name="counted", derivs=lambda x: calls.append(1) or base.derivs(x))
    D = rng.standard_normal((500, 2))
    w = np.array([0.6, 0.8])
    for step in range(1, 4):
        w_next = fixed_point_step(w, D, counted)
        assert len(calls) == step
        assert w_next.tobytes() == fixed_point_step(w, D, base).tobytes()
        w = w_next
