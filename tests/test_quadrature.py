import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from icaprobe import quadrature
from icaprobe.errors import AccuracyError
from icaprobe.quadrature import gaussian_weighted_rule, integrate_interval


def gaussian_moment(k: int) -> float:
    """Oracle: E Z^k by the double-factorial recursion E Z^(2m) = (2m-1)!!."""
    if k % 2:
        return 0.0
    acc = 1
    for j in range(1, k, 2):
        acc *= j
    return float(acc)


def expect(order, f) -> float:
    """E[f(Z)] on the order-``order`` rule."""
    x, w = gaussian_weighted_rule(order)
    return float(w @ f(x))


def test_normalization_order_50():
    assert expect(50, lambda x: np.ones_like(x)) == pytest.approx(1.0, abs=1e-12)


def test_unit_variance_order_50():
    assert expect(50, lambda x: x**2) == pytest.approx(1.0, abs=1e-12)


def test_fourth_moment_order_50():
    assert expect(50, lambda x: x**4) == pytest.approx(gaussian_moment(4), abs=1e-10)


@pytest.mark.parametrize("order", [8, 51, 200])
def test_monomials_exact_to_degree(order):
    # tolerance is relative to the absolute-moment scale sum w |x|^k, the
    # cancellation floor of any floating-point dot product (odd moments of
    # high degree cancel huge symmetric terms)
    x, w = gaussian_weighted_rule(order)
    top = min(2 * order - 1, 30)
    for k in range(top + 1):
        val = expect(order, lambda x, k=k: x**k)
        expected = gaussian_moment(k)
        scale = float(w @ np.abs(x) ** k)
        assert abs(val - expected) <= 1e-9 * max(1.0, scale), f"k={k}"


def test_order_8_limit_of_exactness():
    # degree 15 is the last exact monomial at order 8; degree 16 is not
    assert expect(8, lambda x: x**15) == pytest.approx(0.0, abs=1e-9)
    exact_16 = gaussian_moment(16)
    assert abs(expect(8, lambda x: x**16) - exact_16) > 1e-3 * exact_16


def test_order_validation():
    with pytest.raises(ValueError):
        gaussian_weighted_rule(1)
    with pytest.raises(ValueError):
        gaussian_weighted_rule(0)


def test_rule_is_built_once_and_read_only():
    rule = gaussian_weighted_rule(200)
    assert gaussian_weighted_rule(200) is rule
    assert gaussian_weighted_rule(np.int64(200)) is rule
    nodes, weights = rule
    assert not nodes.flags.writeable
    assert not weights.flags.writeable
    # the cache must not turn a float order into a hit on the int entry
    with pytest.raises(ValueError):
        gaussian_weighted_rule(200.0)


def test_rule_invariants_checked(monkeypatch):
    # the builder checks its own output; __wrapped__ bypasses the cache
    build = quadrature._cached_gaussian_rule.__wrapped__
    for xs, ws, message in [
        ([0.0, 0.0], [0.5, 0.5], "strictly increasing"),
        ([-1.0, 1.0], [0.5, 0.4], "integrate 1 to 1"),
    ]:
        scale = math.sqrt(math.pi)  # undone by the builder's rescaling
        stub = (np.array(xs), scale * np.array(ws))
        monkeypatch.setattr(quadrature, "_hermite_nodes_weights", lambda order, stub=stub: stub)
        with pytest.raises(ValueError, match=message):
            build(2)


def test_high_order_drops_underflowed_tail_nodes():
    nodes, weights = gaussian_weighted_rule(400)
    assert len(nodes) <= 400
    assert np.all(weights > 0)
    assert expect(400, lambda x: x**2) == pytest.approx(1.0, abs=1e-12)


def _scalar_pair(z, n):
    q1 = math.pi ** -0.25 * math.exp(-0.5 * z * z)
    q2 = 0.0
    for j in range(1, n + 1):
        q1, q2 = z * math.sqrt(2.0 / j) * q1 - math.sqrt((j - 1.0) / j) * q2, q1
    return q1, q2


def _scalar_hermite_nodes_weights(order):
    """Reference: the root-by-root build, one Python-float Newton run per root."""
    m = (order + 1) // 2
    roots = np.empty(m)
    wts = np.empty(m)
    z = 0.0
    for i in range(m):
        if i == 0:
            z = math.sqrt(2 * order + 1) - 1.85575 * (2 * order + 1) ** (-1.0 / 6.0)
        elif i == 1:
            z -= 1.14 * order ** 0.426 / z
        elif i == 2:
            z = 1.86 * z - 0.86 * roots[0]
        elif i == 3:
            z = 1.91 * z - 0.91 * roots[1]
        else:
            z = 2.0 * z - roots[i - 2]
        if i == m - 1 and order % 2:
            z = 0.0
        else:
            for _ in range(200):
                qn, qn1 = _scalar_pair(z, order)
                step = qn / (math.sqrt(2.0 * order) * qn1 - z * qn)
                step = max(-1.0, min(1.0, step))
                z_prev, z = z, z - step
                if abs(z - z_prev) <= 1e-15 * max(1.0, abs(z)):
                    break
        roots[i] = z
        _, qn1 = _scalar_pair(z, order)
        log_w = -z * z - math.log(order) - 2.0 * math.log(abs(qn1))
        wts[i] = math.exp(log_w) if log_w > -745.0 else 0.0
    if order % 2:
        xs = np.concatenate([-roots[: m - 1], [0.0], roots[: m - 1][::-1]])
        ws = np.concatenate([wts[: m - 1], [wts[m - 1]], wts[: m - 1][::-1]])
    else:
        xs = np.concatenate([-roots, roots[::-1]])
        ws = np.concatenate([wts, wts[::-1]])
    return xs, ws


# orders 2..64 cover every start branch (i <= 3) and the odd-order zero root
@pytest.mark.parametrize("order", [*range(2, 65), 199, 200, 201, 400, 401])
def test_batched_build_equals_the_root_by_root_build(order):
    xs, ws = quadrature._hermite_nodes_weights(order)
    ref_xs, ref_ws = _scalar_hermite_nodes_weights(order)
    assert np.array_equal(xs, ref_xs)
    assert np.array_equal(ws, ref_ws)


# the surrogate benchmark references were taken with exactly these arrays
PINNED_RULES = [
    (200, 200, "688a9b3ca278b33827a36cc4390da30fab5df98da8794fbe25e20dfa7eb255a2"),
    (400, 398, "c05661e973d953eb975453b6282d255230b2058b937890fce0b97658a439a5d2"),
]


@pytest.mark.parametrize("order, size, digest", PINNED_RULES)
def test_rule_bytes_are_pinned(order, size, digest):
    nodes, weights = gaussian_weighted_rule(order)
    assert nodes.size == size
    assert hashlib.sha256(nodes.tobytes() + weights.tobytes()).hexdigest() == digest


def test_rule_build_stops_after_m_plus_one_sweeps(monkeypatch):
    # even a Newton stand-in whose output changes on every call cannot keep
    # the sweeps going: the loop runs at most m + 1 sweeps (m = 5 roots at
    # order 9), each over all h = 4 positive roots
    calls = []

    def restless(z, order, recurrence):
        calls.append(z.size)
        return np.full_like(z, float(len(calls)))

    monkeypatch.setattr(quadrature, "_newton", restless)
    quadrature._hermite_nodes_weights(9)
    assert calls == [4] * 6


@pytest.mark.parametrize("order, size, digest", PINNED_RULES)
def test_rule_build_needs_no_eigensolver(monkeypatch, order, size, digest):
    # the sweeps start from a closed form; __wrapped__ skips the cache
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    nodes, weights = quadrature._cached_gaussian_rule.__wrapped__(order)
    assert nodes.size == size
    assert hashlib.sha256(nodes.tobytes() + weights.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("order", [*range(2, 65), 199, 200, 201, 400, 401])
def test_rule_build_takes_few_sweeps(monkeypatch, order):
    # a seed that keeps the bits but lands far off would show here: the
    # closed-form seed needs 2 to 4 sweeps at every one of these orders
    calls = []
    newton = quadrature._newton

    def counted(*args):
        calls.append(None)
        return newton(*args)

    monkeypatch.setattr(quadrature, "_newton", counted)
    quadrature._hermite_nodes_weights(order)
    assert len(calls) <= 4


def test_order_is_capped_at_max_order(monkeypatch):
    # past the cap the top roots' weights underflow and Newton never
    # settles; the cap is checked before any work
    nodes, weights = gaussian_weighted_rule(quadrature.MAX_ORDER)
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)

    def refuse(order):
        raise AssertionError("built past the cap")

    monkeypatch.setattr(quadrature, "_hermite_nodes_weights", refuse)
    with pytest.raises(ValueError, match="MAX_ORDER = 700"):
        gaussian_weighted_rule(quadrature.MAX_ORDER + 1)
    with pytest.raises(ValueError, match="MAX_ORDER"):
        gaussian_weighted_rule(800)


def test_rule_build_terminates_on_nan(monkeypatch):
    # a NaN root never meets the stopping rule: Newton stops at its step
    # cap, and NaN roots from every sweep still end the build
    z = quadrature._newton(np.array([np.nan, 2.0]), 4, quadrature._recurrence(4))
    assert np.isnan(z[0]) and z[1] == pytest.approx(1.6506801238857845)
    calls = []

    def nan_newton(z, order, recurrence):
        calls.append(z.size)
        return np.full_like(z, np.nan)

    monkeypatch.setattr(quadrature, "_newton", nan_newton)
    quadrature._hermite_nodes_weights(9)
    assert 1 <= len(calls) <= 5


def test_interval_constant():
    assert integrate_interval(lambda x: np.ones_like(x), 0.0, 1.0, 1e-10) == pytest.approx(
        1.0, abs=1e-10
    )


def test_interval_rejects_a_scalar_integrand():
    with pytest.raises(ValueError):
        integrate_interval(lambda x: 1.0, 0.0, 1.0, 1e-10)


def test_interval_linear():
    assert integrate_interval(lambda x: x, 0.0, 2.0, 1e-10) == pytest.approx(2.0, abs=1e-10)


def test_interval_gaussian_density():
    # oracle: the mass missed outside [-12, 12] is erfc(12/sqrt(2)), ~ 3.5e-33
    tail = math.erfc(12.0 / math.sqrt(2.0))
    assert tail < 1e-30
    phi = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    val = integrate_interval(phi, -12.0, 12.0, 1e-10)
    assert val == pytest.approx(1.0 - tail, abs=1e-10)


def test_interval_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate_interval(lambda x: x, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        integrate_interval(lambda x: x, 0.0, 1.0, -1.0)


def test_interval_rejects_a_tol_that_is_not_finite():
    # an infinite tol would return the first 64-panel estimate unchecked
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            integrate_interval(lambda x: x, 0.0, 1.0, tol)


def test_interval_accuracy_failure_carries_best_estimate(monkeypatch):
    # oscillation far too fast for the point budget never stabilizes
    points = []

    def wild(x):
        points.append(len(x))
        return np.cos(1e6 * x)

    monkeypatch.setattr(quadrature, "MAX_POINTS", 1 << 10)
    with pytest.raises(AccuracyError, match="within 1024 points") as exc:
        integrate_interval(wild, 0.0, 1.0, 1e-14)
    assert sum(points) <= 1 << 10
    assert exc.value.best_estimate is not None
    assert exc.value.error_bound > 1e-14


@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
)
def test_interval_linearity(a, b):
    f = lambda x: np.sin(x)
    g = lambda x: x * x
    combined = integrate_interval(lambda x: a * f(x) + b * g(x), 0.0, 2.0, 1e-11)
    parts = a * integrate_interval(f, 0.0, 2.0, 1e-11) + b * integrate_interval(
        g, 0.0, 2.0, 1e-11
    )
    assert combined == pytest.approx(parts, abs=5e-10 * (1 + abs(a) + abs(b)))


def test_refinement_never_worse_on_known_integral():
    # exp integrates to e - 1 on [0, 1]; tighter tolerance must not be worse
    exact = math.e - 1.0
    loose = integrate_interval(lambda x: np.exp(x), 0.0, 1.0, 1e-6)
    tight = integrate_interval(lambda x: np.exp(x), 0.0, 1.0, 1e-12)
    assert abs(tight - exact) <= abs(loose - exact) + 1e-15


def test_refining_order_never_worse():
    # against the analytic moment E Z^8 = 105, order 10 >= order 5 accuracy
    exact = gaussian_moment(8)
    coarse = abs(expect(5, lambda x: x**8) - exact)
    fine = abs(expect(10, lambda x: x**8) - exact)
    assert fine <= coarse + 1e-12


def test_gaussian_rule_agrees_with_interval_rule():
    phi = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    f = lambda x: np.log(np.cosh(x))
    by_interval = integrate_interval(lambda x: phi(x) * f(x), -12.0, 12.0, 1e-12)
    assert expect(200, f) == pytest.approx(by_interval, abs=1e-10)
