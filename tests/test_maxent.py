import gc
import math
import time
import tracemalloc
import types
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icaprobe import maxent
from icaprobe.contrast import build_k, hat_j_from_c, logcosh, negexp, quartic
from icaprobe.entropy import ETA_1
from icaprobe.errors import ConvergenceError, InfeasibleConstraintError, InvalidDensityError
from icaprobe.maxent import (
    LinearizedDensity,
    _feasible_range,
    _ladder,
    _solve,
    entropy_by_quadrature,
    hat_entropy,
    rate_fit,
    solve_f0,
    sup_error,
    uniform_mixture_case,
)
from icaprobe.quadrature import gaussian_weighted_rule

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def phi(x):
    return np.exp(-0.5 * np.asarray(x, float) ** 2) * INV_SQRT_2PI


def test_gaussian_fixed_point_at_c_zero(k_logcosh):
    d = solve_f0(0.0, k_logcosh)
    assert d.amplitude == pytest.approx(INV_SQRT_2PI, abs=1e-10)
    assert d.kappa == pytest.approx(0.0, abs=1e-10)
    assert d.zeta == pytest.approx(-0.5, abs=1e-10)
    assert d.a == pytest.approx(0.0, abs=1e-10)
    assert d.residual <= 1e-10
    grid = np.linspace(-6, 6, 101)
    assert np.max(np.abs(d.pdf(grid) - phi(grid))) < 1e-10


def test_parameters_scale_quadratically(k_logcosh):
    # Newton solution at c = 0.05: deviations bounded by a fitted C c^2
    d = solve_f0(0.05, k_logcosh)
    devs = {
        "amp": abs(d.amplitude - INV_SQRT_2PI),
        "kappa": abs(d.kappa),
        "zeta": abs(d.zeta + 0.5),
        "a": abs(d.a - 0.05),
    }
    d2 = solve_f0(0.025, k_logcosh)
    devs2 = {
        "amp": abs(d2.amplitude - INV_SQRT_2PI),
        "kappa": abs(d2.kappa),
        "zeta": abs(d2.zeta + 0.5),
        "a": abs(d2.a - 0.025),
    }
    for name in ("amp", "zeta", "a"):
        c_fit = devs[name] / 0.05**2  # C from the coarser solve
        assert devs2[name] <= 1.3 * c_fit * 0.025**2
    assert devs["kappa"] < 1e-12  # even G leaves no odd tilt


def test_constraints_reintegrate_at_doubled_order(k_logcosh):
    d = solve_f0(0.05, k_logcosh, tol=1e-10)
    x, w = gaussian_weighted_rule(400)
    f0_mass = w * np.exp(d.log_pdf(x) + 0.5 * x * x) * math.sqrt(2.0 * math.pi)
    assert abs(f0_mass.sum() - 1.0) < 1e-10
    assert abs(f0_mass @ x) < 1e-10
    assert abs(f0_mass @ (x * x) - 1.0) < 1e-10
    assert abs(f0_mass @ d.k(x) - 0.05) < 1e-10


def test_interval_backend_matches_gauss_hermite(k_logcosh):
    a = _solve(0.05, k_logcosh, 1e-10, islice(_ladder(), 1))
    b = _solve(0.05, k_logcosh, 1e-10, islice(_ladder(), 1, None))
    assert a.a == pytest.approx(b.a, abs=1e-8)
    assert a.zeta == pytest.approx(b.zeta, abs=1e-8)
    assert a.amplitude == pytest.approx(b.amplitude, abs=1e-8)


def test_surrogate_pdf_forms(k_logcosh):
    d = solve_f0(0.03, k_logcosh)
    x = np.linspace(-3, 3, 31)
    expected = d.amplitude * np.exp(d.kappa * x + d.zeta * x * x + d.a * d.k(x))
    assert np.max(np.abs(d.pdf(x) - expected)) < 1e-14
    lin = LinearizedDensity(c=0.03, k=k_logcosh)
    assert np.max(np.abs(lin.pdf(x) - phi(x) * (1.0 + 0.03 * k_logcosh(x)))) < 1e-16


def test_linearization_at_c_zero_is_gaussian(k_logcosh):
    lin = LinearizedDensity(c=0.0, k=k_logcosh)
    x = np.linspace(-5, 5, 41)
    assert np.max(np.abs(lin.pdf(x) - phi(x))) < 1e-16


def test_linearization_nonnegativity_flag(k_logcosh):
    assert LinearizedDensity(c=0.16, k=k_logcosh).nonnegative
    # negative c multiplies the growing tail of K; density goes negative
    assert not LinearizedDensity(c=-0.2, k=k_logcosh).nonnegative


def test_linearization_nonnegativity_is_computed_not_given(k_logcosh):
    with pytest.raises(TypeError):
        LinearizedDensity(c=-0.2, k=k_logcosh, nonnegative=True)
    lin = LinearizedDensity(c=-0.2, k=k_logcosh)
    with pytest.raises(AttributeError):
        lin.nonnegative = True


def test_entropy_of_standard_normal():
    assert entropy_by_quadrature(phi) == pytest.approx(ETA_1, abs=1e-8)


def test_entropy_rejects_negative_density():
    with pytest.raises(InvalidDensityError):
        entropy_by_quadrature(lambda x: np.full_like(np.asarray(x, float), -0.01))


def test_invalid_density_raises_on_the_first_evaluation(k_logcosh):
    # the error propagates from the one vectorized call; the density is
    # not re-evaluated point by point, and the grid minimum is reported
    lin = LinearizedDensity(c=-0.2, k=k_logcosh)
    calls = []

    def pdf(x):
        calls.append(np.size(x))
        return lin.pdf(x)

    with pytest.raises(InvalidDensityError) as exc:
        entropy_by_quadrature(pdf)
    assert calls == [4097]
    grid = np.linspace(-12.0, 12.0, 4097)
    assert f"{lin.pdf(grid).min():.3e}" in str(exc.value)


def test_negentropy_zero_at_gaussian(k_logcosh):
    d = solve_f0(0.0, k_logcosh)
    assert ETA_1 - entropy_by_quadrature(d) == pytest.approx(0.0, abs=1e-8)


def test_surrogate_negentropy_below_taylor_level(k_logcosh):
    c = 0.1
    j = ETA_1 - entropy_by_quadrature(solve_f0(c, k_logcosh))
    assert j >= 0.0
    assert j <= hat_j_from_c(c) * 1.01


def test_hat_entropy_values():
    assert hat_entropy(0.0) == pytest.approx(1.4189385, abs=1e-7)
    assert hat_entropy(0.2) == pytest.approx(1.4189385 - 0.02, abs=1e-7)


def test_entropy_expansion_remainder_is_cubic(k_logcosh):
    cs = (0.02, 0.04, 0.08)
    ratios = []
    for c in cs:
        lin = LinearizedDensity(c=c, k=k_logcosh)
        remainder = abs(entropy_by_quadrature(lin) - hat_entropy(c))
        ratios.append(remainder / c**3)
    assert max(ratios) < 1.0  # bounded constant; measured ~0.45-0.65


def test_sup_error_zero_at_c_zero(k_logcosh):
    d = solve_f0(0.0, k_logcosh)
    lin = LinearizedDensity(c=0.0, k=k_logcosh)
    assert sup_error(d, lin, 0.25) < 1e-10


def test_sup_error_quarters_when_c_halves(k_logcosh):
    vals = {}
    for c in (0.08, 0.04):
        vals[c] = sup_error(solve_f0(c, k_logcosh), LinearizedDensity(c=c, k=k_logcosh), 0.05)
    ratio = vals[0.08] / vals[0.04]
    assert 3.0 < ratio < 5.0


def test_sup_error_monotone_in_delta(k_logcosh):
    d = solve_f0(0.01, k_logcosh)
    lin = LinearizedDensity(c=0.01, k=k_logcosh)
    lo = sup_error(d, lin, 0.25)
    hi = sup_error(d, lin, 0.49)
    assert np.isfinite(lo) and np.isfinite(hi)
    assert hi >= lo


def test_sup_error_delta_validation(k_logcosh):
    d = solve_f0(0.0, k_logcosh)
    lin = LinearizedDensity(c=0.0, k=k_logcosh)
    with pytest.raises(ValueError):
        sup_error(d, lin, 0.5)


def test_sup_error_rate_over_c_grid(k_logcosh):
    cs = np.array([0.16, 0.08, 0.04, 0.02])
    errs = [
        sup_error(solve_f0(c, k_logcosh), LinearizedDensity(c=c, k=k_logcosh), 0.05)
        for c in cs
    ]
    slope = rate_fit(cs, errs)
    assert 1.7 <= slope <= 2.3


def test_rate_fit_exact_powers():
    cs = np.array([0.16, 0.08, 0.04, 0.02])
    assert rate_fit(cs, cs**2) == pytest.approx(2.0, abs=1e-12)
    assert rate_fit(cs, cs**3) == pytest.approx(3.0, abs=1e-12)


def test_rate_fit_validation():
    with pytest.raises(ValueError):
        rate_fit([0.1, 0.2, 0.3], [1, 2, 3])  # too few
    with pytest.raises(ValueError):
        rate_fit([0.1, 0.2, 0.3, -0.4], [1, 2, 3, 4])


def test_solver_failure_at_infeasible_c(k_logcosh):
    # below the minimum of E K over unit-variance laws nothing exists
    with pytest.raises(ConvergenceError):
        solve_f0(-2.0, k_logcosh)


def test_quartic_positive_c_violates_integrability():
    k4 = build_k(quartic())
    with pytest.raises(ConvergenceError):
        solve_f0(0.1, k4)


def test_quartic_positive_c_is_rejected_without_the_ladder():
    # a quartic tail admits only a <= 0, whose largest E[K] is the
    # Gaussian's 0; the ladder took 7.3 s over these points
    k4 = build_k(quartic())
    start = time.perf_counter()
    for i in range(1, 21):
        with pytest.raises(InfeasibleConstraintError) as exc:
            solve_f0(0.1 * i, k4)
        assert exc.value.side == "upper" and exc.value.bound == 0.0
    assert time.perf_counter() - start < 1.0


#: Each family's proven range of E[K]: the +-1 two-point law's K(1) below,
#: the non-steep face's unit-variance c (logcosh) or the Gaussian's 0
#: (quartic) above.
_RANGES = {
    "logcosh(1)": (logcosh(1.0), -0.744377, 0.213932),
    "logcosh(1.5)": (logcosh(1.5), -0.862410, 0.285135),
    "logcosh(2)": (logcosh(2.0), -0.923629, 0.325282),
    "negexp": (negexp(), -0.825330, math.inf),
    "quartic": (quartic(), -0.408248, 0.0),
}
_K = {name: build_k(g) for name, (g, _, _) in _RANGES.items()}


@pytest.mark.parametrize("name", sorted(_RANGES))
def test_feasible_range_values(name):
    _, c_lo, c_hi = _RANGES[name]
    lo, hi = _feasible_range(_K[name])
    assert lo == pytest.approx(c_lo, abs=1e-6)
    assert lo == float(_K[name](1.0))
    assert hi == pytest.approx(c_hi, abs=1e-6)


@given(
    name=st.sampled_from(sorted(_RANGES)),
    atoms=st.lists(
        st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 1.0)), min_size=2, max_size=5
    ),
)
@settings(max_examples=200)
def test_no_standardized_law_goes_below_the_lower_bound(name, atoms):
    x = np.array([a for a, _ in atoms])
    p = np.array([w for _, w in atoms])
    p /= p.sum()
    x = x - p @ x
    var = p @ (x * x)
    if not var > 1e-6:
        return
    x /= math.sqrt(var)
    k = _K[name]
    assert p @ k(x) >= _feasible_range(k)[0] - 1e-12


@pytest.mark.parametrize(
    "name, sides",
    [("logcosh(1)", ("lower", "upper")), ("logcosh(2)", ("lower", "upper")), ("negexp", ("lower",))],
)
def test_ladder_frontier_matches_the_proven_range(name, sides):
    # the ladder itself, without the range check: it solves just inside
    # either end and fails just outside, where solve_f0 now rejects at once
    k = _K[name]
    bounds = dict(zip(("lower", "upper"), _feasible_range(k)))
    for side in sides:
        inward = 1e-3 if side == "lower" else -1e-3
        c_in, c_out = bounds[side] + inward, bounds[side] - inward
        d = _solve(c_in, k, 1e-10, _ladder())
        assert d.residual <= 1e-10
        assert solve_f0(c_in, k).residual <= 1e-10
        with pytest.raises(ConvergenceError):
            _solve(c_out, k, 1e-10, islice(_ladder(), 1, None))
        with pytest.raises(InfeasibleConstraintError) as exc:
            solve_f0(c_out, k)
        assert exc.value.side == side and exc.value.bound == bounds[side]


def test_infeasible_error_names_the_violated_bound(k_logcosh):
    with pytest.raises(InfeasibleConstraintError) as exc:
        solve_f0(-1.0, k_logcosh)
    err = exc.value
    assert (err.c, err.side) == (-1.0, "lower")
    assert err.bound == float(k_logcosh(1.0))
    assert "constraint value -1 " in str(err) and "lower bound -0.744377" in str(err)


def _count_dual_newton(monkeypatch):
    calls = []
    dual_newton = maxent._dual_newton

    def counted(*args):
        calls.append(args[2].size)
        return dual_newton(*args)

    monkeypatch.setattr(maxent, "_dual_newton", counted)
    return calls


@pytest.mark.parametrize(
    "name, c", [("logcosh(1)", 0.7), ("logcosh(1)", -1.0), ("negexp", -0.9), ("quartic", 0.5)]
)
def test_infeasible_c_is_rejected_before_any_newton_run(name, c, monkeypatch):
    calls = _count_dual_newton(monkeypatch)
    with pytest.raises(InfeasibleConstraintError):
        solve_f0(c, _K[name])
    assert calls == []


def test_a_guard_violation_ends_the_ladder_on_the_first_rung(monkeypatch):
    # quartic c inside the margin above its bound 0 solves on the
    # Gauss-Hermite rule with a > 0; the grids cannot mend that, so the
    # ladder stops there instead of solving again on 2^15 + 1 nodes
    calls = _count_dual_newton(monkeypatch)
    with pytest.raises(ConvergenceError, match="integrability guard violated"):
        solve_f0(5e-5, _K["quartic"])
    assert calls == [gaussian_weighted_rule()[0].size]


@pytest.mark.parametrize("name", ["logcosh(1)", "negexp", "quartic"])
def test_c_zero_gives_the_gaussian_entropy_exactly(name):
    assert solve_f0(0.0, _K[name]).entropy == ETA_1


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_non_finite_c_is_rejected_before_any_newton_run(c, k_logcosh, monkeypatch):
    calls = _count_dual_newton(monkeypatch)
    with pytest.raises(ValueError, match="c must be finite"):
        solve_f0(c, k_logcosh)
    assert calls == []


@pytest.mark.parametrize("family", ["k_logcosh", "k_negexp"])
def test_interval_rung_needs_few_newton_steps_over_the_scan(family, request):
    # from a = c the start is improper for c tail_coeff > 1/2 and the
    # first steps backtracked up to 255 times; from a = min(c, 0) every
    # in-range scan value settles in at most 9 steps and 2 halvings
    k = request.getfixturevalue(family)
    c_lo, c_hi = _feasible_range(k)
    grids = {n + 1 for n in maxent._INTERVAL_GRIDS}
    scan = [c for c in np.round(np.linspace(-1.0, 1.0, 41), 2) if c_lo <= c <= c_hi]
    for c in scan:
        d = _solve(c, k, 1e-10, islice(_ladder(), 1, None))
        assert d.residual <= 1e-10
        assert d.iterations <= 12 and d.halvings <= 5, (c, d.iterations, d.halvings)
        assert d.rule_size in grids
    assert solve_f0(0.05, k).rule_size == gaussian_weighted_rule()[0].size


@pytest.mark.parametrize("family", ["k_logcosh", "k_negexp"])
def test_uniform_mixture_c_lies_inside_the_range(family, request, monkeypatch):
    # as eps -> 0 the mixture's c tends to K(1), the lower bound, from above
    k = request.getfixturevalue(family)
    seen = []

    def record(c, k, tol):
        seen.append(c)
        return types.SimpleNamespace(entropy=0.0)

    monkeypatch.setattr(maxent, "solve_f0", record)
    for eps in (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0007, 0.0005, 0.0003):
        uniform_mixture_case(eps, k)
    c_lo, c_hi = _feasible_range(k)
    assert all(c_lo < c < c_hi for c in seen)


def test_uniform_mixture_moderate_epsilon(k_logcosh):
    res = uniform_mixture_case(0.5, k_logcosh)
    # analytic J[f]: eta(1) - log(2 eps / sigma), sigma^2 = 1 + eps + eps^2/3
    sigma = math.sqrt(1.0 + 0.5 + 0.25 / 3.0)
    assert res.j_true == pytest.approx(ETA_1 - math.log(1.0 / sigma), abs=1e-9)
    assert res.j_true == ETA_1 - res.h_true_analytic
    assert res.c == pytest.approx(-0.7165, abs=1e-3)
    assert res.j_f0 <= res.j_true
    assert np.isfinite(res.j_f0) and res.j_f0 > 0


@pytest.mark.parametrize("family", ["k_logcosh", "k_negexp"])
def test_dual_entropy_matches_quadrature_near_gaussian(family, request):
    k = request.getfixturevalue(family)
    for c in np.linspace(-0.1, 0.1, 9):
        d = solve_f0(c, k)
        assert d.entropy == pytest.approx(entropy_by_quadrature(d), abs=1e-12)


@pytest.mark.parametrize(
    "family, cs",
    [("k_logcosh", (-0.7, -0.65, -0.6, -0.55)), ("k_negexp", (-0.8, -0.7, -0.6, -0.55))],
)
def test_dual_entropy_matches_quadrature_on_interval_backend(family, cs, request):
    # far from the Gaussian, where f0 is bimodal and log A is large; every
    # one of these fails the Gauss-Hermite re-check and takes the interval rung
    k = request.getfixturevalue(family)
    for c in cs:
        d = solve_f0(c, k)
        assert d.entropy == pytest.approx(entropy_by_quadrature(d), abs=1e-12)


@pytest.mark.parametrize("family", ["k_logcosh", "k_negexp"])
def test_dual_entropy_matches_quadrature_on_uniform_mixtures(family, request):
    # the surrogate degenerates into two spikes as eps -> 0; the dual value
    # uses the moments the solve attains, so the relaxed eps < 0.05 solve
    # tolerance does not open a gap (measured <= 1.6e-11)
    k = request.getfixturevalue(family)
    for eps in (0.5, 0.2, 0.1, 0.05, 0.02, 0.01):
        res = uniform_mixture_case(eps, k)
        h_quad = entropy_by_quadrature(res.surrogate)
        assert res.j_f0 == ETA_1 - res.surrogate.entropy
        assert res.surrogate.entropy == pytest.approx(h_quad, abs=1e-10)


@pytest.mark.parametrize("family", ["k_logcosh", "k_negexp"])
def test_grid_solves_reintegrate_within_tol(family, request):
    # the 2^10 + 1-node solve at eps = 0.2 re-integrates on 2^12 + 1 nodes
    # within 10 tol, yet its dual entropy is ~2e-9 off quadrature; a grid
    # rung keeps only solves that re-integrate within tol, so this one
    # settles on the next grid, where the two agree
    res = uniform_mixture_case(0.2, request.getfixturevalue(family))
    assert res.surrogate.rule_size == (1 << 12) + 1
    assert res.surrogate.entropy == pytest.approx(
        entropy_by_quadrature(res.surrogate), abs=1e-10
    )


def test_mixture_solves_past_a_coarse_grid_proving_infeasibility(k_logcosh, monkeypatch):
    # at eps = 0.001 the direct solve on the 2^15-point grid hits the dual
    # floor; 2^17 and 2^19 reach the constraint value, so one grid's
    # verdict must not end the ladder.  Each rule gets one Newton run: the
    # Gauss-Hermite rung plus at most one per grid.
    rule_sizes = []
    dual_newton = maxent._dual_newton

    def counted(c, k, x, *rest):
        rule_sizes.append(x.size)
        return dual_newton(c, k, x, *rest)

    monkeypatch.setattr(maxent, "_dual_newton", counted)
    res = uniform_mixture_case(0.001, k_logcosh)
    assert np.isfinite(res.j_f0)
    assert res.j_f0 <= res.j_true
    assert len(rule_sizes) <= 1 + len(maxent._INTERVAL_GRIDS)


@pytest.mark.parametrize("eps, panels", [(0.005, 1 << 15), (0.002, 1 << 17), (0.001, 1 << 19)])
def test_mixture_census_near_the_two_point_limit(k_negexp, eps, panels):
    # the grid each mixture settles on as its spikes at +-1 narrow
    res = uniform_mixture_case(eps, k_negexp)
    assert res.surrogate.rule_size == panels + 1


def test_every_rung_rechecks_on_a_finer_rule():
    # no rung keeps a solve unchecked, the finest grid included
    sizes = [(x.size, recheck()[0].size) for x, _, _, recheck in _ladder()]
    gh = [gaussian_weighted_rule(order)[0].size for order in (200, 400)]
    assert sizes == [tuple(gh)] + [
        (n + 1, max(2 * n, maxent._MIN_RECHECK_GRID) + 1) for n in maxent._INTERVAL_GRIDS
    ]
    assert maxent._INTERVAL_GRIDS == (1 << 10, 1 << 12, 1 << 15, 1 << 17, 1 << 19)


def test_finest_grid_solve_must_reintegrate(k_logcosh):
    # near the two-point limit c_lo the 2^19-panel solve misses the
    # moments by ~3e-10 on 2^20 panels at 1 - c/c_lo = 1e-7, above tol =
    # 1e-10: reported as a failure, not returned unverified; at 1e-6 it
    # re-integrates and is kept
    c_lo = _feasible_range(k_logcosh)[0]
    with pytest.raises(ConvergenceError, match="does not re-integrate consistently") as exc:
        solve_f0(c_lo * (1.0 - 1e-7), k_logcosh)
    assert not isinstance(exc.value, InfeasibleConstraintError)
    assert solve_f0(c_lo * (1.0 - 1e-6), k_logcosh).rule_size == (1 << 19) + 1


def test_far_negexp_solves_emit_no_overflow_warning(k_negexp):
    # f0 overflows on the order-400 Gauss-Hermite re-check at c >= 1.5;
    # that must send the solve to the interval rung quietly, not through
    # a NaN comparison.  Both settle on 2^10 + 1 nodes.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert solve_f0(1.5, k_negexp).entropy == 0.7977725922103687
        assert solve_f0(1.6, k_negexp).entropy == 0.7166733312928676
        # negexp has no proven upper bound, so c = 1.8 still runs the ladder
        with pytest.raises(ConvergenceError) as exc:
            solve_f0(1.8, k_negexp)
        assert not isinstance(exc.value, InfeasibleConstraintError)


def test_failed_solve_frees_its_grids(k_logcosh):
    # a failed solve must not leave its interval grids in a reference cycle
    # that only the cyclic collector would reclaim (~40 MB at this c).  The
    # c lies below the lower bound but inside the margin, so every grid of
    # the ladder is tried and fails.
    c = _feasible_range(k_logcosh)[0] - 5e-5
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        try:
            solve_f0(c, k_logcosh)
        except InfeasibleConstraintError:
            pytest.fail("c inside the margin must reach the interval ladder")
        except ConvergenceError:
            pass
        else:
            pytest.fail("c is outside the feasible moment range")
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 1 << 20


def test_uniform_mixture_c_limit(k_logcosh):
    # c -> (K(-1) + K(1)) / 2 as eps -> 0
    limit = 0.5 * float(k_logcosh(-1.0) + k_logcosh(1.0))
    res = uniform_mixture_case(0.05, k_logcosh)
    assert res.c == pytest.approx(limit, abs=5e-4)
    assert abs(res.c - limit) < abs(uniform_mixture_case(0.2, k_logcosh).c - limit)


def test_uniform_mixture_epsilon_validation(k_logcosh):
    with pytest.raises(ValueError):
        uniform_mixture_case(0.0, k_logcosh)
    with pytest.raises(ValueError):
        uniform_mixture_case(1.0, k_logcosh)


def test_logcosh_alpha_two_solves():
    from icaprobe.contrast import build_k, logcosh

    k2 = build_k(logcosh(2.0))
    d = solve_f0(0.05, k2)
    assert d.residual < 1e-10
    assert d.a == pytest.approx(0.05, abs=0.01)


def test_surrogate_is_lower_bound_for_leptokurtic_grid_density(k_logcosh):
    # scale mixture of Gaussians (t-like tails), standardized to unit
    # variance: J[f0] at its K-moment must not exceed J[f]
    from icaprobe.quadrature import integrate_interval

    w1, s1 = 0.6, 0.75
    # choose the wide component so the total variance is exactly 1
    var_wide = (1.0 - w1 * s1**2) / (1.0 - w1)
    s2 = math.sqrt(var_wide)

    def pdf(x):
        x = np.asarray(x, float)
        return w1 * np.exp(-0.5 * (x / s1) ** 2) / (s1 * math.sqrt(2 * math.pi)) + (
            1 - w1
        ) * np.exp(-0.5 * (x / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))

    assert integrate_interval(pdf, -12, 12, 1e-12) == pytest.approx(1.0, abs=1e-10)
    assert integrate_interval(lambda x: pdf(x) * x * x, -12, 12, 1e-12) == pytest.approx(
        1.0, abs=1e-10
    )
    c = integrate_interval(lambda x: pdf(x) * k_logcosh(x), -12, 12, 1e-12)
    j_true = ETA_1 - entropy_by_quadrature(pdf)
    j_f0 = ETA_1 - entropy_by_quadrature(solve_f0(c, k_logcosh))
    assert j_true > 0.01  # clearly non-Gaussian
    assert j_f0 <= j_true + 1e-9


def _sweep_c_values():
    # the c of every direction of the 360-direction sweep on the seed-42,
    # n = 2000 banded points, as projsearch.sweep computes them
    from icaprobe.contrast import c_value
    from icaprobe.datagen import GenConfig, gen_banded_gaussian
    from icaprobe.whiten import whiten

    D, _ = whiten(gen_banded_gaussian(GenConfig(n=2000, seed=42)))
    k = _K["logcosh(1)"]
    thetas = np.arange(360) * (math.pi / 360)
    return k, np.array([c_value(D @ np.array([math.sin(t), math.cos(t)]), k) for t in thetas])


_SCAN = np.round(np.arange(-20, 21) * 0.05, 2)

#: name -> (K, c values); the scans mix infeasible, Gauss-Hermite-rung and
#: interval-rung rows, and the unsorted grid repeats values
_BATCHES = {
    "sweep": _sweep_c_values,
    "logcosh scan": lambda: (_K["logcosh(1)"], _SCAN),
    "negexp scan": lambda: (_K["negexp"], _SCAN),
    "unsorted repeats": lambda: (
        _K["logcosh(1)"], np.array([0.1, -0.65, 0.1, 0.0, -0.9, 0.05, -0.65, 0.2, 0.0, 0.3, 0.1])
    ),
}


def _scalar_results(cs, k):
    out = []
    for c in cs:
        try:
            out.append(solve_f0(float(c), k))
        except ConvergenceError as err:
            out.append(err)
    return out


def _assert_same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, ConvergenceError):
            assert (str(g), g.residual) == (str(w), w.residual)
        else:
            for name in ("log_amp", "kappa", "zeta", "a", "c", "residual", "entropy",
                         "iterations", "halvings", "rule_size"):
                assert getattr(g, name) == getattr(w, name), name
            assert g.k is w.k


@pytest.mark.parametrize("batch", sorted(_BATCHES))
def test_array_call_equals_the_scalar_calls(batch):
    # every row runs the scalar call's arithmetic, so the fields agree with
    # == and a failed row carries the scalar call's error and message
    k, cs = _BATCHES[batch]()
    results = solve_f0(cs, k)
    assert isinstance(results, list)
    _assert_same_results(results, _scalar_results(cs, k))
    if batch == "logcosh scan":
        sizes = {d.rule_size for d in results if not isinstance(d, ConvergenceError)}
        assert sizes == {gaussian_weighted_rule()[0].size, (1 << 10) + 1}
        assert any(isinstance(d, InfeasibleConstraintError) for d in results)


def test_small_blocks_split_the_batch_without_changing_results(monkeypatch):
    # 450 elements hold two rows of the order-200 rule and one row of every
    # larger rule, the order-400 re-check included
    k, cs = _K["logcosh(1)"], np.array([0.05, -0.3, -0.65, 0.0, 0.1, -0.6, 0.3])
    whole = solve_f0(cs, k)
    calls = _count_dual_newton(monkeypatch)
    monkeypatch.setattr(maxent, "_MAX_BATCH_ELEMENTS", 450)
    _assert_same_results(solve_f0(cs, k), whole)
    # six rows in range: three blocks on the order-200 rule, and the two
    # that fail its re-check one by one on 2^10 + 1 nodes
    assert calls == [200, 200, 200, (1 << 10) + 1, (1 << 10) + 1]


@pytest.mark.parametrize("where", [0, 3, -1])
def test_nan_anywhere_in_an_array_is_rejected_before_any_newton_run(where, monkeypatch):
    calls = _count_dual_newton(monkeypatch)
    cs = np.array([0.05, -0.3, 0.7, 0.0, 0.1])
    cs[where] = math.nan
    with pytest.raises(ValueError, match="c must be finite"):
        solve_f0(cs, _K["logcosh(1)"])
    with pytest.raises(ValueError, match="c must be a scalar or a 1-d array"):
        solve_f0(np.zeros((2, 2)), _K["logcosh(1)"])
    assert calls == []


def test_a_tol_that_is_not_finite_is_rejected_before_any_newton_run(monkeypatch):
    # an infinite tol would pass the start point off as a verified solve
    calls = _count_dual_newton(monkeypatch)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_f0(0.05, _K["logcosh(1)"], tol=tol)
    assert calls == []


def test_an_empty_array_returns_no_solves(monkeypatch):
    calls = _count_dual_newton(monkeypatch)
    assert solve_f0(np.array([]), _K["logcosh(1)"]) == []
    assert calls == []


# J[f0](c) is the Legendre transform of the Gaussian cumulant generating
# function of (x, x^2 - 1, K) at (0, 0, c), which gives three checks that
# need no stored reference.  Negexp at c >= 0.5 is left out: there the
# Gauss-Hermite rung's verdict follows rounding, and neighbouring solves
# can come from different rungs
DUALITY_CASES = {
    "logcosh1": (logcosh(1.0), (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2)),
    "logcosh2": (logcosh(2.0), (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)),
    "negexp": (negexp(), (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4)),
    "quartic": (quartic(), (-0.3, -0.25, -0.2, -0.15, -0.1, -0.05)),
}


@pytest.mark.parametrize("name", DUALITY_CASES)
def test_envelope_identity_and_convexity(name):
    g, cs = DUALITY_CASES[name]
    k = build_k(g)
    h = 1e-4
    ds = solve_f0(np.array([c + s for c in cs for s in (-h, 0.0, h)]), k)
    j = []
    for i, c in enumerate(cs):
        lo, mid, hi = ds[3 * i:3 * i + 3]
        # the three solves share a rule, so a rung switch fails here
        assert lo.rule_size == mid.rule_size == hi.rule_size, c
        j_lo, j_mid, j_hi = (ETA_1 - d.entropy for d in (lo, mid, hi))
        # dJ[f0]/dc = a.  The central difference reads J''' h^2 / 6 above
        # J', up to 1.9e-6 here, and J''' = a'' from the same solves:
        # Simpson's weights on the three a take that term out.  What is
        # left is each J's error, the multipliers times the residual of
        # the moments its solve attains, over 2h
        slope = (j_hi - j_lo) / (2.0 * h)
        noise = sum((abs(d.kappa) + abs(d.zeta) + abs(d.a)) * d.residual for d in (lo, hi))
        assert abs(slope - (lo.a + 4.0 * mid.a + hi.a) / 6.0) <= noise / (2.0 * h) + 1e-9, c
        assert j_hi - 2.0 * j_mid + j_lo > 0.0, c  # convex in c
        j.append(j_mid)
    assert (np.diff(j, 2) > 0.0).all()


@pytest.mark.parametrize("name", DUALITY_CASES)
def test_small_c_coefficients_match_the_third_gaussian_moment_of_k(name, rule200):
    # J[f0] = c^2/2 - (E_phi[K^3]/6) c^3 + O(c^4) and a = c - (E_phi[K^3]/2)
    # c^2 + O(c^3).  Each ratio misses its limit by a term linear in c (for
    # logcosh 1, -0.69644 at c = 0.005 and -0.70363 at -0.005, against
    # -0.70001), so the ratios at c and c/2 extrapolate to the limit
    g, _ = DUALITY_CASES[name]
    k = build_k(g)
    x, w = rule200
    k3 = float(w @ k(x) ** 3)
    if name == "quartic":
        # K = He_4 / sqrt(24), and the quartic's range of c ends at 0
        assert k3 == pytest.approx(6.0 * math.sqrt(6.0), rel=1e-14)
        k3, signs = 6.0 * math.sqrt(6.0), (-1.0,)
    else:
        signs = (1.0, -1.0)
    for sign in signs:
        c = sign * 0.005
        cubic, slope = [], []
        for d in solve_f0(np.array([c, c / 2.0]), k):
            cubic.append((ETA_1 - d.entropy - 0.5 * d.c**2) / d.c**3)
            slope.append((d.a - d.c) / d.c**2)
        for ratio, limit in ((cubic, -k3 / 6.0), (slope, -k3 / 2.0)):
            assert abs(ratio[0] - limit) > 1e-3 * abs(limit)  # the linear term shows
            assert 2.0 * ratio[1] - ratio[0] == pytest.approx(limit, rel=1e-3)


def _newton_entry(res):
    """A _dual_newton entry as plain values that compare with ==: the
    error's type, message and residual, or the solve with lam as a list."""
    if isinstance(res, ConvergenceError):
        return type(res), str(res), res.residual
    lam, *rest = res
    return (lam.tolist(), *rest)


_NEWTON_RULES = {
    "order 200": lambda: (*gaussian_weighted_rule(), True),
    "2^10 panels": lambda: (*maxent._interval_points(1 << 10), False),
    "2^15 panels": lambda: (*maxent._interval_points(1 << 15), False),
}


@pytest.mark.parametrize(
    "g, c_of, rule, start, end",
    [
        (logcosh, lambda lo, hi: hi * (1.0 - 1e-2), "order 200", "line search stalled", ""),
        (logcosh, lambda lo, hi: lo * (1.0 - 1e-4), "order 200",
         "dual objective fell below -40.0", "outside the feasible moment range"),
        (logcosh, lambda lo, hi: lo * (1.0 - 1e-4), "2^10 panels",
         "dual objective fell below -40.0", "outside the feasible moment range"),
        (quartic, lambda lo, hi: lo * (1.0 - 1e-6), "2^15 panels",
         "gradient floor", "above tol 1e-10"),
        # the c of the eps = 0.001 uniform mixture
        (quartic, lambda lo, hi: -0.40824822249041176, "2^15 panels",
         "no convergence in 200 iterations", ""),
    ],
    ids=["stalled", "dual floor, order 200", "dual floor, 2^10 panels", "gradient floor",
         "200 iterations"],
)
def test_each_newton_exit_closes_its_row_as_a_batch_of_one(g, c_of, rule, start, end):
    # the first row ends on the named path while c = 0.05 solves beside it;
    # each row returns what its own one-row call returns
    k = build_k(g())
    c = c_of(*_feasible_range(k))
    x, w, weighted = _NEWTON_RULES[rule]()
    both = maxent._dual_newton(np.array([c, 0.05]), k, x, w, weighted, 1e-10)
    first = both[0]
    assert isinstance(first, ConvergenceError)
    assert str(first).startswith(start) and str(first).endswith(end), str(first)
    assert not isinstance(both[1], ConvergenceError)
    alone = [maxent._dual_newton(np.array([v]), k, x, w, weighted, 1e-10)[0] for v in (c, 0.05)]
    assert list(map(_newton_entry, both)) == list(map(_newton_entry, alone))
