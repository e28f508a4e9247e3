import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icaprobe.cli import DENSITY_GRID
from icaprobe.entropy import (
    ETA_1,
    TIE_EPS,
    TIE_REJECT_FRACTION,
    digamma,
    gaussian_entropy,
    kde,
    mspacing_entropy,
    mspacing_negentropy,
    resolve_m,
    silverman_bandwidth,
)
from icaprobe.errors import DegenerateSampleError
from icaprobe.rng import ReproducibleStream

EULER_MASCHERONI = 0.5772156649015329


def digamma_oracle(x: float) -> float:
    """Independent oracle: 50-term asymptotic series at x + 20, recurred down."""
    shift = 20
    z = x + shift
    # psi(z) ~ ln z - 1/(2z) - sum B_2k / (2k z^2k)
    bern = [
        1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
        -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
        -236364091 / 2730, 8553103 / 6,
    ]
    val = math.log(z) - 0.5 / z
    zp = z * z
    for idx, b in enumerate(bern, start=1):
        term = b / (2 * idx * zp)
        if abs(term) < 1e-25:
            break
        val -= term
        zp *= z * z
    for j in range(shift):
        val -= 1.0 / (x + j)
    return val


def test_gaussian_entropy_standard():
    assert gaussian_entropy(1.0) == pytest.approx(1.4189385, abs=1e-7)


def test_gaussian_entropy_zero_point():
    # eta = 0 solved analytically at sigma^2 = exp(-1) / (2 pi)
    assert gaussian_entropy(math.exp(-1.0) / (2.0 * math.pi)) == pytest.approx(0.0, abs=1e-14)


def test_gaussian_entropy_scale_rule():
    assert gaussian_entropy(4.0) - gaussian_entropy(1.0) == pytest.approx(
        math.log(2.0), abs=1e-14
    )


def test_gaussian_entropy_rejects_nonpositive():
    with pytest.raises(ValueError):
        gaussian_entropy(0.0)


def test_digamma_at_one():
    assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-10)


def test_digamma_recurrence_at_two():
    assert digamma(2.0) == pytest.approx(1.0 - EULER_MASCHERONI, abs=1e-10)


@pytest.mark.parametrize("x", [1.0, 2.0, 6.0, 10.0, 44.0, 316.0, 1000.0])
def test_digamma_against_series_oracle(x):
    assert digamma(x) == pytest.approx(digamma_oracle(x), abs=1e-10)


@pytest.mark.parametrize("m", [44, 316, 1000])
def test_digamma_equals_scipy_at_the_benchmark_sizes(m):
    # the sqrt-rule m at n = 2000, 1e5 and 1e6: the closed form must leave
    # those m-spacing outputs bit-identical to scipy's digamma
    from scipy import special

    assert digamma(m) == float(special.digamma(m))


def test_digamma_rejects_nonpositive():
    for m in (0, 0.0, -1, -3.0, -math.inf):
        with pytest.raises(ValueError):
            digamma(m)


@pytest.mark.parametrize("x", [0.1, 0.5, 2.5, 1234.5, math.nan, math.inf])
def test_digamma_rejects_non_integer(x):
    with pytest.raises(ValueError):
        digamma(x)


def test_mspacing_gaussian_large_sample():
    # the estimator's bias is about -(m/n) log(n/m) = -0.018 at this
    # (n, m); seed 1000 gives -0.0157, well inside 0.03
    y = ReproducibleStream(1000).normals(100_000)
    h = mspacing_entropy(y, m=316)
    assert h == pytest.approx(ETA_1, abs=0.03)


def test_mspacing_uniform_large_sample():
    y = ReproducibleStream(1001).uniforms(100_000)
    h = mspacing_entropy(y, m=316)
    assert h == pytest.approx(0.0, abs=0.01)


def test_mspacing_translation_invariant(rng):
    y = rng.standard_normal(2000)
    a = mspacing_entropy(y)
    b = mspacing_entropy(y + 7.0)
    assert a == pytest.approx(b, abs=1e-12)


def test_mspacing_scaling_equivariance(rng):
    # exact form: H(a y) = H(y) + ((n - m)/n) log a for the truncated sum
    y = rng.standard_normal(1500)
    n = len(y)
    m = resolve_m(None, n)
    scale = 3.7
    lhs = mspacing_entropy(scale * y)
    rhs = mspacing_entropy(y) + (n - m) / n * math.log(scale)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@given(st.permutations(list(range(60))))
@settings(max_examples=20)
def test_mspacing_permutation_invariant(perm):
    gen = np.random.default_rng(5)
    y = gen.standard_normal(60)
    assert mspacing_entropy(y[perm]) == mspacing_entropy(y)


def test_mspacing_negentropy_gaussian():
    y = ReproducibleStream(1002).normals(100_000)
    assert mspacing_negentropy(y, m=316) == pytest.approx(
        0.0, abs=0.03
    )


def test_mspacing_negentropy_uniform_unit_variance():
    # H of U(a, b) is log(b - a); unit variance needs b - a = sqrt(12),
    # so J = eta(1) - (1/2) log 12 = 0.1764852
    y = (ReproducibleStream(1003).uniforms(100_000) - 0.5) * math.sqrt(12.0)
    j = mspacing_negentropy(y, m=316)
    assert j == pytest.approx(ETA_1 - 0.5 * math.log(12.0), abs=0.01)
    assert ETA_1 - 0.5 * math.log(12.0) == pytest.approx(0.1764852, abs=1e-7)


def test_mspacing_two_point_sample_blows_up():
    gen = np.random.default_rng(1)
    y = np.where(gen.random(4000) < 0.5, -1.0, 1.0) + 1e-9 * gen.standard_normal(4000)
    j = mspacing_negentropy(y)
    assert j > 5.0


def test_mspacing_tie_rejection():
    with pytest.raises(DegenerateSampleError):
        mspacing_entropy(np.repeat([1.0, 2.0], 500))


def test_mspacing_consistency_trend():
    # estimates at n and 4n move toward the analytic value
    errs = []
    for n in (25_000, 100_000):
        vals = [
            mspacing_entropy(ReproducibleStream(40 + s).normals(n)) - ETA_1
            for s in range(3)
        ]
        errs.append(abs(float(np.mean(vals))))
    assert errs[1] < errs[0]


def test_mspacing_config_validation():
    with pytest.raises(ValueError):
        resolve_m(2, 100)
    assert resolve_m(None, 100) == 10
    assert resolve_m(3, 4) == 3
    with pytest.raises(ValueError):
        resolve_m(50, 40)
    with pytest.raises(ValueError):
        resolve_m(None, 8)  # isqrt(8) = 2
    with pytest.raises(ValueError, match="outside valid range"):
        mspacing_entropy(np.arange(40.0), 40)


def test_mspacing_explicit_m_is_used():
    # an integer m alone selects it; the sqrt rule would take m = 100 here
    y = ReproducibleStream(1006).normals(10_000)
    assert resolve_m(30, 10_000) == 30
    assert mspacing_entropy(y, 30) != mspacing_entropy(y)
    assert mspacing_entropy(y, 100) == mspacing_entropy(y)


def test_kde_recovers_gaussian_density():
    y = ReproducibleStream(1004).normals(100_000)
    grid = np.linspace(-4.0, 4.0, 401)
    est = kde(y, grid)
    phi = np.exp(-0.5 * grid * grid) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(est - phi)) < 0.05


def test_kde_symmetry_on_symmetrized_sample(rng):
    half = rng.standard_normal(500)
    y = np.concatenate([half, -half])
    grid = np.linspace(-3.0, 3.0, 121)
    est = kde(y, grid)
    assert np.max(np.abs(est - est[::-1])) < 1e-12


def test_kde_mass_normalized(rng):
    y = rng.standard_normal(5000)
    grid = np.linspace(-10.0, 10.0, 2001)
    est = kde(y, grid)
    assert np.trapezoid(est, grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_window_matches_dense_formula():
    # The window drops less than 2^-53 of each row sum, so the windowed and
    # dense sums differ only at rounding level.
    y = ReproducibleStream(1005).normals(6000)
    h = silverman_bandwidth(y)
    # -40 and 40 lie far past every sample.  y.max() + 12 h has no sample
    # within 9 bandwidths, so the window must grow to hold the nearest one.
    grid = np.concatenate([np.linspace(-4.0, 4.0, 801), [-40.0, 40.0, y.max() + 12.0 * h]])
    u = (grid[:, None] - y[None, :]) / h
    dense = (np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)).sum(axis=1) / (y.size * h)
    est = kde(y, grid)
    far = np.abs(grid) == 40.0
    assert np.all(dense[far] == 0.0) and np.all(est[far] == 0.0)
    assert dense[-1] > 0.0
    assert np.max(np.abs(est[~far] - dense[~far]) / dense[~far]) <= 2e-15


def test_kde_memory_bounded_in_n():
    # the sorted copy of the sample is 0.8 MB; the whole kernel matrix
    # would be 641 MB
    y = ReproducibleStream(1007).normals(100_000)
    tracemalloc.start()
    try:
        kde(y, DENSITY_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_kde_validation(rng):
    y = rng.standard_normal(100)
    grid = np.linspace(-3, 3, 10)
    assert kde(y, grid).shape == (10,)
    with pytest.raises(ValueError):
        kde(y, np.empty(0))
    with pytest.raises(ValueError):
        kde(y, grid.reshape(2, 5))
    with pytest.raises(DegenerateSampleError):
        kde(np.zeros(50), grid)
    with pytest.raises(ValueError, match="sample must be finite"):
        kde(np.append(y, math.nan), grid)
    with pytest.raises(ValueError, match="sample must be finite"):
        kde(np.append(y, math.inf), grid)
    with pytest.raises(ValueError, match="grid must be finite"):
        kde(y, np.append(grid, math.nan))
    assert silverman_bandwidth(y) > 0


def _plain_mspacing_entropy(y, m=None):
    """mspacing_entropy as plain numpy expressions, a new array at every
    step, for a finite sample it accepts."""
    n = y.shape[0]
    m = resolve_m(m, n)
    ys = np.sort(y)
    spacings = ys[m:] - ys[:-m]
    floor = TIE_EPS * (ys[-1] - ys[0])
    assert (spacings < floor).mean() <= TIE_REJECT_FRACTION
    spacings = np.maximum(spacings, floor)
    return float(np.log(spacings * (n / m)).sum() / n - digamma(m) + math.log(m))


def test_mspacing_matches_its_plain_expression_bit_for_bit():
    y = ReproducibleStream(1011).normals(5000)
    ties = y.copy()
    ties[::20] = ties[1]  # 250 equal values: a run of ties in the spacings
    spacings = np.sort(ties)[70:] - np.sort(ties)[:-70]  # m = isqrt(5000) = 70
    share = np.mean(spacings < TIE_EPS * np.ptp(ties))
    assert 0.0 < share < TIE_REJECT_FRACTION
    cases = [(y, None), (y, 3), (ties, None), (ties, 30), (np.round(y, 2), None),
             (y[::-1], None), (y[:9], None)]
    for sample, m in cases:
        before = sample.copy()
        assert mspacing_entropy(sample, m) == _plain_mspacing_entropy(sample, m)
        assert sample.tobytes() == before.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 50, -1])
def test_mspacing_rejects_a_non_finite_value_anywhere(bad, where):
    # the estimate reads finiteness off the sorted ends: NaN sorts last
    y = ReproducibleStream(1012).normals(100)
    y[where] = bad
    with pytest.raises(ValueError, match="sample must be finite"):
        mspacing_entropy(y)
    with pytest.raises(ValueError, match="sample must be finite"):
        mspacing_negentropy(y, 5)


def test_mspacing_rejects_too_few_values_as_bad_input():
    for y in (np.empty(0), np.array([1.0]), np.arange(3.0), np.arange(8.0)):
        with pytest.raises(ValueError, match="outside valid range"):
            mspacing_entropy(y)


def _plain_kde(y, grid):
    """kde's windowed sum as plain numpy expressions, a new array at every
    step, for a sample and grid it accepts."""
    h = silverman_bandwidth(y)
    n = len(y)
    ys = np.sort(y)
    right = np.searchsorted(ys, grid).clip(1, n - 1)
    d = np.minimum(np.abs(grid - ys[right - 1]), np.abs(grid - ys[right])) / h
    half = h * np.sqrt(d * d + (2.0 * math.log(n) + 106.0 * math.log(2.0)))
    lo = np.searchsorted(ys, grid - half, side="left")
    hi = np.searchsorted(ys, grid + half, side="right")
    sums = np.empty(grid.size)
    for i in range(grid.size):
        u = (grid[i] - ys[lo[i] : hi[i]]) / h
        sums[i] = np.exp(-0.5 * u * u).sum()
    return sums / (n * h * math.sqrt(2.0 * math.pi))


@pytest.mark.parametrize("n", [50, 2000, 100_000])
def test_kde_matches_its_plain_expression_bit_for_bit(n):
    # the window scratch is reused across grid points; a point far out
    # takes a short window after a long one, which must not see stale values
    y = ReproducibleStream(1013).normals(n)
    grid = np.concatenate([DENSITY_GRID, [-40.0, 40.0, 0.0, y.max() + 1.0]])
    assert np.array_equal(kde(y, grid), _plain_kde(y, grid))
