import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dpptails import specfun as sf

import scalar_reference as ref


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def adaptive_simpson(f, a, b, tol=1e-13):
    """Classic recursive Simpson, independent of the library quadratures."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth > 40 or abs(left + right - whole) < 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, xm, f0, fl, f1, left, eps / 2.0, depth + 1)
                + recurse(xm, x2, f1, fr, f2, right, eps / 2.0, depth + 1))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def bessel_j0_series_fraction(x_num, x_den, terms=60):
    """Ascending series for J_0 at a rational argument in exact arithmetic."""
    q = Fraction(x_num, x_den) ** 2 / 4
    term = Fraction(1)
    total = Fraction(1)
    for m in range(1, terms):
        term = -term * q / (m * m)
        total += term
    return float(total)


# ---------------------------------------------------------------------------
# sinc family
# ---------------------------------------------------------------------------

def test_sinc_removable_singularity():
    assert sf.sinc(0.0) == 1.0


def test_sinc_at_one():
    assert abs(sf.sinc(1.0)) < 1e-15


def test_sinc_half():
    assert sf.sinc(0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_sinc_branch_continuity():
    # series and direct branch agree across the switch
    for t in (9.9e-5, 1.01e-4):
        u = math.pi * t
        assert sf.sinc(t) == pytest.approx(math.sin(u) / u, rel=1e-13)


def test_sinc_leaves_its_argument_unchanged():
    t = np.array([0.0, 5e-5, -0.5, 3.0, 2.0 ** 256])
    before = t.copy()
    sf.sinc(t)
    assert t.tobytes() == before.tobytes()


def test_sinc_array_is_the_scalar_path_at_each_point():
    # zeros, the series points |t| < 1e-4, ordinary values and t >= 2^256,
    # mixed in one array: each entry has the bits of sinc at that point alone
    t = np.array([0.0, -0.0, 1e-5, -9.99e-5, 1e-4, -0.25, 0.5, 1.0, 7.3, -41.9,
                  2.0 ** 256, -2.0 ** 300, 1e308, 3e-9])
    got = sf.sinc(t.reshape(2, 7))
    assert got.shape == (2, 7)
    assert got.ravel().tobytes() == np.array([sf.sinc(float(v)) for v in t]).tobytes()


def test_sinc_antiderivative_zero():
    assert sf.sinc_antiderivative(0.0) == 0.0


@pytest.mark.parametrize("t", [0.3, 1.7, 9.0])
def test_sinc_antiderivative_odd(t):
    assert sf.sinc_antiderivative(-t) == -sf.sinc_antiderivative(t)


def test_sinc_antiderivative_vs_adaptive_simpson():
    oracle = adaptive_simpson(sf.sinc, 0.0, 1.0, tol=1e-13)
    assert sf.sinc_antiderivative(1.0) == pytest.approx(oracle, abs=1e-12)


def test_sinc_derivative_zero():
    assert sf.sinc_derivative(0.0) == 0.0


def test_sinc_derivative_half():
    assert sf.sinc_derivative(0.5) == pytest.approx(-4.0 / math.pi, rel=1e-13)


def test_sinc_derivative_fd_oracle():
    h = 1e-5
    fd = (sf.sinc(0.3 + h) - sf.sinc(0.3 - h)) / (2.0 * h)
    assert sf.sinc_derivative(0.3) == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("f", [sf.sinc, sf.sinc_derivative])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf,
                               np.array([0.1, math.nan]), np.array([[2.0, 0.0], [math.inf, 1.0]])])
def test_sinc_family_rejects_non_finite(f, t):
    with pytest.raises(sf.DomainError):
        f(t)


@pytest.mark.parametrize("f", [sf.sinc, sf.sinc_derivative])
def test_sinc_family_array_equals_scalar_calls(f):
    # both branches (|t| < 1e-4 and beyond), one array call or a call per point
    t = np.array([0.0, -3e-5, 9.9e-5, 1e-4, 0.3, -2.5, 17.25, -1e6])
    got = f(t)
    assert np.all(np.isfinite(got))
    assert got.tolist() == [f(float(v)) for v in t]


@pytest.mark.parametrize("f, exact", [(sf.sinc, np.zeros_like),
                                      (sf.sinc_derivative, lambda t: 1.0 / t)])
def test_sinc_family_far_out_is_exact_and_quiet(f, exact):
    # every double beyond 2^53 is an even integer: sinc(t) = 0, sinc'(t) = 1/t;
    # pi t and t^2 would overflow here, and pytest turns their warning into an error
    t = np.array([1e80, 1e160, 1.7e308, -1e80, -1e160, -1.7e308])
    got = f(t)
    assert got.tobytes() == exact(t).tobytes()
    assert got.tolist() == [f(float(v)) for v in t]


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------

def test_bessel_at_origin():
    assert sf.bessel_j(0, 0.0) == 1.0
    assert sf.bessel_j(1.5, 0.0) == 0.0


@pytest.mark.parametrize("x", [1.0, 4.0, 10.0])
def test_bessel_half_integer_closed_form(x):
    expected = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
    assert sf.bessel_j(0.5, x) == pytest.approx(expected, rel=1e-10)


def test_bessel_series_oracle():
    oracle = bessel_j0_series_fraction(1, 1, terms=60)
    assert sf.bessel_j(0, 1.0) == pytest.approx(oracle, rel=1e-14)


def test_bessel_recurrence():
    for nu in (1.0, 2.0, 3.0):
        for x in np.linspace(1.0, 20.0, 25):
            lhs = sf.bessel_j(nu - 1, x) + sf.bessel_j(nu + 1, x)
            rhs = (2.0 * nu / x) * sf.bessel_j(nu, x)
            assert abs(lhs - rhs) < 1e-8


def test_bessel_domain_errors():
    with pytest.raises(sf.DomainError):
        sf.bessel_j(-1.5, 1.0)
    with pytest.raises(sf.DomainError):
        sf.bessel_j(0.0, 201.0)
    with pytest.raises(sf.DomainError):
        sf.bessel_j(0.0, 80.0)
    with pytest.raises(sf.DomainError):
        sf.bessel_j(0.0, -1.0)


# ---------------------------------------------------------------------------
# Airy
# ---------------------------------------------------------------------------

def test_airy_origin_closed_forms():
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    assert sf.airy_ai(0.0) == pytest.approx(ai0, rel=1e-14)
    assert sf.airy_ai_prime(0.0) == pytest.approx(aip0, rel=1e-14)


def test_airy_ode_residual():
    # Ai'' = x Ai with the second derivative from a 5-point central stencil
    h = 1e-3
    for x in range(-5, 6):
        x = float(x)
        vals = [sf.airy_ai(x + k * h) for k in (-2, -1, 0, 1, 2)]
        second = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
        assert abs(second - x * vals[2]) < 1e-8


def test_airy_branch_continuity():
    assert abs(sf.airy_ai(8.999999) - sf.airy_ai(9.000001)) < 1e-13
    assert abs(sf.airy_ai(-8.999999) - sf.airy_ai(-9.000001)) < 2e-6


def test_airy_frozen_oracles():
    # 22-digit references computed offline with 30-digit arithmetic
    refs = {
        1.0: 0.1352924163128814155241,
        -1.0: 0.5355608832923521187995,
        -5.0: 0.350761009024114319788,
        12.0: 1.393184688875360839049e-13,
        -15.0: 0.2782174908708289295276,
    }
    for x, v in refs.items():
        assert sf.airy_ai(x) == pytest.approx(v, rel=1e-12)
    refs_prime = {
        1.0: -0.1591474412967932127875,
        -5.0: 0.3271928185544431367949,
        -15.0: 0.2723742043086420208258,
    }
    for x, v in refs_prime.items():
        assert sf.airy_ai_prime(x) == pytest.approx(v, rel=1e-12)


def test_airy_domain_errors():
    with pytest.raises(sf.DomainError):
        sf.airy_ai(15.5)
    with pytest.raises(sf.DomainError):
        sf.airy_ai(-20.5)


# every check that reads its interval from WORKING_RANGES, with the routine
# that runs it; a closed range takes its ends and refuses the next double out
_RANGE_CHECKS = [
    ("sinc_antiderivative", sf.sinc_antiderivative),
    ("bessel_j", lambda x: sf.bessel_j(0.5, x)),
    ("airy_ai", sf.airy_ai),
    ("airy_ai", lambda x: sf._airy_pairs(np.array([x]))),
    ("airy_tail_integral", sf.airy_tail_integral),
]


@pytest.mark.parametrize("name, call", _RANGE_CHECKS)
def test_range_checks_at_registered_endpoints(name, call):
    low, high = sf.WORKING_RANGES[name].working_range
    for end, outward in ((low, -math.inf), (high, math.inf)):
        if math.isinf(end):
            continue
        call(end)
        with pytest.raises(sf.DomainError):
            call(math.nextafter(end, outward))


def test_airy_tail_integral_at_zero():
    assert sf.airy_tail_integral(0.0) == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_airy_tail_integral_far_right():
    v = sf.airy_tail_integral(10.0)
    assert 0.0 < v < 1e-9


def test_airy_tail_integral_two_tolerances():
    a = sf.airy_tail_integral(-10.0, tol=1e-10)
    b = sf.airy_tail_integral(-10.0, tol=1e-12)
    assert abs(a - b) < 1e-9
    assert b == pytest.approx(1.099031736467546250758, rel=1e-10)


def test_adaptive_quadrature_raises_at_max_depth():
    # a jump never lets the panel that holds it agree with its halves
    def step(x):
        return 1.0 if x > 0.3 else 0.0

    with pytest.raises(sf.ConvergenceError):
        sf.adaptive_quadrature(step, 0.0, 1.0, max_depth=6)
    assert sf.adaptive_quadrature(step, 0.0, 1.0) == pytest.approx(0.7, abs=1e-11)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# dense grid over the series branch plus 0, -0, the switch points +-9 and
# their neighbours, tiny |x| and pairs closer than the kernels' diagonal band
_SERIES_GRID = np.concatenate([
    np.linspace(-9.0, 9.0, 1201),
    [0.0, -0.0, 9.0, -9.0, np.nextafter(9.0, 0.0), np.nextafter(-9.0, 0.0),
     5e-324, -5e-324, 1e-300, 1e-12, -1e-12, 1e-6, -3e-5],
    1.3 + np.array([0.0, 1e-9, 2e-5, 1.3e-4]),
    -4.1 - np.array([0.0, 1e-9, 2e-5, 1.3e-4]),
])


def test_airy_series_array_bit_identical_to_scalar_oracle():
    ai, aip = sf._airy_series(_SERIES_GRID)
    want = [ref.airy_series(v) for v in _SERIES_GRID]
    assert _bits(ai) == _bits([w[0] for w in want])
    assert _bits(aip) == _bits([w[1] for w in want])
    # a one-column run gives the same bits as the run of the whole grid
    for v, w in zip(_SERIES_GRID[::37], want[::37]):
        one_ai, one_aip = sf._airy_series(np.array([v]))
        assert (float(one_ai[0]), float(one_aip[0])) == w, v


# dense grids on both asymptotic branches, their first points past +-9 and
# the ends of the working range
_ASYMPTOTIC_GRID = np.concatenate([
    np.linspace(9.0, 15.0, 3001)[1:], np.linspace(-20.0, -9.0, 3001)[:-1],
    [np.nextafter(9.0, 10.0), np.nextafter(-9.0, -10.0), -20.0, 15.0],
])


def _airy_reference(x):
    """(Ai, Ai') at one point by the one-point loops of `scalar_reference`."""
    if abs(x) <= sf._AIRY_SWITCH:
        return ref.airy_series(x)
    return ref.airy_asymptotic_pos(x) if x > 0 else ref.airy_asymptotic_neg(x)


def test_airy_asymptotic_array_bit_identical_to_scalar_oracle():
    ai, aip = sf._airy_asymptotic(_ASYMPTOTIC_GRID)
    want = [_airy_reference(v) for v in _ASYMPTOTIC_GRID.tolist()]
    assert _bits(ai) == _bits([w[0] for w in want])
    assert _bits(aip) == _bits([w[1] for w in want])


def test_airy_pairs_bit_identical_to_one_point_view():
    xs = np.concatenate([_SERIES_GRID[::7], np.linspace(-20.0, 15.0, 701), _ASYMPTOTIC_GRID])
    ai, aip = sf._airy_pairs(xs)
    for want in ([_airy_reference(v) for v in xs.tolist()],
                 [sf._airy_pair(v) for v in xs.tolist()]):
        assert _bits(ai) == _bits([w[0] for w in want])
        assert _bits(aip) == _bits([w[1] for w in want])
    # shapes survive, and a few points give the bits of the long run
    small_ai, _ = sf._airy_pairs(xs[:6].reshape(2, 3))
    assert small_ai.shape == (2, 3) and _bits(small_ai.ravel()) == _bits(ai[:6])


def test_airy_array_runs_bit_identical_to_one_point_runs(monkeypatch):
    # points over the whole working range; on the series branch they take
    # from 4 to 53 terms, so columns finish at every stage of a run and
    # some are carried past their last term before the state is compacted
    xs = np.concatenate([np.linspace(-20.0, 15.0, 353), [1e-3, -2e-3, 0.04, -8.99, 8.99],
                         np.random.default_rng(7).uniform(-9.0, 9.0, 200)])
    ai, aip = sf._airy_pairs(xs)
    terms = []
    converged = sf._airy_series_converged

    def counting(k, st):
        # a one-point run stops at its first converged k
        done = converged(k, st)
        if done.any():
            terms.append(k + 1)
        return done

    monkeypatch.setattr(sf, "_airy_series_converged", counting)
    for want in ([sf._airy_pair(v) for v in xs.tolist()],
                 [_airy_reference(v) for v in xs.tolist()]):
        assert _bits(ai) == _bits([w[0] for w in want])
        assert _bits(aip) == _bits([w[1] for w in want])
    assert min(terms) <= 5 and max(terms) >= 46


def test_airy_pairs_domain_error():
    with pytest.raises(sf.DomainError):
        sf._airy_pairs(np.array([0.0, 15.5]))
    with pytest.raises(sf.DomainError):
        sf._airy_pairs(np.array([-20.5, 0.0]))


def test_airy_series_raises_at_the_term_cap(monkeypatch):
    # at |x| = 9 the series needs ~40 terms; an element still running at the
    # cap is an error, never a silently truncated value
    monkeypatch.setattr(sf, "_AIRY_SERIES_TERMS", 12)
    with pytest.raises(sf.ConvergenceError):
        sf._airy_series(np.linspace(-9.0, 9.0, 64))
    with pytest.raises(sf.ConvergenceError):
        sf._airy_series(np.array([8.5]))
    # small |x| still converges under the lowered cap
    ai, _ = sf._airy_series(np.array([0.0, 1e-3]))
    assert ai[0] == ref.airy_series(0.0)[0]


def test_airy_tail_integral_array_matches_scalar():
    xs = np.array([-10.0, -9.0, -3.3, -1e-9, 0.0, 0.7, 9.5, 15.0, 16.0, -3.3])
    got = sf.airy_tail_integral(xs)
    assert got.shape == xs.shape
    assert _bits(got) == _bits([sf.airy_tail_integral(float(v)) for v in xs])
    with pytest.raises(sf.DomainError):
        sf.airy_tail_integral(np.array([0.0, -10.5]))


_QUAD_CASES = [
    (lambda u: np.sin(20.0 * u) * np.exp(-u), -1.0, 2.0),
    (lambda u: 1.0 / (1.0 + 100.0 * u * u), -3.0, 1.0),
    (lambda u: np.sqrt(np.abs(u)), -1.0, 1.0),
    (lambda u: np.cos(u), 0.5, 0.5),
    (lambda u: np.exp(u), 2.0, -1.0),
]


def test_adaptive_quadrature_bit_identical_to_depth_first():
    for f, a, b in _QUAD_CASES:
        assert sf.adaptive_quadrature(f, a, b) == ref.adaptive_quadrature(f, a, b)
    for x in (-10.0, -6.2, -0.4, 3.0, 12.0):
        lo, hi = (x, 0.0) if x < 0 else (0.0, x)
        assert sf.adaptive_quadrature(sf.airy_ai, lo, hi) == \
            ref.adaptive_quadrature(sf.airy_ai, lo, hi)


def test_adaptive_quadrature_batch_totals_bit_identical():
    # one batch of many intervals and integrands, each total against its own
    # depth-first run
    freqs = np.array([1.0, 7.0, 20.0, 3.0, 0.5, 11.0, 35.0, 60.0])
    a = np.array([-1.0, 0.0, -2.0, 1.0, 4.0, -0.3, -5.0, 0.0])
    b = np.array([2.0, 0.0, 1.5, 6.0, -4.0, 0.2, 7.0, 9.0])

    def batch(owner, x):
        w = freqs[owner][:, None]
        return np.sin(w * x) / (1.0 + x * x)

    totals = sf._adaptive_quadrature_batch(batch, a, b, 1e-12, 45)
    for i in range(a.size):
        want = ref.adaptive_quadrature(
            lambda u, w=freqs[i]: np.sin(w * u) / (1.0 + u * u), a[i], b[i])
        assert totals[i] == want, i


def test_adaptive_quadrature_batch_tolerance_per_integral():
    # interval 3 converges to different bits at 1e-11 and at 1e-12, so it
    # runs twice in one batch, once at each tolerance
    freqs = np.array([1.0, 7.0, 20.0, 3.0, 0.5, 11.0, 35.0, 60.0, 3.0])
    a = np.array([-1.0, 0.0, -2.0, 1.0, 4.0, -0.3, -5.0, 0.0, 1.0])
    b = np.array([2.0, 0.0, 1.5, 6.0, -4.0, 0.2, 7.0, 9.0, 6.0])
    tol = np.array([1e-12, 1e-11] * 4 + [1e-12])

    def batch(owner, x):
        w = freqs[owner][:, None]
        return np.sin(w * x) / (1.0 + x * x)

    def alone(i, tol):
        return sf._adaptive_quadrature_batch(lambda owner, x: batch(owner + i, x),
                                             a[i:i + 1], b[i:i + 1], tol)[0]

    totals = sf._adaptive_quadrature_batch(batch, a, b, tol)
    assert totals[3] != totals[8]
    for i in range(a.size):
        want = ref.adaptive_quadrature(
            lambda u, w=freqs[i]: np.sin(w * u) / (1.0 + u * u), a[i], b[i], tol[i])
        assert totals[i] == alone(i, tol[i]) == want, i
    # a scalar tol serves every integral
    assert _bits(sf._adaptive_quadrature_batch(batch, a, b, 1e-11)) == _bits(
        [alone(i, 1e-11) for i in range(a.size)])


def test_adaptive_quadrature_batch_raises_when_one_integral_jumps():
    def integrands(jumps):
        jumps = np.array(jumps)

        def batch(owner, x):
            return np.where(jumps[owner][:, None] & (x > 0.3), 1.0, np.cos(x))
        return batch

    a, b = np.zeros(3), np.ones(3)
    with pytest.raises(sf.ConvergenceError):
        sf._adaptive_quadrature_batch(integrands([False, True, False]), a, b, 1e-12, 6)
    ok = sf._adaptive_quadrature_batch(integrands([False, False, False]), a, b, 1e-12, 6)
    assert ok[0] == ok[2] == pytest.approx(math.sin(1.0), abs=1e-13)


def test_adaptive_quadrature_non_finite_integrand_raises_fast():
    start = time.perf_counter()
    with pytest.raises(sf.ConvergenceError):
        sf.adaptive_quadrature(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(sf.ConvergenceError):
        sf.adaptive_quadrature(lambda x: math.inf if x > 0.9 else 1.0, 0.0, 1.0)
    assert time.perf_counter() - start < 1.0


def test_sinc_antiderivative_bit_identical_to_scalar_oracle():
    rng = np.random.default_rng(41)
    t = np.concatenate([np.arange(-50.0, 51.0), [0.0, -0.0, 1e-300, -1e-300, 5e-324],
                        rng.uniform(-50.0, 50.0, 2000)])
    got = sf.sinc_antiderivative(t)
    want = np.array([ref.sinc_antiderivative(v) for v in t])
    assert got.tobytes() == want.tobytes()
    assert sf.sinc_antiderivative(t[:24].reshape(4, 6)).tobytes() == want[:24].tobytes()
    scalar = sf.sinc_antiderivative(-7.25)
    assert type(scalar) is float and scalar == ref.sinc_antiderivative(-7.25)


@pytest.mark.parametrize("t", [50.5, -51.0, math.inf, -math.inf, math.nan])
def test_sinc_antiderivative_domain_error(t):
    with pytest.raises(sf.DomainError):
        sf.sinc_antiderivative(t)
    with pytest.raises(sf.DomainError):
        sf.sinc_antiderivative(np.array([0.5, t]))


def test_gauss_legendre_reference_computed_once_and_read_only():
    x, w = sf._gauss_legendre_reference(31)
    assert sf._gauss_legendre_reference(31)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    rule = sf.gauss_legendre(31, -0.5, 3.0)
    assert _bits(rule.nodes) == _bits(1.25 + 1.75 * x)
    assert _bits(rule.weights) == _bits(1.75 * w)


@pytest.mark.parametrize("n, digest", [
    (15, "47d353af419e2c1d4b8778e0de53d10b6f17809449d7562eefcc9f09a7d0d0f9"),
    (24, "f3ccba9dad0c997d08f7c99ff5f3d1b727cb0ab581035adac096ad2f2394a85b"),
    (48, "fb36364cf55a1c02bf0aad4f845d89d95965433d3b46326def858ddc416aab4a"),
    (128, "8a5b3aabca1205378183a2c0dec8bbfca67588ad81b0b0a2ce4e26cf0a5f88fc"),
    (192, "39d45df7f3158a551cd393b83040e3824eb85a817c5614ebc7dac26295edd6bb"),
    (200, "4638faaab22651a531cb1fed220adf53f52f594e4f5270081c0d8b7a09b3d2a7"),
    (384, "a9304df081f093a32c94bdecb00875a7d2aad4156f78d1baf9661dd947e0cfde"),
])
def test_gauss_legendre_reference_bytes_pinned(n, digest):
    # sha256 of the node bytes followed by the weight bytes
    x, w = sf._gauss_legendre_reference(n)
    assert hashlib.sha256(x.tobytes() + w.tobytes()).hexdigest() == digest


def test_airy_tail_domain_error():
    with pytest.raises(sf.DomainError):
        sf.airy_tail_integral(-10.5)


# ---------------------------------------------------------------------------
# incomplete gamma ratio
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.3, 1.0, 5.0, 40.0])
def test_incomplete_gamma_k0(x):
    assert sf.incomplete_gamma_ratio(0, x) == pytest.approx(-math.expm1(-x), rel=1e-13)


def test_incomplete_gamma_at_zero():
    for k in (0, 3, 50, 200):
        assert sf.incomplete_gamma_ratio(k, 0.0) == 0.0


def test_incomplete_gamma_recurrence():
    for x in (0.5, 1.0, 4.0):
        for k in range(1, 21):
            lhs = sf.incomplete_gamma_ratio(k, x)
            rhs = sf.incomplete_gamma_ratio(k - 1, x) \
                - math.exp(-x) * x ** k / math.factorial(k)
            assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# Gauss-Legendre
# ---------------------------------------------------------------------------

def test_gl_quadratic_exact():
    for n in (2, 5, 9):
        rule = sf.gauss_legendre(n, -1.0, 1.0)
        assert float(np.sum(rule.weights * rule.nodes ** 2)) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_gl_weight_sum():
    rule = sf.gauss_legendre(37, 0.0, 3.0)
    assert float(np.sum(rule.weights)) == pytest.approx(3.0, abs=1e-12)


def test_gl_node_symmetry():
    rule = sf.gauss_legendre(16, -2.0, 4.0)
    mid = 1.0
    assert np.max(np.abs((rule.nodes - mid) + (rule.nodes - mid)[::-1])) < 1e-13


@pytest.mark.parametrize("n", [3, 8, 20])
def test_gl_monomial_exactness(n):
    rule = sf.gauss_legendre(n, 0.0, 1.0)
    for deg in range(2 * n):
        exact = 1.0 / (deg + 1)
        got = float(np.sum(rule.weights * rule.nodes ** deg))
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        sf.QuadratureRule(np.array([0.5, 0.2]), np.array([0.5, 0.5]), 0.0, 1.0)
    with pytest.raises(ValueError):
        sf.QuadratureRule(np.array([0.2, 0.5]), np.array([0.5, -0.5]), 0.0, 1.0)


# ---------------------------------------------------------------------------
# cross-function invariants
# ---------------------------------------------------------------------------

def test_fd_consistency_sinc_family():
    h = 1e-4
    grid = np.linspace(-4.0, 4.0, 50)
    for t in grid:
        d_is = (sf.sinc_antiderivative(t + h) - sf.sinc_antiderivative(t - h)) / (2 * h)
        assert abs(d_is - sf.sinc(t)) < 1e-6
        d_s = (sf.sinc(t + h) - sf.sinc(t - h)) / (2 * h)
        assert abs(d_s - sf.sinc_derivative(t)) < 1e-6


def test_fd_consistency_airy_family():
    h = 1e-4
    for x in np.linspace(-6.0, 6.0, 50):
        d_tail = (sf.airy_tail_integral(x + h) - sf.airy_tail_integral(x - h)) / (2 * h)
        assert abs(d_tail + sf.airy_ai(x)) < 1e-6
        d_ai = (sf.airy_ai(x + h) - sf.airy_ai(x - h)) / (2 * h)
        assert abs(d_ai - sf.airy_ai_prime(x)) < 1e-6


def test_determinism_bit_identical():
    pairs = [
        (sf.sinc(0.37), sf.sinc(0.37)),
        (sf.sinc_antiderivative(2.1), sf.sinc_antiderivative(2.1)),
        (sf.bessel_j(0.5, 7.3), sf.bessel_j(0.5, 7.3)),
        (sf.airy_ai(-3.3), sf.airy_ai(-3.3)),
        (sf.incomplete_gamma_ratio(4, 2.2), sf.incomplete_gamma_ratio(4, 2.2)),
    ]
    for a, b in pairs:
        assert a == b
    r1 = sf.gauss_legendre(31, 0.0, 2.0)
    r2 = sf.gauss_legendre(31, 0.0, 2.0)
    assert np.array_equal(r1.nodes, r2.nodes) and np.array_equal(r1.weights, r2.weights)
