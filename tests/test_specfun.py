import math
from fractions import Fraction

import numpy as np
import pytest

from dpptails import specfun as sf


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
