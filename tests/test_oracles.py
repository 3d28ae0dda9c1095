"""Special functions and the Bessel kernel against mpmath, over each working
range.  mpmath is a test-only oracle: without it these tests are skipped."""

import math

import numpy as np
import pytest

from dpptails import exact, kernels
from dpptails import specfun as sf

mpmath = pytest.importorskip("mpmath")


@pytest.fixture(autouse=True)
def _forty_digits():
    with mpmath.workdps(40):
        yield


def _rel_err(value, reference):
    reference = float(reference)
    return abs(value - reference) / abs(reference)


def _meets_registry(name, values, references):
    """Points where |value - ref| > max(abs_tol, rel_tol |ref|) of the
    registered accuracy of `name` (none when the registry is true)."""
    acc = sf.WORKING_RANGES[name]
    return [(i, float(v), float(r)) for i, (v, r) in enumerate(zip(values, references))
            if abs(mpmath.mpf(v) - r) > max(acc.abs_tol, acc.rel_tol * abs(r))]


def _sinc_points():
    # the zeros at nonzero integers and points near them, both sides of the
    # series cut |t| = 1e-4, and magnitudes out to the largest double
    k = np.arange(1.0, 65.0)
    near = np.concatenate([k + d for d in (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, 0.5)])
    rng = np.random.default_rng(17)
    cut = 1e-4 * (1.0 + np.linspace(-0.5, 0.5, 101))
    wide = 10.0 ** rng.uniform(-300.0, 308.0, 400)
    far = np.array([10000.5, 2.0 ** 52 + 1.0, 2.0 ** 53, 1e77, 1e80, 1e160, 1.7e308])
    t = np.concatenate([[0.0], near, cut, rng.uniform(0.0, 50.0, 400), wide, far])
    return np.concatenate([t, -t])


def _sinc_derivative_reference(t):
    # (cos(pi t) - sinc(t)) / t cancels like t^2 near 0: carry the lost digits
    if t == 0.0:
        return mpmath.mpf(0)
    with mpmath.workdps(40 + max(0, int(-2.0 * math.log10(abs(t))))):
        t = mpmath.mpf(t)
        return +((mpmath.cospi(t) - mpmath.sincpi(t)) / t)


def test_airy_against_mpmath():
    rel = sf.WORKING_RANGES["airy_ai"].rel_tol
    lo, hi = sf.WORKING_RANGES["airy_ai"].working_range
    for x in np.linspace(lo, hi, 351):
        assert _rel_err(sf.airy_ai(x), mpmath.airyai(x)) <= rel, x
        assert _rel_err(sf.airy_ai_prime(x), mpmath.airyai(x, 1)) <= rel, x


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 5.0, 10.0])
def test_bessel_j_against_mpmath(nu):
    rel = sf.WORKING_RANGES["bessel_j"].rel_tol
    lo, hi = sf.WORKING_RANGES["bessel_j"].working_range
    for x in np.linspace(lo + 0.1, hi, 200):
        assert _rel_err(sf.bessel_j(nu, x), mpmath.besselj(nu, x)) <= rel, x


def test_sinc_against_mpmath():
    assert sf.WORKING_RANGES["sinc"].working_range == (-math.inf, math.inf)
    t = _sinc_points()
    assert _meets_registry("sinc", sf.sinc(t), [mpmath.sincpi(v) for v in t]) == []


def test_sinc_derivative_against_mpmath():
    assert sf.WORKING_RANGES["sinc_derivative"].working_range == (-math.inf, math.inf)
    t = _sinc_points()
    refs = [_sinc_derivative_reference(float(v)) for v in t]
    assert _meets_registry("sinc_derivative", sf.sinc_derivative(t), refs) == []


def test_sinc_antiderivative_against_mpmath():
    lo, hi = sf.WORKING_RANGES["sinc_antiderivative"].working_range
    k = np.arange(1.0, hi + 1.0)
    t = np.concatenate([np.linspace(lo, hi, 801), k - 1e-9, k + 1e-3, [1e-5, 1e-300]])
    t = np.clip(np.concatenate([t, -t]), lo, hi)
    refs = [mpmath.si(mpmath.pi * v) / mpmath.pi for v in t]
    assert _meets_registry("sinc_antiderivative", sf.sinc_antiderivative(t), refs) == []


def test_airy_tail_integral_against_mpmath():
    lo, hi = sf.WORKING_RANGES["airy_tail_integral"].working_range
    assert hi == math.inf
    x = np.concatenate([np.linspace(lo, 20.0, 301), [14.5, 15.0, 40.0, 100.0, 1e6, 1e300]])
    # the tail decreases in x and is below 1e-40 at x = 100, so beyond 100 the
    # 40-digit value there stands in for it (mpmath's series fails far out)
    refs = [mpmath.mpf(1) / 3 - mpmath.airyai(min(v, 100.0), derivative=-1) for v in x]
    assert _meets_registry("airy_tail_integral", sf.airy_tail_integral(x), refs) == []


def test_incomplete_gamma_ratio_against_mpmath():
    for k in [0, 1, 2, 5] + list(range(20, 201, 30)) + [200]:
        for x in np.linspace(0.05, 144.0, 49):
            ref = mpmath.gammainc(k + 1, 0, x, regularized=True)
            if float(ref) == 0.0:  # below the double range: nothing to compare
                continue
            assert _rel_err(sf.incomplete_gamma_ratio(k, x), ref) <= 1e-11, (k, x)


def test_airy4_22_entry_against_mpmath():
    # (1/2) d/dy K_Ai(x, y) + (1/4) Ai(x) Ai(y), with Ai'' = y Ai; pairs closer
    # than 1e-4 take the band's second-order Taylor form, good to ~(y - x)^3
    def ref(x, y):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        (ax, apx), (ay, apy) = ((mpmath.airyai(v), mpmath.airyai(v, 1)) for v in (x, y))
        d = x - y
        return ((ax * y * ay - apx * apy) / d + (ax * apy - ay * apx) / d ** 2) / 2 + ax * ay / 4

    rng = np.random.default_rng(4)
    x = rng.uniform(-10.0, 15.0, 80)
    y = np.r_[rng.uniform(-10.0, 15.0, 60), x[60:] + rng.uniform(-1e-4, 1e-4, 20)]
    got = kernels.eval_matrix(kernels.make_kernel("airy4"), x, y)[:, 1, 1]
    refs = [ref(a, b) for a, b in zip(x, y)]
    err = [abs(mpmath.mpf(g) - r) for g, r in zip(got, refs)]
    # apart: the airy_ai registry's relative 1e-9; in the band: 6e-12
    # absolute, 10x the measured 6.0e-13
    assert all(e <= max(1e-14, 1e-9 * abs(r)) for e, r in zip(err[:60], refs[:60]))
    assert max(err[60:]) <= 6e-12


@pytest.mark.parametrize("order", [32, 64])
@pytest.mark.parametrize("x", [1.0, 4.0, 16.0])
def test_bessel_hard_edge_gap_probability(x, order):
    # det(I - K_Bessel) on (0, x) at s = 0 is e^{-x/4} (Edelman 1988;
    # Forrester 1993), and log P(# = 0) is the engine's log pmf_0.  The
    # worst case measured is 4.9e-14 (x = 16, order 64).  At x = 40 the
    # error is 2.4e-12 to 2.9e-12 at both orders, which does not shrink with
    # order: that points to the Gram entries' accuracy, not the quadrature,
    # so x = 40 waits for a registered entry accuracy.
    d = exact.discretize(kernels.make_kernel("bessel:s=0"), kernels.Interval(0.0, x), order)
    log_gap = exact.count_distribution(exact.spectrum(d)).log_pmf[0]
    assert abs(log_gap + x / 4.0) <= 1e-13


def test_tracy_widom_gue_mean_and_variance():
    # F_2(s) = det(I - K_Airy) on (s, inf) is the Tracy-Widom GUE law (Tracy
    # and Widom 1994); here it is P(# = 0) of airy on [s, 15], the engine's
    # pmf_0, at order 48.  On [-9, 9], E s = 9 - int F_2 and E s^2 = 81 -
    # 2 int s F_2, by 64-node Gauss-Legendre in s.  The reference moments
    # are Bornemann, Markov Process. Related Fields 2010, given to
    # 13 digits.  Measured errors: 1.0e-14 (mean) and 1.0e-13 (variance);
    # cutting at +-6 instead of +-9 leaves 1.1e-9 and 9.9e-9.
    airy = kernels.make_kernel("airy")
    rule = sf.gauss_legendre(64, -9.0, 9.0)
    f2 = np.array([math.exp(exact.count_distribution(exact.spectrum(exact.discretize(
        airy, kernels.Interval(s, 15.0), 48))).log_pmf[0]) for s in rule.nodes])
    mean = 9.0 - rule.weights @ f2
    variance = 81.0 - 2.0 * rule.weights @ (rule.nodes * f2) - mean ** 2
    assert abs(mean - (-1.7710868074116)) <= 1e-11
    assert abs(variance - 0.8131947928329) <= 1e-11


@pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
def test_bessel_kernel_against_mpmath(s):
    # K(x, y) = [J_s(a) b J_s'(b) - a J_s'(a) J_s(b)] / (2 (x - y)), a = sqrt x,
    # b = sqrt y, off the diagonal
    spec = kernels.make_kernel(f"bessel:s={s}")
    rng = np.random.default_rng(31)
    for x, y in rng.uniform(0.1, 400.0, (40, 2)):
        a, b = mpmath.sqrt(x), mpmath.sqrt(y)
        ref = (mpmath.besselj(s, a) * b * mpmath.besselj(s, b, 1)
               - a * mpmath.besselj(s, a, 1) * mpmath.besselj(s, b)) / (2 * (x - y))
        assert _rel_err(kernels.eval_scalar(spec, x, y), ref) <= 1e-10, (x, y)
