"""Special functions and the Bessel kernel against mpmath, over each working
range.  mpmath is a test-only oracle: without it these tests are skipped."""

import numpy as np
import pytest

from dpptails import kernels
from dpptails import specfun as sf

mpmath = pytest.importorskip("mpmath")


@pytest.fixture(autouse=True)
def _forty_digits():
    with mpmath.workdps(40):
        yield


def _rel_err(value, reference):
    reference = float(reference)
    return abs(value - reference) / abs(reference)


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


def test_incomplete_gamma_ratio_against_mpmath():
    for k in [0, 1, 2, 5] + list(range(20, 201, 30)) + [200]:
        for x in np.linspace(0.05, 144.0, 49):
            ref = mpmath.gammainc(k + 1, 0, x, regularized=True)
            if float(ref) == 0.0:  # below the double range: nothing to compare
                continue
            assert _rel_err(sf.incomplete_gamma_ratio(k, x), ref) <= 1e-11, (k, x)


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
