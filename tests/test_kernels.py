import math
import warnings

import numpy as np
import pytest

from dpptails import exact, kernels, specfun
from dpptails.kernels import Interval
from dpptails.specfun import DomainError

import scalar_reference as ref


SINE = kernels.make_kernel("sine")
AIRY = kernels.make_kernel("airy")
BESSEL_HALF = kernels.make_kernel("bessel:s=0.5")
BESSEL2 = kernels.make_kernel("bessel:s=2")
SINE4 = kernels.make_kernel("sine4")
AIRY4 = kernels.make_kernel("airy4")
GINIBRE = kernels.make_kernel("ginibre")


def test_registry():
    assert SINE.block_size == 1 and SINE4.block_size == 2
    assert BESSEL_HALF.bessel_s == 0.5
    with pytest.raises(DomainError):
        kernels.make_kernel("bessel:s=-1.5")
    with pytest.raises(DomainError):
        kernels.make_kernel("heat")


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    assert Interval(0.0, 2.5).length == 2.5


# ---------------------------------------------------------------------------
# scalar evaluation
# ---------------------------------------------------------------------------

def test_sine_diagonal():
    for x in (-3.2, 0.0, 11.7):
        assert kernels.eval_scalar(SINE, x, x) == 1.0


def test_sine_value():
    assert kernels.eval_scalar(SINE, 0.0, 0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_sine_far_pair_is_zero_without_a_warning():
    # x - y overflows to -inf; sinc is 0 there, and no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.eval_scalar(SINE, 1e308, -1e308) == 0.0
        assert kernels.eval_scalar(SINE, -1e308, 1e308) == 0.0


def test_airy_diagonal_richardson_oracle():
    # diagonal vs the small-offset limit, Richardson-extrapolated in h
    x = 0.25
    diag = kernels.eval_scalar(AIRY, x, x)
    v3 = kernels.eval_scalar(AIRY, x, x + 1e-3)
    v4 = kernels.eval_scalar(AIRY, x, x + 1e-4)
    extrap = v4 + (v4 - v3) / 9.0
    assert abs(extrap - diag) < 1e-7
    v5 = kernels.eval_scalar(AIRY, x, x + 1e-5)
    assert abs(v5 - diag) < 1e-5


def test_scalar_symmetry_random_pairs():
    rng = np.random.default_rng(3)
    for spec, lo, hi in ((SINE, -5.0, 5.0), (AIRY, -6.0, 2.0), (BESSEL_HALF, 0.1, 6.0)):
        for _ in range(50):
            x, y = rng.uniform(lo, hi, 2)
            assert abs(kernels.eval_scalar(spec, x, y)
                       - kernels.eval_scalar(spec, y, x)) <= 1e-12


def test_psd_two_point_minors():
    rng = np.random.default_rng(4)
    for spec, lo, hi in ((SINE, -4.0, 4.0), (AIRY, -5.0, 1.0), (BESSEL2, 0.2, 5.0)):
        for _ in range(40):
            x, y = rng.uniform(lo, hi, 2)
            kxx = kernels.eval_scalar(spec, x, x)
            kyy = kernels.eval_scalar(spec, y, y)
            kxy = kernels.eval_scalar(spec, x, y)
            assert kxx * kyy - kxy * kxy >= -1e-10


def test_bessel_domain_error():
    with pytest.raises(DomainError):
        kernels.eval_scalar(BESSEL_HALF, 0.0, 1.0)
    with pytest.raises(DomainError):
        kernels.eval_scalar(BESSEL_HALF, -0.5, 1.0)


# ---------------------------------------------------------------------------
# matrix kernels
# ---------------------------------------------------------------------------

def test_sine4_diagonal_block():
    block = kernels.eval_matrix(SINE4, 1.3, 1.3)
    assert np.allclose(block, [[0.0, 0.5], [-0.5, 0.0]], atol=1e-15)


def test_sine4_offdiagonal_entry():
    block = kernels.eval_matrix(SINE4, 0.0, 0.3)
    assert block[0, 1] == pytest.approx(specfun.sinc(0.3) / 2.0, rel=1e-14)


def test_matrix_antisymmetry_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.uniform(-2.0, 2.0, 2)
        m1 = kernels.eval_matrix(SINE4, x, y)
        m2 = kernels.eval_matrix(SINE4, y, x)
        assert np.max(np.abs(m1 + m2.T)) < 1e-10
    for _ in range(6):
        x, y = rng.uniform(-2.0, 1.0, 2)
        m1 = kernels.eval_matrix(AIRY4, x, y)
        m2 = kernels.eval_matrix(AIRY4, y, x)
        assert np.max(np.abs(m1 + m2.T)) < 1e-10


def test_airy4_22_entry_fd_oracle():
    # (2,2) entry at the diagonal: (1/2) d/dy A(0,0) + (1/4) Ai(0)^2 with the
    # derivative estimated by central differences
    h = 1e-4
    dy = (kernels.eval_scalar(AIRY, 0.0, h) - kernels.eval_scalar(AIRY, 0.0, -h)) / (2 * h)
    expected = 0.5 * dy + 0.25 * specfun.airy_ai(0.0) ** 2
    block = kernels.eval_matrix(AIRY4, 0.0, 0.0)
    assert block[1, 1] == pytest.approx(expected, abs=1e-7)


# ---------------------------------------------------------------------------
# Ginibre
# ---------------------------------------------------------------------------

def test_ginibre_constant_intensity():
    for z in (0.0, 1.0 + 2.0j, -3.0j):
        assert kernels.eval_complex(GINIBRE, z, z) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_ginibre_center_value():
    w = 1.5 - 0.5j
    expected = (1.0 / math.pi) * math.exp(-abs(w) ** 2 / 2.0)
    assert kernels.eval_complex(GINIBRE, 0.0, w) == pytest.approx(expected, rel=1e-13)


def test_ginibre_modulus_identity():
    rng = np.random.default_rng(6)
    for _ in range(30):
        z = complex(*rng.uniform(-2, 2, 2))
        w = complex(*rng.uniform(-2, 2, 2))
        lhs = abs(kernels.eval_complex(GINIBRE, z, w)) ** 2
        rhs = math.exp(-abs(z - w) ** 2) / math.pi ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ginibre_hermitian():
    z, w = 0.4 + 1.1j, -0.7 + 0.2j
    assert kernels.eval_complex(GINIBRE, z, w) == pytest.approx(
        np.conj(kernels.eval_complex(GINIBRE, w, z)), rel=1e-14)


def test_ginibre_radius_error():
    with pytest.raises(DomainError):
        kernels.eval_complex(GINIBRE, 13.0, 0.0)


# ---------------------------------------------------------------------------
# growth envelopes
# ---------------------------------------------------------------------------

def test_sine_envelope_constants():
    env = kernels.growth_envelope(SINE)
    assert env.order == 1.0
    assert env.amplitude == 1.0 and env.scale == math.pi


def test_sine_envelope_series_majorization():
    # |sinc(w)| <= sum (pi |w|)^{2k}/(2k+1)! <= e^{pi |w|} on a |w| grid
    for r in np.linspace(0.0, 6.0, 25):
        u = math.pi * r
        total, term = 0.0, 1.0
        k = 0
        while term > 1e-18 * max(total, 1.0):
            total += term
            k += 1
            term = u ** (2 * k) / math.factorial(2 * k + 1)
        assert total <= math.exp(u) * (1.0 + 1e-12)
        assert abs(specfun.sinc(r)) <= total + 1e-12


def test_airy_envelope_order():
    env = kernels.growth_envelope(AIRY, Interval(-1.0, 0.0))
    assert env.order == 1.5


def test_envelope_needs_window():
    with pytest.raises(ValueError):
        kernels.growth_envelope(AIRY)


def test_envelope_realaxis_probe():
    # |reduced(p, p+t)| <= A e^{M |t|^sigma} at 100 random real (p, t)
    rng = np.random.default_rng(7)
    cases = [
        (SINE, Interval(0.0, 1.0), -8.0, 8.0),
        (BESSEL_HALF, Interval(0.25, 1.0), -0.2, 6.0),
        (AIRY, Interval(-1.0, 0.0), -8.0, 8.0),
    ]
    for spec, win, tlo, thi in cases:
        env = kernels.growth_envelope(spec, win)
        fac = kernels.factorization(spec, win)
        for _ in range(100):
            p = rng.uniform(win.a, win.b)
            t = rng.uniform(tlo, thi)
            z = p + t
            if spec.kind == "bessel" and z <= 0:
                continue
            if spec.kind == "airy" and not (-20.0 < z < 15.0):
                continue
            val = abs(fac.reduced_kernel(p, z))
            assert val <= env.amplitude * math.exp(env.scale * abs(t) ** env.order)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def test_sine_factorization_trivial():
    fac = kernels.factorization(SINE, Interval(0.0, 1.0))
    assert fac.sup_density == 1.0
    assert fac.density_factor(0.3) == 1.0


def test_bessel_factorization_sup_monotone():
    fac = kernels.factorization(BESSEL2, Interval(1.0, 4.0))
    assert fac.sup_density == pytest.approx(1.0, rel=1e-14)  # (4/4)^1
    assert fac.density_factor(2.0) == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("s", [0.5, -0.5])
def test_bessel_reconstruction_oracle(s):
    # rho(x) rho(y) PiTilde(x, y) vs the classical ratio formula built from bessel_j;
    # s < 0 exercises the open-half-line-only branch
    spec = kernels.make_kernel(f"bessel:s={s}")
    fac = kernels.factorization(spec, Interval(0.25, 1.0))
    rng = np.random.default_rng(8)
    for _ in range(20):
        x, y = rng.uniform(0.25, 1.0, 2)
        if abs(x - y) < 1e-3:
            continue
        direct = (math.sqrt(x) * specfun.bessel_j(s + 1, math.sqrt(x))
                  * specfun.bessel_j(s, math.sqrt(y))
                  - math.sqrt(y) * specfun.bessel_j(s + 1, math.sqrt(y))
                  * specfun.bessel_j(s, math.sqrt(x))) / (2.0 * (x - y))
        mine = fac.density_factor(x) * fac.density_factor(y) * fac.reduced_kernel(x, y)
        assert mine == pytest.approx(direct, abs=1e-9)


def test_factorization_reconstruction_invariant():
    rng = np.random.default_rng(9)
    for spec, win in ((SINE, Interval(0.0, 1.0)), (BESSEL2, Interval(1.0, 4.0))):
        fac = kernels.factorization(spec, win)
        for _ in range(30):
            x, y = rng.uniform(win.a, win.b, 2)
            recon = fac.density_factor(x) * fac.density_factor(y) * fac.reduced_kernel(x, y)
            direct = kernels.eval_scalar(spec, x, y)
            assert recon == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_kernel_range_checks_at_their_endpoints():
    # the airy4 entries need Ai and its tail integral: [-10, 15]
    kernels.eval_matrix(AIRY4, np.array([-10.0, 15.0]), 0.0)
    for x in (math.nextafter(-10.0, -11.0), math.nextafter(15.0, 16.0)):
        with pytest.raises(DomainError):
            kernels.eval_matrix(AIRY4, x, 0.0)
    kernels.eval_complex(GINIBRE, 12.0, -12.0j)
    with pytest.raises(DomainError):
        kernels.eval_complex(GINIBRE, math.nextafter(12.0, 13.0), 0.0)


def test_growth_envelope_constants_must_be_positive():
    for bad in ((math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan), (0.0, 1.0, 1.0)):
        with pytest.raises(ValueError):
            kernels.GrowthEnvelope(*bad)


def test_bessel_window_rule_is_one_check():
    # check_window holds the half-line rule for growth_envelope, factorization
    # and sup_density alike; s = 0 (rho == 1) may touch or cross the origin
    for window in (Interval(0.0, 1.0), Interval(-1.0, 1.0)):
        for call in (kernels.check_window, kernels.growth_envelope,
                     kernels.factorization, kernels.sup_density):
            with pytest.raises(DomainError):
                call(BESSEL_HALF, window)
    zero = kernels.make_kernel("bessel:s=0")
    for window in (Interval(0.0, 1.0), Interval(-1.0, 1.0)):
        kernels.check_window(zero, window)
        assert kernels.sup_density(zero, window) == 1.0


def test_sup_density_is_the_factorization_sup():
    for spec, window in ((SINE, Interval(0.0, 1.0)), (AIRY, Interval(-1.0, 0.0)),
                         (BESSEL_HALF, Interval(0.25, 4.0)), (BESSEL2, Interval(1.0, 4.0)),
                         (kernels.make_kernel("bessel:s=-0.5"), Interval(0.25, 1.0))):
        assert kernels.sup_density(spec, window) == kernels.factorization(spec, window).sup_density
    # rho = (x/4)^{-1/4} falls, so its sup is at the left end
    assert kernels.sup_density(kernels.make_kernel("bessel:s=-0.5"), Interval(0.25, 1.0)) == 2.0
    for spec in (SINE4, AIRY4, GINIBRE):
        assert kernels.sup_density(spec, Interval(-1.0, 0.0)) == 1.0
    # the window ends must lie in the kernel's domain
    for spec, window in ((AIRY, Interval(-21.0, 0.0)), (BESSEL_HALF, Interval(1.0, 1601.0)),
                         (SINE, Interval(0.0, math.inf))):
        with pytest.raises(DomainError):
            kernels.sup_density(spec, window)


def test_bessel_factorization_window_errors():
    with pytest.raises(DomainError):
        kernels.factorization(BESSEL_HALF, Interval(0.0, 1.0))
    neg = kernels.make_kernel("bessel:s=-0.5")
    with pytest.raises(DomainError):
        kernels.factorization(neg, Interval(0.0, 1.0))
    # s = 0 tolerates a window touching the origin (rho is constant 1)
    zero = kernels.make_kernel("bessel:s=0")
    fac = kernels.factorization(zero, Interval(0.0, 1.0))
    assert fac.sup_density == 1.0


# ---------------------------------------------------------------------------
# intensity
# ---------------------------------------------------------------------------

def test_intensity_sine():
    assert kernels.intensity(SINE, 2.2) == 1.0


def test_intensity_sine4_pfaffian_crosscheck():
    v = kernels.intensity(SINE4, 0.7)
    assert v == pytest.approx(0.5, rel=1e-14)
    block = kernels.eval_matrix(SINE4, 0.7, 0.7)
    assert exact.pfaffian(block) == pytest.approx(v, rel=1e-14)


def test_intensity_ginibre():
    assert kernels.intensity(GINIBRE, 1.0 + 1.0j) == pytest.approx(1.0 / math.pi, rel=1e-15)


# ---------------------------------------------------------------------------
# vectorized Gram path
# ---------------------------------------------------------------------------

def test_kernel_matrix_matches_scalar_eval():
    rng = np.random.default_rng(10)
    for spec, lo, hi in ((SINE, -1.0, 1.0), (AIRY, -2.0, 0.5), (BESSEL_HALF, 0.3, 2.0)):
        xs = np.sort(rng.uniform(lo, hi, 12))
        gram = kernels.kernel_matrix(spec, xs)
        for i in range(12):
            for j in range(12):
                assert gram[i, j] == pytest.approx(
                    kernels.eval_scalar(spec, xs[i], xs[j]), rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# array paths: bit-identical to the one-point evaluations
# ---------------------------------------------------------------------------

def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("s", [0.0, 0.5, 2.0, -0.5])
def test_bessel_series_triples_bit_identical_to_scalar_oracle(s):
    xs = np.concatenate([np.linspace(1e-3, 1600.0, 401), [1e-300, 1e-12, 4.0, 4.0 + 1e-9],
                         2.5 + np.array([1e-9, 2e-5, 3e-4])])
    if s == 0.0:
        xs = np.append(xs, 0.0)
    want = np.array([ref.bessel_series_triple(s, v) for v in xs]).T

    def triples(pts):
        return specfun._series_values(pts, lambda p: kernels._bessel_series(s, p))

    got = triples(xs)
    for row in range(3):
        assert _bits(got[row]) == _bits(want[row]), row
    # a one-column run and a short run give the bits of the long run
    for v in xs[::37]:
        one = kernels._bessel_series(s, np.array([v]))
        assert tuple(float(w[0]) for w in one) == ref.bessel_series_triple(s, v)
    small = triples(xs[:5])
    assert _bits(np.array(small)) == _bits(want[:, :5])
    assert [v.shape for v in triples(xs[:0])] == [(0,)] * 3


@pytest.mark.parametrize("s", [0.5, -0.5, 3.0])
def test_bessel_lanes_equal_three_separate_runs(s):
    # an array run is the three shifts as lanes of one recurrence; the
    # oracle runs them one after another, and a one-column run holds the
    # three lanes of one point.  Points from 1e-3 to 1600 finish after a
    # few terms to a few hundred, so lanes leave the run at every stage
    xs = np.concatenate([np.geomspace(1e-3, 1600.0, 97), [0.25, 0.25 + 1e-12, 37.0]])
    lanes = kernels._bessel_series(s, xs)
    assert [v.shape for v in lanes] == [xs.shape] * 3
    separate = np.array([ref.bessel_series_triple(s, v) for v in xs]).T
    assert _bits(np.array(lanes)) == _bits(separate)
    columns = np.hstack([kernels._bessel_series(s, np.array([v])) for v in xs])
    assert _bits(np.array(lanes)) == _bits(columns)


@pytest.mark.parametrize("spec, lo, hi", [(AIRY, -6.0, 2.0), (BESSEL_HALF, 0.3, 8.0),
                                          (BESSEL2, 0.5, 300.0), (SINE, -3.0, 3.0)])
def test_kernel_matrix_bit_identical_to_eval_scalar(spec, lo, hi):
    # 40 nodes takes the array series path; the diagonal takes the band formula
    xs = specfun.gauss_legendre(40, lo, hi).nodes
    gram = kernels.kernel_matrix(spec, xs)
    want = [[kernels.eval_scalar(spec, x, y) for y in xs] for x in xs]
    assert _bits(gram) == _bits(want)


@pytest.mark.parametrize("spec, lo, hi", [(AIRY4, -10.0, 14.9), (SINE4, -4.0, 4.0)])
def test_eval_matrix_broadcast_bit_identical_to_pairs(spec, lo, hi):
    rng = np.random.default_rng(23)
    x = rng.uniform(lo, hi, 12)
    y = rng.uniform(lo, hi, 12)
    y[:4] = x[:4] + np.array([0.0, 1e-9, 3e-5, -2e-5])     # diagonal band
    blocks = kernels.eval_matrix(spec, x, y)
    assert blocks.shape == (12, 2, 2)
    want = [kernels.eval_matrix(spec, float(a), float(b)) for a, b in zip(x, y)]
    assert _bits(blocks) == _bits(want)
    grid = kernels.eval_matrix(spec, x[:5, None], y[None, :3])
    assert grid.shape == (5, 3, 2, 2)
    assert _bits(grid[2, 1]) == _bits(kernels.eval_matrix(spec, float(x[2]), float(y[1])))


@pytest.mark.parametrize("window, amplitude", [
    ((-1.0, 0.0), "0x1.be347867e741ap-4"),
    ((-2.0, 0.0), "0x1.73c089a330943p-2"),
    ((0.0, 1.0), "0x1.13ba2c6b7fbbcp-6"),
])
def test_airy4_envelope_amplitude_pinned(window, amplitude):
    assert kernels._airy4_envelope_amplitude(*window).hex() == amplitude


def test_airy4_blocks_match_pairs_and_separate_tail_integrals():
    # pairs past the series switch (x > 9), past the kernel-tail cut (14.5),
    # on the diagonal and inside the band; a11 against its two tail
    # integrals, each integrated alone as before the shared batch
    x = np.array([9.5, 12.0, 14.7, 15.0, -10.0, -3.2, 0.4, 0.4, 2.0, 11.0])
    y = np.array([-2.0, 12.0, 0.5, -10.0, 9.25, -3.2 + 3e-5, 0.4, 0.4 - 1e-9, 13.0, 11.0 + 2e-4])
    blocks = kernels.eval_matrix(AIRY4, x, y)
    want = [kernels.eval_matrix(AIRY4, float(a), float(b)) for a, b in zip(x, y)]
    assert _bits(blocks) == _bits(want)
    cut = kernels._AIRY_TAIL_CUT
    for (a, b), block in zip(zip(x.tolist(), y.tolist()), blocks):
        ktail = specfun._adaptive_quadrature_batch(
            lambda owner, u, b=b: kernels._airy_kernel(u, b), min(a, cut), cut, 1e-11)[0]
        a11 = -0.5 * ktail + 0.25 * specfun.airy_tail_integral(a) * specfun.airy_tail_integral(b)
        assert block[0, 0] == a11, (a, b)


def test_airy4_envelope_runs_two_airy_series_passes(monkeypatch):
    # one Airy pass per quadrature round of the shared tail batch, whose
    # first round takes the whole intervals with their halves and also
    # covers the entries' own points (6 passes and 267 one-point runs
    # before the batch, 3 passes before the first round took the halves)
    calls = []
    iterate = specfun._iterate

    def counting_iterate(*args):
        calls.append(args[0])
        return iterate(*args)

    monkeypatch.setattr(specfun, "_iterate", counting_iterate)
    amplitude = kernels._airy4_envelope_amplitude.__wrapped__(-1.0, 0.0)
    assert amplitude.hex() == "0x1.be347867e741ap-4"
    assert calls == [specfun._airy_series_step] * 2


def test_airy_majorants_rederived_bit_for_bit():
    assert kernels._AIRY_MAJORANTS == ref.airy_global_majorants()
    assert [v.hex() for v in kernels._AIRY_MAJORANTS] == [
        v.hex() for v in (0.39888262466694224, 0.32924355403876177)]


@pytest.mark.parametrize("window", [(-1.0, 0.0), (-2.0, 0.0), (0.0, 1.0), (-10.0, -5.0),
                                    (-3.0, 3.0), (5.0, 10.0), (-0.5, 12.0), (-10.0, 15.0)])
def test_airy_envelope_broadcast_bit_identical_to_profile_loop(window):
    # the former loop over the 33 window points, one r-profile at a time
    ca, cap = kernels._AIRY_MAJORANTS
    ps = np.linspace(*window, 33)
    ai_all, aip_all = specfun._airy_pairs(ps)
    amp = 0.0
    for p, ai, aip in zip(ps, ai_all.tolist(), aip_all.tolist()):
        q = abs(p)
        rr = np.linspace(0.0, 4.0 * q + 80.0, 1600)
        grow = (2.0 / 3.0) * (q + rr) ** 1.5 - rr ** 1.5
        prof = (abs(aip) * cap * (1.0 + q + rr) ** 0.25 + abs(ai) * ca * (q + rr)) * np.exp(grow)
        amp = max(amp, float(prof.max()))
    assert kernels._airy_envelope_amplitude.__wrapped__(*window) == 1.02 * amp


_NAN = math.nan


@pytest.mark.parametrize("call", [
    lambda: specfun.airy_ai(_NAN),
    lambda: specfun.airy_ai_prime(_NAN),
    lambda: specfun._airy_pairs(np.array([_NAN, 0.0])),
    lambda: specfun.airy_tail_integral(_NAN),
    lambda: specfun.airy_tail_integral(np.array([0.0, _NAN])),
    lambda: specfun.incomplete_gamma_ratio(3, _NAN),
    lambda: specfun.incomplete_gamma_ratio(_NAN, 1.0),
    lambda: specfun.bessel_j(0, _NAN),
    lambda: specfun.bessel_j(_NAN, 1.0),
    lambda: specfun.sinc_antiderivative(_NAN),
    lambda: kernels.eval_scalar(AIRY, _NAN, 0.0),
    lambda: kernels.eval_scalar(BESSEL_HALF, _NAN, 1.0),
    lambda: kernels.eval_scalar(SINE, 0.0, _NAN),
    lambda: kernels.kernel_matrix(AIRY, [0.0, _NAN, 1.0]),
    lambda: kernels.kernel_matrix(BESSEL_HALF, [_NAN, 1.0]),
    lambda: kernels.eval_matrix(AIRY4, _NAN, 0.0),
    lambda: kernels.eval_matrix(AIRY4, np.array([0.0, 1.0]), np.array([_NAN, 0.0])),
    lambda: kernels.eval_complex(GINIBRE, _NAN, 0.0),
    lambda: kernels.eval_complex(GINIBRE, 0.0, complex(1.0, _NAN)),
    lambda: kernels.make_kernel("bessel:s=nan"),
    lambda: kernels.make_kernel("bessel:s=inf"),
])
def test_nan_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_ratio_kernel_broadcasts_like_its_pairs():
    # a (5, 1) column against a (1, 4) row equals the flat pairs, band included
    x = np.array([-1.0, -0.5, 0.0, 0.25, 0.25 + 1e-9])[:, None]
    y = np.array([-0.5, 0.25, 0.7, -1.0 + 2e-5])[None, :]
    grid = kernels._airy_kernel(x, y)
    assert grid.shape == (5, 4)
    xb, yb = np.broadcast_arrays(x, y)
    want = [kernels.eval_scalar(AIRY, a, b) for a, b in zip(xb.ravel(), yb.ravel())]
    assert _bits(grid.ravel()) == _bits(want)
