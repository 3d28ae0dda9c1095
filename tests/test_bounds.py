import json
import math

import numpy as np
import pytest

from dpptails import bounds, exact, kernels
from dpptails.bounds import CertificateError, CoincidentPointsError
from dpptails.kernels import GrowthEnvelope, Interval
from dpptails.specfun import gauss_legendre, sinc, sinc_derivative


SINE = kernels.make_kernel("sine")
AIRY = kernels.make_kernel("airy")
SINE4 = kernels.make_kernel("sine4")
UNIT = Interval(0.0, 1.0)


def sine_eval(x, y):
    return kernels.eval_scalar(SINE, x, y)


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------

def test_dd_base_case():
    t = bounds.divided_differences(sine_eval, [0.3])
    assert t.entries[0, 0] == sine_eval(0.3, 0.3)


def test_dd_identity_function():
    t = bounds.divided_differences(lambda x, y: y, [0.0, 1.0])
    assert np.allclose(t.entries[:, 1], [1.0, 1.0], atol=1e-15)


def test_dd_square_monomial():
    t = bounds.divided_differences(lambda x, y: y * y, [0.0, 1.0, 3.0])
    assert np.allclose(t.entries[:, 2], [1.0, 1.0, 1.0], atol=1e-14)


def test_dd_coincident_points_error():
    with pytest.raises(CoincidentPointsError):
        bounds.divided_differences(sine_eval, [0.5, 0.5 + 1e-13])


def test_det_identity_single_point():
    assert bounds.det_via_divided_differences(sine_eval, [0.7]) == sine_eval(0.7, 0.7)


def test_det_identity_two_points():
    got = bounds.det_via_divided_differences(sine_eval, [0.0, 0.4])
    expect = 1.0 - sinc(0.4) ** 2
    assert abs(got - expect) <= 1e-10


def test_det_identity_five_points_lu_oracle():
    rng = np.random.default_rng(21)
    pts = np.array([0.05, 0.25, 0.45, 0.7, 0.95]) + rng.uniform(-0.02, 0.02, 5)
    direct = float(np.linalg.det(kernels.kernel_matrix(SINE, pts)))
    got = bounds.det_via_divided_differences(sine_eval, list(pts))
    assert abs(got - direct) <= 1e-6 * max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# Cauchy coefficient bounds
# ---------------------------------------------------------------------------

def test_cauchy_l0():
    env = GrowthEnvelope(2.5, 1.3, 1.0)
    assert bounds.cauchy_coefficient_bound(env, 0) == pytest.approx(2.5 * math.e, rel=1e-14)


def test_cauchy_unit_envelope_l2():
    env = GrowthEnvelope(1.0, 1.0, 1.0)
    assert bounds.cauchy_coefficient_bound(env, 2) == pytest.approx(math.e ** 3 / 9.0, rel=1e-13)


def test_cauchy_dominates_factorial_strictly():
    # f = exp has Taylor coefficients 1/n!; the lemma instance must dominate
    env = GrowthEnvelope(1.0, 1.0, 1.0)
    for n in range(0, 41):
        assert 1.0 / math.factorial(n) < bounds.cauchy_coefficient_bound(env, n)


# ---------------------------------------------------------------------------
# derivative maxima
# ---------------------------------------------------------------------------

def test_derivative_bounds_sine_values():
    ml = bounds.derivative_max_bounds(SINE, UNIT, 4)
    assert ml[0].value == pytest.approx(math.e, rel=1e-14)
    assert ml[3].value == pytest.approx(math.e ** 4 * (4.0 / math.pi) ** -3, rel=1e-13)


def test_derivative_bound_grid_search_oracle():
    # third y-derivative of sinc(x - y): |S'''|/3! maximized over a 200^2
    # grid (via finite differences of DS) must stay below the Cauchy bound
    ml = bounds.derivative_max_bounds(SINE, UNIT, 4)
    xs = np.linspace(0.0, 1.0, 200)
    h = 1e-3
    worst = 0.0
    for x in xs[::10]:
        t = x - xs
        d3 = (sinc_derivative(t + h) - 2.0 * sinc_derivative(t) + sinc_derivative(t - h)) / (h * h)
        worst = max(worst, float(np.max(np.abs(d3))) / 6.0)
    assert worst <= ml[3].value


# ---------------------------------------------------------------------------
# integral bounds
# ---------------------------------------------------------------------------

def test_scalar_integral_bound_values():
    assert bounds.scalar_integral_bound(1, UNIT, [1.0]) == pytest.approx(0.0, abs=1e-14)
    got = bounds.scalar_integral_bound(2, Interval(0.0, 2.0), [1.0, 1.0])
    assert got == pytest.approx(math.log(16.0), rel=1e-14)


def test_scalar_integral_bound_tensor_quadrature_oracle():
    # direct 20^3-point tensor quadrature of the iterated determinant
    # integral; the sine kernel has unit diagonal, so the 3x3 minor is
    # [[1,a,b],[a,1,c],[b,c,1]] with det = 1 + 2abc - a^2 - b^2 - c^2
    rule = gauss_legendre(20, 0.0, 1.0)
    x, w = rule.nodes, rule.weights
    g = kernels.kernel_matrix(SINE, x)
    a = g[:, :, None]
    b = g[:, None, :]
    c = g[None, :, :]
    dets = 1.0 + 2.0 * a * b * c - a * a - b * b - c * c
    total = float(np.einsum("i,j,k,ijk->", w, w, w, dets))
    bound_log = bounds.scalar_integral_bound(3, UNIT, bounds.derivative_max_bounds(SINE, UNIT, 3))
    assert abs(total) <= math.exp(bound_log)


def test_matrix_integral_bound_values():
    assert bounds.matrix_integral_bound(2, 1, UNIT, [1.0, 1.0]) == pytest.approx(
        bounds.scalar_integral_bound(2, UNIT, [1.0, 1.0]), abs=1e-12)
    assert bounds.matrix_integral_bound(1, 2, UNIT, [1.0]) == pytest.approx(
        math.log(2.0), rel=1e-14)
    assert bounds.matrix_integral_bound(2, 2, UNIT, [1.0, 1.0]) == pytest.approx(
        math.log(24.0), rel=1e-14)


def test_pfaffian_integral_bound_values():
    assert bounds.pfaffian_integral_bound(1, UNIT, [1.0]) == pytest.approx(
        0.5 * math.log(2.0), rel=1e-14)
    assert bounds.pfaffian_integral_bound(2, UNIT, [1.0, 1.0]) == pytest.approx(
        0.5 * math.log(24.0), rel=1e-14)


def test_pfaffian_vs_matrix_bound_consistency():
    for n in range(1, 7):
        ml = [1.0] * n
        pf = bounds.pfaffian_integral_bound(n, UNIT, ml)
        mat = bounds.matrix_integral_bound(n, 2, UNIT, ml)
        assert pf <= 0.5 * mat + 1e-12


# ---------------------------------------------------------------------------
# pointwise bounds
# ---------------------------------------------------------------------------

def test_pointwise_bound_n1_sine():
    assert bounds.pointwise_det_log_bound(SINE, UNIT, 1) == pytest.approx(1.0, rel=1e-14)


def test_pointwise_bound_dominates_determinant():
    rng = np.random.default_rng(22)
    bound = bounds.pointwise_det_log_bound(SINE, UNIT, 4)
    for _ in range(25):
        pts = np.sort(rng.uniform(0.0, 1.0, 4))
        if np.min(np.diff(pts)) < 1e-3:
            continue
        det = float(np.linalg.det(kernels.kernel_matrix(SINE, pts)))
        assert math.log(max(abs(det), 1e-300)) <= bound
        assert bound - math.log(max(abs(det), 1e-300)) > 0.0


def test_pointwise_pfaffian_bound_dominates():
    rng = np.random.default_rng(23)
    bound = bounds.pointwise_det_log_bound(SINE4, UNIT, 4)
    for _ in range(10):
        pts = np.sort(rng.uniform(0.0, 1.0, 4))
        pf = exact.correlation_function(SINE4, pts)
        assert math.log(max(abs(pf), 1e-300)) <= bound


# ---------------------------------------------------------------------------
# tail bounds and B
# ---------------------------------------------------------------------------

def test_tail_log_bound_base_cases():
    assert bounds.tail_log_bound(SINE, UNIT, 0) == 0.0
    assert bounds.tail_log_bound(SINE, UNIT, 1) == pytest.approx(1.0, rel=1e-14)


def test_tail_log_bound_eventual_decay():
    fn = bounds.tail_log_bound_function(SINE, UNIT)
    assert fn(40) < fn(20)
    # note: the bound still rises between n = 4 and n = 8 for the unit
    # window; the certified decrease only starts past the turning point
    assert fn(8) > fn(4)


def test_tail_log_bound_consistent_with_b():
    b = bounds.b_constant(SINE, UNIT, 64)
    for n in range(1, 65):
        slack = b * n * n - (n * n / 2.0) * math.log(n) - bounds.tail_log_bound(SINE, UNIT, n)
        assert slack >= -1e-10


def test_b_constant_certificate_and_theorem_form():
    b = bounds.b_constant(SINE, UNIT, 64)
    assert math.isfinite(b) and b > 0
    for n in range(1, 65):
        theorem = b * n * n - (n * n / 2.0) * math.log(n)
        assert bounds.tail_log_bound(SINE, UNIT, n) <= theorem + 1e-10


def test_b_constant_window_monotone():
    b1 = bounds.b_constant(SINE, UNIT, 64)
    b2 = bounds.b_constant(SINE, Interval(0.0, 2.0), 64)
    assert b2 >= b1


def test_b_constant_certificate_failure():
    # at n_max = 8 the sine sequence is still rising: certificate must refuse
    with pytest.raises(CertificateError):
        bounds.b_constant(SINE, UNIT, 8)


def test_no_overflow_up_to_128():
    fn = bounds.tail_log_bound_function(SINE, UNIT)
    for n in (1, 32, 64, 128):
        assert math.isfinite(fn(n))


# ---------------------------------------------------------------------------
# Laplace step
# ---------------------------------------------------------------------------

def test_laplace_t0_unit():
    t0, _, _, _ = bounds.laplace_integral_bound(0.5, 1.0, 0.5)
    assert t0 == pytest.approx(1.0, rel=1e-14)


def test_laplace_stationary_identity():
    # S(t0) = delta * t0 on a lambda grid
    for b_tilde, delta in ((0.7, 0.5), (1.0, 1.0), (2.0, 0.25)):
        for lam in np.linspace(0.1, 3.0, 12):
            t0, _, _, _ = bounds.laplace_integral_bound(b_tilde, delta, lam)
            s_t0 = (lam + b_tilde) * t0 - delta * t0 * math.log(t0)
            assert abs(s_t0 - delta * t0) <= 1e-12 * max(1.0, abs(delta * t0))


def _truncated_laplace_integral(b_tilde, delta, lam):
    t0 = math.exp((lam + b_tilde - delta) / delta)
    hi = max(10.0 * t0, 20.0)
    rule = gauss_legendre(400, 1.0, hi)
    expo = (lam + b_tilde) * rule.nodes - delta * rule.nodes * np.log(rule.nodes)
    return float(np.sum(rule.weights * np.exp(expo)))


def test_laplace_bound_dominates_quadrature():
    _, _, _, log_value = bounds.laplace_integral_bound(1.0, 1.0, 1.0)
    numeric = _truncated_laplace_integral(1.0, 1.0, 1.0)
    assert log_value >= math.log(numeric)


def test_laplace_bound_grid_dominance():
    for b_tilde in (0.5, 1.0, 2.0):
        for delta in (0.5, 1.0, 2.0):
            for lam in (0.5, 1.0, 2.0):
                _, _, _, log_value = bounds.laplace_integral_bound(b_tilde, delta, lam)
                numeric = _truncated_laplace_integral(b_tilde, delta, lam)
                assert log_value >= math.log(numeric) - 1e-12


def test_laplace_c1_c2_certificate():
    for b_tilde, delta in ((0.5, 0.25), (1.3, 1.0), (3.0, 0.5)):
        _, c1, c2, _ = bounds.laplace_integral_bound(b_tilde, delta, 1.0)
        for lam in np.linspace(0.0, 10.0, 201):
            _, _, _, log_value = bounds.laplace_integral_bound(b_tilde, delta, max(lam, 1e-12))
            assert log_value <= c1 * math.exp(lam / delta) + c2 + 1e-9


# ---------------------------------------------------------------------------
# exponential-moment bound and c
# ---------------------------------------------------------------------------

def test_exp_moment_bound_vanishes_at_zero():
    assert bounds.exp_moment_log_bound(SINE, UNIT, 0.0) == 0.0
    assert bounds.exp_moment_log_bound(SINE, UNIT, 1e-300) >= 0.0


def test_exp_moment_bound_dominates_exact():
    d = exact.discretize(SINE, UNIT, 160)
    c = exact.count_distribution(exact.spectrum(d))
    exact_log = math.log(exact.exp_moment_sq(c, 0.1))
    assert bounds.exp_moment_log_bound(SINE, UNIT, 0.1) >= exact_log
    lo, up = exact.exp_moment_sq_bracket(c, 0.5, bounds.tail_log_bound_function(SINE, UNIT))
    assert bounds.exp_moment_log_bound(SINE, UNIT, 0.5) >= up


def test_exp_moment_bound_monotone():
    vals = [bounds.exp_moment_log_bound(SINE, UNIT, lam)
            for lam in np.linspace(0.05, 2.0, 20)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_c_constant_dominates_on_fresh_grid():
    c = bounds.c_constant(SINE, UNIT, 3.0)
    # fresh grid: 400 points over the same certified range
    for lam in np.linspace(3.0 / 200.0, 3.0, 400):
        lhs = bounds.exp_moment_log_bound(SINE, UNIT, lam)
        assert lhs <= c * math.expm1(4.0 * lam) * (1.0 + 1e-9)


def test_c_constant_window_monotone():
    c_half = bounds.c_constant(SINE, Interval(0.0, 0.5), 3.0)
    c_unit = bounds.c_constant(SINE, UNIT, 3.0)
    assert c_half <= c_unit


# ---------------------------------------------------------------------------
# combination lemma and Poisson reference
# ---------------------------------------------------------------------------

def test_combination_d_exponential_psi():
    d = bounds.combination_d(math.e, 1.0)
    assert d == pytest.approx(math.e ** math.e, rel=1e-12)


def test_combination_d_inequality_grid():
    # Psi(lam) = e^lam: min(e^Psi, 1 + lam e^Psi) <= e^{d (Psi - 1)},
    # compared in log space to survive the doubly-exponential right side
    d = bounds.combination_d(math.e, 1.0)
    for lam in np.linspace(0.0, 5.0, 26):
        psi = math.exp(lam)
        log_lhs = min(psi, math.log1p(lam * math.exp(psi)))
        assert log_lhs <= d * (psi - 1.0) + 1e-12


def test_combination_d_divergence():
    assert bounds.combination_d(1.0 + 1e-9, 1.0) > 1e8
    with pytest.raises(ValueError):
        bounds.combination_d(1.0, 1.0)


def test_poisson_exp_moment():
    assert bounds.poisson_exp_moment(2.0, 0.0) == 0.0
    assert bounds.poisson_exp_moment(1.0, math.log(2.0)) == pytest.approx(1.0, rel=1e-14)


def test_poisson_series_oracle():
    theta, lam = 2.0, 1.0
    series = sum(math.exp(lam * k) * math.exp(-theta) * theta ** k / math.factorial(k)
                 for k in range(101))
    assert bounds.poisson_exp_moment(theta, lam) == pytest.approx(math.log(series), abs=1e-10)


def test_super_multiplicativity_probe():
    c = 1.7
    phi = lambda lam: c * math.expm1(lam)  # log Phi
    for l1 in np.linspace(0.1, 2.0, 8):
        for l2 in np.linspace(0.1, 2.0, 8):
            assert phi(l1) + phi(l2) <= phi(l1 + l2) + 1e-12


# ---------------------------------------------------------------------------
# dominance chain and report
# ---------------------------------------------------------------------------

def test_dominance_chain_small_n():
    d = exact.discretize(SINE, UNIT, 160)
    c = exact.count_distribution(exact.spectrum(d))
    b = bounds.b_constant(SINE, UNIT, 64)
    for n in range(1, 9):
        ex = exact.tail(c, n)
        chained = bounds.tail_log_bound(SINE, UNIT, n)
        theorem = b * n * n - (n * n / 2.0) * math.log(n)
        assert math.log(max(ex, 1e-300)) <= chained + 1e-9
        assert chained <= theorem + 1e-9


def test_bound_report_schema():
    rep = bounds.build_bound_report(SINE, UNIT, n_max=64, lambda_max=2.0)
    payload = rep.to_json_dict()
    assert sorted(payload.keys()) == sorted(
        ["kernel", "window", "sigma", "B", "B_tilde", "delta", "c1", "c2", "c", "d", "table"])
    assert payload["sigma"] == 1.0
    assert len(payload["table"]) == 64
    json.dumps(payload)  # serializable
    assert math.isfinite(rep.c_single_sigma)


def test_bound_report_airy():
    rep = bounds.build_bound_report(AIRY, Interval(-1.0, 0.0), n_max=64, lambda_max=2.0)
    assert rep.sigma == 1.5
    assert rep.delta == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_block_kernel_report_with_late_turn():
    # the airy4 maximand crests only near n ~ 430, so n_max = 64 must refuse
    # and a larger horizon must certify; the chain is O(n_max) and stays cheap
    a4 = kernels.make_kernel("airy4")
    win = Interval(-1.0, 0.0)
    with pytest.raises(CertificateError):
        bounds.b_constant(a4, win, 64)
    rep = bounds.build_bound_report(a4, win, n_max=2048, lambda_max=2.0)
    assert rep.sigma == 1.5
    assert math.isfinite(rep.c_moment) and rep.c_moment > 0


# the five benchmark certification cases at the CLI default lambda_max = 2;
# constants as float.hex, captured from the per-n tail table code they replace
CERTIFY_CASES = {
    "sine": ((0.0, 1.0), 64),
    "airy": ((-1.0, 0.0), 64),
    "bessel:s=0.5": ((0.5, 2.0), 64),
    "sine4": ((0.0, 1.0), 256),
    "airy4": ((-1.0, 0.0), 2048),
}

PINNED_CONSTANTS = {
    "sine": {"B": "0x1.5962944c8cc16p+0", "B_tilde": "0x1.5962944c8cc16p+2",
             "delta": "0x1.0000000000000p-2", "c1": "0x1.d3e6fb504cdf8p+27",
             "c2": "-0x1.9fe9ae22c23cbp+24", "d": "0x1.8c0a2c3ad6d18p+6"},
    "airy": {"B": "0x1.38fa63fa8d292p+0", "B_tilde": "0x1.38fa63fa8d292p+2",
             "delta": "0x1.5555555555555p-3", "c1": "0x1.636bdbaccec4dp+38",
             "c2": "-0x1.3bee189609467p+35", "d": "0x1.ef98463e382a9p+8"},
    "bessel:s=0.5": {"B": "0x1.0582b0cb79822p+0", "B_tilde": "0x1.0582b0cb79822p+2",
                     "delta": "0x1.0000000000000p-2", "c1": "0x1.3cc15810e98f1p+20",
                     "c2": "-0x1.1987a2141af2ap+17", "d": "0x1.8c0a2c3ad6d18p+6"},
    "sine4": {"B": "0x1.cc53f89291340p+0", "B_tilde": "0x1.cc53f89291340p+2",
              "delta": "0x1.0000000000000p-2", "c1": "0x1.2d23bda8c4216p+38",
              "c2": "-0x1.0badfde7d9355p+35", "d": "0x1.8c0a2c3ad6d18p+6"},
    "airy4": {"B": "0x1.55ba63204965ep-1", "B_tilde": "0x1.55ba63204965ep+1",
              "delta": "0x1.5555555555555p-3", "c1": "0x1.30e07cb4cf1a8p+19",
              "c2": "-0x1.0ef130fc9a339p+16", "d": "0x1.ef98463e382a9p+8"},
}

# (c, c_single_sigma) from the former bisection, which stopped within
# relative 1e-6 above the smallest dominating value
BISECTION_C = {
    "sine": ("0x1.4b79700000000p+32", "0x1.7b02e00000000p+36"),
    "airy": ("0x1.5310c00000000p+42", "0x1.48dff00000000p+51"),
    "bessel:s=0.5": ("0x1.c0ccb00000000p+24", "0x1.0094300000000p+29"),
    "sine4": ("0x1.aaaba00000000p+42", "0x1.e7dc000000000p+46"),
    "airy4": ("0x1.22da300000000p+23", "0x1.1a1b000000000p+32"),
}


def _certify_case(name):
    (a, b), n_max = CERTIFY_CASES[name]
    return kernels.make_kernel(name), Interval(a, b), n_max


@pytest.fixture(scope="module")
def certify_reports():
    return {name: bounds.build_bound_report(*_certify_case(name), lambda_max=2.0)
            for name in CERTIFY_CASES}


@pytest.mark.parametrize("name", ["sine4", "airy4"])
def test_tail_chain_single_formula(name, certify_reports):
    spec, win, n_max = _certify_case(name)
    rows = certify_reports[name].per_n_log_bounds
    fn = bounds.tail_log_bound_function(spec, win)
    assert all(fn(n) == lb for n, lb in rows)
    # tail_log_bound(n) costs n Cauchy bounds; probe a stride of the long table
    ns = range(1, n_max + 1) if n_max <= 256 else [*range(1, n_max + 1, 31), n_max]
    assert all(bounds.tail_log_bound(spec, win, n) == rows[n - 1][1] for n in ns)


@pytest.mark.parametrize("name", sorted(CERTIFY_CASES))
def test_report_constants_pinned(name, certify_reports):
    rep = certify_reports[name].to_json_dict()
    assert {key: rep[key].hex() for key in PINNED_CONSTANTS[name]} == PINNED_CONSTANTS[name]


def test_bound_report_chain_is_linear(monkeypatch):
    calls = [0]
    orig = bounds.log_cauchy_coefficient_bound

    def counted(env, l):
        calls[0] += 1
        return orig(env, l)

    monkeypatch.setattr(bounds, "log_cauchy_coefficient_bound", counted)
    bounds.build_bound_report(kernels.make_kernel("airy4"), Interval(-1.0, 0.0),
                              n_max=2048, lambda_max=2.0)
    assert 0 < calls[0] <= 8 * 2048


@pytest.mark.parametrize("name", sorted(CERTIFY_CASES))
def test_c_closed_form_has_no_grid_slack(name, certify_reports):
    spec, win, n_max = _certify_case(name)
    rep = certify_reports[name]
    lams = [2.0 * (k + 1) / 200 for k in range(200)]
    bls = [bounds.exp_moment_log_bound(spec, win, lam, n_max) for lam in lams]
    for c, scale, old in ((rep.c_moment, 4.0, BISECTION_C[name][0]),
                          (rep.c_single_sigma, 1.0, BISECTION_C[name][1])):
        growth = [math.expm1(min(700.0, scale * rep.sigma * lam)) for lam in lams]
        assert all(bl <= c * g for bl, g in zip(bls, growth))
        below = math.nextafter(c, 0.0)
        assert not all(bl <= below * g for bl, g in zip(bls, growth))
        old = float.fromhex(old)
        assert (1.0 - 1e-6) * old <= c <= old


def test_airy_b_over_window_family():
    # uniformity of B over unit windows in a fixed half-line is only probed
    # over a finite family; each member must at least be finite and certified
    vals = [bounds.b_constant(AIRY, Interval(a, a + 1.0), 64)
            for a in (-2.0, -1.0, 0.0, 1.0)]
    assert all(math.isfinite(v) for v in vals)
    # windows further right see a smaller kernel, so B should not blow up
    assert max(vals) < 4.0 * max(1.0, min(vals))


def test_report_theorem_and_moment_forms_dominate():
    rep = bounds.build_bound_report(SINE, UNIT, n_max=64, lambda_max=2.0)
    gaps = [rep.theorem_log_bound(n) - lb for n, lb in rep.per_n_log_bounds]
    assert min(gaps) >= -1e-12 * abs(rep.b_tail) * 64 * 64
    assert min(gaps) == pytest.approx(0.0, abs=1e-9)   # B is attained at some n
    for lam in [2.0 * (k + 1) / 200 for k in range(0, 200, 20)]:
        assert bounds.exp_moment_log_bound(SINE, UNIT, lam) <= rep.moment_log_bound(lam)
