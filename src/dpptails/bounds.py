"""Tail and exponential-moment bound machinery with explicit constants.

The chain: divided differences factor the kernel determinant through a
Vandermonde factor, Cauchy coefficient estimates for entire functions bound
the divided differences, the factorial-moment identity turns the integral
bound into a tail bound, and a Laplace-transform step converts tails into
exponential moments of the squared particle count.  Every existence
constant along the way (B, B-tilde, delta, c1, c2, c, d) is produced as an
explicit number with a machine-checkable dominance certificate.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import GrowthEnvelope, factorization, growth_envelope

__all__ = [
    "DividedDifferenceTable",
    "DerivativeMaxBound",
    "BoundReport",
    "CoincidentPointsError",
    "CertificateError",
    "divided_differences",
    "det_via_divided_differences",
    "cauchy_coefficient_bound",
    "log_cauchy_coefficient_bound",
    "derivative_max_bounds",
    "scalar_integral_bound",
    "matrix_integral_bound",
    "pfaffian_integral_bound",
    "pointwise_det_log_bound",
    "tail_log_bound",
    "tail_log_bound_function",
    "b_constant",
    "rewrite_b_tilde",
    "laplace_integral_bound",
    "exp_moment_log_bound",
    "c_constant",
    "combination_d",
    "poisson_exp_moment",
    "build_bound_report",
]

_MIN_GAP = 1e-12


class CoincidentPointsError(ValueError):
    """Divided differences need pairwise-distinct points; never perturbed."""


class CertificateError(RuntimeError):
    """A dominance/turning-point certificate failed; enlarge the search."""


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DividedDifferenceTable:
    """Q[i][l] = Pi[x_i; x_1..x_{l+1}] (0-based indices, full square table).

    The determinant identity needs every column for every row, so the whole
    n x n table is stored rather than only the triangular half.
    """

    points: tuple
    entries: np.ndarray


def _check_points(points):
    pts = [float(p) for p in points]
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(pts[i] - pts[j]) <= _MIN_GAP:
                raise CoincidentPointsError(
                    f"points {i} and {j} coincide within {_MIN_GAP}: {pts[i]} vs {pts[j]}")
    return pts


def divided_differences(evaluator, points):
    """Fill the divided-difference table by the first-vs-last recursion
    d[j][k] = (d[j][k-1] - d[j+1][k]) / (x_j - x_k) along the second slot."""
    pts = _check_points(points)
    n = len(pts)
    q = np.empty((n, n))
    for i in range(n):
        # tableau over contiguous blocks of the interpolation points
        d = {(j, j): float(evaluator(pts[i], pts[j])) for j in range(n)}
        for width in range(1, n):
            for j in range(n - width):
                k = j + width
                d[(j, k)] = (d[(j, k - 1)] - d[(j + 1, k)]) / (pts[j] - pts[k])
        q[i, :] = [d[(0, l)] for l in range(n)]
    return DividedDifferenceTable(tuple(pts), q)


def det_via_divided_differences(evaluator, points):
    """Vandermonde times the divided-difference determinant.

    Equals det(Pi(x_i, x_j)) exactly; the Vandermonde orientation is
    prod_{i<j}(x_j - x_i), the one under which the column reduction is a
    determinant-preserving identity.
    """
    pts = _check_points(points)
    n = len(pts)
    if n > 12:
        raise ValueError("det_via_divided_differences supports n <= 12")
    table = divided_differences(evaluator, pts)
    vand = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            vand *= pts[j] - pts[i]
    return vand * float(np.linalg.det(table.entries))


# ---------------------------------------------------------------------------
# Cauchy coefficient estimates
# ---------------------------------------------------------------------------

def log_cauchy_coefficient_bound(env, l):
    """log of A e^{l+1} ((l+1)/M)^{-l/sigma}."""
    l = int(l)
    if l < 0:
        raise ValueError("need l >= 0")
    return math.log(env.amplitude) + (l + 1) - (l / env.order) * math.log((l + 1) / env.scale)


def cauchy_coefficient_bound(env, l):
    """Taylor-coefficient bound A e^{l+1} ((l+1)/M)^{-l/sigma} from the
    Cauchy formula on the circle of radius ((l+1)/M)^{1/sigma}."""
    return math.exp(log_cauchy_coefficient_bound(env, l))


@dataclass(frozen=True)
class DerivativeMaxBound:
    """Upper bound for m_l = (1/l!) max |d^l_y kernel| on the window."""

    order: int
    value: float
    log_value: float


def _resolve_envelope(spec, window):
    if isinstance(spec, GrowthEnvelope):
        return spec
    return growth_envelope(spec, window)


def derivative_max_bounds(spec, window, n):
    """m_l bounds, l = 0..n-1, from the kernel's growth envelope.

    The expansion is centered anywhere in the window; Assumption-style
    envelopes are uniform over centers, so one Cauchy bound serves all l.
    Accepts a KernelSpec or a bare GrowthEnvelope.
    """
    env = _resolve_envelope(spec, window)
    out = []
    for l in range(int(n)):
        lv = log_cauchy_coefficient_bound(env, l)
        out.append(DerivativeMaxBound(l, math.exp(lv) if lv < 700 else math.inf, lv))
    return out


def _log_ml_sum(ml, n):
    logs = []
    for item in ml[:n]:
        if isinstance(item, DerivativeMaxBound):
            logs.append(item.log_value)
        else:
            logs.append(math.log(float(item)))
    if len(logs) < n:
        raise ValueError(f"need at least {n} derivative bounds, got {len(logs)}")
    return float(sum(logs))


# ---------------------------------------------------------------------------
# integral and pointwise bounds (all in log space)
# ---------------------------------------------------------------------------

def scalar_integral_bound(n, window, ml):
    """log of |I|^{n(n+1)/2} n! prod m_l, the iterated-integral bound."""
    n = int(n)
    return (n * (n + 1) / 2.0) * math.log(window.length) + math.lgamma(n + 1.0) \
        + _log_ml_sum(ml, n)


def matrix_integral_bound(n, r, window, ml):
    """log of |I|^{n + r n(n-1)/2} (rn)! (prod m_l)^r for r x r blocks."""
    n, r = int(n), int(r)
    return (n + r * n * (n - 1) / 2.0) * math.log(window.length) \
        + math.lgamma(r * n + 1.0) + r * _log_ml_sum(ml, n)


def pfaffian_integral_bound(n, window, ml):
    """log of |I|^{n(n+1)/2} sqrt((2n)!) prod m_l.

    Cauchy-Schwarz against the r = 2 matrix bound and Pf^2 = det; the
    derivative maxima here carry the same 1/l! normalization as the scalar
    case, which is the form the Cauchy-Schwarz route certifies.
    """
    n = int(n)
    return (n * (n + 1) / 2.0) * math.log(window.length) \
        + 0.5 * math.lgamma(2 * n + 1.0) + _log_ml_sum(ml, n)


def _sup_density(spec, window):
    if isinstance(spec, GrowthEnvelope):
        return 1.0
    if getattr(spec, "block_size", 1) == 2 or getattr(spec, "kind", "") == "ginibre":
        return 1.0
    return factorization(spec, window).sup_density


def pointwise_det_log_bound(spec, window, n):
    """log bound for |det Pi(x_i, x_j)| at any points in the window
    (scalar kernels), or log |Pf K(x_i, x_j)| for 2x2-block kernels."""
    n = int(n)
    ml = derivative_max_bounds(spec, window, n)
    base = (n * (n - 1) / 2.0) * math.log(window.length) + _log_ml_sum(ml, n)
    if getattr(spec, "block_size", 1) == 2:
        return base + 0.5 * math.lgamma(2 * n + 1.0)
    sup_rho = _sup_density(spec, window)
    return base + math.lgamma(n + 1.0) + 2.0 * n * math.log(sup_rho)


def tail_log_bound_function(spec, window):
    """Callable n -> certified log bound for P(count in window >= n).

    The factorial-moment identity gives P(# >= n) <= (1/n!) int det, and the
    n! cancels against the integral bound's n!; the density factor
    contributes (sup rho)^{2n}.  For 2x2-block kernels the Pfaffian variant
    sqrt((2n)!)/n! replaces the cancellation.  This is the only place the
    formula lives: the running sum over log Cauchy coefficient bounds is
    extended lazily and kept in the closure, so sweeping n = 1..N costs N
    Cauchy bounds in total, however far N runs (moment-bracket tails reach
    the tens of thousands).  Values are 0.0 for n <= 0.
    """
    env = _resolve_envelope(spec, window)
    log_len = math.log(window.length)
    block = getattr(spec, "block_size", 1) == 2
    log_rho = 0.0 if block else math.log(_sup_density(spec, window))
    tails = [0.0]
    cum = 0.0

    def fn(n):
        nonlocal cum
        n = int(n)
        if n <= 0:
            return 0.0
        while len(tails) <= n:
            m = len(tails)
            cum += log_cauchy_coefficient_bound(env, m - 1)
            base = (m * (m + 1) / 2.0) * log_len + cum
            if block:
                base += 0.5 * math.lgamma(2 * m + 1.0) - math.lgamma(m + 1.0)
            else:
                base += 2.0 * m * log_rho
            tails.append(base)
        return tails[n]

    return fn


def tail_log_bound(spec, window, n):
    """Certified log bound for P(count in window >= n): the value at n of
    the tail_log_bound_function chain, bit for bit.  Costs n Cauchy bounds;
    sweeps over n should call tail_log_bound_function once instead."""
    return tail_log_bound_function(spec, window)(n)


# ---------------------------------------------------------------------------
# the constant B and the t log t rewrite
# ---------------------------------------------------------------------------

def _b_from_tails(sigma, tails):
    """B and its certificate from the chain values tails[n-1], n = 1..n_max."""
    n_max = len(tails)
    if n_max < 8:
        raise ValueError("need n_max >= 8")
    s = [(tails[n - 1] + (n * n / (2.0 * sigma)) * math.log(n)) / (n * n)
         for n in range(1, n_max + 1)]
    k = max(4, n_max // 4)
    tail_part = s[-k:]
    if any(tail_part[i + 1] >= tail_part[i] for i in range(len(tail_part) - 1)):
        raise CertificateError(
            f"s_n has not turned strictly decreasing by n_max={n_max}; raise n_max")
    if max(s) == max(tail_part) and s[-1] == max(tail_part):
        raise CertificateError(f"maximum still at the boundary n_max={n_max}; raise n_max")
    return max(s)


def b_constant(spec, window, n_max=64):
    """Smallest certified B with P(# >= n) <= exp(B n^2 - n^2 log(n)/(2 sigma)).

    B is the running maximum of s_n = (tail_log_bound(n) + n^2 log(n)/(2
    sigma))/n^2 over n <= n_max; the sequence converges and turns strictly
    decreasing, and the certificate checks that the final quarter of the
    range is already past the turning point so the maximum is global.
    """
    tail = tail_log_bound_function(spec, window)
    return _b_from_tails(_resolve_envelope(spec, window).order,
                         [tail(n) for n in range(1, int(n_max) + 1)])


def rewrite_b_tilde(b, sigma):
    """Coefficients (B_tilde, delta) with P(#^2 >= t) <= exp(B_tilde t - delta t log t).

    From n = ceil(sqrt t): n^2 <= t + 3 sqrt(t) <= 4t and n^2 log n^2 >=
    t log t for t >= 1, so delta = 1/(4 sigma) and B_tilde = B + 3 max(B, 0)
    (the sqrt(t) overshoot of the ceiling is absorbed linearly).  A looser
    t/sigma coefficient with B_tilde = B is sometimes quoted but is not
    certified by these steps; reports carry this flag.
    """
    return b + 3.0 * max(b, 0.0), 1.0 / (4.0 * sigma)


# ---------------------------------------------------------------------------
# Laplace step
# ---------------------------------------------------------------------------

def laplace_integral_bound(b_tilde, delta, lam):
    """Bound for int_1^inf exp(lam t + B_tilde t - delta t log t) dt.

    The exponent S(t) = (lam + B_tilde) t - delta t log t is concave with
    maximum at t0 = exp((lam + B_tilde - delta)/delta) where S(t0) = delta t0;
    the integral is at most (5 t0/4 + 1/(delta log(5/4))) e^{S(t0)}.
    Also returns lambda-independent (c1, c2) with
    log_value <= c1 exp(lam/delta) + c2 for every lam >= 0.
    """
    if delta <= 0:
        raise ValueError("need delta > 0")
    if lam < 0:
        raise ValueError("need lam >= 0")
    kappa = math.exp((b_tilde - delta) / delta)
    t0 = kappa * math.exp(lam / delta)
    c_l = 1.0 / (delta * math.log(1.25))
    log_value = delta * t0 + math.log(1.25 * t0 + c_l)
    # c1 u + c2 >= delta kappa u + log((5 kappa/4) u + C_L) on u >= 1 with
    # slack eta = delta kappa / 8 absorbing the logarithm
    c1 = 1.125 * delta * kappa
    eta = delta * kappa / 8.0
    a_lin = 1.25 * kappa
    u_star = max(1.0, (10.0 / delta - c_l) / a_lin)
    c2 = math.log(a_lin * u_star + c_l) - eta * u_star
    return t0, c1, c2, log_value


def _exp_moment_log_bound(b_tilde, delta, lam):
    lam = float(lam)
    if lam <= 0:
        return 0.0
    _, _, _, log_int = laplace_integral_bound(b_tilde, delta, lam)
    inner = math.log(lam) - lam + log_int
    if inner > 700.0:
        return inner
    return math.log1p(math.exp(inner))


def exp_moment_log_bound(spec, window, lam, n_max=64):
    """Certified upper bound for log E exp(lam * count^2).

    Summation by parts gives E = 1 + int_1^inf lam e^{lam(t-1)} P(#^2 >= t) dt;
    the rewritten tail bound and the Laplace step bound the integral, and the
    result is log(1 + lam e^{-lam} e^{L(lam)}) evaluated stably.
    """
    if float(lam) <= 0:
        return 0.0
    b_tilde, delta = rewrite_b_tilde(b_constant(spec, window, n_max),
                                     _resolve_envelope(spec, window).order)
    return _exp_moment_log_bound(b_tilde, delta, lam)


def _c_from_b(b, sigma, lambda_max, exponent_scale, grid_points):
    lambda_max = float(lambda_max)
    if lambda_max <= 1.0:
        raise ValueError("need lambda_max > 1")
    b_tilde, delta = rewrite_b_tilde(b, sigma)
    lams = [lambda_max * (k + 1) / grid_points for k in range(grid_points)]
    bound_logs = [_exp_moment_log_bound(b_tilde, delta, lam) for lam in lams]
    growth = [math.expm1(min(700.0, exponent_scale * sigma * lam)) for lam in lams]

    def dominates(c):
        return all(bl <= c * g for bl, g in zip(bound_logs, growth))

    # the quotients are rounded to nearest, and so are the products c * g:
    # move by single doubles to the smallest c that dominates in floating point
    c = max(0.0, max(bl / g for bl, g in zip(bound_logs, growth)))
    while c > 0.0 and dominates(math.nextafter(c, 0.0)):
        c = math.nextafter(c, 0.0)
    while math.isfinite(c) and not dominates(c):
        c = math.nextafter(c, math.inf)
    if not math.isfinite(c):
        raise CertificateError("no finite c dominates on the grid")
    return c


def c_constant(spec, window, lambda_max, exponent_scale=4.0, grid_points=200,
               n_max=64):
    """Smallest double c with
    exp_moment_log_bound(lam) <= c (exp(exponent_scale * sigma * lam) - 1)
    on the uniform grid lam in {lambda_max/grid_points .. lambda_max}.

    c is the grid maximum of bound/growth in closed form, moved to the
    smallest double whose products dominate every grid point in floating
    point; it has no slack on the grid.  exponent_scale = 4 is the rigorous
    exponent from delta = 1/(4 sigma); exponent_scale = 1 fits the
    single-sigma curve for side-by-side reporting.  The certificate holds on
    the grid range; the ratio diverges like e^{L(0)}/lam as lam -> 0+, so no
    finite c covers arbitrarily small lam.
    """
    sigma = _resolve_envelope(spec, window).order
    return _c_from_b(b_constant(spec, window, n_max), sigma, lambda_max,
                     exponent_scale, grid_points)


def combination_d(psi_at_1, psi_prime_at_0):
    """Constant d of the convex-function lemma:
    min(e^{Psi}, 1 + lam e^{Psi}) <= e^{d (Psi - 1)} for increasing convex
    Psi with Psi(0) = 1, via d >= Psi(1)/(Psi(1)-1) and d >= e^{Psi(1)}/Psi'(0)."""
    if psi_at_1 <= 1.0:
        raise ValueError("need Psi(1) > 1")
    if psi_prime_at_0 <= 0.0:
        raise ValueError("need Psi'(0) > 0")
    return max(psi_at_1 / (psi_at_1 - 1.0),
               math.exp(min(700.0, psi_at_1)) / psi_prime_at_0)


def poisson_exp_moment(theta, lam):
    """log E exp(lam * Poisson(theta)) = theta (e^lam - 1)."""
    if theta <= 0:
        raise ValueError("need theta > 0")
    return theta * math.expm1(lam)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    kernel: str
    window: tuple
    sigma: float
    b_tail: float
    b_tilde: float
    delta: float
    c1: float
    c2: float
    c_moment: float
    d_combine: float
    per_n_log_bounds: list
    c_single_sigma: float = float("nan")
    exponent_note: str = field(default=(
        "the certified rewrite has delta = 1/(4 sigma), hence exponent exp(4 lambda sigma); "
        "a fit against the single-sigma curve exp(lambda sigma) - 1 is reported alongside"))

    def __post_init__(self):
        vals = [self.sigma, self.b_tail, self.b_tilde, self.delta, self.c1,
                self.c2, self.c_moment, self.d_combine]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("all report constants must be finite")
        logs = [lb for _, lb in self.per_n_log_bounds]
        k = max(2, len(logs) // 4)
        tail_part = logs[-k:]
        if any(tail_part[i + 1] >= tail_part[i] for i in range(len(tail_part) - 1)):
            raise ValueError(
                "per_n_log_bounds has not turned strictly decreasing; raise n_max "
                "(long windows and block kernels can need n_max in the thousands)")

    def theorem_log_bound(self, n):
        """Theorem form of the log-tail bound: B n^2 - n^2 log(n) / (2 sigma)."""
        return self.b_tail * n * n - (n * n / (2.0 * self.sigma)) * math.log(n)

    def moment_log_bound(self, lam):
        """Moment bound c (e^{4 sigma lam} - 1) on log E exp(lam * count^2)."""
        return self.c_moment * math.expm1(min(700.0, 4.0 * self.sigma * lam))

    def to_json_dict(self):
        return {
            "kernel": self.kernel,
            "window": [self.window[0], self.window[1]],
            "sigma": self.sigma,
            "B": self.b_tail,
            "B_tilde": self.b_tilde,
            "delta": self.delta,
            "c1": self.c1,
            "c2": self.c2,
            "c": self.c_moment,
            "d": self.d_combine,
            "table": [{"n": n, "log_bound": lb} for n, lb in self.per_n_log_bounds],
        }


def build_bound_report(spec, window, n_max=64, lambda_max=3.0):
    """Assemble every constant for one kernel/window into a BoundReport.

    One tail chain serves the table, B and, through B, every constant after
    it, so a report costs n_max Cauchy bounds.
    """
    sigma = growth_envelope(spec, window).order
    tail = tail_log_bound_function(spec, window)
    table = [(n, tail(n)) for n in range(1, int(n_max) + 1)]
    b = _b_from_tails(sigma, [lb for _, lb in table])
    b_tilde, delta = rewrite_b_tilde(b, sigma)
    _, c1, c2, _ = laplace_integral_bound(b_tilde, delta, 1.0)
    c = _c_from_b(b, sigma, lambda_max, 4.0, 200)
    c_sigma = _c_from_b(b, sigma, lambda_max, 1.0, 200)
    # lemma constant for the normalized exponent curve (Psi(0)=1, Psi(1)=2)
    psi1 = 2.0
    psi_prime0 = (1.0 / delta) / math.expm1(1.0 / delta)
    d = combination_d(psi1, psi_prime0)
    return BoundReport(
        kernel=getattr(spec, "identifier", "custom"),
        window=(float(window.a), float(window.b)),
        sigma=sigma,
        b_tail=b,
        b_tilde=b_tilde,
        delta=delta,
        c1=c1,
        c2=c2,
        c_moment=c,
        d_combine=d,
        per_n_log_bounds=table,
        c_single_sigma=c_sigma,
    )
