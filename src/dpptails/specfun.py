"""Self-contained special functions and quadrature rules.

Everything downstream (kernel evaluation, Nystrom discretization, bound
constants) consumes these routines, so they avoid external special-function
libraries.  Core series are accumulated in compensated double-double
arithmetic: several consumers (finite-difference residual tests, ratio-form
kernel diagonals) need results correct to within a few ulp, which a plain
double accumulation of badly cancelling series cannot deliver (`_dd` holds
that arithmetic).  The Airy and Bessel kernel series run on whole arrays of
points and the adaptive quadrature on arrays of intervals, each value
bit-identical to a run of its point or interval alone.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._dd import (
    _dd_add,
    _dd_add_to,
    _dd_div_d,
    _dd_div_d_to,
    _dd_mul,
    _dd_mul_to,
    _split,
    _two_prod,
)

__all__ = [
    "QuadratureRule",
    "EvalAccuracy",
    "WORKING_RANGES",
    "DomainError",
    "ConvergenceError",
    "sinc",
    "sinc_derivative",
    "sinc_antiderivative",
    "bessel_j",
    "airy_ai",
    "airy_ai_prime",
    "airy_tail_integral",
    "incomplete_gamma_ratio",
    "gauss_legendre",
]


class DomainError(ValueError):
    """Argument outside the documented working range."""


class ConvergenceError(RuntimeError):
    """An internal iteration failed to converge; signals a defect."""


_LOG_MAX = math.log(sys.float_info.max)  # exp(x) is finite exactly up to here


# ---------------------------------------------------------------------------
# accuracy registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalAccuracy:
    """Certified accuracy envelope of one routine on its working range."""

    abs_tol: float
    rel_tol: float
    working_range: tuple

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


WORKING_RANGES = {
    # |fl(pi t) - pi t| <= 1.5e-16 |pi t| moves sin(pi t) by as much: 1.5e-16
    # absolute near the zeros; (u cos u - sin u) / (pi t^2) keeps the
    # 2.5 eps |u| rounding of its numerator, 2.5 eps / |t| <= 5.5e-12 at the cut
    "sinc": EvalAccuracy(2e-16, 1e-12, (-math.inf, math.inf)),
    "sinc_derivative": EvalAccuracy(6e-12, 1e-12, (-math.inf, math.inf)),
    "sinc_antiderivative": EvalAccuracy(1e-14, 1e-10, (-50.0, 50.0)),
    # the ascending series loses digits to cancellation beyond x = 40
    # (see bessel_j docstring), so the range stops there
    "bessel_j": EvalAccuracy(1e-300, 1e-10, (0.0, 40.0)),
    "airy_ai": EvalAccuracy(1e-300, 1e-9, (-20.0, 15.0)),
    "airy_tail_integral": EvalAccuracy(1e-11, 1e-9, (-10.0, math.inf)),
}


def _check_range(x, name, low=None, high=None):
    """DomainError unless every point of x (a float or an array) lies in
    [low, high], by default the working range WORKING_RANGES[name]; NaN lies
    in none."""
    if low is None:
        low, high = WORKING_RANGES[name].working_range
    x = np.ravel(x)
    bad = ~((x >= low) & (x <= high))
    if bad.any():
        raise DomainError(f"{name} working range is [{low}, {high}], got {x[bad][0]}")


def _moment_lambda(lam):
    """lam as a float for a moment of exp(lam count^2); anything but a finite
    lam >= 0 (NaN, inf) is a ValueError."""
    lam = float(lam)
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"need a finite lam >= 0, got {lam}")
    return lam


# ---------------------------------------------------------------------------
# sinc family:  S(t) = sin(pi t) / (pi t),  DS = S',  IS(t) = int_0^t S
# ---------------------------------------------------------------------------

_SMALL_T = 1e-4
# doubles beyond 2^53 are even integers, where sin(pi t) = 0 and cos(pi t) = 1;
# from _HUGE_T on those exact values replace pi t and t^2, which overflow
_HUGE_T = 2.0 ** 256


def _finite_t(name, t):
    """t as a new float array; NaN and +-inf raise DomainError."""
    t_arr = np.array(t, dtype=float)
    bad = ~np.isfinite(t_arr)
    if bad.any():
        raise DomainError(f"{name} requires finite t, got {t_arr[bad][0]}")
    return t_arr


def _sinc_masks(t):
    """The masks |t| < _SMALL_T and |t| >= _HUGE_T of a float array t."""
    mag = np.abs(t)
    return mag < _SMALL_T, mag >= _HUGE_T


def _sinc_argument(name, t):
    """(t, small, huge, u, us): t as a float array (NaN and +-inf raise
    DomainError), the masks of `_sinc_masks`, u = pi t with the huge points
    at pi, and us = u on the small points, 0 elsewhere."""
    t_arr = _finite_t(name, t)
    small, huge = _sinc_masks(t_arr)
    u = np.pi * np.where(huge, 1.0, t_arr)
    return t_arr, small, huge, u, np.where(small, u, 0.0)


def _sinc_core(t, out=None):
    """sinc at the points of t, a float array without NaN that it overwrites
    (an inf counts as huge): the series on the points |t| < _SMALL_T only,
    sin(u)/u with u = pi t into `out` (a new array by default) elsewhere,
    and 0 from _HUGE_T on.  `sinc` runs it on a copy, `kernels` on its own
    |x - y| buffer and the output rows."""
    small, huge = _sinc_masks(t)
    t[huge] = 1.0
    t *= np.pi
    us = t[small]
    u2 = us * us
    series = 1.0 - u2 / 6.0 * (1.0 - u2 / 20.0 * (1.0 - u2 / 42.0))
    t[small] = 1.0
    out = np.sin(t, out=np.empty_like(t) if out is None else out)
    out /= t
    out[small] = series
    out[huge] = 0.0
    return out


def sinc(t):
    """sin(pi t)/(pi t), with the removable singularity handled by a series
    on the points |t| < 1e-4 alone.

    Accepts scalars or numpy arrays of finite t, and leaves an array argument
    unchanged; the error bound is WORKING_RANGES["sinc"].  NaN and +-inf
    raise DomainError.
    """
    out = _sinc_core(_finite_t("sinc", t))
    return float(out) if out.ndim == 0 else out


def sinc_derivative(t):
    """Derivative of sinc; odd, vanishes at 0.  NaN and +-inf raise DomainError."""
    t_arr, small, huge, u, us = _sinc_argument("sinc_derivative", t)
    u2 = us * us
    series = np.pi * us * (-1.0 / 3.0 + u2 / 30.0 * (1.0 - u2 / 28.0))
    t_safe = np.where(small | huge, 1.0, t_arr)
    out = np.where(small, series, (u * np.cos(u) - np.sin(u)) / (np.pi * t_safe * t_safe))
    out[huge] = 1.0 / t_arr[huge]
    return float(out) if out.ndim == 0 else out


def sinc_antiderivative(t):
    """IS(t) = int_0^t sinc(u) du for |t| <= 50, on a scalar or an array.

    Composite 24-point Gauss-Legendre over ceil(|t|) equal panels, one array
    pass per panel count: the integrand is entire, so each panel is
    integrated to machine precision.  Odd in t.
    """
    ts = np.asarray(t, dtype=float)
    _check_range(ts, "sinc_antiderivative")
    mag = np.abs(ts)
    x, w = _gauss_legendre_reference(24)
    nodes, weights = 0.5 + 0.5 * x, 0.5 * w
    out = np.zeros(ts.shape)
    panels = np.ceil(mag).astype(int)
    for p in np.unique(panels[panels > 0]).tolist():
        sel = panels == p
        edges = np.linspace(0.0, mag[sel], p + 1, axis=-1)
        lo = edges[:, :-1, None]
        width = edges[:, 1:, None] - lo
        # every node of every panel of every point, shape (points, p * 24)
        u = (lo + width * nodes).reshape(-1, p * 24)
        out[sel] = np.sum((width * weights).reshape(-1, p * 24) * sinc(u), axis=1)
    out = np.where(ts < 0.0, -out, out)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Bessel J_nu, ascending series in double-double
# ---------------------------------------------------------------------------

def bessel_j(nu, x):
    """J_nu(x) by the ascending series, double-double accumulated.

    Working range 0 <= x <= 40, nu > -1, with relative error below 1e-10
    (which covers every kernel window at desk scale).  The alternating series
    cancels catastrophically for large argument even in extended precision:
    the error grows roughly like exp(x)*1e-31 (J_0(80) would come out as
    -0.967 instead of -0.0697), so larger x raises DomainError.  Full
    double-double accuracy of the term recursion additionally requires nu
    exactly representable (integers and half-integers), otherwise per-term
    accuracy settles near 1e-14.
    """
    nu = float(nu)
    x = float(x)
    if not (nu > -1.0):
        raise DomainError(f"bessel_j requires nu > -1, got {nu}")
    _check_range(x, "bessel_j")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0

    half = x / 2.0
    # negated squared half-argument, as a double-double
    qh, ql = _two_prod(half, half)
    qh, ql = -qh, -ql

    th, tl = 1.0, 0.0
    sh, sl = 1.0, 0.0
    for m in range(1, 400):
        th, tl = _dd_mul(th, tl, qh, ql)
        th, tl = _dd_div_d(th, tl, float(m))
        th, tl = _dd_div_d(th, tl, m + nu)
        sh, sl = _dd_add(sh, sl, th, tl)
        if abs(th) < 1e-35 * (abs(sh) + 1e-300) and m > half:
            break
    else:
        raise ConvergenceError("bessel_j series did not converge")

    if nu == int(nu) and nu <= 170:
        pref = half ** int(nu) / math.factorial(int(nu))
    else:
        pref = math.exp(nu * math.log(half) - math.lgamma(nu + 1.0))
    return pref * (sh + sl)


# ---------------------------------------------------------------------------
# elementwise recurrences on arrays of points
# ---------------------------------------------------------------------------

def _per_point(fn, x):
    """fn on Python floats, applied point by point (libm, never a vector kernel)."""
    if isinstance(x, np.ndarray):
        return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return fn(x)


def _iterate(step, converged, state, n_out, terms, what):
    """Advance the elementwise recurrence `step` until each point converges.

    `state` is a list of arrays whose last axis runs over the points, a (P,)
    row or a (rows, P) block each; step(k, state) returns the state after
    term k (it may work in place) and converged(k, state) is the per-point
    stopping test.  A point's first n_out entries are recorded at its own
    first converged k, so every value is bit-identical to a run of that
    point alone.  A finished column is carried along, its further
    arithmetic thrown away, until at least half the carried columns have
    finished; then the state is compacted to the running ones.  Returns the
    first n_out entries as each point finished; a point still running after
    `terms` steps raises ConvergenceError.
    """
    out = [np.empty(v.shape) for v in state[:n_out]]
    column = np.arange(state[0].shape[-1])    # the point of each carried column
    running = np.ones(column.size, dtype=bool)
    left = column.size
    for k in range(terms):
        if not left:
            return out
        state = step(k, state)
        done = converged(k, state)
        done &= running
        n_done = int(np.count_nonzero(done))
        if n_done:
            for o, v in zip(out, state):
                o[..., column[done]] = v[..., done]
            running &= ~done
            left -= n_done
            if 2 * left <= running.size:
                # `take` keeps each block C-ordered; a boolean index on the
                # last axis would return it transposed, and every later
                # ufunc would stride
                keep = np.flatnonzero(running)
                state = [v.take(keep, axis=-1) for v in state]
                column, running = column[keep], np.ones(left, dtype=bool)
    if left:
        raise ConvergenceError(f"{what} did not converge in {terms} terms")
    return out


# ---------------------------------------------------------------------------
# Airy Ai and Ai': Maclaurin two-series (|x| <= 9, double-double) glued to
# the standard asymptotic expansions truncated at their smallest term.
# At the switch point the asymptotic remainder ~ exp(-2*zeta(9)) ~ 2e-16,
# so both branches agree to machine precision.
# ---------------------------------------------------------------------------

_AIRY_SWITCH = 9.0
_AIRY_SERIES_TERMS = 140
_C1 = (0.3550280538878172, 2.05233632436212e-17)      # Ai(0)
_C2 = (0.2588194037928068, -2.522243111610832e-17)    # -Ai'(0)


def _airy_divisors(terms):
    """(d, hi, lo), shape (3, terms, 4, 1): the divisor d of each term row at
    each k and its `_split`; rows a_k, c_k, d_k and b_k (whose k = 0 entry
    is never used).  Built in Python floats: numpy arithmetic at import
    raised every process's peak memory by ~0.4 MB."""
    d = [float(v) for k in range(terms)
         for v in ((3 * k + 2) * (3 * k + 3), (3 * k + 3) * (3 * k + 4),
                   (3 * k + 1) * (3 * k + 3), k * (3 * k + 2) * (3 * k + 3))]
    return np.array([d, *zip(*map(_split, d))]).reshape(3, terms, 4, 1)


_AIRY_DIVISORS = _airy_divisors(_AIRY_SERIES_TERMS)


def _airy_series_step(k, st):
    """Advance the four Maclaurin series by one term.  The rows of the
    (4, P) sums s and terms t are f = sum a_k x^{3k}, g = sum c_k x^{3k+1},
    g' (terms d_k, k >= 0) and f' (terms b_k, k >= 1): each term is times
    x^3 over its row's divisor, b_k also times k + 1.  b_1 = x^2/2 is the
    seed of the last row, which first moves at k = 1."""
    s_h, s_l, t_h, t_l, x3h, x3l, x3_hi, x3_lo, cube, w = st
    rows = slice(None) if k else slice(3)
    th, tl, wr = t_h[rows], t_l[rows], w[:, rows]
    _dd_mul_to(th, tl, x3h, x3l, (x3_hi, x3_lo), wr)
    if k:
        _dd_mul_to(t_h[3], t_l[3], float(k + 1), None, _split(float(k + 1)), w[:, 3])
    d, d_hi, d_lo = _AIRY_DIVISORS[:, k, rows]
    _dd_div_d_to(th, tl, d, (d_hi, d_lo), wr)
    _dd_add_to(s_h, s_l, t_h, t_l, w)
    return st


def _airy_series_converged(k, st):
    # largest current term against max(|f|, |g|, 1), once k^3 > |x|^3/27
    bound = np.abs(st[2]).max(axis=0)
    scale = np.abs(st[0][:2]).max(axis=0)
    np.maximum(scale, 1.0, out=scale)
    return (bound < 1e-36 * scale) & (27 * k * k * k > st[8])


def _airy_series(x):
    """(Ai, Ai') at a 1-d array of points |x| <= _AIRY_SWITCH via the two
    Maclaurin series, in one run of `_airy_series_step`."""
    # x^3 as a double-double
    x2h, x2l = _two_prod(x, x)
    x3h, x3l = _dd_mul(x2h, x2l, x, 0.0)
    tb_h, tb_l = _dd_div_d(x2h, x2l, 2.0)
    one, zero = np.ones(x.size), np.zeros(x.size)
    state = [np.array([one, x, one, zero]), np.zeros((4, x.size)),
             np.array([one, x, one, tb_h]), np.array([zero, zero, zero, tb_l]),
             x3h, x3l, *_split(x3h), _per_point(lambda v: abs(v) ** 3, x),
             np.empty((5, 4, x.size))]
    (fh, gh, gp_h, fp_h), (fl, gl, gp_l, fp_l) = _iterate(
        _airy_series_step, _airy_series_converged, state, 2, _AIRY_SERIES_TERMS, "airy series")
    aih, ail = _dd_add(*_dd_mul(_C1[0], _C1[1], fh, fl),
                       *_dd_mul(-_C2[0], -_C2[1], gh, gl))
    aph, apl = _dd_add(*_dd_mul(_C1[0], _C1[1], fp_h, fp_l),
                       *_dd_mul(-_C2[0], -_C2[1], gp_h, gp_l))
    return aih + ail, aph + apl


# u_j and v_j (j = 0..60) of the asymptotic expansions, u_0 = v_0 = 1: the
# same for every x
_AIRY_ASYMPTOTIC_TERMS = 60


def _airy_asymptotic_coefficients():
    u, v = [1.0], [1.0]
    for j in range(1, _AIRY_ASYMPTOTIC_TERMS + 1):
        u.append(u[-1] * ((6 * j - 5) * (6 * j - 3) * (6 * j - 1)) / (216.0 * j * (2 * j - 1)))
        v.append(u[-1] * (6 * j + 1) / (1.0 - 6 * j))
    return np.array(u), np.array(v)


_AIRY_U, _AIRY_V = _airy_asymptotic_coefficients()


def _powers(op, step, n):
    """Rows 1, 1 op step, (1 op step) op step, ... (n steps): the powers of
    a loop that applies `op` (np.multiply or np.divide) once per term."""
    return op.accumulate(np.hstack([np.ones((step.size, 1)), np.repeat(step[:, None], n, 1)]), 1)


def _smallest_term_sums(mags, *terms):
    """Each (P, K) array of terms summed left to right along its rows, up
    to the row's cut: its first k >= 1 with mags[:, k] >= mags[:, k - 1],
    or K.  Column 0 is the leading 1, which every later term is below."""
    grow = mags[:, 1:] >= mags[:, :-1]
    cut = np.where(grow.any(axis=1), grow.argmax(axis=1) + 1, mags.shape[1])
    keep = np.arange(mags.shape[1]) < cut[:, None]
    # a cumulative sum adds in sequence, and the zeros past the cut change nothing
    return [np.cumsum(np.where(keep, t, 0.0), axis=1)[:, -1] for t in terms]


def _airy_asymptotic(x):
    """(Ai, Ai') at a 1-d array of points |x| > _AIRY_SWITCH by the standard
    asymptotic expansions in 1/zeta, zeta = (2/3)|x|^{3/2}, each point cut
    at its own smallest term.  `** 1.5`, `** 0.25`, exp, cos and sin are
    libm at each point."""
    zeta_all = (2.0 / 3.0) * _per_point(lambda v: v ** 1.5, np.abs(x))
    root_all = _per_point(lambda v: v ** 0.25, np.abs(x))
    ai, aip = np.empty(x.shape), np.empty(x.shape)
    pos = x > 0.0
    zeta, root = zeta_all[pos], root_all[pos]
    # sum_k (-1)^k u_k zeta^{-k}, and the same with v_k
    zk = _powers(np.multiply, -1.0 / zeta, _AIRY_ASYMPTOTIC_TERMS)
    su, sv = _smallest_term_sums(np.abs(_AIRY_U * zk), _AIRY_U * zk, _AIRY_V * zk)
    pref = _per_point(math.exp, -zeta) / (2.0 * math.sqrt(math.pi))
    ai[pos] = pref * su / root
    aip[pos] = -pref * sv * root

    neg = ~pos
    zeta, root = zeta_all[neg], root_all[neg]
    # even part sum_m (-1)^m u_{2m} zeta^{-2m}, odd part
    # sum_m (-1)^m u_{2m+1} zeta^{-2m-1}; the same split with v_j for Ai'
    j = np.arange(_AIRY_ASYMPTOTIC_TERMS)
    zj = _powers(np.divide, zeta, j.size - 1)
    mag = _AIRY_U[j] * zj
    sgn = np.where((j // 2) % 2 == 1, -1.0, 1.0)
    su, sv = sgn * mag, sgn * _AIRY_V[j] * zj
    even = j % 2 == 0
    u_even, v_even, u_odd, v_odd = _smallest_term_sums(
        mag, np.where(even, su, 0.0), np.where(even, sv, 0.0),
        np.where(even, 0.0, su), np.where(even, 0.0, sv))
    omega = zeta - 0.25 * math.pi
    c, s = _per_point(math.cos, omega), _per_point(math.sin, omega)
    q = 1.0 / math.sqrt(math.pi)
    ai[neg] = q / root * (c * u_even + s * u_odd)
    aip[neg] = q * root * (s * v_even - c * v_odd)
    return ai, aip


def _series_values(xs, series):
    """The outputs of an elementwise series at the points xs, each shaped
    like xs: one array run of `series` on the distinct points."""
    x = np.asarray(xs, dtype=float)
    pts, inv = np.unique(x.ravel(), return_inverse=True)
    return tuple(v[inv].reshape(x.shape) for v in series(pts))


def _airy_pairs(xs):
    """(Ai, Ai') on an array of points of the working range [-20, 15]; a
    point outside it, or NaN, raises DomainError.

    Of the distinct points, those with |x| <= _AIRY_SWITCH share one run of
    `_airy_series` and the others one run of `_airy_asymptotic`.  Every
    value is bit-identical to a run of its point alone.
    """
    x = np.asarray(xs, dtype=float)
    _check_range(x, "airy_ai")
    pts, inv = np.unique(x.ravel(), return_inverse=True)
    far = np.abs(pts) > _AIRY_SWITCH
    ai, aip = np.empty(pts.shape), np.empty(pts.shape)
    if not far.all():
        ai[~far], aip[~far] = _airy_series(pts[~far])
    if far.any():
        ai[far], aip[far] = _airy_asymptotic(pts[far])
    return ai[inv].reshape(x.shape), aip[inv].reshape(x.shape)


def _airy_pair(x):
    """(Ai, Ai') at one point, as floats: `_airy_pairs` on one point."""
    ai, aip = _airy_pairs(np.array([float(x)]))
    return float(ai[0]), float(aip[0])


def airy_ai(x):
    """Airy function Ai on the working range [-20, 15]."""
    return _airy_pair(x)[0]


def airy_ai_prime(x):
    """Derivative Ai' on the working range [-20, 15]."""
    return _airy_pair(x)[1]


# ---------------------------------------------------------------------------
# adaptive quadrature (split-interval refinement, GL-15 vs two GL-15 halves)
# ---------------------------------------------------------------------------

def _adaptive_quadrature_batch(f, a, b, tol=1e-12, max_depth=45):
    """Integrate many integrands at once, integral i over [a[i], b[i]] to
    the tolerance tol[i] (tol broadcasts against a, so a scalar serves all).

    f(owner, x) takes an integer array owner (P,) and nodes x (P, 15) and
    returns the values of integrand owner[p] at x[p].  Bisection runs
    breadth first: each round evaluates every pending panel of every
    integral in one call of f.  The first round takes the whole intervals
    with both their halves, and calls f even when every interval is
    empty; each later round takes the halves of the panels still split.
    Each panel sum is a reduction over its own row of nodes, so the
    grouping of panels into calls changes no bit.  A panel is
    accepted when its coarse GL-15 value and the sum of its two halves
    agree to its integral's tolerance; a non-finite panel, or a panel at
    max_depth that still disagrees, raises ConvergenceError.  Each total
    adds its accepted panels right to left (descending lower end), the
    order in which a depth-first bisection that refines the right half
    first meets them, so every total is bit-identical to integrating that
    interval alone at its tolerance.
    """
    rule = gauss_legendre(15, 0.0, 1.0)

    def panels(owner, lo, hi):
        width = (hi - lo)[:, None]
        x = lo[:, None] + width * rule.nodes
        values = np.sum(width * rule.weights * f(owner, x), axis=1)
        # a non-finite panel never passes the accept test: stop, do not bisect
        if not np.isfinite(values).all():
            i = int(np.argmin(np.isfinite(values)))
            raise ConvergenceError(f"adaptive_quadrature: non-finite panel [{lo[i]}, {hi[i]}]")
        return values

    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    tol = np.broadcast_to(np.asarray(tol, dtype=float), a.shape)
    owner = np.flatnonzero(a != b)
    lo, hi = a[owner], b[owner]
    mid = 0.5 * (lo + hi)
    # the first round takes the whole intervals and both their halves
    first = panels(np.tile(owner, 3), np.concatenate([lo, lo, mid]),
                   np.concatenate([hi, mid, hi]))
    coarse, left, right = np.split(first, 3)
    done_owner, done_lo, done_value = [], [], []
    depth = 0
    while owner.size:
        if depth:
            mid = 0.5 * (lo + hi)
            halves = panels(np.concatenate([owner, owner]),
                            np.concatenate([lo, mid]), np.concatenate([mid, hi]))
            left, right = halves[:owner.size], halves[owner.size:]
        fine = left + right
        gap = np.abs(fine - coarse)
        ok = gap < np.maximum(tol[owner], 1e-16 * np.abs(fine))
        done_owner.append(owner[ok])
        done_lo.append(lo[ok])
        done_value.append(fine[ok])
        split = ~ok
        if depth >= max_depth and split.any():
            i = int(np.flatnonzero(split)[0])
            raise ConvergenceError(
                f"adaptive_quadrature: panel [{lo[i]}, {hi[i]}] still disagrees by "
                f"{gap[i]:.3e} at max_depth {max_depth}")
        owner = np.concatenate([owner[split], owner[split]])
        lo, mid, hi = lo[split], mid[split], hi[split]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        coarse = np.concatenate([left[split], right[split]])
        depth += 1
    totals = [0.0] * a.size
    if done_owner:
        own, los, vals = (np.concatenate(v) for v in (done_owner, done_lo, done_value))
        order = np.lexsort((-los, own))
        for i, v in zip(own[order].tolist(), vals[order].tolist()):
            totals[i] += v
    return np.array(totals)


def adaptive_quadrature(f, a, b, tol=1e-12, max_depth=45):
    """Integrate f on [a, b]: bisect until coarse and refined panels agree.

    f takes one point.  Raises ConvergenceError when a panel value is not
    finite or a panel at max_depth still disagrees.  One-interval call of
    _adaptive_quadrature_batch.
    """
    def values(owner, x):
        return np.array([f(v) for v in x.ravel()]).reshape(x.shape)

    return float(_adaptive_quadrature_batch(values, a, b, tol, max_depth)[0])


def _airy_tail_pieces(x):
    """(lo, hi, finish) for int_x^infinity Ai at the points of x >= -10:
    each distinct point p has one interval [lo, hi] of Ai, [0, min(p, 15)]
    for p > 0 (Ai's range ends at 15; its integral beyond is below 1e-18)
    and [p, 0] otherwise, and finish(pieces) maps their integrals to
    1/3 -+ piece at every point of x, shaped like x."""
    xa = np.asarray(x, dtype=float)
    pts, inv = np.unique(xa.ravel(), return_inverse=True)
    _check_range(pts, "airy_tail_integral")
    right = pts > 0.0
    third = 1.0 / 3.0

    def finish(piece):
        return np.where(right, third - piece, third + piece)[inv].reshape(xa.shape)

    end = WORKING_RANGES["airy_ai"].working_range[1]
    return np.where(right, 0.0, pts), np.where(right, np.minimum(pts, end), 0.0), finish


def airy_tail_integral(x, tol=1e-12):
    """int_x^infinity Ai(u) du for x >= -10, on a scalar or an array.

    Uses int_0^inf Ai = 1/3: returns 1/3 - int_0^x Ai for x >= 0 and
    1/3 + int_x^0 Ai for x < 0, with adaptive quadrature on the finite
    piece (one batch over the distinct points of an array).
    """
    lo, hi, finish = _airy_tail_pieces(x)
    out = finish(_adaptive_quadrature_batch(lambda owner, u: _airy_pairs(u)[0], lo, hi, tol))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# regularized incomplete gamma at integer shape
# ---------------------------------------------------------------------------

def _logsumexp(logs):
    """log sum exp(logs) over an array, shifted by its largest entry; -inf if all are -inf."""
    logs = np.asarray(logs, dtype=float)
    peak = float(np.max(logs, initial=-math.inf))
    if peak == -math.inf:
        return peak
    return peak + math.log(float(np.sum(np.exp(logs - peak))))


def incomplete_gamma_ratio(k, x):
    """gamma(k+1, x)/k! in [0, 1] for integer k <= 200, x >= 0.

    Equals P(Poisson(x) >= k+1); both Poisson-tail forms are summed in
    log space so neither large x nor large k overflows.
    """
    if not (0 <= k <= 200) or k != int(k):
        raise DomainError(f"incomplete_gamma_ratio requires integer 0 <= k <= 200, got {k}")
    k = int(k)
    x = float(x)
    if not (x >= 0.0):
        raise DomainError("incomplete_gamma_ratio requires x >= 0")
    if x == 0.0:
        return 0.0
    if x > 1e5:
        return 1.0

    def log_term(j):
        return -x + j * math.log(x) - math.lgamma(j + 1.0)

    if x < k + 1:
        # sum the upper Poisson tail directly, terms decay geometrically
        logs = []
        j = k + 1
        top = log_term(j)
        logs.append(top)
        while True:
            j += 1
            lt = log_term(j)
            logs.append(lt)
            if lt < top - 40.0:
                break
        return math.exp(_logsumexp(logs))
    head = _logsumexp([log_term(j) for j in range(0, k + 1)])
    return 1.0 - math.exp(head)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules by Newton iteration on Legendre polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights on [a, b], nodes strictly increasing."""

    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not (self.a < self.b):
            raise ValueError("need a < b")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] <= self.a or nodes[-1] >= self.b:
            raise ValueError("nodes must lie strictly inside (a, b)")
        length = self.b - self.a
        if abs(float(np.sum(weights)) - length) > 1e-12 * length:
            raise ValueError("weights must sum to b - a")


def _legendre_and_prime(n, x):
    # P_j = ((2j - 1) x P_{j-1} - (j - 1) P_{j-2}) / j, in that order of
    # operations, in place on three buffers that take turns
    p_prev, p, t = np.ones_like(x), x.copy(), np.empty_like(x)
    for j in range(2, n + 1):
        np.multiply(2 * j - 1, x, out=t)
        t *= p
        p_prev *= j - 1
        t -= p_prev
        t /= j
        p_prev, p, t = p, t, p_prev
    dp = n * (p_prev - x * p) / (1.0 - x * x)
    return p, dp


# cached: about 1.8 ms at n = 128, 3 ms at n = 200 and 6 ms at n = 384;
# certify and spectra runs reuse rules
@lru_cache(maxsize=128)
def _gauss_legendre_reference(n):
    """Read-only nodes and weights of the n-point rule on [-1, 1], n >= 2."""
    i = np.arange(n)
    x = np.cos(np.pi * (i + 0.75) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_prime(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise ConvergenceError("gauss_legendre Newton iteration did not converge")
    _, dp = _legendre_and_prime(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(n, a, b):
    """n-point Gauss-Legendre rule on [a, b] (degree 2n-1 exact).

    The rule on [-1, 1] is computed once per n; [a, b] is its affine image.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    if not (a < b):
        raise ValueError("need a < b")
    if n == 1:
        return QuadratureRule(np.array([(a + b) / 2.0]), np.array([float(b - a)]),
                              float(a), float(b))
    x, w = _gauss_legendre_reference(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return QuadratureRule(mid + half * x, half * w, float(a), float(b))
