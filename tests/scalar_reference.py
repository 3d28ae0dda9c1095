"""One-point reference implementations kept as bit-for-bit oracles.

These are the scalar loops that the array routines of `dpptails.specfun`
and `dpptails.kernels` replace: the Airy Maclaurin series and asymptotic
expansions, the Bessel reduced-kernel series, depth-first adaptive
quadrature, the per-point sinc antiderivative and the dict tableau of
`dpptails.bounds.divided_differences`.  The array routines must
reproduce them to the last bit.  `airy_global_majorants` is the derivation
of the two Airy majorant constants that `dpptails.kernels` stores as
literals.  `moment_bracket_upper` is the term-by-term form of the upper
side of `dpptails.exact.exp_moment_sq_bracket`, whose array form takes
log j! as a running sum and so agrees to a few ulp, not to the last bit.
"""

import math

import numpy as np

from dpptails import specfun
from dpptails._dd import _dd_add, _dd_div_d, _dd_mul, _dd_mul_d, _two_prod
from dpptails.specfun import ConvergenceError, _C1, _C2, gauss_legendre, sinc


def airy_series(x):
    """(Ai, Ai') at one point with |x| <= 9 via the two Maclaurin series."""
    x = float(x)
    # x^3 as a double-double
    x2h, x2l = _two_prod(x, x)
    x3h, x3l = _dd_mul(x2h, x2l, x, 0.0)

    fh, fl = 1.0, 0.0          # f  = sum a_k x^{3k}
    gh, gl = x, 0.0            # g  = sum c_k x^{3k+1}
    tf_h, tf_l = 1.0, 0.0
    tg_h, tg_l = x, 0.0
    # derivative series: f' terms b_k (k>=1), g' terms d_k (k>=0)
    fp_h, fp_l = 0.0, 0.0
    gp_h, gp_l = 1.0, 0.0
    tb_h, tb_l = 0.0, 0.0      # b_1 seeded below
    td_h, td_l = 1.0, 0.0

    for k in range(0, 140):
        tf_h, tf_l = _dd_mul(tf_h, tf_l, x3h, x3l)
        tf_h, tf_l = _dd_div_d(tf_h, tf_l, float((3 * k + 2) * (3 * k + 3)))
        tg_h, tg_l = _dd_mul(tg_h, tg_l, x3h, x3l)
        tg_h, tg_l = _dd_div_d(tg_h, tg_l, float((3 * k + 3) * (3 * k + 4)))
        fh, fl = _dd_add(fh, fl, tf_h, tf_l)
        gh, gl = _dd_add(gh, gl, tg_h, tg_l)

        if k == 0:
            tb_h, tb_l = _dd_div_d(x2h, x2l, 2.0)
        else:
            tb_h, tb_l = _dd_mul(tb_h, tb_l, x3h, x3l)
            tb_h, tb_l = _dd_mul_d(tb_h, tb_l, float(k + 1))
            tb_h, tb_l = _dd_div_d(tb_h, tb_l, float(k * (3 * k + 2) * (3 * k + 3)))
        fp_h, fp_l = _dd_add(fp_h, fp_l, tb_h, tb_l)

        td_h, td_l = _dd_mul(td_h, td_l, x3h, x3l)
        td_h, td_l = _dd_div_d(td_h, td_l, float((3 * k + 1) * (3 * k + 3)))
        gp_h, gp_l = _dd_add(gp_h, gp_l, td_h, td_l)

        bound = max(abs(tf_h), abs(tg_h), abs(tb_h), abs(td_h))
        scale = max(abs(fh), abs(gh), 1.0)
        if bound < 1e-36 * scale and 27 * k * k * k > abs(x) ** 3:
            break

    aih, ail = _dd_add(*_dd_mul(_C1[0], _C1[1], fh, fl),
                       *_dd_mul(-_C2[0], -_C2[1], gh, gl))
    aph, apl = _dd_add(*_dd_mul(_C1[0], _C1[1], fp_h, fp_l),
                       *_dd_mul(-_C2[0], -_C2[1], gp_h, gp_l))
    return aih + ail, aph + apl


def airy_asymptotic_pos(x):
    """(Ai, Ai') at one point x > 9, truncated at the smallest term."""
    zeta = (2.0 / 3.0) * x ** 1.5
    # sum (-1)^k u_k / zeta^k and companion with v_k, smallest-term truncation
    su, sv = 1.0, 1.0
    uk = 1.0
    zk = 1.0
    prev = math.inf
    for k in range(0, 60):
        uk_next = uk * ((6 * k + 1) * (6 * k + 3) * (6 * k + 5)) / (216.0 * (k + 1) * (2 * k + 1))
        zk *= -1.0 / zeta
        term_u = uk_next * zk
        if abs(term_u) >= prev:
            break
        vk_next = uk_next * (6 * (k + 1) + 1) / (1.0 - 6 * (k + 1))
        su += term_u
        sv += vk_next * zk
        uk = uk_next
        prev = abs(term_u)
    pref = math.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    ai = pref * su / x ** 0.25
    aip = -pref * sv * x ** 0.25
    return ai, aip


def airy_asymptotic_neg(x):
    """(Ai, Ai') at one point x < -9, truncated at the smallest term."""
    t = -x
    zeta = (2.0 / 3.0) * t ** 1.5
    omega = zeta - 0.25 * math.pi
    # even part sum_m (-1)^m u_{2m} zeta^{-2m}, odd part
    # sum_m (-1)^m u_{2m+1} zeta^{-2m-1}; same split with v_j for Ai'
    u_even = 1.0
    u_odd = 0.0
    v_even = 1.0
    v_odd = 0.0
    uj = 1.0
    zj = 1.0
    prev = math.inf
    for j in range(1, 60):
        uj = uj * ((6 * j - 5) * (6 * j - 3) * (6 * j - 1)) / (216.0 * j * (2 * j - 1))
        zj /= zeta
        mag = uj * zj
        if mag >= prev:
            break
        vj = uj * (6 * j + 1) / (1.0 - 6 * j)
        sgn = -1.0 if (j // 2) % 2 else 1.0
        if j % 2 == 0:
            u_even += sgn * mag
            v_even += sgn * vj * zj
        else:
            u_odd += sgn * mag
            v_odd += sgn * vj * zj
        prev = mag
    c, s = math.cos(omega), math.sin(omega)
    q = 1.0 / math.sqrt(math.pi)
    ai = q / t ** 0.25 * (c * u_even + s * u_odd)
    aip = q * t ** 0.25 * (s * v_even - c * v_odd)
    return ai, aip


def airy_global_majorants():
    """(C_A, C_Ap) with |Ai(w)| <= C_A e^{(2/3)|w|^{3/2}} and
    |Ai'(w)| <= C_Ap (1+|w|)^{1/4} e^{(2/3)|w|^{3/2}} on all of C.

    Both Maclaurin series of Ai have one fixed-sign coefficient family, so
    |f(w)| <= f(|w|) termwise and the complex bound reduces to the positive
    real axis, where the majorant H = c1 f + c2 g is evaluated directly.
    """
    c1, c2 = 0.3550280538878172, 0.2588194037928068
    r = np.linspace(0.0, 30.0, 1201)
    rs = r.tolist()

    def step(k, st):
        f, g, fp, gp, tf, tg, tb, td, x3, rk = st
        tf = tf * x3 / ((3 * k + 2) * (3 * k + 3))
        tg = tg * x3 / ((3 * k + 3) * (3 * k + 4))
        tb = (rk * rk / 2.0) if k == 0 else tb * x3 * (k + 1) / (k * (3 * k + 2) * (3 * k + 3))
        td = td * x3 / ((3 * k + 1) * (3 * k + 3))
        return [f + tf, g + tg, fp + tb, gp + td, tf, tg, tb, td, x3, rk]

    def converged(k, st):
        f, g, _, _, tf, tg = st[:6]
        return (tf < 1e-18 * f) & (tg < 1e-18 * np.maximum(g, 1.0))

    # positive-coefficient series for f, g, f', g' at +r (no cancellation),
    # one run over all r
    one, zero = np.ones(r.size), np.zeros(r.size)
    state = [one, r, zero, one, one, r, zero, one, np.array([v ** 3 for v in rs]), r]
    f, g, fp, gp = specfun._iterate(step, converged, state, 4, 200, "airy majorant series")
    damp = np.array([math.exp(-(2.0 / 3.0) * v ** 1.5) for v in rs])
    root4 = np.array([(1.0 + v) ** 0.25 for v in rs])
    best_a = float(np.max((c1 * f + c2 * g) * damp))
    best_ap = float(np.max((c1 * fp + c2 * gp) * damp / root4))
    return 1.02 * best_a, 1.02 * best_ap


def bessel_series_triple(s, x):
    """(phi, psi, chi) at one point: sibling entire series in double-double."""
    s = float(s)
    x = float(x)
    q = -x / 4.0
    sums = []
    for shift in (1.0, 2.0, 3.0):
        th, tl = math.exp(-math.lgamma(s + shift)), 0.0
        sh, sl = th, tl
        for m in range(1, 301):
            th, tl = _dd_mul(th, tl, q, 0.0)
            th, tl = _dd_div_d(th, tl, float(m))
            th, tl = _dd_div_d(th, tl, m + s + shift - 1.0)
            sh, sl = _dd_add(sh, sl, th, tl)
            if abs(th) < 1e-34 * (abs(sh) + 1e-300) and 4.0 * m > abs(x) ** 0.5:
                break
        else:
            raise ConvergenceError("bessel kernel series did not converge")
        sums.append(sh + sl)
    return tuple(sums)


def _panel(f, a, b):
    rule = gauss_legendre(15, 0.0, 1.0)
    x = a + (b - a) * rule.nodes
    w = (b - a) * rule.weights
    return float(np.sum(w * np.array([f(v) for v in x])))


def adaptive_quadrature(f, a, b, tol=1e-12, max_depth=45):
    """Depth-first bisection with a stack; the right half is refined first."""
    if a == b:
        return 0.0
    total = 0.0
    stack = [(a, b, _panel(f, a, b), 0)]
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        fine = left + right
        if abs(fine - coarse) < max(tol, 1e-16 * abs(fine)):
            total += fine
        elif depth >= max_depth:
            raise ConvergenceError(f"panel [{lo}, {hi}] at max_depth {max_depth}")
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total


def sinc_antiderivative(t):
    """int_0^t sinc at one point: 24-point Gauss-Legendre on ceil(|t|) panels."""
    t = float(t)
    if t == 0.0:
        return 0.0
    rule = gauss_legendre(24, 0.0, 1.0)
    sign = 1.0 if t > 0 else -1.0
    T = abs(t)
    panels = int(math.ceil(T))
    edges = np.linspace(0.0, T, panels + 1)
    lo = edges[:-1]
    width = edges[1:] - lo
    u = lo[:, None] + width[:, None] * rule.nodes[None, :]
    w = width[:, None] * rule.weights[None, :]
    return sign * float(np.sum(w * sinc(u)))


def divided_differences(evaluator, points):
    """Divided-difference table Q[i][l] by the tableau over contiguous
    blocks of the points, one row at a time."""
    pts = [float(p) for p in points]
    n = len(pts)
    q = np.empty((n, n))
    for i in range(n):
        d = {(j, j): float(evaluator(pts[i], pts[j])) for j in range(n)}
        for width in range(1, n):
            for j in range(n - width):
                k = j + width
                d[(j, k)] = (d[(j, k - 1)] - d[(j + 1, k)]) / (pts[j] - pts[k])
        q[i, :] = [d[(0, l)] for l in range(n)]
    return q


def moment_bracket_upper(c, lam, log_low, tail_log_fn=None):
    """Upper side of exact.exp_moment_sq_bracket from its lower side, with
    the dropped Bernoulli components summed term by term: counts beyond the
    retained support need j = k - N of them to fire, so each term is
    lam k^2 + min(0, j log T - lgamma(j + 1), tail_log_fn(k))."""
    big_n = c.pmf.size - 1
    t = c.truncation_error_bound
    if t <= 0.0:
        return log_low
    grow = lam * (2 * big_n + 1)
    shift = t * math.exp(grow) if grow <= specfun._LOG_MAX else math.inf
    log_up = min(log_low + shift, max(log_low, lam * big_n * big_n))
    if c.n_truncated == 0:
        return log_up
    log_t = math.log(t)
    terms = []
    for j in range(1, c.n_truncated + 1):
        k = big_n + j
        cap = min(0.0, j * log_t - math.lgamma(j + 1.0))
        if tail_log_fn is not None:
            cap = min(cap, tail_log_fn(k))
        terms.append(lam * k * k + cap)
    peak = max(terms)
    if peak == -math.inf:
        return log_up
    extra = peak + math.log(sum(math.exp(v - peak) for v in terms))
    return float(np.logaddexp(log_up, extra))
