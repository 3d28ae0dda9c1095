"""Registry of correlation kernels with growth envelopes and factorizations.

Scalar kernels (sine, Bessel, Airy), the Ginibre plane kernel, and the
2x2-block symplectic variants (sine4, airy4) are addressable by string
identifiers.  Every kernel carries an explicit growth envelope
(amplitude, scale, order) certified for its reduced form, which is what
the bound machinery consumes.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .specfun import (
    DomainError,
    _dd_add,
    _dd_div_d,
    _dd_mul,
    airy_tail_integral,
    sinc,
    sinc_antiderivative,
    sinc_derivative,
)

__all__ = [
    "Interval",
    "GrowthEnvelope",
    "KernelSpec",
    "Factorization",
    "KERNEL_IDS",
    "make_kernel",
    "eval_scalar",
    "eval_matrix",
    "eval_complex",
    "kernel_matrix",
    "growth_envelope",
    "factorization",
    "intensity",
]

# strictly-closer-than-this pairs are evaluated by the diagonal derivative
# formula at the midpoint (O(gap^2) error) instead of the cancelling ratio
_DIAG_BAND = 1e-4


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a < self.b):
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def length(self):
        return self.b - self.a


@dataclass(frozen=True)
class GrowthEnvelope:
    """|reduced kernel(p, z)| <= amplitude * exp(scale * |z - p|^order)."""

    amplitude: float
    scale: float
    order: float

    def __post_init__(self):
        if min(self.amplitude, self.scale, self.order) <= 0:
            raise ValueError("envelope constants must be positive")

    def log_bound(self, r):
        return math.log(self.amplitude) + self.scale * abs(r) ** self.order


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    identifier: str
    block_size: int
    bessel_s: float | None = None


@dataclass(frozen=True)
class Factorization:
    """Kernel split Pi(x,y) = rho(x) rho(y) PiTilde(x,y) on a window."""

    density_factor: object        # callable x -> rho(x)
    reduced_kernel: object        # callable (x, y) -> PiTilde(x, y)
    sup_density: float


KERNEL_IDS = ("sine", "bessel:s=<real>", "airy", "ginibre", "sine4", "airy4")
_BLOCK_SIZES = {"sine": 1, "airy": 1, "ginibre": 1, "sine4": 2, "airy4": 2}


def make_kernel(identifier):
    """Build a KernelSpec from its registry id (e.g. "sine", "bessel:s=0.5")."""
    ident = identifier.strip()
    if ident in _BLOCK_SIZES:
        return KernelSpec(ident, ident, _BLOCK_SIZES[ident])
    if ident.startswith("bessel:s="):
        try:
            s = float(ident[len("bessel:s="):])
        except ValueError:
            raise DomainError(f"cannot parse Bessel parameter in {identifier!r}")
        if s <= -1.0:
            raise DomainError(f"Bessel kernel requires s > -1, got {s}")
        return KernelSpec("bessel", f"bessel:s={s}", 1, bessel_s=s)
    raise DomainError(f"unknown kernel id {identifier!r}; known ids: {KERNEL_IDS}")


# ---------------------------------------------------------------------------
# Bessel reduced-kernel series.
#
# With phi(x) = sum (-x/4)^m / (m! Gamma(m+s+1)) (so J_s(sqrt x) =
# (x/4)^{s/2} phi(x)) and g(x) = (x/4) * psi(x), psi the same series one
# Gamma-step up, the kernel factorizes as
#   J_s-kernel(x,y) = rho(x) rho(y) * [g(x) phi(y) - g(y) phi(x)] / (x - y),
# rho(x) = (x/4)^{s/2}.  phi' = -psi/4 and psi' = -chi/4 close the family,
# which gives the diagonal by l'Hopital without numerical differentiation.
# ---------------------------------------------------------------------------

_BESSEL_SERIES_TERMS = 300


def _bessel_series(s, x):
    """(phi, psi, chi) at one point (a float) or a 1-d array of points:
    sibling entire series in double-double."""
    s = float(s)
    q = -x / 4.0
    root = specfun._per_point(lambda v: abs(v) ** 0.5, x)
    sums = []
    for shift in (1.0, 2.0, 3.0):
        def step(k, st, shift=shift):
            sh, sl, th, tl, qa, ra = st
            m = k + 1
            th, tl = _dd_mul(th, tl, qa, 0.0)
            th, tl = _dd_div_d(th, tl, float(m))
            th, tl = _dd_div_d(th, tl, m + s + shift - 1.0)
            sh, sl = _dd_add(sh, sl, th, tl)
            return [sh, sl, th, tl, qa, ra]

        def converged(k, st):
            sh, _, th, _, _, ra = st
            return (abs(th) < 1e-34 * (abs(sh) + 1e-300)) & (4.0 * (k + 1) > ra)

        start = specfun._like(x, math.exp(-math.lgamma(s + shift)))
        zero = specfun._like(x, 0.0)
        sh, sl = specfun._iterate(step, converged, [start, zero, start, zero, q, root], 2,
                                  _BESSEL_SERIES_TERMS, "bessel kernel series")
        sums.append(sh + sl)
    return tuple(sums)


def _bessel_series_triples(s, xs):
    """(phi, psi, chi) arrays at the points xs: one series run over the
    distinct points, or the cached one-point runs below _MIN_BATCH points;
    bit-identical to `_bessel_series_triple` either way."""
    pts, inv = np.unique(np.asarray(xs, dtype=float).ravel(), return_inverse=True)
    if pts.size < specfun._MIN_BATCH:
        rows = np.array([_bessel_series_triple(s, v) for v in pts.tolist()]).reshape(-1, 3)
        return tuple(rows.T[:, inv])
    return tuple(v[inv] for v in _bessel_series(s, pts))


@lru_cache(maxsize=65536)
def _bessel_series_triple(s, x):
    """(phi, psi, chi) at one point, cached."""
    return _bessel_series(s, float(x))


def _bessel_reduced_diag(x, phi, psi, chi):
    # g' phi - g phi' with g = (x/4) psi, phi' = -psi/4, psi' = -chi/4
    return 0.25 * phi * psi - (x / 16.0) * phi * chi + (x / 16.0) * psi * psi


def _bessel_reduced(s, x, y):
    if abs(x - y) < _DIAG_BAND * (1.0 + abs(x)):
        mid = 0.5 * (x + y)
        return _bessel_reduced_diag(mid, *_bessel_series_triple(s, mid))
    phix, psix, _ = _bessel_series_triple(s, x)
    phiy, psiy, _ = _bessel_series_triple(s, y)
    gx = (x / 4.0) * psix
    gy = (y / 4.0) * psiy
    return (gx * phiy - gy * phix) / (x - y)


def _bessel_rho(s, x):
    if s == 0.0:
        return 1.0
    return (x / 4.0) ** (s / 2.0)


# ---------------------------------------------------------------------------
# Airy kernel pieces
# ---------------------------------------------------------------------------

def _airy_kernel_diag(x, ai, aip):
    return aip * aip - x * ai * ai


def _near_diagonal(x, y):
    return np.abs(x - y) < _DIAG_BAND * (1.0 + np.abs(x))


def _airy_kernel(x, y):
    """Airy kernel on 1-d arrays of point pairs; pairs closer than the band
    take the diagonal formula at their midpoint."""
    band = _near_diagonal(x, y)
    off = ~band
    xo, yo, mid = x[off], y[off], 0.5 * (x[band] + y[band])
    ai, aip = specfun._airy_pairs(np.concatenate([xo, yo, mid]))
    k = xo.size
    aix, aiy, aim = ai[:k], ai[k:2 * k], ai[2 * k:]
    aipx, aipy, aipm = aip[:k], aip[k:2 * k], aip[2 * k:]
    out = np.empty(x.shape)
    out[off] = (aix * aipy - aiy * aipx) / (xo - yo)
    out[band] = _airy_kernel_diag(mid, aim, aipm)
    return out


def _airy_kernel_dy(x, y):
    """partial_y of the Airy kernel on 1-d arrays of point pairs,
    Taylor-switched near the diagonal."""
    band = _near_diagonal(x, y)
    off = ~band
    ai, aip = specfun._airy_pairs(np.concatenate([x, y[off]]))
    aix, aipx = ai[:x.size], aip[:x.size]
    aiy, aipy = ai[x.size:], aip[x.size:]
    out = np.empty(x.shape)
    xb, yb, ab, apb = x[band], y[band], aix[band], aipx[band]
    n2 = ab * ab
    n3 = ab * apb + xb * xb * n2 - xb * apb * apb
    out[band] = -0.5 * n2 - (n3 / 3.0) * (yb - xb)
    xo, yo, ao, apo = x[off], y[off], aix[off], aipx[off]
    d = xo - yo
    out[off] = (ao * yo * aiy - apo * aipy) / d + (ao * aipy - aiy * apo) / (d * d)
    return out


_AIRY_TAIL_CUT = 14.5  # |Ai| < 1e-17 beyond; truncation negligible


def _airy_kernel_tail_integral(x, y, tol=1e-11):
    """int_x^infinity of the Airy kernel's first slot against fixed y, for
    1-d arrays of pairs (x, y), as one quadrature batch."""
    def integrand(owner, u):
        fixed = np.repeat(y[owner], u.shape[1])
        return _airy_kernel(u.ravel(), fixed).reshape(u.shape)

    # x >= the cut gives an empty interval, whose integral is 0
    return specfun._adaptive_quadrature_batch(
        integrand, np.minimum(x, _AIRY_TAIL_CUT), np.full(x.shape, _AIRY_TAIL_CUT), tol)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _check_scalar_domain(spec, *points):
    if spec.kind == "sine":
        return
    if spec.kind == "airy":
        lo, hi = specfun.WORKING_RANGES["airy_ai"].working_range
        for p in points:
            if p < lo or p > hi:
                raise DomainError(f"airy kernel working range is [{lo}, {hi}], got {p}")
        return
    if spec.kind == "bessel":
        s = spec.bessel_s
        for p in points:
            if p < 0.0 or (p == 0.0 and s != 0.0) or p > 1600.0:
                raise DomainError(
                    f"bessel kernel domain is the open half-line (0, 1600], got {p}")
        return
    raise DomainError(f"{spec.identifier} is not a scalar real kernel")


def eval_scalar(spec, x, y):
    """Scalar kernel value Pi(x, y); exactly symmetric, diagonal by formula."""
    if spec.block_size != 1 or spec.kind == "ginibre":
        raise DomainError(f"eval_scalar needs a scalar real kernel, got {spec.identifier}")
    x, y = float(x), float(y)
    _check_scalar_domain(spec, x, y)
    if spec.kind == "sine":
        return float(sinc(abs(x - y)))
    if spec.kind == "airy":
        return float(_airy_kernel(np.array([x]), np.array([y]))[0])
    s = spec.bessel_s
    return _bessel_rho(s, x) * _bessel_rho(s, y) * _bessel_reduced(s, x, y)


def eval_matrix(spec, x, y):
    """2x2 block K(x, y) of a Pfaffian kernel; K(x,y) = -K(y,x)^T.

    x and y broadcast against each other; the result has shape
    broadcast shape + (2, 2), a single (2, 2) block for scalar points.
    Every block is bit-identical to evaluating its pair alone.
    """
    if spec.block_size != 2:
        raise DomainError(f"eval_matrix needs a block kernel, got {spec.identifier}")
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape = xb.shape
    x, y = xb.ravel(), yb.ravel()
    if spec.kind == "sine4":
        t = x - y
        s = sinc(t)
        entries = 0.5 * np.stack([-sinc_antiderivative(t), s, -s, sinc_derivative(t)], axis=-1)
    else:
        # airy4: Tracy-Widom entries built from the scalar Airy kernel
        for p in (x, y):
            bad = (p < -10.0) | (p > 15.0)
            if bad.any():
                raise DomainError(
                    f"airy4 kernel working range is [-10, 15], got {p[bad][0]}")
        n = x.size
        both = np.concatenate([x, y])
        tail = airy_tail_integral(both)
        ai = specfun._airy_pairs(both)[0]
        kern = _airy_kernel(both, np.concatenate([y, x]))
        px, py, aix, aiy = tail[:n], tail[n:], ai[:n], ai[n:]
        a11 = -0.5 * _airy_kernel_tail_integral(x, y) + 0.25 * px * py
        a22 = 0.5 * _airy_kernel_dy(x, y) + 0.25 * aix * aiy
        a12 = 0.5 * kern[:n] - 0.25 * aiy * px
        a21 = -(0.5 * kern[n:] - 0.25 * aix * py)
        entries = np.stack([a11, a12, a21, a22], axis=-1)
    return entries.reshape(shape + (2, 2))


def eval_complex(spec, z, w):
    """Ginibre kernel (1/pi) exp(z conj(w) - |z|^2/2 - |w|^2/2); Hermitian."""
    if spec.kind != "ginibre":
        raise DomainError(f"eval_complex needs the ginibre kernel, got {spec.identifier}")
    z, w = complex(z), complex(w)
    if abs(z) > 12.0 or abs(w) > 12.0:
        raise DomainError("ginibre kernel working radius is 12")
    return (1.0 / math.pi) * np.exp(z * np.conj(w) - 0.5 * abs(z) ** 2 - 0.5 * abs(w) ** 2)


def kernel_matrix(spec, xs):
    """Vectorized Gram matrix Pi(x_i, x_j) for scalar kernels on nodes xs."""
    xs = np.asarray(xs, dtype=float)
    _check_scalar_domain(spec, float(xs.min()), float(xs.max()))
    n = xs.size
    if spec.kind == "sine":
        return sinc(np.abs(xs[:, None] - xs[None, :]))
    dx = xs[:, None] - xs[None, :]
    band = np.abs(dx) < _DIAG_BAND * (1.0 + np.abs(xs)[:, None])
    ii, jj = np.nonzero(band)
    mid = 0.5 * (xs[ii] + xs[jj])
    # one series run over the nodes and the band midpoints together
    pts = np.concatenate([xs, mid])
    if spec.kind == "airy":
        ai, aip = specfun._airy_pairs(pts)
        num = ai[:n, None] * aip[None, :n] - ai[None, :n] * aip[:n, None]
        out = np.divide(num, dx, out=np.zeros((n, n)), where=~band)
        out[ii, jj] = _airy_kernel_diag(mid, ai[n:], aip[n:])
        return out
    s = spec.bessel_s
    phi, psi, chi = _bessel_series_triples(s, pts)
    g = (xs / 4.0) * psi[:n]
    num = g[:, None] * phi[None, :n] - g[None, :] * phi[:n, None]
    red = np.divide(num, dx, out=np.zeros((n, n)), where=~band)
    red[ii, jj] = _bessel_reduced_diag(mid, phi[n:], psi[n:], chi[n:])
    rho = np.array([_bessel_rho(s, float(v)) for v in xs])
    return rho[:, None] * rho[None, :] * red


def intensity(spec, x):
    """One-point correlation: kernel diagonal, or Pf of the diagonal block."""
    if spec.kind == "ginibre":
        return 1.0 / math.pi
    if spec.block_size == 2:
        block = eval_matrix(spec, x, x)
        return float(block[0, 1])          # Pf of [[0, a], [-a, 0]]
    return eval_scalar(spec, x, x)


# ---------------------------------------------------------------------------
# growth envelopes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _bessel_envelope_amplitude(s, b):
    """Explicit majorization of the reduced Bessel kernel on windows in (0, b].

    Divided-difference split PiTilde(p,z) = phi(p) Dg - g(p) Dphi with the
    termwise bounds |phi| <= e^{|x|/4}/Gamma(s+1) etc.; the polynomial factor
    in |w| <= b + r is absorbed using sup_r r e^{-3r/4} = 4/(3e), leaving
    amplitude * e^{r} with r = |z - p|.
    """
    eb4 = math.exp(b / 4.0)
    g2, g3 = math.gamma(s + 2.0), math.gamma(s + 3.0)
    dphi = eb4 / (4.0 * g2)
    dg = eb4 * (1.0 / (4.0 * g2) + b / (16.0 * g3) + (4.0 / (3.0 * math.e)) / (16.0 * g3))
    phi_p = eb4 / math.gamma(s + 1.0)
    g_p = (b / 4.0) * eb4 / g2
    return phi_p * dg + g_p * dphi


_MAJORANT_TERMS = 200


@lru_cache(maxsize=8)
def _airy_global_majorants():
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
    f, g, fp, gp = specfun._iterate(step, converged, state, 4, _MAJORANT_TERMS,
                                    "airy majorant series")
    damp = np.array([math.exp(-(2.0 / 3.0) * v ** 1.5) for v in rs])
    root4 = np.array([(1.0 + v) ** 0.25 for v in rs])
    best_a = float(np.max((c1 * f + c2 * g) * damp))
    best_ap = float(np.max((c1 * fp + c2 * gp) * damp / root4))
    return 1.02 * best_a, 1.02 * best_ap


@lru_cache(maxsize=256)
def _airy_envelope_amplitude(a, b):
    """Window-dependent amplitude for the Airy kernel with scale 1, order 3/2.

    Uses (q + r)^{3/2} <= sqrt(2)(q^{3/2} + r^{3/2}) so the growth along the
    r-direction stays below e^{r^{3/2}}; the residual r-profile is maximized
    on a grid (it decays like e^{(2/3 sqrt2 - 1) r^{3/2}}).
    """
    ca, cap = _airy_global_majorants()
    amp = 0.0
    ps = np.linspace(a, b, 33)
    ai_all, aip_all = specfun._airy_pairs(ps)
    for p, ai, aip in zip(ps, ai_all.tolist(), aip_all.tolist()):
        q = abs(p)
        rmax = 4.0 * q + 80.0
        rr = np.linspace(0.0, rmax, 1600)
        grow = (2.0 / 3.0) * (q + rr) ** 1.5 - rr ** 1.5
        prof = (abs(aip) * cap * (1.0 + q + rr) ** 0.25 + abs(ai) * ca * (q + rr)) * np.exp(grow)
        amp = max(amp, float(prof.max()))
    return 1.02 * amp


@lru_cache(maxsize=64)
def _airy4_envelope_amplitude(a, b):
    """Desk-scale empirical envelope for the airy4 block entries.

    The integral-form entries defeat the analytic majorization chain, so the
    amplitude is taken from a real-axis maximization of
    |entry(p, p+t)| e^{-|t|^{3/2}} over the window with a factor-2 margin,
    the validation mode used for all Airy constants.
    """
    ps, ys, ts = [], [], []
    for p in np.linspace(a, b, 7):
        for t in np.linspace(-3.0, 3.0, 13):
            y = p + t
            if y < -10.0 or y > 14.0:
                continue
            ps.append(float(p))
            ys.append(float(y))
            ts.append(t)
    blocks = eval_matrix(make_kernel("airy4"), np.array(ps), np.array(ys))
    amp = 0.0
    for peak, t in zip(np.abs(blocks).max(axis=(1, 2)).tolist(), ts):
        amp = max(amp, peak * math.exp(-abs(t) ** 1.5))
    return 2.0 * amp


def growth_envelope(spec, window=None):
    """(A, M, sigma) with |reduced kernel(p, z)| <= A e^{M |z-p|^sigma}.

    Sine-family envelopes are window-free; Bessel and Airy amplitudes depend
    on the window and require one.  The Ginibre envelope is reported for the
    plane kernel under the registry normalization; whether order 2 (from the
    weight |z|^2) or order 1 (entire order of e^{z w}) feeds the tail
    machinery in 2-d is left open, and both are documented here.
    """
    if spec.kind == "sine":
        return GrowthEnvelope(1.0, math.pi, 1.0)
    if spec.kind == "sine4":
        return GrowthEnvelope(math.pi / 2.0, math.pi, 1.0)
    if spec.kind == "ginibre":
        return GrowthEnvelope(1.0 / math.pi, 1.0, 2.0)
    if window is None:
        raise ValueError(f"{spec.identifier} envelope is window-dependent; pass a window")
    if spec.kind == "bessel":
        if window.a <= 0.0 and spec.bessel_s != 0.0:
            raise DomainError("bessel envelope needs a window inside (0, inf)")
        return GrowthEnvelope(_bessel_envelope_amplitude(spec.bessel_s, window.b), 1.0, 1.0)
    if spec.kind == "airy":
        return GrowthEnvelope(_airy_envelope_amplitude(window.a, window.b), 1.0, 1.5)
    if spec.kind == "airy4":
        return GrowthEnvelope(_airy4_envelope_amplitude(window.a, window.b), 1.0, 1.5)
    raise DomainError(f"no growth envelope for {spec.identifier}")


def factorization(spec, window):
    """Factorization Pi = rho rho PiTilde on the window (rho == 1 except Bessel)."""
    if spec.block_size != 1 or spec.kind == "ginibre":
        raise DomainError(f"factorization is defined for scalar real kernels, got {spec.identifier}")
    if spec.kind in ("sine", "airy"):
        _check_scalar_domain(spec, window.a, window.b)
        return Factorization(lambda x: 1.0,
                             lambda x, y: eval_scalar(spec, x, y),
                             1.0)
    s = spec.bessel_s
    if window.a <= 0.0 and s != 0.0:
        raise DomainError(
            f"bessel factorization needs window.a > 0 (rho is 0 or unbounded at 0), got {window.a}")
    _check_scalar_domain(spec, max(window.a, 1e-300), window.b)
    sup_rho = max(_bessel_rho(s, window.a), _bessel_rho(s, window.b))
    return Factorization(lambda x, _s=s: _bessel_rho(_s, x),
                         lambda x, y, _s=s: _bessel_reduced(_s, x, y),
                         float(sup_rho))
