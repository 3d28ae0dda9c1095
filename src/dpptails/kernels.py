"""Registry of correlation kernels with growth envelopes and factorizations.

Scalar kernels (sine, Bessel, Airy), the Ginibre plane kernel, and the
2x2-block symplectic variants (sine4, airy4) are addressable by string
identifiers.  Every kernel carries an explicit growth envelope
(amplitude, scale, order) certified for its reduced form, which is what
the bound machinery consumes.

Scalar kernel values come from one broadcasting evaluator: `eval_scalar`
is its float view and `kernel_matrix` its Gram view on (xs[:, None],
xs[None, :]).  The Airy and reduced Bessel kernels are ratio forms, and
`_ratio_kernel` alone holds their diagonal-band rule.  The evaluator runs
the pairs in row blocks whose arrays stay under _BLOCK_DOUBLES each, into
one output array.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from ._dd import _dd_add, _dd_div_d, _dd_mul, _split
from .specfun import (
    DomainError,
    _sinc_core,
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
    "check_window",
    "sup_density",
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
        # NaN fails every comparison, so it is not positive
        if not (self.amplitude > 0 and self.scale > 0 and self.order > 0):
            raise ValueError("envelope constants must be positive")


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
        if not -1.0 < s < math.inf:
            raise DomainError(f"Bessel kernel requires finite s > -1, got {s}")
        return KernelSpec("bessel", f"bessel:s={s}", 1, bessel_s=s)
    raise DomainError(f"unknown kernel id {identifier!r}; known ids: {KERNEL_IDS}")


# ---------------------------------------------------------------------------
# ratio-form kernels: divided differences of entire functions, evaluated by
# their diagonal (l'Hopital) formula inside the band around x = y
# ---------------------------------------------------------------------------

def _near_diagonal(x, y):
    return np.abs(x - y) < _DIAG_BAND * (1.0 + np.abs(x))


# A block of pairs holds fewer than this many doubles (128 KiB) in each of
# its arrays: glibc maps a larger array, and its free moves the mmap
# threshold, which with n x n temporaries set the peak RSS
_BLOCK_DOUBLES = 1 << 14


def _block_rows(width):
    """Rows of `width` doubles that fit one block (one row at least)."""
    return max(1, (_BLOCK_DOUBLES - 1) // max(1, width))


def _slices(m, rows):
    """Slices of range(m) into the fewest pieces of at most `rows` each; their
    sizes differ by one at most, and the last is the largest."""
    count = max(1, -(-m // rows))
    edges = [m * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _row_parts(shape, *arrays):
    """Row blocks of the broadcast `shape` (1-d at least) as (slice, parts):
    the first axis cut so that each block holds fewer than _BLOCK_DOUBLES
    pairs, and parts each array's rows in the block, the array lifted to
    the rank of shape and taken whole where that axis has length 1."""
    lifted = [np.reshape(a, (1,) * (len(shape) - np.ndim(a)) + np.shape(a)) for a in arrays]
    return [(blk, [a if a.shape[0] == 1 else a[blk] for a in lifted])
            for blk in _slices(shape[0], _block_rows(math.prod(shape[1:])))]


def _pair_blocks(x, y, *arrays):
    """(out, scratch, blocks) for the pairs of the float arrays x and y: an
    empty array of their broadcast shape (one row for a 0-d shape), one
    scratch block as large as its largest row block, and the `_row_parts`
    of x, y and arrays."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape) or (1,))
    blocks = _row_parts(out.shape, x, y, *arrays)
    return out, np.empty_like(out[blocks[-1][0]]), blocks


def _ratio_kernel(x, y, series, factors, diag, rho=None):
    """(kernel, fx): the ratio-form kernel at the pairs of x and y, which
    broadcast, and the series outputs at the points of x, shaped like x.

    series(points) returns one array per entire function of the kernel;
    factors(x, fx, y, fy) gives the factor pairs of the two products whose
    difference over x - y is the divided difference, and diag(m, fm) its
    limit, taken at the midpoint m of each band pair; rho, a pair of
    arrays shaped like x and y, multiplies each value by rho_x rho_y.  The
    pairs run in row blocks (`_pair_blocks`): one pass collects the band
    midpoints, one series pass covers the points of x, of y and all
    midpoints (so a Gram matrix costs 2n series points, not n^2), and a
    second pass writes each block's products, difference, quotient, band
    values and density product into the output rows through one reused
    scratch block.  So the output is the only array of its size, and each
    value is bit-identical to its pair alone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bands, mids = [], []
    for _, (xr, yr) in _row_parts(np.broadcast_shapes(x.shape, y.shape) or (1,), x, y):
        band = np.nonzero(_near_diagonal(xr, yr))
        xb, yb = np.broadcast_arrays(xr, yr)
        bands.append(band)
        mids.append(0.5 * (xb[band] + yb[band]))
    mid = np.concatenate(mids)
    f = series(np.concatenate([x.ravel(), y.ravel(), mid]))
    nx, nxy = x.size, x.size + y.size
    fx = [v[:nx].reshape(x.shape) for v in f]
    fy = [v[nx:nxy].reshape(y.shape) for v in f]
    band_values = diag(mid, [v[nxy:] for v in f])
    ends = np.cumsum([0] + [m.size for m in mids]).tolist()
    (a, b), (c, d) = factors(x, fx, y, fy)
    out, scratch, blocks = _pair_blocks(x, y, a, b, c, d, *(rho or ()))
    with np.errstate(divide="ignore", invalid="ignore"):
        for (blk, (xr, yr, a, b, c, d, *rr)), band, lo, hi in zip(
                blocks, bands, ends[:-1], ends[1:]):
            o, s = np.multiply(a, b, out=out[blk]), scratch[:blk.stop - blk.start]
            o -= np.multiply(c, d, out=s)
            o /= np.subtract(xr, yr, out=s)
            o[band] = band_values[lo:hi]
            if rr:
                o *= np.multiply(*rr, out=s)
    return out.reshape(np.broadcast_shapes(x.shape, y.shape)), fx


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
    """(phi, psi, chi) at a 1-d array of points: sibling entire series in
    double-double, one per Gamma shift 1, 2, 3, as the lanes of one run:
    for n points, lane j n + i is point i at shift j + 1."""
    s = float(s)
    shifts = (1.0, 2.0, 3.0)

    def step(k, st):
        sh, sl, th, tl, qa, qa_hi, qa_lo, ra, shift = st
        m = k + 1
        th, tl = _dd_mul(th, tl, qa, 0.0, (qa_hi, qa_lo))
        th, tl = _dd_div_d(th, tl, float(m))
        th, tl = _dd_div_d(th, tl, m + s + shift - 1.0)
        sh, sl = _dd_add(sh, sl, th, tl)
        return [sh, sl, th, tl, qa, qa_hi, qa_lo, ra, shift]

    def converged(k, st):
        sh, th, ra = st[0], st[2], st[7]
        return (abs(th) < 1e-34 * (abs(sh) + 1e-300)) & (4.0 * (k + 1) > ra)

    n = x.size
    q = np.tile(-x / 4.0, 3)
    start = np.repeat([math.exp(-math.lgamma(s + shift)) for shift in shifts], n)
    state = [start, np.zeros(3 * n), start, np.zeros(3 * n), q, *_split(q),
             np.tile(specfun._per_point(lambda v: abs(v) ** 0.5, x), 3), np.repeat(shifts, n)]
    sh, sl = specfun._iterate(step, converged, state, 2, _BESSEL_SERIES_TERMS,
                              "bessel kernel series")
    return tuple((sh + sl).reshape(3, n))


def _bessel_reduced_diag(x, f):
    # g' phi - g phi' with g = (x/4) psi, phi' = -psi/4, psi' = -chi/4
    phi, psi, chi = f
    return 0.25 * phi * psi - (x / 16.0) * phi * chi + (x / 16.0) * psi * psi


def _bessel_reduced(s, x, y, rho=None):
    """Reduced Bessel kernel [g(x) phi(y) - g(y) phi(x)] / (x - y) with
    g = (x/4) psi, at the broadcast pairs of x and y; times rho_x rho_y when
    rho is a pair of density arrays shaped like x and y."""
    return _ratio_kernel(
        x, y, lambda p: specfun._series_values(p, lambda v: _bessel_series(s, v)),
        lambda x, fx, y, fy: (((x / 4.0) * fx[1], fy[0]), ((y / 4.0) * fy[1], fx[0])),
        _bessel_reduced_diag, rho)[0]


def _bessel_rho(s, x):
    """rho(x) = (x/4)^{s/2} at a float, or with libm pow at each point of an array."""
    return specfun._per_point(lambda v: (v / 4.0) ** (s / 2.0), x)


# ---------------------------------------------------------------------------
# Airy kernel pieces
# ---------------------------------------------------------------------------

def _airy_factors(x, fx, y, fy):
    return (fx[0], fy[1]), (fy[0], fx[1])


def _airy_diag(m, fm):
    return fm[1] * fm[1] - m * fm[0] * fm[0]


def _airy_kernel(x, y):
    """Airy kernel [Ai(x) Ai'(y) - Ai(y) Ai'(x)] / (x - y) at the broadcast
    pairs of x and y."""
    return _ratio_kernel(x, y, specfun._airy_pairs, _airy_factors, _airy_diag)[0]


def _airy_kernel_dy(x, y, ai, aip):
    """partial_y of the Airy kernel on 1-d arrays of pairs, from (Ai, Ai') at
    concatenate([x, y]); pairs in the band take its second-order Taylor
    expansion in h = y - x about x, derived with Ai'' = x Ai."""
    ax, apx, ay, apy = ai[:x.size], aip[:x.size], ai[x.size:], aip[x.size:]
    d = x - y
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (ax * y * ay - apx * apy) / d + (ax * apy - ay * apx) / (d * d)
    n2 = ax * ax
    n3 = ax * apx + x * x * n2 - x * apx * apx
    n4 = 2.0 * x * n2 - apx * apx
    h = y - x
    band = _near_diagonal(x, y)
    out[band] = (-0.5 * n2 - (n3 / 3.0) * h - (n4 / 4.0) * (h * h))[band]
    return out


_AIRY_TAIL_CUT = 14.5  # |Ai| < 1e-17 beyond; truncation negligible
# the airy4 entries need Ai and its tail integral at every point
_AIRY4_RANGE = (specfun.WORKING_RANGES["airy_tail_integral"].working_range[0],
                specfun.WORKING_RANGES["airy_ai"].working_range[1])


def _airy4_parts(x, y):
    """The Airy pieces of the airy4 blocks at 1-d arrays of pairs (x, y):
    with p = concatenate([x, y]) and q = concatenate([y, x]), the tails
    int_p^inf Ai, the kernel tails int_x^cut K(u, y) du, and K(p, q),
    Ai(p) and Ai'(p).

    The two tail families share one quadrature batch, the Ai tails at
    tolerance 1e-12 and the kernel tails at 1e-11, so each round makes one
    Airy pass over the nodes of every pending panel, the y values and the
    band midpoints; the first round also takes the pairs (p, q).  Every
    value is bit-identical to its interval, or its pair, alone.
    """
    p, q = np.concatenate([x, y]), np.concatenate([y, x])
    lo, hi, finish = specfun._airy_tail_pieces(p)
    m = lo.size
    at_p = []

    def integrand(owner, u):
        tail = owner < m
        nodes = u[tail].ravel()
        out = np.empty(u.shape)

        def pairs(points):
            # the kernel's Airy pass also gives Ai at the Ai-tail nodes
            ai, aip = specfun._airy_pairs(np.concatenate([nodes, points]))
            out[tail] = ai[:nodes.size].reshape(-1, u.shape[1])
            return ai[nodes.size:], aip[nodes.size:]

        # each kernel panel's nodes against its y as flat pairs, and in the
        # first round (the batch always makes one) the pairs (p, q) too
        kx, ky = u[~tail].ravel(), np.repeat(y[owner[~tail] - m], u.shape[1])
        split = kx.size
        if not at_p:
            kx, ky = np.concatenate([kx, p]), np.concatenate([ky, q])
        kern, (ai, aip) = _ratio_kernel(kx, ky, pairs, _airy_factors, _airy_diag)
        if not at_p:
            at_p.extend(v[split:] for v in (kern, ai, aip))
        out[~tail] = kern[:split].reshape(-1, u.shape[1])
        return out

    # x >= the cut gives an empty interval, whose integral is 0
    totals = specfun._adaptive_quadrature_batch(
        integrand, np.concatenate([lo, np.minimum(x, _AIRY_TAIL_CUT)]),
        np.concatenate([hi, np.full(x.shape, _AIRY_TAIL_CUT)]),
        np.repeat([1e-12, 1e-11], [m, x.size]))
    return (finish(totals[:m]), totals[m:], *at_p)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _check_scalar_domain(spec, *points):
    """DomainError unless every point (floats or arrays) lies in the scalar
    kernel's domain; NaN lies in none."""
    if spec.block_size != 1 or spec.kind == "ginibre":
        raise DomainError(f"{spec.identifier} is not a scalar real kernel")
    pts = np.concatenate([np.ravel(p) for p in points])
    # min and max propagate NaN, which fails every test below
    low, high = float(pts.min()), float(pts.max())
    if spec.kind == "sine":
        ok, domain = math.isfinite(low) and math.isfinite(high), "the finite reals"
    elif spec.kind == "airy":
        lo, hi = specfun.WORKING_RANGES["airy_ai"].working_range
        ok, domain = lo <= low and high <= hi, f"[{lo}, {hi}]"
    else:
        ok = (0.0 < low or (low == 0.0 and spec.bessel_s == 0.0)) and high <= 1600.0
        domain = "the open half-line (0, 1600], with 0 at s = 0"
    if not ok:
        raise DomainError(f"{spec.identifier} kernel domain is {domain}, "
                          f"got points in [{low}, {high}]")


def _scalar_kernel(spec, x, y):
    """Pi(x, y) of a scalar real kernel at the broadcast pairs of x and y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_scalar_domain(spec, x, y)
    if spec.kind == "airy":
        return _airy_kernel(x, y)
    if spec.kind == "bessel":
        s = spec.bessel_s
        return _bessel_reduced(s, x, y, (_bessel_rho(s, x), _bessel_rho(s, y)))
    # sine: sinc of |x - y|, formed in the scratch block, into the output rows
    out, scratch, blocks = _pair_blocks(x, y)
    for blk, (xr, yr) in blocks:
        d = scratch[:blk.stop - blk.start]
        # x - y overflows to +-inf for far pairs, where sinc is 0
        with np.errstate(over="ignore"):
            np.subtract(xr, yr, out=d)
        _sinc_core(np.abs(d, out=d), out=out[blk])
    return out.reshape(np.broadcast_shapes(x.shape, y.shape))


def eval_scalar(spec, x, y):
    """Scalar kernel value Pi(x, y); exactly symmetric, diagonal by formula."""
    return float(_scalar_kernel(spec, x, y))


def eval_matrix(spec, x, y):
    """2x2 block K(x, y) of a Pfaffian kernel; K(x,y) = -K(y,x)^T.

    x and y broadcast against each other; the result has shape
    broadcast shape + (2, 2), a single (2, 2) block for scalar points.
    Every block is bit-identical to evaluating its pair alone.  airy4 takes
    all its Airy values, the Ai tails and the kernel tails of all its pairs
    included, from one quadrature batch (`_airy4_parts`).
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
        specfun._check_range(np.concatenate([x, y]), "airy4 kernel", *_AIRY4_RANGE)
        n = x.size
        tail, ktail, kern, ai, aip = _airy4_parts(x, y)
        px, py, aix, aiy = tail[:n], tail[n:], ai[:n], ai[n:]
        a11 = -0.5 * ktail + 0.25 * px * py
        a22 = 0.5 * _airy_kernel_dy(x, y, ai, aip) + 0.25 * aix * aiy
        a12 = 0.5 * kern[:n] - 0.25 * aiy * px
        a21 = -(0.5 * kern[n:] - 0.25 * aix * py)
        entries = np.stack([a11, a12, a21, a22], axis=-1)
    return entries.reshape(shape + (2, 2))


def eval_complex(spec, z, w):
    """Ginibre kernel (1/pi) exp(z conj(w) - |z|^2/2 - |w|^2/2); Hermitian."""
    if spec.kind != "ginibre":
        raise DomainError(f"eval_complex needs the ginibre kernel, got {spec.identifier}")
    z, w = complex(z), complex(w)
    specfun._check_range([abs(z), abs(w)], "ginibre kernel radius", 0.0, 12.0)
    return (1.0 / math.pi) * np.exp(z * np.conj(w) - 0.5 * abs(z) ** 2 - 0.5 * abs(w) ** 2)


def kernel_matrix(spec, xs):
    """Gram matrix Pi(x_i, x_j) of a scalar kernel on nodes xs, bit-identical
    to eval_scalar at each pair."""
    xs = np.asarray(xs, dtype=float)
    return _scalar_kernel(spec, xs[:, None], xs[None, :])


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

def _bessel_envelope_amplitude(s, b):
    """Explicit majorization of the reduced Bessel kernel on windows in (0, b].

    Divided-difference split PiTilde(p,z) = phi(p) Dg - g(p) Dphi with the
    termwise bounds |phi| <= e^{|x|/4}/Gamma(s+1) etc.; the polynomial factor
    in |w| <= b + r is absorbed using sup_r r e^{-3r/4} = 4/(3e), leaving
    amplitude * e^{r} with r = |z - p|.  An amplitude outside the normal
    doubles (at b = 2 from s = 97.4 on, where the Gamma factors outgrow it)
    raises DomainError.
    """
    try:
        eb4 = math.exp(b / 4.0)
        g2, g3 = math.gamma(s + 2.0), math.gamma(s + 3.0)
        dphi = eb4 / (4.0 * g2)
        dg = eb4 * (1.0 / (4.0 * g2) + b / (16.0 * g3) + (4.0 / (3.0 * math.e)) / (16.0 * g3))
        phi_p = eb4 / math.gamma(s + 1.0)
        g_p = (b / 4.0) * eb4 / g2
        amplitude = phi_p * dg + g_p * dphi
    except OverflowError:
        amplitude = math.inf
    if not sys.float_info.min <= amplitude < math.inf:
        raise DomainError(f"the bessel:s={s} envelope amplitude on (0, {b}] leaves the "
                          "double range")
    return amplitude


# (C_A, C_Ap) with |Ai(w)| <= C_A e^{(2/3)|w|^{3/2}} and
# |Ai'(w)| <= C_Ap (1+|w|)^{1/4} e^{(2/3)|w|^{3/2}} on all of C.  Both
# Maclaurin series of Ai have one fixed-sign coefficient family, so
# |f(w)| <= f(|w|) termwise and the complex bound reduces to the positive
# real axis: 1.02 times the maximum of the majorant c1 f + c2 g (and of its
# derivative) times the damping, on 1201 points of [0, 30].  The test suite
# re-derives both values bit for bit.
_AIRY_MAJORANTS = (0.39888262466694224, 0.32924355403876177)


# cached: 3-4 ms a call, and a certify run asks for its one airy window 5 times
@lru_cache(maxsize=256)
def _airy_envelope_amplitude(a, b):
    """Window-dependent amplitude for the Airy kernel with scale 1, order 3/2.

    Uses (q + r)^{3/2} <= sqrt(2)(q^{3/2} + r^{3/2}) so the growth along the
    r-direction stays below e^{r^{3/2}}; the residual r-profile is maximized
    on a grid (it decays like e^{(2/3 sqrt2 - 1) r^{3/2}}), for 33 points p
    of the window, broadcast over row blocks of points (`_block_rows`).
    """
    ca, cap = _AIRY_MAJORANTS
    ps = np.linspace(a, b, 33)
    ai, aip = (np.abs(v)[:, None] for v in specfun._airy_pairs(ps))
    q = np.abs(ps)[:, None]
    peaks = []
    for blk in _slices(ps.size, _block_rows(1600)):
        # (aip cap (1 + q + r)^(1/4) + ai ca (q + r)) exp(2/3 (q + r)^(3/2) - r^(3/2)),
        # in place, each operation in the order of that expression
        rr = np.linspace(0.0, 4.0 * np.abs(ps[blk]) + 80.0, 1600, axis=-1)
        qr = q[blk] + rr
        grow = qr ** 1.5
        grow *= 2.0 / 3.0
        prof = rr ** 1.5
        grow -= prof
        np.exp(grow, out=grow)
        np.add(1.0 + q[blk], rr, out=prof)
        prof **= 0.25
        prof *= aip[blk] * cap
        qr *= ai[blk] * ca
        prof += qr
        prof *= grow
        peaks.append(prof.max())
    return 1.02 * float(np.max(peaks))


# cached: 13-20 ms a call, and a certify run asks for its one airy4 window twice
@lru_cache(maxsize=64)
def _airy4_envelope_amplitude(a, b):
    """Desk-scale empirical envelope for the airy4 block entries.

    The integral-form entries defeat the analytic majorization chain, so the
    amplitude is taken from a real-axis maximization of
    |entry(p, p+t)| e^{-|t|^{3/2}} over the window with a factor-2 margin,
    the validation mode used for all Airy constants.
    """
    p = np.linspace(a, b, 7)[:, None]
    t = np.linspace(-3.0, 3.0, 13)[None, :]
    y = p + t
    keep = (y >= -10.0) & (y <= 14.0)
    blocks = eval_matrix(make_kernel("airy4"), np.broadcast_to(p, y.shape)[keep], y[keep])
    peaks = np.abs(blocks).max(axis=(1, 2)).tolist()
    ts = np.broadcast_to(t, y.shape)[keep].tolist()
    return 2.0 * max(peak * math.exp(-abs(dt) ** 1.5) for peak, dt in zip(peaks, ts))


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
    check_window(spec, window)
    if spec.kind == "bessel":
        return GrowthEnvelope(_bessel_envelope_amplitude(spec.bessel_s, window.b), 1.0, 1.0)
    if spec.kind == "airy":
        return GrowthEnvelope(_airy_envelope_amplitude(window.a, window.b), 1.0, 1.5)
    if spec.kind == "airy4":
        return GrowthEnvelope(_airy4_envelope_amplitude(window.a, window.b), 1.0, 1.5)
    raise DomainError(f"no growth envelope for {spec.identifier}")


def check_window(spec, window):
    """DomainError unless the window suits the kernel's density factor: a
    Bessel window with s != 0 lies inside the open half-line (0, inf), where
    rho(x) = (x/4)^{s/2} is positive and finite."""
    if spec.kind == "bessel" and window.a <= 0.0 and spec.bessel_s != 0.0:
        raise DomainError(f"bessel windows with s != 0 must lie in (0, inf), got a = {window.a}")


def sup_density(spec, window):
    """sup of the density factor rho on the window, whose ends must lie in
    the kernel's domain: 1 except for Bessel, whose monotone rho peaks at an
    end (block and Ginibre kernels carry no density factor)."""
    if spec.block_size != 1 or spec.kind == "ginibre":
        return 1.0
    if spec.kind != "bessel":
        _check_scalar_domain(spec, window.a, window.b)
        return 1.0
    check_window(spec, window)
    # past the half-line rule only s = 0 admits a <= 0, where rho is 1
    _check_scalar_domain(spec, max(window.a, 1e-300), window.b)
    s = spec.bessel_s
    return float(max(_bessel_rho(s, window.a), _bessel_rho(s, window.b)))


def factorization(spec, window):
    """Factorization Pi = rho rho PiTilde on the window (rho == 1 except Bessel)."""
    if spec.block_size != 1 or spec.kind == "ginibre":
        raise DomainError(f"factorization is defined for scalar real kernels, got {spec.identifier}")
    sup_rho = sup_density(spec, window)
    if spec.kind != "bessel":
        return Factorization(lambda x: 1.0, lambda x, y: eval_scalar(spec, x, y), sup_rho)
    s = spec.bessel_s
    return Factorization(lambda x: _bessel_rho(s, x),
                         lambda x, y: float(_bessel_reduced(s, x, y)), sup_rho)
