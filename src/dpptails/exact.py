"""Exact spectral oracles for counting statistics.

Nystrom discretization of a scalar kernel on Gauss-Legendre nodes, a
certified low-rank eigensolve (diagonal-pivoted Cholesky to a relative
residual, one subspace-iteration step orthonormalized by two-pass
Gram-Schmidt, then a Rayleigh-Ritz solve of the r x r projected matrix by
LAPACK through np.linalg.eigh, with the spectral mass beyond rank r bounded
through Weyl's inequality), the Bernoulli-sum counting distribution (one
log-space recursion for the pmf and both sides of every tail), the Fredholm
generating function, a Parlett-Reid Pfaffian, correlation functions, and
two analytic cross-checks (Ginibre disk eigenvalues, scaled Legendre
normalization).

A DiscretizedKernel is the GL rule and the Nystrom matrix, nothing more: the
window is the rule's [a, b].  The moments of exp(lam count^2) take a finite
lam >= 0 only, by the rule `bounds` shares (`specfun._moment_lambda`).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels as _kernels
from . import specfun
from .specfun import _LOG_MAX, QuadratureRule, _logsumexp, gauss_legendre, incomplete_gamma_ratio

__all__ = [
    "DiscretizedKernel",
    "Spectrum",
    "CountDistribution",
    "SpectrumRangeError",
    "TruncationError",
    "discretize",
    "spectrum",
    "eigensystem",
    "count_distribution",
    "tail",
    "tail_bracket",
    "exp_moment_sq",
    "exp_moment_sq_bracket",
    "generating_function",
    "pfaffian",
    "correlation_function",
    "ginibre_disk_eigenvalues",
    "ginibre_disk_nystrom_eigenvalues",
    "legendre_partition",
]


class SpectrumRangeError(RuntimeError):
    """Raw eigenvalue too far outside [0, 1]: discretization is unconverged."""


class TruncationError(RuntimeError):
    """Truncated spectral mass cannot certify the requested quantity."""


@dataclass(frozen=True)
class DiscretizedKernel:
    rule: QuadratureRule
    matrix: np.ndarray

    @property
    def trace(self):
        return float(np.trace(self.matrix))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of the restricted kernel: HKPV Bernoulli success probabilities.

    Only the first `rank` entries were solved for; the rest are zeros whose
    true values sum to at most `truncated_mass` (default: a full solve).
    """

    eigenvalues: np.ndarray
    raw_out_of_range: float
    truncated_mass: float = 0.0
    rank: int = None

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", ev)
        if self.rank is None:
            object.__setattr__(self, "rank", ev.size)
        if ev.size and not (ev.min() >= 0.0 and ev.max() <= 1.0):    # NaN fails too
            raise ValueError("eigenvalues must be finite and clipped to [0, 1]")
        if not all(0.0 <= m < math.inf for m in (self.raw_out_of_range, self.truncated_mass)):
            raise ValueError("raw_out_of_range and truncated_mass must be finite and >= 0")
        if np.any(np.diff(ev) > 0):
            raise ValueError("eigenvalues must be descending")

    def to_json_dict(self):
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "raw_out_of_range": float(self.raw_out_of_range),
            "rank": int(self.rank),
            "truncated_mass": float(self.truncated_mass),
        }


@dataclass(frozen=True)
class CountDistribution:
    pmf: np.ndarray
    truncation_error_bound: float
    n_truncated: int = 0          # dropped Bernoulli components (caps the support)
    log_pmf: np.ndarray = None    # default log(pmf); count_distribution passes its own

    def __post_init__(self):
        p = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", p)
        if self.log_pmf is None:
            with np.errstate(divide="ignore"):
                object.__setattr__(self, "log_pmf", np.log(p))
        if np.any(p < 0):
            raise ValueError("pmf entries must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-10:
            raise ValueError("pmf must sum to 1 within 1e-10")

    def to_json_dict(self):
        return {
            "pmf": [float(v) for v in self.pmf],
            "truncation_error_bound": float(self.truncation_error_bound),
        }


# ---------------------------------------------------------------------------
# Nystrom discretization
# ---------------------------------------------------------------------------

def _on_pairs(f, xs, ys):
    """f on the grid xs x ys, one call on the broadcast pairs of each row
    block (`kernels._block_rows`); f may return a constant."""
    out = np.empty((xs.size, ys.size))
    for blk in _kernels._slices(xs.size, _kernels._block_rows(ys.size)):
        out[blk] = f(xs[blk, None], ys[None, :])
    return out


def _kernel_gram(spec, xs):
    """Gram matrix at the nodes xs of a KernelSpec or of a plain callable
    (x, y) -> value.  The callable is called once per row block, on the
    columns from the block's first row on, and the lower triangle is
    mirrored."""
    if isinstance(spec, _kernels.KernelSpec):
        return _kernels.kernel_matrix(spec, xs)
    n = xs.size
    gram = np.empty((n, n))
    for blk in _kernels._slices(n, _kernels._block_rows(n)):
        lo = blk.start
        gram[blk, lo:] = spec(xs[blk, None], xs[None, lo:])
        gram[blk, :lo] = gram[:lo, blk].T
        tile = gram[blk, blk]
        np.copyto(tile, tile.T, where=np.tri(blk.stop - lo, k=-1, dtype=bool))
    return gram


# the side of a square tile under the block rule: 127^2 < 2^14 doubles
_TILE = math.isqrt(_kernels._BLOCK_DOUBLES - 1)


def discretize(spec, window, order):
    """Symmetrized Nystrom matrix sqrt(w_i w_j) Pi(x_i, x_j) on a GL rule.

    The Gram matrix is the only n x n array: it is scaled in place and
    symmetrized one mirrored pair of tiles at a time through one scratch
    tile, (g_ij + g_ji) / 2 at both places."""
    order = int(order)
    if order < 8:
        raise ValueError("need order >= 8")
    rule = gauss_legendre(order, window.a, window.b)
    mat = _kernel_gram(spec, rule.nodes)
    sw = np.sqrt(rule.weights)
    mat *= sw[:, None]
    mat *= sw[None, :]
    tiles = _kernels._slices(order, _TILE)
    scratch = np.empty((tiles[-1].stop - tiles[-1].start,) * 2)
    for i, rows in enumerate(tiles):
        for cols in tiles[i:]:
            t = np.add(mat[rows, cols], mat[cols, rows].T,
                       out=scratch[:rows.stop - rows.start, :cols.stop - cols.start])
            t *= 0.5
            mat[rows, cols] = t
            mat[cols, rows] = t.T
    return DiscretizedKernel(rule, mat)


# ---------------------------------------------------------------------------
# low-rank eigensolve
# ---------------------------------------------------------------------------

_RANGE_BAND = 1e-6
_EPS = float(np.finfo(float).eps)


def _pivoted_cholesky(a):
    """Rows of the diagonal-pivoted Cholesky factor of a, stopped once the
    positive residual diagonal sums to <= 4 n eps trace(a) or no residual
    diagonal entry is positive.  Storage grows by doubling, so it stays
    O(n r) for rank r."""
    n = a.shape[0]
    res = np.diag(a).copy()
    stop = 4.0 * n * _EPS * float(np.sum(res))
    rows = np.empty((min(n, 32), n))
    r = 0
    while r < n:
        p = int(np.argmax(res))
        if res[p] <= 0.0 or float(np.sum(np.maximum(res, 0.0))) <= stop:
            break
        if r == rows.shape[0]:
            rows = np.concatenate([rows, np.empty((min(r, n - r), n))])
        col = (a[p] - rows[:r, p] @ rows[:r]) / math.sqrt(res[p])
        rows[r] = col
        res -= col * col
        res[p] = 0.0
        r += 1
    return rows[:r]


def _orthonormal_columns(rows):
    """Orthonormal basis (n x r) of the span of `rows` by two-pass
    classical Gram-Schmidt."""
    r, n = rows.shape
    q = np.empty((n, r))
    for j in range(r):
        v = rows[j].copy()
        for _ in range(2):
            v -= q[:, :j] @ (q[:, :j].T @ v)
        q[:, j] = v / np.linalg.norm(v)
    return q


# rows * inner * cols of one matrix product.  OpenBLAS 0.3.31 (numpy 2.4,
# 2 cores) runs dgemm on the calling thread up to 786 432 and wakes a second
# thread from 1 179 648; a woken thread spins ~120 ms of CPU after the call
# and buys no wall time at these sizes, so each product stays 6x below.
_BLAS_BLOCK = 1 << 17


def _row_blocks(m, inner, cols):
    """Row slices of an (m x inner) @ (inner x cols) product, each with
    rows * inner * cols <= _BLAS_BLOCK (one row at least).  The sizes are
    balanced, so no block is a single row unless every block is: numpy
    sends a one-row product to gemv, whose rounding may differ from gemm."""
    return _kernels._slices(m, max(1, _BLAS_BLOCK // max(1, inner * cols)))


def _matmul(x, y):
    """x @ y by row blocks of x (`_row_blocks`).  Each entry is the same
    inner sum as in the one product, but OpenBLAS picks its kernel by the
    block's shape, so the rounding may differ.  On the solves measured
    (ranks 4-16 at orders 128-384) it does not; on random 384 x 384 by
    384 x 33 products it does, within the dot-product bound."""
    out = np.empty((x.shape[0], y.shape[1]))
    for blk in _row_blocks(x.shape[0], x.shape[1], y.shape[1]):
        out[blk] = x[blk] @ y
    return out


def _residual(a, q, b):
    """(diagonal, Frobenius norm) of E = a - q b q^T, accumulated per row
    block (`_row_blocks`), so the n x n residual is never formed.  A block
    of E is formed in the buffer of its product q b q^T and squared there,
    so each block holds one temporary.

    The squares of a block are added by numpy's pairwise sum (one run over
    the contiguous block: 8 running sums of at most 16 terms, then halving),
    and the at most n block sums in order.  So each square meets at most
    13 + 2 log2(n) + n roundings of relative size eps/2 on its way to the
    total, the square root halves that, and the norm is within n eps of
    the norm of the computed entries for every n >= 8.  A BLAS dot over
    the n^2 squares adds them in long sequential runs (per SIMD lane or
    thread), whose worst case grows like n^2 eps.
    """
    n, r = q.shape
    bqt = _matmul(b, q.T)
    diag = np.empty(n)
    sumsq = 0.0
    for blk in _row_blocks(n, r, n):
        e = q[blk] @ bqt
        np.subtract(a[blk], e, out=e)
        diag[blk] = e.diagonal(blk.start)
        e *= e
        sumsq += float(np.sum(e))
    return diag, math.sqrt(sumsq)


def _low_rank_solve(a):
    """Rayleigh-Ritz on a times the pivoted-Cholesky range of symmetric a.

    Returns (ritz, vectors, truncated_mass): the r Ritz values, the lifted
    Ritz vectors as an n x r block whose column k belongs to ritz[k], and an
    outward-rounded bound on the positive spectral mass of a beyond rank r.
    With E = a - Q B Q^T, Weyl's inequality gives lambda_{r+k}(a) <=
    lambda_k(E), so that mass is at most (tr E + sqrt(n) ||E||_F) / 2.
    Raises SpectrumRangeError when ||E||_F exceeds the range band: an
    indefinite part the factor skipped.

    The n x n x r products run in row blocks (`_matmul`, `_residual`) and
    ||E||_F is a numpy sum, not a BLAS dot, so OpenBLAS runs every call on
    the calling thread and each output is the same at any thread count
    (the matrix-vector products of the factor and of Gram-Schmidt, r n <=
    18 432 entries at the orders <= 384 of the workloads, stay there too).
    So does eigh up to r = 25, which LAPACK solves by implicit QL/QR; the
    workloads reach r = 16.  From r = 26 LAPACK switches to divide and
    conquer, and OpenBLAS 0.3.31 (2 cores) then wakes a second thread that
    spins ~130 ms of CPU after the call; the r = 33 solve of sine [0, 20]
    still gives the same bits at one and two threads.
    tr E is rounded up by n eps sum |E_ii|, the worst case of any order of
    summation; ||E||_F by the factor (1 + n eps), which covers the pairwise
    sum per block and the ordered sum over blocks that `_residual` runs.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("the eigensolve needs a finite matrix")
    n = a.shape[0]
    q = _orthonormal_columns(_pivoted_cholesky(a))
    # one subspace-iteration step: the pivot columns hold the eigenvectors of
    # small retained eigenvalues only loosely, and a q is sharper by the ratio
    # of the dropped to the retained eigenvalues
    q = _orthonormal_columns(_matmul(a, q).T)
    r = q.shape[1]
    b = _matmul(q.T, _matmul(a, q))
    b = 0.5 * (b + b.T)
    try:
        ritz, w = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:    # a ValueError, which reads as bad input
        raise specfun.ConvergenceError(f"eigh of the {r} x {r} projected matrix: {exc}") from exc
    de, fro = _residual(a, q, b)
    if fro > _RANGE_BAND:
        raise SpectrumRangeError(
            f"residual beyond rank {r} has Frobenius norm {fro:.3e} > {_RANGE_BAND:g}: "
            "the matrix is indefinite beyond the range band")
    # round both sums outward by their worst-case summation error
    tr_up = float(np.sum(de)) + n * _EPS * float(np.sum(np.abs(de)))
    bound = 0.5 * (tr_up + math.sqrt(n) * fro * (1.0 + n * _EPS))
    return ritz, _matmul(q, w), math.nextafter(max(bound, 0.0), math.inf)


def _solve(d):
    """(Spectrum, n x r eigenvector block) of a DiscretizedKernel: the r Ritz
    pairs sorted once, descending (stable), range-checked and clipped, with
    only the eigenvalues padded by zeros to length n."""
    ritz, vectors, mass = _low_rank_solve(d.matrix)
    order = np.argsort(-ritz, kind="stable")
    ritz = ritz[order]
    clipped = np.clip(ritz, 0.0, 1.0)
    viol = float(np.max(np.abs(ritz - clipped), initial=0.0))
    if viol > _RANGE_BAND:
        raise SpectrumRangeError(
            f"raw eigenvalue outside [-1e-6, 1+1e-6] by {viol:.3e}; raise the quadrature order")
    padded = np.concatenate([clipped, np.zeros(d.matrix.shape[0] - ritz.size)])
    return Spectrum(padded, viol, mass, ritz.size), vectors[:, order]


def spectrum(d):
    """Spectrum of a DiscretizedKernel, eigenvalues descending and clipped;
    entries beyond the numerical rank are zeros covered by truncated_mass."""
    return _solve(d)[0]


def eigensystem(d):
    """(Spectrum, eigenvectors): an n x r block whose column k belongs to
    eigenvalue k, for the r = Spectrum.rank solved pairs; the zeros beyond
    the numerical rank have no column."""
    return _solve(d)


# ---------------------------------------------------------------------------
# counting distribution of the independent-Bernoulli representation
# ---------------------------------------------------------------------------

_EIGEN_FLOOR = 1e-16


def effective_eigen_floor(s):
    """Pinned floor 1e-16, widened to the eigensolver noise scale.

    A double-precision eigensolve perturbs eigenvalues at absolute scale
    ~ n*eps*||A||, so retaining everything above the bare 1e-16 floor would
    keep pure numerical noise as fake Bernoulli components.
    """
    n = len(s.eigenvalues)
    lam_max = float(s.eigenvalues[0]) if n else 1.0
    return max(_EIGEN_FLOOR, 8.0 * n * np.finfo(float).eps * max(lam_max, 1e-30))


def _log_bernoulli_pmf(log_p, log_q):
    """log pmf of sum_k Bernoulli(p_k) from (log p_k, log q_k), q_k = 1 - p_k taken
    as given: log pmf'_k = logaddexp(log pmf_k + log q, log pmf_{k-1} + log p)."""
    log_pmf = np.r_[0.0, np.full(len(log_p), -math.inf)]
    for k, (lp, lq) in enumerate(zip(log_p, log_q), 1):
        log_pmf[1:k + 1] = np.logaddexp(log_pmf[1:k + 1] + lq, log_pmf[:k] + lp)
        log_pmf[0] += lq
    return log_pmf


def count_distribution(s):
    """Law of the particle count: the Bernoulli(lambda_k) sum over the
    eigenvalues above `effective_eigen_floor`, with pmf = exp(log_pmf)."""
    floor = effective_eigen_floor(s)
    lams = s.eigenvalues[s.eigenvalues > floor]
    small = [float(v) for v in s.eigenvalues if 0.0 < v <= floor]
    with np.errstate(divide="ignore"):    # log1p(-1) = -inf: a sure point
        log_pmf = _log_bernoulli_pmf(np.log(lams), np.log1p(-lams))
    # the zeros beyond the solved rank are dropped components as well
    dropped = len(small) + s.eigenvalues.size - s.rank
    return CountDistribution(np.exp(log_pmf), float(sum(small)) + s.raw_out_of_range
                             + s.truncated_mass, dropped, log_pmf)


def tail_bracket(c, n):
    """(log lower, log upper) of P(count >= n).  The lower side is the retained
    law's tail (-inf past its support): dropped components only lower it, and
    the retained Ritz values lie below the Nystrom eigenvalues (interlacing), so
    it bounds the Nystrom process, not the continuum, up to the rounding of the
    r x r solve.  The upper side adds truncation_error_bound, capped at 0."""
    n = int(n)
    if n <= 0:
        return 0.0, 0.0
    low = min(0.0, _logsumexp(c.log_pmf[n:]))
    t = c.truncation_error_bound
    up = float(np.logaddexp(low, math.log(t))) if t > 0.0 else low
    return low, min(0.0, up)


def tail(c, n):
    """Certified upper value of P(count >= n): the upper side of tail_bracket."""
    return math.exp(tail_bracket(c, n)[1])


def _moment_sum(c, lam):
    """sum_k e^{lam k^2} pmf_k over the retained support, or inf if no double."""
    k2 = np.arange(c.pmf.size) ** 2.0
    if not lam * k2[-1] <= _LOG_MAX:
        return math.inf
    with np.errstate(over="ignore"):
        return float(np.sum(np.exp(lam * k2) * c.pmf))


def exp_moment_sq(c, lam):
    """E exp(lam * count^2) as a plain pmf sum.

    Guard (as contracted): exp(lam N^2) * truncation_error_bound must stay
    below 1e-10 of the running sum, otherwise the truncated mass could move
    the answer and a TruncationError is raised; so is one where exp(lam N^2)
    would overflow.  Use exp_moment_sq_bracket for a certified two-sided
    answer at large lam.
    """
    lam = specfun._moment_lambda(lam)
    big_n = c.pmf.size - 1
    total = _moment_sum(c, lam)
    if not math.isfinite(total):
        raise TruncationError(f"exp(lam N^2) overflows a double at lam={lam}, N={big_n}")
    trunc = c.truncation_error_bound
    if trunc > 0.0:
        log_guard = lam * big_n * big_n + math.log(trunc)
        if log_guard > math.log(1e-10 * total):
            raise TruncationError(
                "truncated spectral mass is uncontrolled at this lambda "
                f"(guard exp({log_guard:.3g}) vs 1e-10*sum)")
    return total


def exp_moment_sq_bracket(c, lam, tail_log_fn=None):
    """Certified bracket (log_lower, log_upper) for log E exp(lam * count^2).

    log_lower is log(exp_moment_sq) bit for bit wherever that sum is a double,
    and a max-shifted log-sum-exp elsewhere, so it is finite at any lam.  The
    count is retained + J, J a Poisson-binomial of the truncated mass T over
    n_truncated components, and log_upper adds two rigorous corrections:

    - on [0, N], exp(lam count^2) <= e^{lam N^2}, and the perturbation
      inflates the moment by at most exp(T e^{lam (2N+1)}) (inf where that is
      no double); both bound the same part, so the smaller serves;
    - a count of N + j needs j dropped components to fire:
      P(# >= N + j) <= min(1, T^j/j!, exp(tail_log_fn(N + j))); the last
      entry is the analytic divided-difference chain, the only handle below
      the double-precision spectral noise floor.
    """
    lam = specfun._moment_lambda(lam)
    total = _moment_sum(c, lam)
    log_low = (math.log(total) if math.isfinite(total)
               else _logsumexp(lam * np.arange(c.pmf.size) ** 2.0 + c.log_pmf))
    t, big_n = c.truncation_error_bound, c.pmf.size - 1
    if t <= 0.0:
        return log_low, log_low
    grow = lam * (2 * big_n + 1)
    shift = t * math.exp(grow) if grow <= _LOG_MAX else math.inf
    log_up = min(log_low + shift, max(log_low, lam * big_n * big_n))
    # the support ends at N + n_truncated; log j! is the running sum of log i
    j = np.arange(1, c.n_truncated + 1)
    k = big_n + j
    cap = np.minimum(0.0, j * math.log(t) - np.cumsum(np.log(j)))
    if tail_log_fn is not None:
        cap = np.minimum(cap, np.fromiter(map(tail_log_fn, k.tolist()), float, k.size))
    return log_low, float(np.logaddexp(log_up, _logsumexp(lam * k * k + cap)))


def generating_function(s, z):
    """prod_k (1 + (z - 1) lambda_k) at a finite z, the Fredholm-type generating function."""
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"need a finite z, got {z}")
    return float(np.prod(1.0 + (z - 1.0) * np.asarray(s.eigenvalues)))


# ---------------------------------------------------------------------------
# Pfaffian via Parlett-Reid tridiagonalization with partial pivoting
# ---------------------------------------------------------------------------

def pfaffian(m):
    """Pfaffian of a real skew-symmetric matrix; odd dimension gives 0."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    n = a.shape[0]
    if n == 0:
        return 1.0
    if float(np.max(np.abs(a + a.T))) > 1e-12:
        raise ValueError("matrix is not skew-symmetric within 1e-12")
    if n % 2 == 1:
        return 0.0
    pf = 1.0
    for k in range(0, n - 2, 2):
        # pivot the largest entry of row k into position k+1
        rel = int(np.argmax(np.abs(a[k, k + 1:])))
        piv = k + 1 + rel
        if a[k, piv] == 0.0:
            return 0.0
        if piv != k + 1:
            a[[k + 1, piv], :] = a[[piv, k + 1], :]
            a[:, [k + 1, piv]] = a[:, [piv, k + 1]]
            pf = -pf
        alpha = a[k, k + 1]
        pf *= alpha
        # zero row/col k beyond k+1 using row/col k+1, then row/col k+1
        # beyond k+1 using row/col k; Gauss transforms leave Pf invariant
        mu = a[k, k + 2:] / alpha
        a[:, k + 2:] -= np.outer(a[:, k + 1], mu)
        a[k + 2:, :] -= np.outer(mu, a[k + 1, :])
        nu = a[k + 1, k + 2:] / a[k + 1, k]
        a[:, k + 2:] -= np.outer(a[:, k], nu)
        a[k + 2:, :] -= np.outer(nu, a[k, :])
    return pf * a[n - 2, n - 1]


def correlation_function(spec, points):
    """n-point correlation: det for scalar kernels, Pf of the 2n x 2n
    particle-major block matrix for 2x2-block kernels."""
    pts = [float(p) for p in points]
    n = len(pts)
    if n == 0:
        return 1.0
    if n > 16:
        raise ValueError("correlation_function supports n <= 16")
    p = np.array(pts)
    if isinstance(spec, _kernels.KernelSpec) and spec.block_size == 2:
        # (n, n, 2, 2) blocks -> particle-major 2n x 2n
        blocks = _kernels.eval_matrix(spec, p[:, None], p[None, :])
        big = blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
        big = 0.5 * (big - big.T)
        return pfaffian(big)
    return float(np.linalg.det(_kernel_gram(spec, p)))


# ---------------------------------------------------------------------------
# analytic cross-checks
# ---------------------------------------------------------------------------

def ginibre_disk_eigenvalues(radius, kmax):
    """Analytic spectrum of the Ginibre kernel on a centered disk:
    lambda_k = gamma(k+1, r^2)/k!, descending in k."""
    radius = float(radius)
    if radius <= 0 or radius > 12.0:
        raise specfun.DomainError("need 0 < radius <= 12")
    kmax = int(kmax)
    if kmax < 0 or kmax > 200:
        raise specfun.DomainError("need 0 <= kmax <= 200")
    x = radius * radius
    return [incomplete_gamma_ratio(k, x) for k in range(kmax + 1)]


def ginibre_disk_nystrom_eigenvalues(radius, n_radial=24, n_angular=48):
    """2-d Nystrom oracle on the disk: Gauss-Legendre in radius, trapezoid
    in angle (spectrally accurate for the periodic direction), Hermitian
    eigenvalues of the weighted kernel matrix."""
    rule = gauss_legendre(int(n_radial), 0.0, float(radius))
    thetas = 2.0 * np.pi * np.arange(n_angular) / n_angular
    wt = 2.0 * np.pi / n_angular
    rr, tt = np.meshgrid(rule.nodes, thetas, indexing="ij")
    z = (rr * np.exp(1j * tt)).ravel()
    w = np.repeat(rule.weights * rule.nodes, n_angular) * wt
    gram = (1.0 / np.pi) * np.exp(
        np.outer(z, np.conj(z)) - 0.5 * np.abs(z)[:, None] ** 2 - 0.5 * np.abs(z)[None, :] ** 2)
    sw = np.sqrt(w)
    mat = sw[:, None] * gram * sw[None, :]
    ev = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    return np.sort(ev)[::-1]


def legendre_partition(n):
    """Normalization of the scaled uniform-weight ensemble on [-n/2, n/2].

    Returns (formula_value, quadrature_value): the closed-form product and,
    for n <= 3, a brute-force tensor Gauss-Legendre evaluation of
    int prod (t_i - t_j)^2.  Known edge case: at n = 1 the closed form gives
    2 while the direct integral is 1; both are returned, callers flag it.
    """
    n = int(n)
    if n < 1 or n > 6:
        raise ValueError("formula supported for 1 <= n <= 6")
    prod = 1.0
    for k in range(n):
        prod *= math.factorial(k) ** 2 / math.factorial(2 * k + 1)
    formula = float(n) ** (n * (n - 1) / 2.0) * 2.0 ** (n * (n + 1) / 2.0) * prod
    if n > 3:
        return formula, None
    order = 40
    rule = gauss_legendre(order, -n / 2.0, n / 2.0)
    x, w = rule.nodes, rule.weights
    if n == 1:
        quad = float(np.sum(w))
    elif n == 2:
        d = x[:, None] - x[None, :]
        quad = float(np.einsum("i,j,ij->", w, w, d * d))
    else:
        d01 = (x[:, None] - x[None, :]) ** 2
        quad = float(np.einsum("i,j,k,ij,ik,jk->", w, w, w, d01, d01, d01))
    return formula, quad
