"""Discrete DPP sampling on quadrature nodes and pair-functional statistics.

Sampling is the two-stage scheme on the Nystrom nodes: Bernoulli coins on
the eigenvalues select m eigenvectors, then the projection chain rule
(Hough-Krishnapur-Peres-Virag) in its Gram-Schmidt form picks exactly m
nodes, each with probability proportional to the diagonal of the projection
kernel conditioned on the nodes already picked.

Randomness is counter-based: configuration k reads its own numpy Philox
stream keyed (seed, k), first n coin doubles and then one pick double per
step, so batches are reproducible and shard-stable across worker counts.
Philox4x64-10 is a pure function of (key, counter), so `_philox_doubles`
evaluates it in uint64 array arithmetic for a whole chunk of keys at once,
instead of a generator per configuration.  One pass per chunk serves both
stages: the coins of the r live eigenvalues (lambda > 0) and the r pick
doubles n .. n + r - 1, enough for any m <= r.

The draw runs chunk-wise.  A chunk's coins give each configuration its m;
the chunk is ordered by m, largest first, and runs its chain-rule steps once
for all configurations, the ones still drawing at step k being a prefix.
Each orthonormal vector is kept as r coefficients on the live eigenvector
rows, so a chunk holds (n + r^2) doubles per configuration.  The running
diagonal is updated only on the configurations that pick again, by 2-D
products in the row blocks of `exact._row_blocks`, the one home of the
BLAS budget, and clamped at 0 in the same row blocks.  Each pick is a
two-level inverse CDF over blocks of ceil(sqrt(n)) nodes (`_inverse_cdf`):
a block's end is the last entry of its left-to-right cumsum bit for bit, so
the search is monotone and lands on a node of zero weight only when the
target is 0.

The statistics read a drawn batch: `mc_exp_moment` the moment of S_q and
`negative_association` the capped counts of two windows inside the batch's
window, so one draw serves both.  `sample` solves the system it draws from,
once per call, and `negative_association_probe` samples the windows' hull.
A batch keeps only what the statistics and the JSONL read: the seed, the
node rule, and the drawn node indices with their offsets.
"""

import inspect
import json
import math
from dataclasses import dataclass

import numpy as np

from . import exact, kernels

__all__ = [
    "PairFunctional",
    "SampleBatch",
    "OverflowGuardError",
    "pair_functional",
    "gaussian_bump_q",
    "box_q",
    "custom_grid_q",
    "make_pair_functional",
    "norm_1_inf",
    "additive_functional",
    "solve",
    "sample",
    "mc_exp_moment",
    "negative_association",
    "negative_association_probe",
]

class OverflowGuardError(RuntimeError):
    """lambda * max |S_q| too large: exp moments would overflow."""


# ---------------------------------------------------------------------------
# pair functionals and the (1, infinity) block norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairFunctional:
    """Two-variable functional q with its lattice-block norm table.

    q vanishes on the diagonal and outside the compact support box; the
    norm is the sum over integer blocks [k-1,k+1] x [l-1,l+1] of the
    blockwise max of |q| (blocks overlap by construction).
    """

    evaluator: object
    support: tuple               # (x_min, x_max, y_min, y_max)
    block_norms: dict
    norm_1_inf: float


def pair_functional(evaluator, support, grid=64):
    """Build a PairFunctional: probe the diagonal, tabulate block norms.

    The block maxima come from a grid x grid search on each lattice block
    clipped to the support box; the refinement audit against a denser grid
    lives in the test-suite (the honest caveat: gridding assumes q varies
    on unit scales).
    """
    x0, x1, y0, y1 = (float(v) for v in support)
    if not (x0 < x1 and y0 < y1):
        raise ValueError("support box must be nondegenerate")
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise ValueError("support must be bounded")
    lo, hi = max(x0, y0), min(x1, y1)
    if lo < hi:
        diag = np.linspace(lo, hi, grid)
        dvals = exact._on_pairs(evaluator, diag, diag).diagonal()
        if np.max(np.abs(dvals)) > 1e-12:
            raise ValueError("q must vanish on the diagonal")
    # blocks [k-1, k+1] x [l-1, l+1] that intersect (even touch) the support;
    # one evaluator call takes a row k and a run of its l blocks side by side,
    # each call's arrays under the block rule (`kernels._BLOCK_DOUBLES`); one
    # call per row raised the sample job's peak RSS by 0.5 MB
    ls = [l for l in range(math.ceil(y0) - 1, math.floor(y1) + 2)
          if max(l - 1.0, y0) <= min(l + 1.0, y1)]
    per_call = kernels._block_rows(grid * grid)
    runs = [ls[i:i + per_call] for i in range(0, len(ls), per_call)]
    grids = [np.concatenate([np.linspace(max(l - 1.0, y0), min(l + 1.0, y1), grid)
                             for l in run]) for run in runs]
    norms = {}
    total = 0.0
    for k in range(math.ceil(x0) - 1, math.floor(x1) + 2):
        bx0, bx1 = max(k - 1.0, x0), min(k + 1.0, x1)
        if bx0 > bx1:
            continue
        xs = np.linspace(bx0, bx1, grid)
        for run, ys in zip(runs, grids):
            vals = np.abs(exact._on_pairs(evaluator, xs, ys)).reshape(grid, len(run), grid)
            for l, m in zip(run, np.max(vals, axis=(0, 2)).tolist()):
                if m > 0.0:
                    norms[(k, l)] = m
                    total += m
    return PairFunctional(evaluator, (x0, x1, y0, y1), norms, total)


def norm_1_inf(evaluator, support, grid=64):
    """The (1, infinity) block norm of q on its support box."""
    return pair_functional(evaluator, support, grid).norm_1_inf


def _masked_q(values, support):
    """The PairFunctional of values(x, y) inside the closed support box and
    off the diagonal, 0 elsewhere; x and y reach `values` as float arrays."""
    x0, x1, y0, y1 = support

    def ev(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        return np.where(inside & (x != y), values(x, y), 0.0)

    return pair_functional(ev, support)


def gaussian_bump_q(amplitude=1.0, center=(0.0, 0.0), width=1.0,
                    support=(-3.0, 3.0, -3.0, 3.0)):
    cx, cy = center
    return _masked_q(
        lambda x, y: amplitude * np.exp(-(((x - cx) ** 2) + ((y - cy) ** 2)) / (width * width)),
        support)


def box_q(amplitude=1.0, support=(0.0, 1.0, 0.0, 1.0)):
    return _masked_q(lambda x, y: float(amplitude), support)


def custom_grid_q(x, y, values):
    """Tabulated q with bilinear interpolation inside the grid box, zero
    outside and on the diagonal; both grids must increase strictly."""
    xg = np.asarray(x, dtype=float)
    yg = np.asarray(y, dtype=float)
    vals = np.asarray(values, dtype=float)
    for g in (xg, yg):
        if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0):
            raise ValueError("x and y grids need at least 2 strictly increasing entries")
    if vals.shape != (xg.size, yg.size):
        raise ValueError("values must have shape (len(x), len(y))")

    def bilinear(x, y):
        ix = np.clip(np.searchsorted(xg, x) - 1, 0, xg.size - 2)
        iy = np.clip(np.searchsorted(yg, y) - 1, 0, yg.size - 2)
        tx = (x - xg[ix]) / (xg[ix + 1] - xg[ix])
        ty = (y - yg[iy]) / (yg[iy + 1] - yg[iy])
        return (vals[ix, iy] * (1 - tx) * (1 - ty) + vals[ix + 1, iy] * tx * (1 - ty)
                + vals[ix, iy + 1] * (1 - tx) * ty + vals[ix + 1, iy + 1] * tx * ty)

    return _masked_q(bilinear, (xg[0], xg[-1], yg[0], yg[-1]))


_Q_FAMILIES = {"gaussian_bump": gaussian_bump_q, "box": box_q, "custom_grid": custom_grid_q}


def make_pair_functional(spec_dict):
    """Declarative q construction from a dict (the CLI q-spec schema).

    "family" picks the constructor; every other key is one of its keyword
    arguments, so the defaults are the constructor's own.
    """
    params = dict(spec_dict)
    family = params.pop("family", None)
    if family not in _Q_FAMILIES:
        raise ValueError(f"unknown q family {family!r}; known: {sorted(_Q_FAMILIES)}")
    build = _Q_FAMILIES[family]
    try:
        inspect.signature(build).bind(**params)
    except TypeError as exc:
        raise ValueError(f"q family {family!r}: {exc}") from None
    return build(**params)


def _pair_table(q, xs):
    """q on xs x xs with the diagonal set to zero."""
    table = exact._on_pairs(q.evaluator if isinstance(q, PairFunctional) else q, xs, xs)
    np.fill_diagonal(table, 0.0)
    return table


def additive_functional(config, q):
    """S_q = sum over ordered pairs of q; the diagonal contributes zero."""
    return float(np.sum(_pair_table(q, np.asarray(list(config), dtype=float))))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleBatch:
    """Configuration k is node_rule.nodes[indices[offsets[k]:offsets[k + 1]]]."""

    seed: int
    node_rule: object
    indices: np.ndarray
    offsets: np.ndarray
    # a class constant, not a field: every batch is drawn by this one scheme
    rng_algorithm = "philox4x64-10 key=(seed, configuration_index)"

    @property
    def configurations(self):
        """The configurations as ascending lists of node positions."""
        points = self.node_rule.nodes[self.indices].tolist()
        off = self.offsets.tolist()
        return [points[a:b] for a, b in zip(off, off[1:])]

    def jsonl_pieces(self):
        """The `to_jsonl` text in pieces of at most `_JSONL_RUN` configurations.

        Each piece is its lines, each ended by a newline; an empty batch is the
        one piece "\n".  A node's text is encoded once for the whole batch.
        """
        text = [json.dumps(x) for x in self.node_rule.nodes.tolist()]
        off = self.offsets.tolist()
        count = len(off) - 1
        for lo in range(0, max(count, 1), _JSONL_RUN):
            edge = off[lo:lo + _JSONL_RUN + 1]
            cells = [text[i] for i in self.indices[edge[0]:edge[-1]].tolist()]
            yield "\n".join(f"[{', '.join(cells[a - edge[0]:b - edge[0]])}]"
                             for a, b in zip(edge, edge[1:])) + "\n"

    def to_jsonl(self):
        """One JSON list per configuration: the join of `jsonl_pieces`."""
        return "".join(self.jsonl_pieces())


_JSONL_RUN = 1000   # configurations per piece of JSONL text
_BUDGET = 1 << 17   # doubles per chunk of draws, n + r^2 of them per configuration

# Philox4x64-10 (Salmon et al., SC 2011): round multipliers, each as its
# (low 32 bits, high 32 bits, whole) numpy scalars, and key increments
_PHILOX_M = tuple((np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32), np.uint64(m))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_HALF_BITS = np.uint64(32)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mulhilo(m, c):
    """(high, low) 64-bit words of m * c, the high word from 32-bit products,
    summed in place: c_hi m_hi + (t >> 32) + (u >> 32) with
    t = c_hi m_lo + (c_lo m_lo >> 32) and u = c_lo m_hi + (t & 2^32 - 1)."""
    m_lo, m_hi, m_all = m
    c_lo, c_hi = c & _LO32, c >> _HALF_BITS
    t = c_lo * m_lo
    t >>= _HALF_BITS
    t += c_hi * m_lo
    u = t & _LO32
    u += c_lo * m_hi
    u >>= _HALF_BITS
    t >>= _HALF_BITS
    c_hi *= m_hi
    c_hi += t
    c_hi += u
    return c_hi, c * m_all


def _philox_doubles(seed, configs, positions):
    """Doubles `positions` (ascending) of the streams keyed (seed, k), k in
    `configs`, as a (len(configs), len(positions)) array.

    Entry [k, j] equals the positions[j]-th value of
    Generator(Philox(key=(seed, k))).random(): word p of a stream is word p % 4
    of the Philox block at counter p // 4 + 1 (numpy bumps the counter before
    it fills its buffer), and a double is (word >> 11) * 2^-53.  The words are
    (blocks, configurations) arrays, so each operation runs along the long axis.
    """
    keys = np.asarray(configs, dtype=np.uint64)
    positions = np.asarray(positions, dtype=np.intp)
    if positions.size == 0:
        return np.empty((keys.size, 0))
    blocks = positions // 4
    first = np.r_[True, blocks[1:] != blocks[:-1]]
    c0 = (blocks[first] + 1).astype(np.uint64)[:, None]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k0 = seed & _MASK64
    for rnd in range(10):
        if rnd:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            keys = keys + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ keys, lo0
    words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=1).reshape(-1, keys.size)
    return ((words[4 * (np.cumsum(first) - 1) + positions % 4] >> 11) * 2.0 ** -53).T


def _chunk_size(n, r):
    """Configurations per chunk of draws on n nodes with r live eigenvalues."""
    return max(1, _BUDGET // (n + r * r))


def _block_columns(n):
    """(bs, nb, col): blocks of bs = ceil(sqrt(n)) nodes, nb of them, and the
    block-major column col[x] = j nb + b of node x = b bs + j.  The last
    block's missing nodes are zero columns."""
    bs = math.isqrt(max(n - 1, 0)) + 1
    nb = -(-n // bs)
    x = np.arange(n)
    return bs, nb, x % bs * nb + x // bs


def _inverse_cdf(d, u, bs):
    """Per row of d >= 0 (in `_block_columns` order, bs nodes a block), the
    first node x with cum(x) >= target = u * total: a two-level search.

    The nb block sums T_b are sums of contiguous column runs, each added left
    to right, and E_b = E_{b-1} + T_b (E_{-1} = 0, the total is E_{nb-1}).
    The block is the first b with E_b >= target, and the node its first j
    with cum = E_{b-1} + c_j >= target, c_j the block's left-to-right cumsum.
    c's last entry is T_b bit for bit, so such a j exists; cum is
    nondecreasing, so a node of zero weight, the zero columns that pad the
    last block included, is never first unless target = 0.
    """
    rows = np.arange(d.shape[0])
    blocks = d.reshape(rows.size, bs, -1)
    ends = np.zeros((rows.size, blocks.shape[2] + 1))   # E_{b-1} in column b
    np.add.accumulate(np.einsum("ajb->ab", blocks), axis=1, out=ends[:, 1:])
    target = u[:, None] * ends[:, -1:]
    b = np.argmax(ends[:, 1:] >= target, axis=1)
    cum = ends[rows, b][:, None] + np.add.accumulate(blocks[rows, :, b], axis=1)
    return b * bs + np.argmax(cum >= target, axis=1)


def _chain_rule(s, u, active, wt, w, w2, col, bs, d, coef):
    """The chain-rule picks of one chunk as a (configurations, max m) array,
    n past a configuration's last pick.

    Row j of s is a coin mask and row j of u its pick doubles; the rows are
    ordered by m, largest first, so the active[k] configurations still drawing
    at step k are a prefix.  With W = wt^T the (r, n) live eigenvector rows
    (w: the same in `_block_columns` order, w2 its square), the running
    diagonal d of K = W^T diag(s) W starts at s W^2.  Step k picks x with
    weight d(x), keeps e_k = a_k W by its r coefficients
    a_k = (s * W(:, x) - sum_{j<k} e_j(x) a_j) / sqrt(d(x)), e_j(x) = a_j W(:, x),
    and sets d -= e_k^2 on the configurations that pick again (m > k + 1),
    clamping each updated row block at 0 while it is in cache: rounding can
    leave a picked node a little below 0, and s W^2 starts at >= 0.
    The pick is `_inverse_cdf` on d.  The products s W^2 and a_k W are 2-D,
    (configurations, r) @ (r, nodes), in the row blocks of
    `exact._row_blocks`, so none exceeds the multiply-add budget under which
    OpenBLAS stays on the calling thread.  d and coef are the draw's buffers
    of (chunk, nodes) and (chunk, r, r) doubles; the steps use their leading
    (configurations, nodes) and (configurations, max m, r) parts.
    """
    n, r = wt.shape
    size, mmax = u.shape
    cols = w.shape[1]
    d = d[:size]
    for blk in exact._row_blocks(size, r, cols):
        np.matmul(s[blk], w2, out=d[blk])
    coef = coef[:size, :mmax]
    picks = np.full((size, mmax), n, dtype=np.intp)
    rows = np.arange(size)
    for k, (a, a1) in enumerate(zip(active[:mmax].tolist(), active[1:].tolist())):
        dk = d[:a]
        i = _inverse_cdf(dk, u[:a, k], bs)
        picks[:a, k] = i
        wi = wt[i]                    # W(:, x), one row per configuration
        ak = s[:a] * wi
        if k:
            ck = coef[:a, :k]
            ex = np.matmul(ck, wi[:, :, None])        # e_j(x) as (a, k, 1)
            ak -= np.matmul(ex.transpose(0, 2, 1), ck)[:, 0]
        ak /= np.sqrt(dk[rows[:a], col[i]])[:, None]
        coef[:a, k] = ak
        for blk in exact._row_blocks(a1, r, cols):
            e = np.matmul(ak[blk], w)
            db = d[blk]
            db -= np.square(e, out=e)
            np.maximum(db, 0.0, out=db)
    return picks


def _draw_range(lams, vectors, seed, start, stop):
    """Configurations start..stop-1 as (flat node indices, offsets).

    Column k of `vectors` (n x r or wider) is the eigenvector of live lams[k].
    Configuration k reads its own Philox stream keyed (seed, k): the coins of
    the r live eigenvalues (lambda > 0) at their positions among the first n
    doubles, then one pick double per chain-rule step from position n on.
    For a chunk of `_chunk_size(n, r)` configurations, one `_philox_doubles`
    call computes both: the live coins and the pick doubles n .. n + r - 1
    (m <= r); a configuration reads its first m picks.  The chunk is ordered
    by m, largest first (stable), for `_chain_rule`.
    """
    n = lams.size
    live = np.flatnonzero(lams > 0.0)     # coins lie in [0, 1): no other column is picked
    r = live.size
    wt = vectors[:, live]                 # row x is W(:, x)
    bs, nb, col = _block_columns(n)
    w = np.zeros((r, bs * nb))
    w[:, col] = wt.T
    w2 = np.square(w)
    chunk = _chunk_size(n, r)
    positions = np.r_[live, n:n + r]      # the live coins, then r >= m pick doubles
    sizes = np.empty(stop - start, dtype=np.intp)
    parts = [np.empty(0, dtype=np.intp)]
    # the chunk's n + r^2 doubles per configuration, allocated once per draw
    d = np.empty((min(chunk, stop - start), bs * nb))
    coef = np.empty((min(chunk, stop - start), r, r))
    for first in range(start, stop, chunk):
        keys = np.arange(first, min(first + chunk, stop), dtype=np.uint64)
        doubles = _philox_doubles(seed, keys, positions)
        sel = doubles[:, :r] < lams[live]
        ms = np.count_nonzero(sel, axis=1)
        sizes[first - start:first - start + keys.size] = ms
        order = np.argsort(-ms, kind="stable")
        mmax = int(ms[order[0]])
        if mmax == 0:
            continue
        active = keys.size - np.cumsum(np.bincount(ms))   # active[k]: configurations with m > k
        order = order[:active[0]]
        picks = _chain_rule(sel[order].astype(float), doubles[order, r:r + mmax], active,
                            wt, w, w2, col, bs, d, coef)
        picks = picks[np.argsort(order)]  # back to configuration order,
        picks.sort(axis=1)                # and nodes increase strictly: point order
        parts.append(picks[picks < n])
    del d, coef                           # no view outlives `_chain_rule`
    return np.concatenate(parts), np.r_[0, np.cumsum(sizes)]


def solve(spec, window, order):
    """(DiscretizedKernel, Spectrum, eigenvectors) that `sample` draws from;
    the eigenvectors are the n x r block of `exact.eigensystem`."""
    d = exact.discretize(spec, window, order)
    return (d, *exact.eigensystem(d))


def sample(spec, window, order, count, seed):
    """Draw `count` configurations of the discrete DPP on the GL nodes of
    `solve(spec, window, order)`; `seed` lies in [0, 2^64), the range of a
    Philox key."""
    if int(count) < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not 0 <= int(seed) < 2 ** 64:       # _philox_doubles keys by seed mod 2^64
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    d, s, vectors = solve(spec, window, order)
    indices, offsets = _draw_range(s.eigenvalues, vectors, int(seed), 0, int(count))
    return SampleBatch(int(seed), d.rule, indices, offsets)


def _window_counts(batch, window):
    """Points of each configuration inside the closed window."""
    inside = (batch.node_rule.nodes >= window.a) & (batch.node_rule.nodes <= window.b)
    # running hit counts in the narrowest unsigned type that holds them all
    hits = np.zeros(batch.indices.size + 1, dtype=np.min_scalar_type(batch.indices.size))
    np.cumsum(inside[batch.indices], dtype=hits.dtype, out=hits[1:])
    return np.diff(hits[batch.offsets])


def mc_exp_moment(batch, q, lam):
    """(mean, stderr) of exp(lam * S_q) over the batch configurations at a
    finite lam; a negative lam is fine, as E exp(lam S_q) is finite at every
    real lam."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"need a finite lam, got {lam}")
    table = _pair_table(q, batch.node_rule.nodes)
    sizes = np.diff(batch.offsets)
    svals = np.zeros(sizes.size)
    for m in np.flatnonzero(np.bincount(sizes)):  # one gather per size m, in row blocks
        members = np.flatnonzero(sizes == m)
        for blk in kernels._slices(members.size, kernels._block_rows(m * m)):
            cols = batch.indices[batch.offsets[members[blk], None] + np.arange(m)]
            svals[members[blk]] = table[cols[:, :, None], cols[:, None, :]].sum(axis=(1, 2))
    guard = lam * float(np.max(np.abs(svals))) if svals.size else 0.0
    if guard >= 500.0:
        raise OverflowGuardError(
            f"lambda * max|S_q| = {guard:.1f} >= 500; exp moments would overflow")
    vals = np.exp(lam * svals)
    est = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return est, stderr


def _check_na_windows(window, c1, c2, count, cap):
    """Raise ValueError unless C1 and C2 are disjoint windows inside `window`,
    `count` >= 2 configurations give the NA statistic its stderr and the
    count cap is a finite number >= 0."""
    if not (c1.b <= c2.a or c2.b <= c1.a):
        raise ValueError("windows C1 and C2 must be disjoint")
    for c in (c1, c2):
        if not (window.a <= c.a and c.b <= window.b):
            raise ValueError(f"window [{c.a}, {c.b}] leaves the sampled window "
                             f"[{window.a}, {window.b}]")
    if count < 2:
        raise ValueError(f"the NA probe needs samples >= 2 for its stderr, got {count}")
    if not 0.0 <= cap < math.inf:
        raise ValueError(f"the NA count cap must be a finite number >= 0, got {cap}")


def negative_association(batch, c1, c2, cap):
    """Empirical check of negative association with capped counts on a batch.

    f_i = min(#_{C_i}, cap) are bounded increasing; for a determinantal
    process E[f1 f2] <= E[f1] E[f2].  Returns (lhs, rhs, pooled stderr).
    C1 and C2 are disjoint windows inside the batch's window.
    """
    n = batch.offsets.size - 1
    cap = float(cap)
    _check_na_windows(batch.node_rule, c1, c2, n, cap)
    f1 = np.minimum(_window_counts(batch, c1), cap)
    f2 = np.minimum(_window_counts(batch, c2), cap)
    lhs = float(np.mean(f1 * f2))
    m1, m2 = float(np.mean(f1)), float(np.mean(f2))
    rhs = m1 * m2
    var12 = float(np.var(f1 * f2, ddof=1))
    var1 = float(np.var(f1, ddof=1))
    var2 = float(np.var(f2, ddof=1))
    stderr = math.sqrt((var12 + m2 * m2 * var1 + m1 * m1 * var2) / n)
    return lhs, rhs, stderr


def negative_association_probe(spec, c1, c2, cap, samples, seed, order=512):
    """`negative_association` on `samples` fresh draws from the hull of C1
    and C2.  Bad windows, counts or caps raise before anything is solved or
    drawn.
    """
    hull = kernels.Interval(min(c1.a, c2.a), max(c1.b, c2.b))
    _check_na_windows(hull, c1, c2, samples, float(cap))
    batch = sample(spec, hull, order, samples, seed)
    return negative_association(batch, c1, c2, cap)
