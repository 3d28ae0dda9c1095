"""Discrete DPP sampling on quadrature nodes and pair-functional statistics.

Sampling is the two-stage scheme on the Nystrom nodes: Bernoulli coins on
the eigenvalues select m eigenvectors, then the projection chain rule
(Hough-Krishnapur-Peres-Virag) in its Gram-Schmidt form picks exactly m
nodes, each with probability proportional to the diagonal of the projection
kernel conditioned on the nodes already picked.

Randomness is counter-based: configuration k reads its own numpy Philox
stream keyed (seed, k), first n coin doubles and then one pick double per
step, so batches are reproducible and shard-stable across worker counts.

The draw runs block-wise.  A block of configurations fills one row of 2n
doubles per stream; the coins give each configuration its m; the block's
configurations are grouped by m; and each group runs its m chain-rule steps
once, on a stacked (configurations, m, nodes) array of eigenvector rows.
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
    "negative_association_probe",
]

RNG_ALGORITHM = "philox4x64-10 key=(seed, configuration_index)"


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


def _eval_grid(evaluator, xs, ys):
    """q on the grid of arrays xs x ys from one call on broadcast coordinates."""
    vals = evaluator(xs[:, None], ys[None, :])
    return np.array(np.broadcast_to(vals, (xs.size, ys.size)), dtype=float)


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
        dvals = _eval_grid(evaluator, diag, diag).diagonal()
        if np.max(np.abs(dvals)) > 1e-12:
            raise ValueError("q must vanish on the diagonal")
    norms = {}
    total = 0.0
    # blocks [k-1, k+1] x [l-1, l+1] that intersect (even touch) the support
    for k in range(math.ceil(x0) - 1, math.floor(x1) + 2):
        bx0, bx1 = max(k - 1.0, x0), min(k + 1.0, x1)
        if bx0 > bx1:
            continue
        xs = np.linspace(bx0, bx1, grid)
        for l in range(math.ceil(y0) - 1, math.floor(y1) + 2):
            by0, by1 = max(l - 1.0, y0), min(l + 1.0, y1)
            if by0 > by1:
                continue
            ys = np.linspace(by0, by1, grid)
            m = float(np.max(np.abs(_eval_grid(evaluator, xs, ys))))
            if m > 0.0:
                norms[(k, l)] = m
                total += m
    return PairFunctional(evaluator, (x0, x1, y0, y1), norms, total)


def norm_1_inf(evaluator, support, grid=64):
    """The (1, infinity) block norm of q on its support box."""
    return pair_functional(evaluator, support, grid).norm_1_inf


def gaussian_bump_q(amplitude=1.0, center=(0.0, 0.0), width=1.0,
                    support=(-3.0, 3.0, -3.0, 3.0)):
    cx, cy = center

    def ev(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        v = amplitude * np.exp(-(((x - cx) ** 2) + ((y - cy) ** 2)) / (width * width))
        v = np.where(x == y, 0.0, v)
        inside = (x >= support[0]) & (x <= support[1]) & (y >= support[2]) & (y <= support[3])
        return np.where(inside, v, 0.0)

    return pair_functional(ev, support)


def box_q(amplitude=1.0, support=(0.0, 1.0, 0.0, 1.0)):
    def ev(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        inside = (x >= support[0]) & (x <= support[1]) & (y >= support[2]) & (y <= support[3])
        return np.where(inside & (x != y), float(amplitude), 0.0)

    return pair_functional(ev, support)


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

    def ev(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ix = np.clip(np.searchsorted(xg, x) - 1, 0, xg.size - 2)
        iy = np.clip(np.searchsorted(yg, y) - 1, 0, yg.size - 2)
        tx = (x - xg[ix]) / (xg[ix + 1] - xg[ix])
        ty = (y - yg[iy]) / (yg[iy + 1] - yg[iy])
        v = (vals[ix, iy] * (1 - tx) * (1 - ty) + vals[ix + 1, iy] * tx * (1 - ty)
             + vals[ix, iy + 1] * (1 - tx) * ty + vals[ix + 1, iy + 1] * tx * ty)
        inside = (x >= xg[0]) & (x <= xg[-1]) & (y >= yg[0]) & (y <= yg[-1])
        return np.where(inside & (x != y), v, 0.0)

    return pair_functional(ev, (xg[0], xg[-1], yg[0], yg[-1]))


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
    table = _eval_grid(q.evaluator if isinstance(q, PairFunctional) else q, xs, xs)
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
    spectrum: object
    rng_algorithm: str = RNG_ALGORITHM

    @property
    def configurations(self):
        """The configurations as ascending lists of node positions."""
        points = self.node_rule.nodes[self.indices].tolist()
        off = self.offsets.tolist()
        return [points[a:b] for a, b in zip(off, off[1:])]

    def to_jsonl(self):
        return "\n".join(json.dumps(cfg) for cfg in self.configurations) + "\n"


_BLOCK = 128   # configurations per block: bounds the temporaries of draws and S_q


def _draw_range(lams, vectors, seed, start, stop):
    """Configurations start..stop-1 as (flat node indices, offsets).

    Configuration k reads its own Philox stream keyed (seed, k): n coin
    doubles, then one pick double per chain-rule step.  Resetting the
    generator's state to that key, counter 0 and an empty buffer gives the
    same doubles as a fresh Philox(key=(seed, k)).

    Each group of equal m keeps the running diagonal d of K = V V^T and an
    orthonormal e_1..e_m: step k picks x with weight d(x), then sets
    e_k = (K(:, x) - sum_{j<k} e_j(x) e_j) / sqrt(d(x)) and d -= e_k^2.
    """
    n = lams.size
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    zeros = np.zeros(4, dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    rows = np.empty((_BLOCK, 2 * n))      # n coins, then up to n pick doubles
    live = np.flatnonzero(lams > 0.0)     # coins lie in [0, 1): no other column is picked
    vt = np.ascontiguousarray(vectors[:, live].T)
    sizes = np.empty(stop - start, dtype=np.intp)
    parts = [np.empty(0, dtype=np.intp)]
    for first in range(start, stop, _BLOCK):
        count = min(_BLOCK, stop - first)
        for j in range(count):
            key[1] = first + j
            bitgen.state = {"bit_generator": "Philox",
                            "state": {"counter": zeros, "key": key},
                            "buffer": zeros, "buffer_pos": 4,
                            "has_uint32": 0, "uinteger": 0}
            gen.random(out=rows[j])
        sel = rows[:count, live] < lams[live]
        ms = np.count_nonzero(sel, axis=1)
        sizes[first - start:first - start + count] = ms
        ends = np.cumsum(ms)
        starts = ends - ms
        out = np.empty(ends[-1], dtype=np.intp)
        for m in np.flatnonzero(np.bincount(ms)):      # an m = 0 group takes no step
            members = np.flatnonzero(ms == m)
            g = np.arange(members.size)[:, None]
            cols = np.nonzero(sel[members])[1].reshape(members.size, m)
            v = vt[cols]                                # (g, m, n)
            d = np.einsum("gij,gij->gj", v, v)
            e = np.empty_like(v)
            picks = np.empty((members.size, m), dtype=np.intp)
            for step in range(m):
                np.maximum(d, 0.0, out=d)
                cum = np.add.accumulate(d, axis=1)
                r = rows[members, n + step][:, None] * cum[:, -1:]
                # the count is searchsorted(cum, r) on each nondecreasing row
                i = np.minimum(np.add.reduce(cum < r, axis=1), n - 1)[:, None]
                picks[:, step:step + 1] = i
                col = e[:, step:step + 1]      # e_k, built in place
                np.matmul(vt[cols[:, None, :], i[:, :, None]], v, out=col)
                if step:
                    col -= np.matmul(e[g, :step, i], e[:, :step])
                col /= np.sqrt(d[g, i])[:, :, None]
                d -= np.square(col[:, 0])
            picks.sort(axis=1)  # the nodes increase strictly, so this is point order
            out[starts[members, None] + np.arange(m)] = picks
        parts.append(out)
    return np.concatenate(parts), np.r_[0, np.cumsum(sizes)]


def solve(spec, window, order):
    """(DiscretizedKernel, Spectrum, eigenvectors) that `sample` draws from."""
    d = exact.discretize(spec, window, order)
    return (d, *exact.eigensystem(d))


def sample(spec, window, order, count, seed, system=None):
    """Draw `count` configurations of the discrete DPP on the GL nodes.

    `system` is the `solve(spec, window, order)` triple when the caller
    already has it; otherwise it is solved here.
    """
    if int(count) < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if system is None:
        system = solve(spec, window, order)
    d, s, vectors = system
    if d.window != (float(window.a), float(window.b)) or d.matrix.shape[0] != int(order):
        raise ValueError(f"the system was solved on {d.window} at order "
                         f"{d.matrix.shape[0]}, not on the requested window and order")
    indices, offsets = _draw_range(s.eigenvalues, vectors, int(seed), 0, int(count))
    return SampleBatch(int(seed), d.rule, indices, offsets, s)


def _window_counts(batch, window):
    """Points of each configuration inside the closed window."""
    inside = (batch.node_rule.nodes >= window.a) & (batch.node_rule.nodes <= window.b)
    hits = np.cumsum(np.r_[0, inside[batch.indices]])
    return np.diff(hits[batch.offsets])


def mc_exp_moment(batch, q, lam):
    """(mean, stderr) of exp(lam * S_q) over the batch configurations."""
    lam = float(lam)
    table = _pair_table(q, batch.node_rule.nodes)
    sizes = np.diff(batch.offsets)
    svals = np.zeros(sizes.size)
    for first in range(0, sizes.size, _BLOCK):
        block = sizes[first:first + _BLOCK]
        for m in np.flatnonzero(np.bincount(block)):  # one gather per size m
            members = first + np.flatnonzero(block == m)
            cols = batch.indices[batch.offsets[members, None] + np.arange(m)]
            svals[members] = table[cols[:, :, None], cols[:, None, :]].sum(axis=(1, 2))
    guard = lam * float(np.max(np.abs(svals))) if svals.size else 0.0
    if guard >= 500.0:
        raise OverflowGuardError(
            f"lambda * max|S_q| = {guard:.1f} >= 500; exp moments would overflow")
    vals = np.exp(lam * svals)
    est = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return est, stderr


def negative_association_probe(spec, c1, c2, cap, samples, seed, order=512, system=None):
    """Empirical check of negative association with capped counts.

    f_i = min(#_{C_i}, cap) are bounded increasing; for a determinantal
    process E[f1 f2] <= E[f1] E[f2].  Returns (lhs, rhs, pooled stderr).
    The draws come from the hull of C1 and C2; `system` is its `solve`
    triple when the caller already has it.
    """
    if not (c1.b <= c2.a or c2.b <= c1.a):
        raise ValueError("windows C1 and C2 must be disjoint")
    if samples < 2:
        raise ValueError(f"the NA probe needs samples >= 2 for its stderr, got {samples}")
    hull = kernels.Interval(min(c1.a, c2.a), max(c1.b, c2.b))
    batch = sample(spec, hull, order, samples, seed, system)
    cap = float(cap)
    f1 = np.minimum(_window_counts(batch, c1), cap)
    f2 = np.minimum(_window_counts(batch, c2), cap)
    n = f1.size
    lhs = float(np.mean(f1 * f2))
    m1, m2 = float(np.mean(f1)), float(np.mean(f2))
    rhs = m1 * m2
    var12 = float(np.var(f1 * f2, ddof=1))
    var1 = float(np.var(f1, ddof=1))
    var2 = float(np.var(f2, ddof=1))
    stderr = math.sqrt((var12 + m2 * m2 * var1 + m1 * m1 * var2) / n)
    return lhs, rhs, stderr
