import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from dpptails import exact, kernels, sampler
from dpptails.kernels import Interval
from dpptails.specfun import incomplete_gamma_ratio


SINE = kernels.make_kernel("sine")
CONST = lambda x, y: 1.0  # rank-one projection kernel on [0, 1]


# ---------------------------------------------------------------------------
# block norm
# ---------------------------------------------------------------------------

def test_norm_zero_functional():
    q = sampler.pair_functional(
        lambda x, y: np.zeros_like(np.asarray(x, dtype=float)), (0.0, 1.0, 0.0, 1.0))
    assert q.norm_1_inf == 0.0


def test_norm_box_block_count():
    # blocks [k-1,k+1] x [l-1,l+1], k,l in {-1,0,1,2}, intersect the support;
    # the two corner blocks (-1,-1) and (2,2) meet it only at diagonal points
    # where q vanishes, so 14 of the 16 blocks attain the max
    q = sampler.box_q(0.7, (0.0, 1.0, 0.0, 1.0))
    assert len(q.block_norms) == 14
    assert q.norm_1_inf == pytest.approx(14 * 0.7, rel=1e-12)


def test_norm_gaussian_bump_refinement_audit():
    q64 = sampler.gaussian_bump_q()
    q256 = sampler.pair_functional(q64.evaluator, q64.support, grid=256)
    assert abs(q64.norm_1_inf - q256.norm_1_inf) <= 0.02 * q256.norm_1_inf


def test_diagonal_violation_rejected():
    with pytest.raises(ValueError):
        sampler.pair_functional(
            lambda x, y: np.ones_like(np.asarray(x, dtype=float)), (0.0, 1.0, 0.0, 1.0))


def test_unbounded_support_rejected():
    with pytest.raises(ValueError):
        sampler.pair_functional(lambda x, y: 0.0 * x, (0.0, math.inf, 0.0, 1.0))


# ---------------------------------------------------------------------------
# additive functional
# ---------------------------------------------------------------------------

def test_additive_functional_empty_and_single():
    q = sampler.gaussian_bump_q()
    assert sampler.additive_functional([], q) == 0.0
    assert sampler.additive_functional([0.4], q) == 0.0


def test_additive_functional_pair():
    q = sampler.gaussian_bump_q()
    a, b = 0.2, 0.9
    ev = q.evaluator
    expected = float(ev(a, b) + ev(b, a))
    assert sampler.additive_functional([a, b], q) == pytest.approx(expected, rel=1e-14)


def test_scalar_only_evaluator_raises():
    # q must broadcast over arrays; a math.exp evaluator is rejected, not looped
    def scalar_q(x, y):
        return (x != y) * math.exp(-(x - y) ** 2)

    with pytest.raises(TypeError):
        sampler.pair_functional(scalar_q, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(TypeError):
        sampler.additive_functional([0.1, 0.5, 0.9], scalar_q)


def test_constant_evaluator_broadcasts():
    q = sampler.pair_functional(lambda x, y: 0.0, (0.0, 1.0, 0.0, 1.0))
    assert q.norm_1_inf == 0.0
    assert sampler.additive_functional([0.1, 0.5, 0.9], q) == 0.0


def test_additive_functional_permutation_invariant():
    q = sampler.gaussian_bump_q()
    pts = [0.1, -0.4, 1.2, 0.8]
    ref = sampler.additive_functional(pts, q)
    rng = np.random.default_rng(1)
    for _ in range(5):
        perm = list(rng.permutation(pts))
        assert sampler.additive_functional(perm, q) == pytest.approx(ref, rel=1e-13)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_rank_one_single_point_and_histogram():
    order = 48
    n_samp = 20000
    batch = sampler.sample(CONST, Interval(0.0, 1.0), order, n_samp, seed=42)
    counts = [len(c) for c in batch.configurations]
    assert set(counts) == {1}
    # node occupation frequencies vs quadrature weights, per-node 3 sigma
    nodes = batch.node_rule.nodes
    weights = batch.node_rule.weights
    hits = np.zeros(order)
    lookup = {float(x): i for i, x in enumerate(nodes)}
    for cfg in batch.configurations:
        hits[lookup[cfg[0]]] += 1
    freq = hits / n_samp
    sigma = np.sqrt(weights * (1 - weights) / n_samp)
    assert np.all(np.abs(freq - weights) <= 3.2 * sigma + 1e-12)
    # aggregated chi^2 with even dof via the incomplete-gamma tail
    nbins = 9
    edges = np.linspace(0, order, nbins + 1).astype(int)
    obs = np.array([hits[a:b].sum() for a, b in zip(edges[:-1], edges[1:])])
    exp = np.array([weights[a:b].sum() for a, b in zip(edges[:-1], edges[1:])]) * n_samp
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    dof = nbins - 1  # 8, even
    p_value = 1.0 - incomplete_gamma_ratio(dof // 2 - 1, chi2 / 2.0)
    assert p_value > 0.001


def test_same_seed_bit_identical():
    b1 = sampler.sample(SINE, Interval(0.0, 1.0), 64, 500, seed=7)
    b2 = sampler.sample(SINE, Interval(0.0, 1.0), 64, 500, seed=7)
    assert b1.to_jsonl() == b2.to_jsonl()
    b3 = sampler.sample(SINE, Interval(0.0, 1.0), 64, 500, seed=8)
    assert b1.to_jsonl() != b3.to_jsonl()


def test_shard_stability():
    # drawing configurations in two shards must reproduce the batch exactly
    d = exact.discretize(SINE, Interval(0.0, 1.0), 64)
    s, vectors = exact.eigensystem(d)
    full, shard_a, shard_b = (
        _index_lists(*sampler._draw_range(s.eigenvalues, vectors, 7, lo, hi))
        for lo, hi in ((0, 40), (0, 20), (20, 40)))
    assert full == shard_a + shard_b


def _reference_draw(lams, vectors, seed, index):
    """One configuration by the per-configuration chain-rule loop: the oracle
    for the block-wise draw (same stream, same operations, one at a time)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)],
                   dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    coins = rng.random(lams.size)
    sel = coins < lams
    m = int(np.count_nonzero(sel))
    if m == 0:
        return []
    v = vectors[:, np.flatnonzero(sel)]   # the mask is n wide, the live columns < r
    picked = []
    for step in range(m):
        diag = np.einsum("ij,ij->i", v, v)
        np.clip(diag, 0.0, None, out=diag)
        cum = np.cumsum(diag)
        r = rng.random() * cum[-1]
        i = min(int(np.searchsorted(cum, r)), diag.size - 1)
        picked.append(i)
        w = v @ v[i]
        v -= np.outer(w, v[i]) / diag[i]
    return sorted(picked)


def _index_lists(indices, offsets):
    idx, off = indices.tolist(), offsets.tolist()
    return [idx[a:b] for a, b in zip(off, off[1:])]


@pytest.mark.parametrize("window, order, count", [((-3.0, 3.0), 128, 20_000),
                                                  ((0.0, 20.0), 256, 2_000)])
def test_block_draws_match_per_configuration_loop(window, order, count):
    # mean count 6 (many small groups) and 20 (large groups per block)
    _, s, vectors = sampler.solve(SINE, Interval(*window), order)
    got = _index_lists(*sampler._draw_range(s.eigenvalues, vectors, 29, 0, count))
    for k, cfg in enumerate(got):
        assert cfg == _reference_draw(s.eigenvalues, vectors, 29, k), k


@pytest.mark.parametrize("kernel, window, order", [("airy", (-6.0, 0.0), 128),
                                                   ("bessel:s=0.5", (0.5, 4.0), 96),
                                                   ("sine", (0.0, 2.0), 512)])
def test_block_draws_match_per_configuration_loop_other_systems(kernel, window, order):
    # an indefinite Gram (airy), mostly m <= 1 (bessel), m ~ 2 at order 512 (sine)
    _, s, vectors = sampler.solve(kernels.make_kernel(kernel), Interval(*window), order)
    got = _index_lists(*sampler._draw_range(s.eigenvalues, vectors, 29, 0, 5_000))
    for k, cfg in enumerate(got):
        assert cfg == _reference_draw(s.eigenvalues, vectors, 29, k), k


@pytest.mark.parametrize("seed, digest", [
    (1, "6b9130212d0188d03a7eea229e59409af8a7fbfc36d5bf92725cf37bb61053cd"),
    (2, "eeca87329206ad97752fe2b0e0517f9247ac2f9a9d30e7dd4d228ffb250278f1")])
def test_montecarlo_draws_pinned(seed, digest):
    # the batch (seed 1) and NA (seed 2) streams of the montecarlo benchmark
    # job: sha256 of the little-endian int64 indices, then offsets
    _, s, vectors = sampler.solve(SINE, Interval(-3.0, 3.0), 128)
    indices, offsets = sampler._draw_range(s.eigenvalues, vectors, seed, 0, 10_000)
    data = indices.astype("<i8").tobytes() + offsets.astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("window, order", [((-3.0, 3.0), 128), ((0.0, 20.0), 512)])
def test_draw_products_stay_within_the_blas_budget(window, order, monkeypatch):
    # a woken OpenBLAS thread leaves the picks as they are, so the products
    # themselves are checked: each matrix product the draw issues (one per
    # matrix of a stacked product) has rows * inner * cols <= the budget
    _, s, vectors = sampler.solve(SINE, Interval(*window), order)
    sizes = []
    matmul = np.matmul

    def recording(x, y, **kwargs):
        sizes.append(x.shape[-2] * x.shape[-1] * y.shape[-1])
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(sampler.np, "matmul", recording)
    sampler._draw_range(s.eigenvalues, vectors, 1, 0, 3_000)
    monkeypatch.undo()
    assert sizes and max(sizes) <= exact._BLAS_BLOCK, max(sizes)


def _sequential_ends(d, bs):
    """Per block of a `_block_columns` row, E_{b-1} + c_j for each of its
    nodes, and the total, every sum a Python float sum left to right."""
    nb = d.size // bs
    runs, end = [], 0.0
    for b in range(nb):                   # block b holds columns b, b + nb, ...
        c, run = 0.0, []
        for x in d[b::nb].tolist():
            c += x
            run.append(end + c)
        runs.append(run)
        end += c
    return runs, end


def _sequential_inverse_cdf(d, u, bs):
    """`_inverse_cdf` on one row by `_sequential_ends`."""
    runs, total = _sequential_ends(d, bs)
    target = float(u) * total
    for b, run in enumerate(runs):
        if run[-1] >= target:
            return b * bs + next(j for j, v in enumerate(run) if v >= target)
    raise AssertionError("no block reaches the target")


@pytest.mark.parametrize("n", [1, 2, 5, 17, 128, 529])
def test_inverse_cdf_is_the_sequential_two_level_rule(n):
    # weights over 16 decades, many zeros, a row of zeros, all mass on the
    # last node, u = 0, and targets that fall exactly on a block's end,
    # where a block sum rounded otherwise than its cumsum would pick wrong
    bs, nb, col = sampler._block_columns(n)
    rng = np.random.default_rng(n)
    weights = 10.0 ** rng.uniform(-8, 8, (60, n)) * (rng.random((60, n)) < 0.6)
    weights[0] = 0.0
    weights[1] = 0.0
    weights[1, -1] = 1.0
    d = np.zeros((60, bs * nb))
    d[:, col] = weights
    u = rng.random(60)
    u[2] = 0.0
    for row in range(3, 60, 2):
        runs, total = _sequential_ends(d[row], bs)
        if total == 0.0:
            continue
        end = runs[rng.integers(nb)][-1]
        v = end / total
        for _ in range(8):
            if v * total == end or v >= 1.0:
                break
            v = float(np.nextafter(v, np.inf if v * total < end else -np.inf))
        if v < 1.0:
            u[row] = v
    got = sampler._inverse_cdf(d, u, bs)
    for row in range(60):
        assert got[row] == _sequential_inverse_cdf(d[row], u[row], bs), row
    assert np.all(got < n) and got[1] == n - 1
    picked = weights[np.arange(60), got]
    assert np.all((picked > 0.0) | (u * weights.sum(axis=1) == 0.0))


def test_block_draws_follow_the_discrete_dpp_law():
    # K = V diag(lams) V^T on 8 points: P(i in X) = K_ii and
    # P(i, j in X) = K_ii K_jj - K_ij^2; Bonferroni over 8 + 28 two-sided z-tests
    n, count, z = 8, 20_000, 4.3
    assert 36 * math.erfc(z / math.sqrt(2.0)) <= 1e-3
    rng = np.random.default_rng(808)
    vectors, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lams = rng.uniform(0.05, 0.95, n)
    kmat = (vectors * lams) @ vectors.T
    indices, offsets = sampler._draw_range(lams, vectors, 41, 0, count)
    member = np.zeros((count, n))
    member[np.repeat(np.arange(count), np.diff(offsets)), indices] = 1.0
    observed = member.T @ member / count          # diagonal: single inclusions
    expected = np.outer(np.diag(kmat), np.diag(kmat)) - kmat ** 2
    np.fill_diagonal(expected, np.diag(kmat))
    sigma = np.sqrt(expected * (1.0 - expected) / count)
    upper = np.triu_indices(n)
    assert np.all(np.abs(observed - expected)[upper] <= z * sigma[upper])


@pytest.mark.parametrize("n", [8, 24])
def test_block_draws_full_rank_projection_take_every_node(n):
    vectors, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    count = 2 * sampler._chunk_size(n, n) + 3
    indices, offsets = sampler._draw_range(np.ones(n), vectors, 9, 0, count)
    assert np.array_equal(offsets, n * np.arange(count + 1))
    assert all(cfg == list(range(n)) for cfg in _index_lists(indices, offsets))


def test_block_draw_shards_across_a_block_boundary():
    _, s, vectors = sampler.solve(SINE, Interval(-1.0, 2.0), 64)
    chunk = sampler._chunk_size(64, np.count_nonzero(s.eigenvalues > 0.0))
    a, b = chunk + 37, 3 * chunk + 5
    parts = [sampler._draw_range(s.eigenvalues, vectors, 7, lo, hi)
             for lo, hi in ((0, a), (a, b), (0, b))]
    first, second, whole = (_index_lists(*p) for p in parts)
    assert first + second == whole


def test_block_draws_projection_system_every_size_three():
    # lambda = 1, 1, 1, 0, ...: every coin pass selects the same three
    # eigenvectors, so every configuration of every chunk has m = 3
    n = 40
    vectors, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))
    lams = np.zeros(n)
    lams[:3] = 1.0
    count = 3 * sampler._chunk_size(n, 3) + 17
    indices, offsets = sampler._draw_range(lams, vectors, 5, 0, count)
    assert np.array_equal(offsets, 3 * np.arange(count + 1))
    got = _index_lists(indices, offsets)
    assert all(len(set(cfg)) == 3 for cfg in got)
    for k, cfg in enumerate(got):
        assert cfg == _reference_draw(lams, vectors, 5, k), k


def test_block_draw_shards_far_along_the_stream():
    # configuration indices beyond 2^32 and 2^40 key their own streams too
    _, s, vectors = sampler.solve(SINE, Interval(-1.0, 2.0), 64)
    chunk = sampler._chunk_size(64, np.count_nonzero(s.eigenvalues > 0.0))
    base = 2 ** 40
    a, b = base + chunk - 11, base + 2 * chunk + 3
    parts = [sampler._draw_range(s.eigenvalues, vectors, 7, lo, hi)
             for lo, hi in ((base, a), (a, b), (base, b))]
    first, second, whole = (_index_lists(*p) for p in parts)
    assert first + second == whole
    for k in list(range(40)) + list(range(a - base - 20, a - base + 20)):
        assert whole[k] == _reference_draw(s.eigenvalues, vectors, 7, base + k), k


def test_block_draws_with_interior_zero_eigenvalues():
    # the live coins are not a prefix of the stream: zeros sit between them
    lams, vectors = _interior_zero_system()
    got = _index_lists(*sampler._draw_range(lams, vectors, 2 ** 63 + 5, 0, 3_000))
    for k, cfg in enumerate(got):
        assert cfg == _reference_draw(lams, vectors, 2 ** 63 + 5, k), k


def _interior_zero_system():
    """n = 23 with 7 live eigenvalues among zeros, so the coins are no prefix."""
    n = 23
    vectors, _ = np.linalg.qr(np.random.default_rng(23).standard_normal((n, n)))
    lams = np.zeros(n)
    lams[[0, 2, 3, 7, 12, 13, 20]] = [0.9, 0.8, 0.6, 0.5, 0.35, 0.2, 0.95]
    return lams, vectors


@pytest.mark.parametrize("system", ["sine", "interior zeros"])
def test_draws_do_not_depend_on_the_chunk_budget(system, monkeypatch):
    # the budget sets the chunk boundaries and so the Philox spans computed
    # at once; at order 128 the chunks hold 2, 341 and 2730 configurations
    if system == "sine":
        _, s, vectors = sampler.solve(SINE, Interval(-3.0, 3.0), 128)
        lams = s.eigenvalues
    else:
        lams, vectors = _interior_zero_system()
    draws = []
    for budget in (2 ** 10, 2 ** 17, 2 ** 20):
        monkeypatch.setattr(sampler, "_BUDGET", budget)
        draws.append(sampler._draw_range(lams, vectors, 3, 5, 3_005))
    for indices, offsets in draws[1:]:
        assert np.array_equal(indices, draws[0][0])
        assert np.array_equal(offsets, draws[0][1])


def test_full_rank_draw_memory_is_bounded_by_the_chunk():
    # order 512, every eigenvalue 1: one configuration per chunk, so the
    # temporaries stay near the (r, n) eigenvector copies
    n = 512
    vectors, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))
    lams = np.ones(n)
    assert sampler._chunk_size(n, n) == 1
    tracemalloc.start()
    try:
        indices, offsets = sampler._draw_range(lams, vectors, 1, 0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20, peak
    assert np.array_equal(offsets, n * np.arange(3))
    assert all(cfg == list(range(n)) for cfg in _index_lists(indices, offsets))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63 + 5, -1])
@pytest.mark.parametrize("n", [5, 10, 23])       # n % 4 = 1, 2, 3
def test_philox_doubles_match_numpy_philox(seed, n):
    # interior zeros: the live coins are no prefix, and from position n on the
    # pick doubles straddle 4-word Philox blocks
    lams = np.zeros(n)
    lams[1::3] = 0.5
    live = np.flatnonzero(lams > 0.0)
    positions = np.r_[live, n + np.arange(6)]
    configs = [0, 1, 2 ** 32 + 7, 2 ** 40]
    got = sampler._philox_doubles(seed, configs, positions)
    assert got.shape == (len(configs), positions.size)
    for row, k in zip(got, configs):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, k], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(n + 6)[positions]
        assert row.tobytes() == want.tobytes(), k


def test_philox_doubles_of_an_empty_live_set():
    assert sampler._philox_doubles(3, [0, 2 ** 40], np.flatnonzero(np.zeros(7) > 0.0)).shape \
        == (2, 0)


def test_block_draws_empty_system():
    n = 16
    indices, offsets = sampler._draw_range(np.zeros(n), np.eye(n), 5, 0, 300)
    assert indices.size == 0 and np.array_equal(offsets, np.zeros(301))


def test_sample_count_zero_is_an_empty_batch():
    batch = sampler.sample(SINE, Interval(0.0, 1.0), 32, 0, seed=1)
    assert batch.indices.size == 0 and batch.offsets.tolist() == [0]
    assert batch.configurations == []


def test_sample_negative_count_raises():
    with pytest.raises(ValueError, match="count"):
        sampler.sample(SINE, Interval(0.0, 1.0), 32, -1, seed=1)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_sample_seed_outside_the_philox_key_raises(seed):
    # the key is the seed mod 2^64, so -1 would draw the stream of 2^64 - 1
    with pytest.raises(ValueError, match="seed"):
        sampler.sample(SINE, Interval(0.0, 1.0), 32, 3, seed=seed)


@pytest.mark.parametrize("seed", [2 ** 64 - 1, 2 ** 64 - 2])
def test_sample_top_seeds_draw_their_own_streams(seed):
    batch = sampler.sample(SINE, Interval(0.0, 1.0), 32, 20, seed=seed)
    other = sampler.sample(SINE, Interval(0.0, 1.0), 32, 20, seed=seed - 1)
    assert batch.seed == seed
    assert not np.array_equal(batch.indices, other.indices) \
        or not np.array_equal(batch.offsets, other.offsets)


def test_draws_match_padded_eigh_eigensystem():
    # the same index lists as from np.linalg.eigh's eigenpairs, kept to the
    # solved rank the way exact.eigensystem keeps them: eigenvalues padded
    # with zeros to length n, eigenvectors as the n x r block
    d = exact.discretize(SINE, Interval(-3.0, 3.0), 128)
    s, vectors = exact.eigensystem(d)
    values, basis = np.linalg.eigh(d.matrix)
    r = s.rank
    lams = np.zeros(values.size)
    lams[:r] = np.clip(values[::-1][:r], 0.0, 1.0)
    ref = basis[:, ::-1][:, :r]
    got = _index_lists(*sampler._draw_range(s.eigenvalues, vectors, 17, 0, 10_000))
    want = _index_lists(*sampler._draw_range(lams, ref, 17, 0, 10_000))
    assert len(got) == len(want) == 10_000
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, i


def test_batch_layout_matches_configurations():
    batch = sampler.sample(SINE, Interval(-1.0, 2.0), 64, 300, seed=13)
    assert batch.offsets[0] == 0 and batch.offsets[-1] == batch.indices.size
    assert batch.offsets.size == 301
    nodes = batch.node_rule.nodes
    split = [c.tolist() for c in np.split(nodes[batch.indices], batch.offsets[1:-1])]
    assert batch.configurations == split
    assert all(c == sorted(c) for c in batch.configurations)
    assert sum(map(len, split)) > 300  # mean count 3: the layout is exercised


def test_to_jsonl_is_json_dumps_per_configuration():
    batch = sampler.sample(SINE, Interval(0.0, 1.0), 48, 300, seed=13)
    want = "\n".join(json.dumps(cfg) for cfg in batch.configurations) + "\n"
    assert batch.to_jsonl() == want
    lengths = {len(cfg) for cfg in batch.configurations}
    assert 0 in lengths and max(lengths) >= 2       # "[]" and ", " are exercised
    empty = sampler.sample(SINE, Interval(0.0, 1.0), 48, 0, seed=13)
    assert empty.to_jsonl() == "\n"


@pytest.mark.parametrize("run", [1, 7, 299, 300, 1000])
def test_jsonl_pieces_are_bounded_runs_of_to_jsonl(run, monkeypatch):
    batch = sampler.sample(SINE, Interval(0.0, 1.0), 48, 300, seed=13)
    want = batch.to_jsonl()
    monkeypatch.setattr(sampler, "_JSONL_RUN", run)
    pieces = list(batch.jsonl_pieces())
    assert "".join(pieces) == want
    assert [p.count("\n") for p in pieces] == [min(run, 300 - lo) for lo in range(0, 300, run)]
    empty = sampler.sample(SINE, Interval(0.0, 1.0), 48, 0, seed=13)
    assert list(empty.jsonl_pieces()) == ["\n"]


def test_sine_mean_count_three_sigma():
    win = Interval(0.0, 1.0)
    order, n_samp = 128, 20000
    batch = sampler.sample(SINE, win, order, n_samp, seed=11)
    counts = np.array([len(c) for c in batch.configurations])
    s = exact.spectrum(exact.discretize(SINE, win, order))
    mean_expected = float(np.sum(s.eigenvalues))
    sigma = math.sqrt(float(np.sum(s.eigenvalues * (1 - s.eigenvalues))) / n_samp)
    assert abs(counts.mean() - mean_expected) <= 3.0 * sigma


def test_count_law_total_variation():
    win = Interval(0.0, 1.0)
    n_samp = 20000
    batch = sampler.sample(SINE, win, 128, n_samp, seed=12)
    counts = np.array([len(c) for c in batch.configurations])
    c = exact.count_distribution(exact.spectrum(exact.discretize(SINE, win, 128)))
    emp = np.bincount(counts, minlength=c.pmf.size)[:c.pmf.size] / n_samp
    tv = 0.5 * float(np.sum(np.abs(emp - c.pmf)))
    tv_stderr = 0.5 * float(np.sum(np.sqrt(c.pmf * (1 - c.pmf) / n_samp)))
    assert tv <= 3.0 * tv_stderr


# ---------------------------------------------------------------------------
# Monte Carlo moments
# ---------------------------------------------------------------------------

def test_mc_zero_functional():
    batch = sampler.sample(SINE, Interval(0.0, 1.0), 64, 200, seed=3)
    qz = sampler.pair_functional(
        lambda x, y: np.zeros_like(np.asarray(x, dtype=float)), (0.0, 1.0, 0.0, 1.0))
    est, err = sampler.mc_exp_moment(batch, qz, 0.7)
    assert est == 1.0 and err == 0.0


def test_mc_small_lambda_limit():
    batch = sampler.sample(SINE, Interval(0.0, 1.0), 64, 300, seed=4)
    q = sampler.box_q(1.0, (0.0, 1.0, 0.0, 1.0))
    est, _ = sampler.mc_exp_moment(batch, q, 1e-9)
    assert est == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("q", [
    sampler.gaussian_bump_q(width=0.8, support=(-1.0, 1.5, -2.0, 1.0)),
    sampler.custom_grid_q([-1.0, 0.0, 2.0], [-1.0, 0.5, 2.0],
                          [[0.0, 1.0, 2.0], [1.0, 0.3, 0.1], [0.2, 0.4, 0.0]]),
])
def test_mc_matches_per_configuration_functional(q):
    # the tabulated S_q is bit-identical to the per-configuration reference
    batch = sampler.sample(SINE, Interval(-1.0, 2.0), 64, 400, seed=14)
    svals = np.array([sampler.additive_functional(c, q) for c in batch.configurations])
    vals = np.exp(0.3 * svals)
    est, err = sampler.mc_exp_moment(batch, q, 0.3)
    assert est == float(np.mean(vals))
    assert err == float(np.std(vals, ddof=1) / math.sqrt(vals.size))


def test_mc_overflow_guard():
    batch = sampler.sample(SINE, Interval(0.0, 1.0), 64, 200, seed=5)
    q = sampler.box_q(1000.0, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(sampler.OverflowGuardError):
        sampler.mc_exp_moment(batch, q, 10.0)


def test_mc_refuses_a_non_finite_lambda():
    # NaN slipped past the overflow guard and inf times S_q = 0 gave NaN;
    # a negative lambda stays: E exp(lam S_q) is finite at every real lam
    batch = sampler.sample(SINE, Interval(0.0, 1.0), 64, 200, seed=5)
    box = sampler.box_q(1.0, (0.0, 1.0, 0.0, 1.0))
    zero = sampler.pair_functional(
        lambda x, y: np.zeros_like(np.asarray(x, dtype=float)), (0.0, 1.0, 0.0, 1.0))
    for q in (box, zero):
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite lam"):
                sampler.mc_exp_moment(batch, q, lam)
    est, _ = sampler.mc_exp_moment(batch, box, -1.0)
    assert 0.0 < est < 1.0


# ---------------------------------------------------------------------------
# negative association
# ---------------------------------------------------------------------------

def test_na_rank_one_strict():
    # one particle total: f1 f2 = 0 always while both marginals are positive
    lhs, rhs, err = sampler.negative_association_probe(
        CONST, Interval(0.0, 0.5), Interval(0.5, 1.0), cap=3, samples=3000,
        seed=21, order=48)
    assert lhs == 0.0
    assert rhs > 0.1
    assert lhs <= rhs + 3 * err


def test_na_sine_adjacent_windows():
    lhs, rhs, err = sampler.negative_association_probe(
        SINE, Interval(0.0, 1.0), Interval(1.0, 2.0), cap=3, samples=8000,
        seed=22, order=128)
    assert lhs <= rhs + 3 * err


def test_na_windows_outside_mass():
    # far in the Airy kernel's exponential tail the intensity is ~1e-4, so
    # both sides of the association inequality collapse to ~0
    airy = kernels.make_kernel("airy")
    lhs, rhs, _ = sampler.negative_association_probe(
        airy, Interval(2.0, 3.0), Interval(3.0, 4.0), cap=3, samples=2000,
        seed=23, order=64)
    assert lhs <= 1e-3 and rhs <= 1e-3


def test_na_counts_match_plain_count():
    c1, c2, cap = Interval(-1.0, 0.3), Interval(0.3, 2.0), 2
    batch = sampler.sample(SINE, Interval(-1.0, 2.0), 64, 600, seed=24)
    plain = [np.array([min(sum(1 for x in cfg if c.a <= x <= c.b), cap)
                       for cfg in batch.configurations], dtype=float) for c in (c1, c2)]
    for c, ref in zip((c1, c2), plain):
        assert np.array_equal(np.minimum(sampler._window_counts(batch, c), cap), ref)
    f1, f2 = plain
    lhs, rhs, err = sampler.negative_association_probe(
        SINE, c1, c2, cap=cap, samples=600, seed=24, order=64)
    m1, m2 = float(np.mean(f1)), float(np.mean(f2))
    assert lhs == float(np.mean(f1 * f2)) and rhs == m1 * m2
    var = float(np.var(f1 * f2, ddof=1)) + m2 * m2 * float(np.var(f1, ddof=1)) \
        + m1 * m1 * float(np.var(f2, ddof=1))
    assert err == math.sqrt(var / f1.size)


def test_window_counts_with_empty_configurations_and_an_empty_window():
    # a short window leaves most configurations empty; the last window lies
    # strictly between two adjacent nodes, so it holds none
    batch = sampler.sample(SINE, Interval(0.0, 0.5), 16, 400, seed=25)
    sizes = np.diff(batch.offsets)
    assert np.any(sizes == 0) and np.any(sizes > 1)
    x = batch.node_rule.nodes
    gap = Interval(x[7] + 0.25 * (x[8] - x[7]), x[8] - 0.25 * (x[8] - x[7]))
    for c in (Interval(0.0, 0.5), Interval(0.0, 0.2), gap):
        plain = [sum(1 for v in cfg if c.a <= v <= c.b) for cfg in batch.configurations]
        assert sampler._window_counts(batch, c).tolist() == plain
    assert not np.any(sampler._window_counts(batch, gap))
    none = sampler.sample(SINE, Interval(0.0, 0.5), 16, 0, seed=25)
    assert sampler._window_counts(none, gap).size == 0


def test_na_disjointness_required():
    with pytest.raises(ValueError):
        sampler.negative_association_probe(
            SINE, Interval(0.0, 1.0), Interval(0.5, 1.5), cap=3, samples=100, seed=1)


def test_negative_association_is_the_probe_on_its_batch():
    c1, c2 = Interval(-1.0, 0.3), Interval(0.3, 2.0)
    batch = sampler.sample(SINE, Interval(-1.0, 2.0), 64, 600, seed=24)
    got = sampler.negative_association(batch, c1, c2, cap=2)
    want = sampler.negative_association_probe(SINE, c1, c2, cap=2, samples=600, seed=24,
                                              order=64)
    assert list(map(float.hex, got)) == list(map(float.hex, want))


@pytest.mark.parametrize("c1, c2, count, match", [
    (Interval(0.0, 0.6), Interval(0.5, 1.0), 50, "disjoint"),
    (Interval(0.0, 0.5), Interval(0.5, 1.5), 50, "leaves the sampled window"),
    (Interval(-0.5, 0.5), Interval(0.5, 1.0), 50, "leaves the sampled window"),
    (Interval(0.0, 0.5), Interval(0.5, 1.0), 1, "samples >= 2"),
    (Interval(0.0, 0.5), Interval(0.5, 1.0), 0, "samples >= 2"),
])
def test_negative_association_refuses(c1, c2, count, match):
    batch = sampler.sample(SINE, Interval(0.0, 1.0), 32, count, seed=5)
    with pytest.raises(ValueError, match=match):
        sampler.negative_association(batch, c1, c2, cap=3)


@pytest.mark.parametrize("cap", [math.nan, -1.0, math.inf])
def test_negative_association_refuses_a_bad_cap(cap, monkeypatch):
    batch = sampler.sample(SINE, Interval(0.0, 1.0), 32, 50, seed=5)
    with pytest.raises(ValueError, match="cap"):
        sampler.negative_association(batch, Interval(0.0, 0.5), Interval(0.5, 1.0), cap)

    def no_draw(*args, **kwargs):
        raise AssertionError("the probe sampled before checking its cap")

    monkeypatch.setattr(sampler, "sample", no_draw)
    with pytest.raises(ValueError, match="cap"):
        sampler.negative_association_probe(SINE, Interval(0.0, 0.5), Interval(0.5, 1.0),
                                           cap=cap, samples=50, seed=5, order=32)


# ---------------------------------------------------------------------------
# declarative families
# ---------------------------------------------------------------------------

def test_make_pair_functional_families():
    qg = sampler.make_pair_functional({"family": "gaussian_bump", "width": 2.0})
    assert qg.norm_1_inf > 0
    qb = sampler.make_pair_functional({"family": "box", "amplitude": 2.0,
                                       "support": [0, 1, 0, 1]})
    assert qb.norm_1_inf == pytest.approx(28.0, rel=1e-12)
    grid = {"family": "custom_grid", "x": [0.0, 1.0], "y": [0.0, 1.0],
            "values": [[0.0, 1.0], [1.0, 0.0]]}
    qc = sampler.make_pair_functional(grid)
    assert qc.evaluator(0.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sampler.make_pair_functional({"family": "mystery"})


def test_custom_grid_bilinear_interpolation():
    q = sampler.custom_grid_q([0.0, 2.0], [0.0, 2.0], [[0.0, 2.0], [2.0, 4.0]])
    assert float(q.evaluator(1.0, 0.0)) == pytest.approx(1.0)
    assert float(q.evaluator(0.0, 1.0)) == pytest.approx(1.0)
    assert float(q.evaluator(2.0, 0.0)) == pytest.approx(2.0)
    assert float(q.evaluator(0.5, 0.5)) == 0.0  # diagonal mask
    assert float(q.evaluator(3.0, 0.5)) == 0.0  # outside support


@pytest.mark.parametrize("family, build", [("gaussian_bump", sampler.gaussian_bump_q),
                                           ("box", sampler.box_q)])
def test_make_pair_functional_defaults_are_the_constructors(family, build):
    assert sampler.make_pair_functional({"family": family}).norm_1_inf == build().norm_1_inf


def test_make_pair_functional_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="widht"):
        sampler.make_pair_functional({"family": "gaussian_bump", "widht": 2.0})
    with pytest.raises(ValueError, match="values"):
        sampler.make_pair_functional({"family": "custom_grid", "x": [0, 1], "y": [0, 1]})


@pytest.mark.parametrize("x, y", [([0.0, 2.0, 1.0], [0.0, 1.0]),
                                  ([0.0, 1.0], [1.0, 1.0]),
                                  ([0.0], [0.0, 1.0])])
def test_custom_grid_needs_increasing_grids(x, y):
    with pytest.raises(ValueError, match="strictly increasing"):
        sampler.custom_grid_q(x, y, np.zeros((len(x), len(y))))


def test_na_probe_needs_two_samples():
    with pytest.raises(ValueError, match="samples >= 2"):
        sampler.negative_association_probe(SINE, Interval(0.0, 0.5), Interval(0.5, 1.0),
                                           cap=3, samples=1, seed=1, order=32)
