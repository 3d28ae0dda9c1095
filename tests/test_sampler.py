import math

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
    full = [sampler._draw_configuration(s.eigenvalues, vectors, 7, i)
            for i in range(40)]
    shard_a = [sampler._draw_configuration(s.eigenvalues, vectors, 7, i)
               for i in range(20)]
    shard_b = [sampler._draw_configuration(s.eigenvalues, vectors, 7, i)
               for i in range(20, 40)]
    assert full == shard_a + shard_b


def test_batch_layout_matches_configurations():
    batch = sampler.sample(SINE, Interval(-1.0, 2.0), 64, 300, seed=13)
    assert batch.offsets[0] == 0 and batch.offsets[-1] == batch.indices.size
    assert batch.offsets.size == 301
    nodes = batch.node_rule.nodes
    split = [c.tolist() for c in np.split(nodes[batch.indices], batch.offsets[1:-1])]
    assert batch.configurations == split
    assert all(c == sorted(c) for c in batch.configurations)
    assert sum(map(len, split)) > 300  # mean count 3: the layout is exercised


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


def test_na_disjointness_required():
    with pytest.raises(ValueError):
        sampler.negative_association_probe(
            SINE, Interval(0.0, 1.0), Interval(0.5, 1.5), cap=3, samples=100, seed=1)


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
