import hashlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dpptails import bounds, cli, exact, kernels, specfun
from dpptails.kernels import Interval
from dpptails.specfun import gauss_legendre

import scalar_reference as ref


SINE = kernels.make_kernel("sine")
AIRY = kernels.make_kernel("airy")
SINE4 = kernels.make_kernel("sine4")


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def _pairwise_gram(kernel, xs):
    """The former pair-by-pair Gram loop of exact._kernel_gram: upper
    triangle evaluated, lower mirrored."""
    n = len(xs)
    m = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            v = float(kernel(xs[i], xs[j]))
            m[i, j] = v
            m[j, i] = v
    return m


def test_discretize_broadcast_callable_bit_identical_to_pairwise_loop():
    # not symmetric in its bits, so the mirrored triangle matters; (x - y) ** 2
    # would not do, since numpy squares arrays but calls libm pow on scalars
    def kernel(x, y):
        return np.exp(-(x - y) * (x - y)) * np.cos(x * y + x)

    win = Interval(-1.0, 2.0)
    d = exact.discretize(kernel, win, 33)
    rule = gauss_legendre(33, win.a, win.b)
    sw = np.sqrt(rule.weights)
    mat = sw[:, None] * _pairwise_gram(kernel, rule.nodes) * sw[None, :]
    assert d.matrix.tobytes() == (0.5 * (mat + mat.T)).tobytes()
    pts = [0.1, 0.7, 1.3]
    assert exact.correlation_function(kernel, pts) == float(
        np.linalg.det(_pairwise_gram(kernel, np.array(pts))))


# sha256 of discretize(...).matrix bytes, taken before the Gram matrix was
# built in row blocks.  Each window puts pairs off the diagonal inside the
# ratio kernels' band (the sinc series for sine).  Order 41 is one block;
# 385 and 1024 split into row blocks and tiles of unequal sizes.
PINNED_MATRICES = [
    ("sine", 0.0, 1e-3, 8, "4717b00d35b8dbae9589467065e8ea45d93fdb0347eb1747f2559e08b082404a"),
    ("airy", -1.0, -0.999, 8, "fb3b7ba5b349054ebec6e2d6c53bc9bd89bab0d655ba93e300a96237469d7ae7"),
    ("bessel:s=0.5", 1.0, 1.001, 8,
     "0b6c28f0182e4319091ea125fb9dc4d807ebb4781f3c41a03407e3b581f2c242"),
    ("bessel:s=0", 0.0, 1e-3, 8, "6d7da2c6d85254f0fce06d2de4ff695dae2662fd5d1f78a7c2469f1703468209"),
    ("sine", 0.0, 0.02, 41, "3e935fc3fede2dd673403a26d402b82fa84df857a0925e609e66a0726517bc9c"),
    ("airy", -1.05, -1.0, 41, "e8219d1f6ac2c497d47ae8605724a4bc4e82456202e80ebd63d0a4fbbdc4c16f"),
    ("bessel:s=0.5", 1.0, 1.05, 41,
     "8a40190a1b9be41c829dc190e66eee19d4af38d08a82425184063dfbe0c994f2"),
    ("bessel:s=0", 0.0, 0.02, 41, "8305c72d97d847fe1b14b5ce3217fa58cf4944b4a797f043dbf691f0c25b8799"),
    ("sine", -1.0, 1.0, 385, "0beda84eb51564a67dd128124dbce48472278375a9bf98d8833e24f02c4bfb5d"),
    ("airy", -2.0, 0.0, 385, "fbf6fa8fc48009e773b653fd8795b0253cc3f2d333c829efafff5c4ae828a4fe"),
    ("bessel:s=0.5", 0.5, 4.0, 385,
     "0451f23b2a687afd04ecc5d75256304b44fc75eac209cf9acdb84ac2a507a03e"),
    ("bessel:s=0", 0.0, 4.0, 385, "f145ad8bc4b53f3e3fda025349c7b2637654fd1437bd1d69979f9b010f927bc5"),
    ("sine", -3.0, 3.0, 1024, "833dd023e80ecfa26c1d6e7662e39a5d10f00e1bc1a329abd743eff2197f94c5"),
    ("airy", -2.0, 0.0, 1024, "c96e825a48206bd6b253e50bc266be1cb8909eb2733a8fa010d98a24f2981f31"),
    ("bessel:s=0.5", 0.5, 4.0, 1024,
     "5aa389b13c65f24fdff0495d250534e280a5208b7dfc0a2a1e16f0e7f27d6cc2"),
    ("bessel:s=0", 0.0, 4.0, 1024, "8624bce6f6af73a4b19a74da4186cf91b96e558967fd9b505e09572add10fe21"),
]


@pytest.mark.parametrize("kid, a, b, order, digest", PINNED_MATRICES)
def test_discretize_matrix_bytes_pinned(kid, a, b, order, digest):
    x = gauss_legendre(order, a, b).nodes
    if kid == "sine":
        band = np.abs(x[:, None] - x[None, :]) < specfun._SMALL_T
    else:
        band = kernels._near_diagonal(x[:, None], x[None, :])
    assert np.count_nonzero(band) > order
    m = exact.discretize(kernels.make_kernel(kid), Interval(a, b), order).matrix
    assert hashlib.sha256(m.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("order, digest", [
    (8, "05d35d202b618cd37c1b24c86fb17c725f02c48530b0c1aab9b935469d4d05ff"),
    (41, "625f9ce9b95a7a09dff10cb6e3c7f4501768f332358b98057567638c47e5290f"),
    (385, "dc6d8efc6004df9cc61a2f2c3b8780c581a2d00f5033bf7fefa951b6a98703c5"),
])
def test_discretize_callable_matrix_bytes_pinned(order, digest):
    def kernel(x, y):
        return np.exp(-(x - y) * (x - y)) * np.cos(x * y + x)

    m = exact.discretize(kernel, Interval(-1.0, 2.0), order).matrix
    assert hashlib.sha256(m.tobytes()).hexdigest() == digest


def test_discretize_constant_kernel_rank_one():
    d = exact.discretize(lambda x, y: 1.0, Interval(0.0, 1.0), 24)
    sw = np.sqrt(d.rule.weights)
    assert np.allclose(d.matrix, np.outer(sw, sw), atol=1e-15)
    assert np.linalg.matrix_rank(d.matrix, tol=1e-10) == 1


def test_discretize_sine_trace():
    d = exact.discretize(SINE, Interval(0.0, 1.0), 200)
    assert d.trace == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kid, a, b", [("sine", -3.0, 3.0), ("airy", -2.0, 0.0),
                                       ("bessel:s=0.5", 0.5, 4.0)])
def test_discretize_holds_about_one_gram_sized_array(kid, a, b):
    # the Gram, symmetrized in place, plus row blocks under 2^14 doubles
    spec, win, n = kernels.make_kernel(kid), Interval(a, b), 384
    exact.discretize(spec, win, n)       # warm the quadrature-rule cache
    tracemalloc.start()
    try:
        exact.discretize(spec, win, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n, peak / (8 * n * n)


def test_discretize_order_check():
    with pytest.raises(ValueError):
        exact.discretize(SINE, Interval(0.0, 1.0), 4)


@pytest.mark.parametrize("spec,window,order", [
    (SINE, Interval(0.0, 1.0), 64),
    (kernels.make_kernel("bessel:s=0.5"), Interval(1.0, 2.0), 60),
    (kernels.make_kernel("bessel:s=2"), Interval(1.0, 2.0), 60),
    (AIRY, Interval(-1.0, 0.0), 80),
])
def test_spectrum_refinement(spec, window, order):
    s1 = exact.spectrum(exact.discretize(spec, window, order))
    s2 = exact.spectrum(exact.discretize(spec, window, 2 * order))
    m = min(s1.eigenvalues.size, s2.eigenvalues.size)
    assert np.max(np.abs(s1.eigenvalues[:m] - s2.eigenvalues[:m])) <= 1e-8


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_rank_one_projection():
    s = exact.spectrum(exact.discretize(lambda x, y: 1.0, Interval(0.0, 1.0), 32))
    assert s.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(s.eigenvalues[1:])) < 1e-12


def test_spectrum_sine_trace_identity():
    s = exact.spectrum(exact.discretize(SINE, Interval(0.0, 1.0), 200))
    assert float(np.sum(s.eigenvalues)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("spec,win", [
    (SINE, Interval(0.0, 1.0)),
    (AIRY, Interval(-1.0, 0.0)),
    (kernels.make_kernel("bessel:s=0.5"), Interval(1.0, 2.0)),
])
def test_spectrum_variance_identity(spec, win):
    # Sum lambda (1 - lambda) = int_I Pi(x,x) - int_I int_I Pi^2, the second
    # integral by an independent tensor quadrature at a different order
    s = exact.spectrum(exact.discretize(spec, win, 160))
    lam = s.eigenvalues
    spectral = float(np.sum(lam * (1.0 - lam)))
    rule = gauss_legendre(300, win.a, win.b)
    gram = kernels.kernel_matrix(spec, rule.nodes)
    double = float(rule.weights @ (gram * gram) @ rule.weights)
    trace = float(np.sum(rule.weights * np.diag(gram)))
    assert spectral == pytest.approx(trace - double, abs=1e-6)


def test_spectrum_out_of_range_error():
    # a kernel that is not a contraction on this window
    with pytest.raises(exact.SpectrumRangeError):
        exact.spectrum(exact.discretize(lambda x, y: 1.0, Interval(0.0, 2.0), 24))


# ---------------------------------------------------------------------------
# low-rank eigensolve against np.linalg.eigh (a test-only oracle)
# ---------------------------------------------------------------------------

_ORACLE_CASES = [
    ("sine", Interval(-3.0, 3.0), 384, 1e-10),
    ("airy", Interval(-2.0, 0.0), 384, 1e-10),   # indefinite Gram: min eigenvalue -3.7e-12
    ("bessel:s=0.5", Interval(0.5, 4.0), 384, 1e-10),
    # the split at 1e-8 has a gap of 3.2e-8 here: the projectors differ by 1.4e-10
    ("sine", Interval(0.0, 20.0), 512, 2e-10),
]


@pytest.fixture(scope="module", params=_ORACLE_CASES,
                ids=lambda c: f"{c[0]}[{c[1].a:g},{c[1].b:g}]/{c[2]}")
def oracle_case(request):
    kernel_id, window, order, projector_tol = request.param
    d = exact.discretize(kernels.make_kernel(kernel_id), window, order)
    s, vectors = exact.eigensystem(d)
    ref_values, ref_vectors = np.linalg.eigh(d.matrix)
    return s, vectors, ref_values[::-1], ref_vectors[:, ::-1], projector_tol


def test_low_rank_eigenvalues_match_eigh(oracle_case):
    s, _, ref_values, _, _ = oracle_case
    assert s.rank < s.eigenvalues.size
    assert np.max(np.abs(s.eigenvalues - np.clip(ref_values, 0.0, 1.0))) <= 1e-11


def test_low_rank_projector_matches_eigh(oracle_case):
    s, vectors, ref_values, ref_vectors, tol = oracle_case
    k = int(np.count_nonzero(s.eigenvalues > 1e-8))
    assert k == int(np.count_nonzero(ref_values > 1e-8))
    mine = vectors[:, :k] @ vectors[:, :k].T
    ref = ref_vectors[:, :k] @ ref_vectors[:, :k].T
    assert np.max(np.abs(mine - ref)) <= tol


def test_truncated_mass_covers_dropped_eigenvalues(oracle_case):
    s, _, ref_values, _, _ = oracle_case
    dropped = float(np.sum(np.clip(ref_values[s.rank:], 0.0, None)))
    assert 0.0 < dropped <= s.truncated_mass < 1e-9


def test_spectrum_matches_eigensystem_values():
    d = exact.discretize(SINE, Interval(-3.0, 3.0), 128)
    s = exact.spectrum(d)
    s2, vectors = exact.eigensystem(d)
    assert np.array_equal(s.eigenvalues, s2.eigenvalues) and s.rank == s2.rank
    assert s.eigenvalues.shape == (128,) and not np.any(s.eigenvalues[s.rank:])
    assert vectors.shape == (128, s.rank)


def test_eigensolve_is_low_rank(monkeypatch):
    orders = []
    solve = np.linalg.eigh

    def spy(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    d = exact.discretize(SINE, Interval(-3.0, 3.0), 384)
    exact.spectrum(d)
    exact.eigensystem(d)
    assert len(orders) == 2 and max(orders) <= 40


def _bare(matrix):
    return exact.DiscretizedKernel(None, np.asarray(matrix, dtype=float))


def _hidden_negative_pair():
    # positive diagonal, but the trailing pair [[a, b], [b, a]] has the
    # eigenvalue a - b ~ -2e-6 while its diagonal 2a stays below the stop
    a = np.diag([0.5] * 6 + [1e-17, 1e-17])
    a[6, 7] = a[7, 6] = 2e-6
    return a


def _rotated_negative():
    u, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((12, 12)))
    return (u * np.array([0.9, 0.6, 0.3, -2e-6] + [0.0] * 8)) @ u.T


@pytest.mark.parametrize("make", [_hidden_negative_pair, _rotated_negative])
def test_indefinite_matrix_raises(make):
    a = make()
    assert np.all(np.diag(a) > 0.0)
    assert np.linalg.eigvalsh(a)[0] < -1e-6
    with pytest.raises(exact.SpectrumRangeError):
        exact.spectrum(_bare(a))
    with pytest.raises(exact.SpectrumRangeError):
        exact.eigensystem(_bare(a))


def test_zero_matrix_solves_to_rank_zero():
    s, vectors = exact.eigensystem(_bare(np.zeros((6, 6))))
    assert s.rank == 0 and np.array_equal(s.eigenvalues, np.zeros(6))
    assert vectors.shape == (6, 0) and s.raw_out_of_range == 0.0
    assert np.array_equal(exact.spectrum(_bare(np.zeros((6, 6)))).eigenvalues, s.eigenvalues)


def test_eigensystem_columns_belong_to_the_leading_eigenvalues():
    # eigh returns the Ritz pairs ascending, so the sort reverses the columns
    d = exact.discretize(kernels.make_kernel("airy"), Interval(-6.0, 0.0), 128)
    s, vectors = exact.eigensystem(d)
    lams = s.eigenvalues[:s.rank]
    assert np.max(np.abs(vectors.T @ vectors - np.eye(s.rank))) < 1e-13
    assert np.max(np.abs(d.matrix @ vectors - vectors * lams)) < 1e-12


def test_eigensolve_rejects_non_finite_matrix():
    with pytest.raises(ValueError):
        exact.spectrum(_bare([[0.5, math.nan], [math.nan, 0.5]]))


def test_eigh_failure_is_a_convergence_error(monkeypatch, tmp_path, capsys):
    # LinAlgError is a ValueError, which the CLI would report as bad input
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(specfun.ConvergenceError, match="did not converge"):
        exact.spectrum(exact.discretize(SINE, Interval(-1.0, 1.0), 32))
    rc = cli.main(["exact", "--kernel", "sine", "--window=-1,1", "--order", "32",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_NUMERICAL == 3
    assert "numerical failure: eigh of the" in capsys.readouterr().err


# solves at the orders of the benchmark workloads (128 to 384)
SOLVE_SYSTEMS = [("airy", -1.0, 0.0, 200), ("sine", -3.0, 3.0, 384), ("airy", -2.0, 0.0, 384),
                 ("bessel:s=0.5", 0.5, 4.0, 384), ("sine", -3.0, 3.0, 128)]

_EIGENSYSTEM_BITS = """
import hashlib, json, sys
from dpptails import exact, kernels
from dpptails.kernels import Interval
out = []
for kid, a, b, order in json.loads(sys.argv[1]):
    s, v = exact.eigensystem(exact.discretize(kernels.make_kernel(kid), Interval(a, b), order))
    out.append([[x.hex() for x in s.eigenvalues.tolist()], s.truncated_mass.hex(), s.rank,
                list(v.shape), hashlib.sha256(v.tobytes()).hexdigest()])
print(json.dumps(out))
"""


def _eigensystem_bits(systems, env_extra):
    env = dict(os.environ, **env_extra)
    src = str(pathlib.Path(exact.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _EIGENSYSTEM_BITS, json.dumps(systems)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_eigensystem_bits_do_not_depend_on_blas_threads():
    # one BLAS thread against two: eigenvalues, mass, rank and the n x r
    # vector block agree bit for bit.  Both counts are set, since importing
    # dpptails.cli in this process may have set one for every child.
    # sine [0, 20] has rank 33, past the size where LAPACK's eigh switches
    # to divide and conquer and OpenBLAS wakes a second thread
    systems = SOLVE_SYSTEMS[:3] + [("sine", 0.0, 20.0, 512)]
    one = _eigensystem_bits(systems, {"OPENBLAS_NUM_THREADS": "1"})
    two = _eigensystem_bits(systems, {"OPENBLAS_NUM_THREADS": "2"})
    for system, a, b in zip(systems, one, two):
        assert a == b, system


@pytest.mark.parametrize("m, inner, cols", [
    (384, 384, 16), (200, 200, 5), (384, 16, 384), (16, 384, 16), (512, 512, 33),
    (128, 128, 16), (7, 5, 3), (3, 2000, 2000)])
def test_row_block_product_stays_in_budget_and_matches(m, inner, cols):
    blocks = exact._row_blocks(m, inner, cols)
    sizes = [blk.stop - blk.start for blk in blocks]
    assert blocks[0].start == 0 and blocks[-1].stop == m
    assert all(x.stop == y.start for x, y in zip(blocks, blocks[1:]))
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) == 1 or max(sizes) * inner * cols <= exact._BLAS_BLOCK
    # a block may round differently from the one product, within the
    # dot-product bound inner * eps * (|x| @ |y|)
    rng = np.random.default_rng(m + inner + cols)
    x, y = rng.standard_normal((m, inner)), rng.standard_normal((inner, cols))
    err = np.abs(exact._matmul(x, y) - x @ y)
    assert np.all(err <= 2.0 * inner * exact._EPS * (np.abs(x) @ np.abs(y)))


@pytest.mark.parametrize("kid, a, b, order", SOLVE_SYSTEMS)
def test_residual_norm_rounding_covers_the_exact_sum(kid, a, b, order, monkeypatch):
    seen = []
    residual = exact._residual

    def spy(mat, q, bq):
        seen.append((mat, q, bq, residual(mat, q, bq)))
        return seen[-1][-1]

    monkeypatch.setattr(exact, "_residual", spy)
    exact.spectrum(exact.discretize(kernels.make_kernel(kid), Interval(a, b), order))
    (mat, q, bq, (diag, fro)), = seen
    # _matmul splits q's rows as _residual does, so these are its entries
    e = mat - exact._matmul(q, exact._matmul(bq, q.T))
    assert np.array_equal(diag, np.diag(e))
    exact_fro = math.sqrt(math.fsum((e * e).ravel().tolist()))
    n = mat.shape[0]
    assert fro * (1.0 + n * exact._EPS) >= exact_fro > 0.0
    assert exact_fro * (1.0 + n * exact._EPS) >= fro


# float.hex of spectrum(...).truncated_mass for the spectra workload's
# systems, taken before _residual formed E in its product's buffer
@pytest.mark.parametrize("kid, a, b, order, mass", [
    ("sine", -3.0, 3.0, 192, "0x1.b1a63235118c2p-43"),
    ("sine", -3.0, 3.0, 384, "0x1.2e7bca9489ad3p-42"),
    ("airy", -2.0, 0.0, 192, "0x1.252aa22f086f5p-48"),
    ("airy", -2.0, 0.0, 384, "0x1.aa916d20bed7ep-35"),
    ("bessel:s=0.5", 0.5, 4.0, 192, "0x1.4f21933db57c9p-48"),
    ("bessel:s=0.5", 0.5, 4.0, 384, "0x1.590952df638fdp-42"),
])
def test_truncated_mass_bits_pinned(kid, a, b, order, mass):
    s = exact.spectrum(exact.discretize(kernels.make_kernel(kid), Interval(a, b), order))
    assert s.truncated_mass.hex() == mass


def test_spectrum_json_reports_rank_and_truncated_mass():
    s = exact.spectrum(exact.discretize(SINE, Interval(0.0, 1.0), 64))
    payload = s.to_json_dict()
    assert set(payload) == {"eigenvalues", "raw_out_of_range", "rank", "truncated_mass"}
    assert payload["rank"] == s.rank < 64 and payload["truncated_mass"] == s.truncated_mass > 0.0
    assert exact.Spectrum(np.array([0.5, 0.1]), 0.0).to_json_dict()["rank"] == 2


def test_count_distribution_counts_the_dropped_rank():
    s = exact.Spectrum(np.array([0.9, 0.5, 1e-17, 0.0, 0.0]), 1e-15, 3e-14, rank=3)
    c = exact.count_distribution(s)
    assert c.pmf.size == 3
    assert c.n_truncated == 3     # one tiny retained value plus the two dropped slots
    assert c.truncation_error_bound == pytest.approx(1e-17 + 1e-15 + 3e-14, rel=1e-15)


# ---------------------------------------------------------------------------
# counting distribution
# ---------------------------------------------------------------------------

def _spectrum_of(eigs):
    return exact.Spectrum(np.array(sorted(eigs, reverse=True), dtype=float), 0.0)


def test_pmf_two_fair_bernoullis():
    c = exact.count_distribution(_spectrum_of([0.5, 0.5]))
    assert np.allclose(c.pmf, [0.25, 0.5, 0.25], atol=1e-15)


def test_pmf_deterministic_point():
    c = exact.count_distribution(_spectrum_of([1.0]))
    assert np.allclose(c.pmf, [0.0, 1.0], atol=0.0)


def test_pmf_enumeration_oracle():
    lams = [0.9, 0.5, 0.1]
    c = exact.count_distribution(_spectrum_of(lams))
    brute = np.zeros(4)
    for bits in itertools.product((0, 1), repeat=3):
        p = 1.0
        for b, lam in zip(bits, lams):
            p *= lam if b else (1.0 - lam)
        brute[sum(bits)] += p
    assert np.allclose(c.pmf, brute, atol=1e-15)


def test_pmf_invariants_sine():
    s = exact.spectrum(exact.discretize(SINE, Interval(0.0, 1.0), 160))
    c = exact.count_distribution(s)
    assert float(np.sum(c.pmf)) == pytest.approx(1.0, abs=1e-10)
    floor = exact.effective_eigen_floor(s)
    retained = s.eigenvalues[s.eigenvalues > floor]
    k = np.arange(c.pmf.size)
    assert float(np.sum(k * c.pmf)) == pytest.approx(float(np.sum(retained)), abs=1e-8)
    var = float(np.sum(k * k * c.pmf)) - float(np.sum(k * c.pmf)) ** 2
    assert var == pytest.approx(float(np.sum(retained * (1 - retained))), abs=1e-8)


# ---------------------------------------------------------------------------
# tails and moments
# ---------------------------------------------------------------------------

def test_tail_basics():
    c = exact.count_distribution(_spectrum_of([0.5, 0.5]))
    assert exact.tail(c, 0) == 1.0
    assert exact.tail(c, 1) == pytest.approx(0.75, abs=1e-15)
    assert exact.tail(c, 5) <= c.truncation_error_bound + 1e-300


def test_exp_moment_limits():
    c = exact.count_distribution(_spectrum_of([0.3, 0.6]))
    assert exact.exp_moment_sq(c, 1e-12) == pytest.approx(1.0, abs=1e-9)
    c1 = exact.count_distribution(_spectrum_of([1.0]))
    for lam in (0.2, 1.0, 2.5):
        assert exact.exp_moment_sq(c1, lam) == pytest.approx(math.exp(lam), rel=1e-13)


def test_exp_moment_refinement_stability():
    win = Interval(0.0, 1.0)
    vals = []
    for order in (80, 160):
        c = exact.count_distribution(exact.spectrum(exact.discretize(SINE, win, order)))
        vals.append(exact.exp_moment_sq(c, 0.1))
    assert abs(vals[0] - vals[1]) <= 1e-8 * vals[1]


def test_exp_moment_guard_raises():
    s = exact.Spectrum(np.array([0.9, 0.5, 1e-13]), 1e-13)
    c = exact.count_distribution(s)
    with pytest.raises(exact.TruncationError):
        exact.exp_moment_sq(c, 3.0)


@pytest.mark.parametrize("moment", [exact.exp_moment_sq, exact.exp_moment_sq_bracket])
@pytest.mark.parametrize("lam", [-1.0, math.nan])
def test_exp_moment_refuses_negative_and_nan_lambda(moment, lam):
    # the bracket's rules hold for lam >= 0 only, and a NaN used to pass the
    # lam < 0 test and end as an "overflows" TruncationError (or (nan, nan))
    c = exact.count_distribution(exact.Spectrum(np.array([0.9, 0.5, 1e-13]), 1e-13))
    with pytest.raises(ValueError, match="lam >= 0"):
        moment(c, lam)


@pytest.mark.parametrize("moment", [exact.exp_moment_sq, exact.exp_moment_sq_bracket])
def test_exp_moment_refuses_infinite_lambda(moment):
    # the bracket's log-sum-exp fallback used to form inf * 0 = NaN with a
    # RuntimeWarning
    c = exact.count_distribution(exact.Spectrum(np.array([0.9, 0.5, 1e-13]), 1e-13))
    with pytest.raises(ValueError, match="finite lam >= 0"):
        moment(c, math.inf)


def test_exp_moment_raises_before_overflow_without_warning():
    # a one-point pmf has no truncated mass, so no guard: exp(lam N^2) with
    # lam N^2 past log(DBL_MAX) used to return inf with a RuntimeWarning
    c = exact.count_distribution(exact.Spectrum(np.ones(2), 0.0))
    largest = math.log(sys.float_info.max) / 4.0
    assert math.isfinite(exact.exp_moment_sq(c, largest))
    # RuntimeWarnings are errors under the test configuration
    with pytest.raises(exact.TruncationError):
        exact.exp_moment_sq(c, math.nextafter(largest, 1e3))


def test_exp_moment_bracket_contains_point_value():
    win = Interval(0.0, 1.0)
    c = exact.count_distribution(exact.spectrum(exact.discretize(SINE, win, 160)))
    v = math.log(exact.exp_moment_sq(c, 0.1))
    lo, up = exact.exp_moment_sq_bracket(c, 0.1)
    assert lo <= v <= up
    assert up - lo < 1e-8


@pytest.mark.parametrize("lam", [2.0, 50.0])
def test_exp_moment_bracket_finite_at_large_lambda(lam):
    c = exact.count_distribution(exact.spectrum(exact.discretize(SINE, Interval(0.0, 1.0), 64)))
    lo, up = exact.exp_moment_sq_bracket(c, lam)
    assert math.isfinite(lo) and math.isfinite(up)
    assert lo <= up
    # every count lies in [0, N + n_truncated]; at lam = 50 the dropped-mass
    # term T e^{lam (2N+1)} has no double, and capping its exponent at 700
    # gave 2.6e289 nats
    assert up <= lam * (c.pmf.size - 1 + c.n_truncated) ** 2


def test_exp_moment_bracket_lower_is_log_of_point_value_bit_for_bit():
    largest = math.log(sys.float_info.max) / 4.0   # lam N^2 = log(DBL_MAX) at N = 2
    cases = [(exact.count_distribution(exact.Spectrum(np.array(ev), 0.0)),
              (0.1, 1.0, 100.0, 176.0, largest)) for ev in ([1.0, 1.0], [1.0, 0.5], [0.9, 0.6])]
    sine = exact.count_distribution(exact.spectrum(exact.discretize(SINE, Interval(0.0, 1.0), 64)))
    cases.append((sine, (1e-3, 0.01, 0.1)))
    for c, lams in cases:
        for lam in lams:
            lo, _ = exact.exp_moment_sq_bracket(c, lam)
            assert lo == math.log(exact.exp_moment_sq(c, lam)), lam


def test_exp_moment_sum_overflow_raises_and_bracket_stays_finite():
    # e^{lam N^2} is a double, but the pmf may exceed 1 by 1e-10, so the sum is not
    c = exact.CountDistribution(np.array([0.0, 1.0 + 5e-11]), 0.0)
    lam = math.log(sys.float_info.max)
    with pytest.raises(exact.TruncationError):
        exact.exp_moment_sq(c, lam)
    lo, up = exact.exp_moment_sq_bracket(c, lam)
    assert lo == up == pytest.approx(lam + 5e-11, rel=1e-15)


_COMPARE_SYSTEMS = [("sine", (0.0, 1.0)), ("airy", (-1.0, 0.0)), ("bessel:s=0.5", (0.5, 2.0))]


@pytest.mark.parametrize("kernel,window", _COMPARE_SYSTEMS)
def test_exp_moment_bracket_upper_matches_per_term_oracle(kernel, window):
    # the dropped-component term is summed as arrays, log j! as a running
    # sum; 118 of these 120 values equal the term-by-term loop bit for bit,
    # the other two (airy, no chain, lam = 0.2 and 0.3) are 4 and 1 ulp off
    spec, win = kernels.make_kernel(kernel), Interval(*window)
    c = exact.count_distribution(exact.spectrum(exact.discretize(spec, win, 200)))
    assert c.n_truncated > 0 and c.truncation_error_bound > 0.0
    for tail_fn in (None, bounds.tail_log_bound_function(spec, win)):
        for lam in np.linspace(0.1, 2.0, 20).tolist():
            lo, up = exact.exp_moment_sq_bracket(c, lam, tail_fn)
            want = ref.moment_bracket_upper(c, lam, lo, tail_fn)
            assert abs(up - want) <= 4 * math.ulp(want), (lam, up, want)


def test_exp_moment_bracket_upper_takes_the_smaller_retained_bound():
    # T e^{lam (2N+1)} is a double here but e^{lam N^2} is far smaller: the
    # upper side used to add the former and gave 8.9e15 nats
    c = exact.count_distribution(exact.spectrum(exact.discretize(SINE, Interval(-3.0, 3.0), 192)))
    lo, up = exact.exp_moment_sq_bracket(c, 2.0)
    assert lo <= up <= 7e4


# ---------------------------------------------------------------------------
# the log-space Bernoulli-sum engine and the two-sided tail
# ---------------------------------------------------------------------------

def _enumerated_pmf(lams):
    brute = np.zeros(len(lams) + 1)
    for bits in itertools.product((0, 1), repeat=len(lams)):
        brute[sum(bits)] += math.prod(lam if b else 1.0 - lam for b, lam in zip(bits, lams))
    return brute


@pytest.mark.parametrize("eigs,raw,mass", [
    ([0.9, 0.5, 0.1, 1e-17], 1e-15, 3e-14),
    ([0.97, 0.6, 0.3, 0.02, 1e-4], 0.0, 2e-9),
    ([0.8, 0.8, 0.25], 1e-7, 0.0),
])
def test_tail_bracket_against_enumeration(eigs, raw, mass):
    # the lower side is the retained law's tail, the upper side adds the
    # truncation bound T > 0 and is capped at 1
    s = exact.Spectrum(np.array(eigs), raw, mass)
    c = exact.count_distribution(s)
    assert c.truncation_error_bound > 0.0
    retained = [v for v in eigs if v > exact.effective_eigen_floor(s)]
    brute = _enumerated_pmf(retained)
    for n in range(0, len(eigs) + 3):
        lo, up = exact.tail_bracket(c, n)
        low = min(1.0, float(np.sum(brute[n:]))) if n > 0 else 1.0
        high = min(1.0, low + c.truncation_error_bound) if n > 0 else 1.0
        assert lo <= up <= 0.0
        assert math.exp(lo) == pytest.approx(low, rel=1e-14, abs=0.0), n
        assert math.exp(up) == pytest.approx(high, rel=1e-14, abs=0.0), n
        assert exact.tail(c, n) == math.exp(up)


def test_tail_bracket_deep_tail_below_the_double_range():
    # 400 components of 0.01: P(# = 400) = 1e-800, which the linear pmf
    # cannot hold; the log engine gives 400 log(0.01)
    c = exact.count_distribution(exact.Spectrum(np.full(400, 0.01), 0.0))
    assert c.pmf[400] == 0.0
    want = 400.0 * math.log(0.01)
    assert c.log_pmf[400] == pytest.approx(want, rel=1e-13)
    lo, up = exact.tail_bracket(c, 400)
    assert lo == up == pytest.approx(want, rel=1e-13)
    assert exact.tail_bracket(c, 401) == (-math.inf, -math.inf)


def test_count_distribution_sure_points_raise_no_warning():
    # lambda = 1 gives log1p(-1) = -inf; RuntimeWarnings are errors here
    c = exact.count_distribution(_spectrum_of([1.0, 1.0, 0.5]))
    assert c.pmf.tolist() == [0.0, 0.0, 0.5, 0.5]
    assert c.log_pmf[:2].tolist() == [-math.inf, -math.inf]
    assert exact.tail_bracket(c, 2) == (0.0, 0.0)
    assert exact.tail_bracket(c, 4) == (-math.inf, -math.inf)


def test_log_bernoulli_pmf_keeps_a_given_complement():
    # p = 1 - 1e-20 has no double, but (log p, log q) do: P(# = 0) = q
    lq = math.log(1e-20)
    log_pmf = exact._log_bernoulli_pmf(np.array([-1e-20]), np.array([lq]))
    assert log_pmf[0] == lq and log_pmf[1] == -1e-20


def test_count_distribution_log_pmf_defaults_to_log_pmf():
    c = exact.CountDistribution(np.array([0.0, 0.25, 0.75]), 0.0)
    assert c.log_pmf[0] == -math.inf
    assert c.log_pmf[1:].tolist() == [math.log(0.25), math.log(0.75)]


@pytest.mark.parametrize("kernel,window", _COMPARE_SYSTEMS)
def test_tail_bracket_ordered_on_compare_systems(kernel, window):
    spec, win = kernels.make_kernel(kernel), Interval(*window)
    c = exact.count_distribution(exact.spectrum(exact.discretize(spec, win, 200)))
    for n in range(0, c.pmf.size + 2):
        lo, up = exact.tail_bracket(c, n)
        assert lo <= up <= 0.0, n
        assert exact.tail(c, n) == math.exp(up)


@pytest.mark.parametrize("eigs", [[0.5, math.nan, 0.1], [0.5, math.inf], [-math.inf]])
def test_spectrum_refuses_non_finite_eigenvalues(eigs):
    with pytest.raises(ValueError, match="finite"):
        exact.Spectrum(np.array(eigs), 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-20])
@pytest.mark.parametrize("field", ["raw_out_of_range", "truncated_mass"])
def test_spectrum_refuses_bad_mass_fields(field, bad):
    kwargs = {"raw_out_of_range": 0.0, field: bad}
    with pytest.raises(ValueError, match=field):
        exact.Spectrum(np.array([0.5, 0.1]), **kwargs)


# ---------------------------------------------------------------------------
# generating function
# ---------------------------------------------------------------------------

def test_generating_function_examples():
    s = _spectrum_of([0.7, 0.2])
    assert exact.generating_function(s, 1.0) == 1.0
    assert exact.generating_function(s, 0.0) == pytest.approx(0.3 * 0.8, rel=1e-15)
    c = exact.count_distribution(s)
    for z in (0.3, 0.7, 1.5):
        series = float(np.sum(c.pmf * z ** np.arange(c.pmf.size)))
        assert exact.generating_function(s, z) == pytest.approx(series, abs=1e-10)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_generating_function_refuses_non_finite_z(z):
    with pytest.raises(ValueError, match="finite z"):
        exact.generating_function(_spectrum_of([0.7, 0.2]), z)


def test_generating_function_fredholm_consistency():
    d = exact.discretize(SINE, Interval(0.0, 1.0), 120)
    s = exact.spectrum(d)
    for z in (0.2, 0.8, 1.4):
        fred = float(np.linalg.det(np.eye(d.matrix.shape[0]) + (z - 1.0) * d.matrix))
        assert exact.generating_function(s, z) == pytest.approx(fred, abs=1e-8)


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def _random_skew(rng, n):
    a = rng.standard_normal((n, n))
    return a - a.T


@pytest.mark.parametrize("ident", ["sine4", "airy4"])
def test_correlation_function_block_matrix_bit_identical(ident):
    # the 2n x 2n particle-major matrix from one broadcast eval_matrix call
    # against the matrix assembled pair by pair
    spec = kernels.make_kernel(ident)
    pts = [-0.9, -0.2, 0.4, 0.4 + 1e-6, 1.1]
    n = len(pts)
    big = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for j in range(n):
            big[2 * i:2 * i + 2, 2 * j:2 * j + 2] = kernels.eval_matrix(spec, pts[i], pts[j])
    want = exact.pfaffian(0.5 * (big - big.T))
    assert exact.correlation_function(spec, pts) == want


def test_pfaffian_two_by_two():
    assert exact.pfaffian(np.array([[0.0, 3.7], [-3.7, 0.0]])) == 3.7


def test_pfaffian_four_by_four_expansion():
    rng = np.random.default_rng(11)
    a = _random_skew(rng, 4)
    expected = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    assert exact.pfaffian(a) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_pfaffian_squares_to_determinant(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = _random_skew(rng, n)
        pf = exact.pfaffian(a)
        det = float(np.linalg.det(a))
        assert pf * pf == pytest.approx(det, rel=1e-10)


def test_pfaffian_odd_dimension():
    rng = np.random.default_rng(13)
    assert exact.pfaffian(_random_skew(rng, 5)) == 0.0


def test_pfaffian_permutation_sign():
    rng = np.random.default_rng(14)
    a = _random_skew(rng, 8)
    pf = exact.pfaffian(a)
    for _ in range(6):
        perm = rng.permutation(8)
        # sign via cycle decomposition
        seen = [False] * 8
        sign = 1
        for i in range(8):
            if not seen[i]:
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        p = np.eye(8)[perm]
        assert exact.pfaffian(p @ a @ p.T) == pytest.approx(sign * pf, rel=1e-10)


def test_pfaffian_skewness_check():
    with pytest.raises(ValueError):
        exact.pfaffian(np.array([[0.0, 1.0], [-1.0, 1e-6]]))


# ---------------------------------------------------------------------------
# correlation functions
# ---------------------------------------------------------------------------

def test_correlation_single_point():
    assert exact.correlation_function(SINE, [0.4]) == 1.0


def test_correlation_repulsion():
    assert exact.correlation_function(SINE, [0.4, 0.4]) == pytest.approx(0.0, abs=1e-14)


def test_correlation_sine4_single_point():
    assert exact.correlation_function(SINE4, [0.4]) == pytest.approx(0.5, rel=1e-14)


def test_correlation_nonnegative_random_sets():
    rng = np.random.default_rng(15)
    for n in (2, 4, 6):
        for _ in range(10):
            pts = rng.uniform(0.0, 2.0, n)
            assert exact.correlation_function(SINE, pts) >= -1e-10


def test_correlation_size_limit():
    with pytest.raises(ValueError):
        exact.correlation_function(SINE, list(np.linspace(0, 1, 17)))


# ---------------------------------------------------------------------------
# Ginibre disk oracle
# ---------------------------------------------------------------------------

def test_ginibre_disk_first_eigenvalue():
    vals = exact.ginibre_disk_eigenvalues(1.0, 0)
    assert vals[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)


def test_ginibre_disk_trace_telescopes():
    for r in (0.5, 1.0, 2.0):
        vals = exact.ginibre_disk_eigenvalues(r, 200)
        # sum_k gamma(k+1, r^2)/k! telescopes to r^2
        assert float(np.sum(vals)) == pytest.approx(r * r, abs=1e-10)


def test_ginibre_disk_vs_nystrom():
    analytic = exact.ginibre_disk_eigenvalues(1.0, 8)
    numeric = exact.ginibre_disk_nystrom_eigenvalues(1.0, n_radial=16, n_angular=32)
    assert np.max(np.abs(np.array(analytic) - numeric[:9])) < 1e-6


# ---------------------------------------------------------------------------
# Legendre normalization
# ---------------------------------------------------------------------------

def test_legendre_partition_n2():
    formula, quad = exact.legendre_partition(2)
    assert formula == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert quad == pytest.approx(8.0 / 3.0, abs=1e-9)


def test_legendre_partition_n1_discrepancy_flagged():
    formula, quad = exact.legendre_partition(1)
    assert formula == 2.0
    assert quad == pytest.approx(1.0, abs=1e-12)
    # known factor-2 boundary convention; reported, not reconciled
    assert formula != pytest.approx(quad, rel=1e-6)


def test_legendre_partition_n3_formula_defect():
    # the quadrature oracle equals the symbolically exact 2187/40, while the
    # closed-form product gives 48/5: the product-form normalization is confirmed
    # only at n = 2, and the n = 1 and n = 3 mismatches are both flagged
    formula, quad = exact.legendre_partition(3)
    assert quad == pytest.approx(2187.0 / 40.0, rel=1e-9)
    assert formula == pytest.approx(48.0 / 5.0, rel=1e-14)
    assert abs(formula - quad) > 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_legendre_partition_quadrature_selberg_witness(n):
    # Selberg integral with alpha = beta = gamma = 1, scaled from [0, 1]^n to
    # [-n/2, n/2]^n: n^(n^2) prod_j (j!)^2 (j+1)! / (n+j)!; n = 3 gives
    # 3^9/360 = 2187/40
    selberg = float(n) ** (n * n)
    for j in range(n):
        selberg *= math.factorial(j) ** 2 * math.factorial(j + 1) / math.factorial(n + j)
    _, quad = exact.legendre_partition(n)
    assert quad == pytest.approx(selberg, rel=1e-12)
    if n == 3:
        assert selberg == pytest.approx(2187.0 / 40.0, rel=1e-15)


def test_legendre_partition_n4_no_quadrature():
    formula, quad = exact.legendre_partition(4)
    assert quad is None and formula > 0
