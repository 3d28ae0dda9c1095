"""Exact spectral oracles: Nystrom + low-rank eigensolve + Bernoulli counting.

The particle count in a window is an independent Bernoulli sum over the
eigenvalues of the restricted kernel; this demo computes those eigenvalues
with the in-package low-rank solve (pivoted Cholesky, then cyclic Jacobi on
the projected matrix), builds the counting pmf, checks
the Fredholm generating function, and runs the two analytic cross-checks.
Run:  python demos/04_exact_spectra.py
"""

import numpy as np

from dpptails import exact, kernels
from dpptails.kernels import Interval

sine = kernels.make_kernel("sine")
win = Interval(0.0, 1.0)

print("=" * 70)
print("sine kernel on [0, 1], Gauss-Legendre order 200")
print("=" * 70)
d = exact.discretize(sine, win, 200)
s = exact.spectrum(d)
print(f"  trace = {d.trace:.15f}")
print("  top eigenvalues:", ", ".join(f"{v:.6e}" for v in s.eigenvalues[:6]))
print(f"  sum = {float(np.sum(s.eigenvalues)):.12f} (trace preserved)")

c = exact.count_distribution(s)
print(f"  pmf = {[f'{p:.6g}' for p in c.pmf[:6]]}")
print(f"  truncation error bound = {c.truncation_error_bound:.2e} "
      f"({c.n_truncated} dropped components)")
print(f"  P(# >= 2) = {exact.tail(c, 2):.8f}")
print(f"  E exp(0.1 #^2) = {exact.exp_moment_sq(c, 0.1):.10f}")
try:
    exact.exp_moment_sq(c, 0.25)
except exact.TruncationError as err:
    print(f"  at lambda = 0.25 the 1e-10 guard refuses a point value:")
    print(f"    {err}")
lo, up = exact.exp_moment_sq_bracket(c, 0.25)
print(f"  certified bracket instead: log E in [{lo:.8f}, {up:.8f}]")
lo, up = exact.exp_moment_sq_bracket(c, 1.5)
print(f"  lambda = 1.5 bracket: log E in [{lo:.4f}, {up:.4f}] "
      "(wide; double precision cannot see the dominant spectral tail)")

print()
print("generating function vs Fredholm determinant")
for z in (0.0, 0.5, 1.5):
    gf = exact.generating_function(s, z)
    fred = float(np.linalg.det(np.eye(d.matrix.shape[0]) + (z - 1.0) * d.matrix))
    print(f"  z = {z}: product form {gf:.10f}, det(I + (z-1)K) {fred:.10f}")

print()
print("=" * 70)
print("Pfaffian engine and correlation functions")
print("=" * 70)
rng = np.random.default_rng(0)
a = rng.standard_normal((8, 8))
a = a - a.T
pf = exact.pfaffian(a)
print(f"  random 8x8: Pf^2 - det = {pf * pf - float(np.linalg.det(a)):.2e}")
sine4 = kernels.make_kernel("sine4")
print(f"  sine4 one-point correlation = {exact.correlation_function(sine4, [0.2])}")
print(f"  sine4 two-point (0.2, 0.7)  = "
      f"{exact.correlation_function(sine4, [0.2, 0.7]):.10f}")

print()
print("=" * 70)
print("analytic cross-checks")
print("=" * 70)
analytic = exact.ginibre_disk_eigenvalues(1.0, 5)
numeric = exact.ginibre_disk_nystrom_eigenvalues(1.0, n_radial=20, n_angular=40)
print("  Ginibre disk r=1: analytic vs 2-d polar Nystrom")
for k, v in enumerate(analytic):
    print(f"    k={k}: {v:.12f} vs {numeric[k]:.12f}")
for n in (1, 2, 3):
    formula, quad = exact.legendre_partition(n)
    flag = "" if abs(formula - quad) <= 1e-6 * abs(quad) else "   <-- flagged mismatch"
    print(f"  scaled-ensemble normalization n={n}: closed form {formula:.6f}, "
          f"quadrature {quad:.6f}{flag}")
