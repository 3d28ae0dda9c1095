"""Numerical toolkit for counting statistics of determinantal and Pfaffian
point processes: explicit tail/exponential-moment bound constants, exact
spectral oracles, and reproducible Monte Carlo verification.

The public names below are loaded on first access (PEP 562), so importing
the package alone loads no numpy and leaves its host process as it was.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines, reachable as dpptails.<name>
_EXPORTS = {
    "kernels": ("Factorization", "GrowthEnvelope", "Interval", "KernelSpec", "eval_complex",
                "eval_matrix", "eval_scalar", "factorization", "growth_envelope",
                "intensity", "make_kernel"),
    "bounds": ("BoundReport", "b_constant", "build_bound_report", "c_constant",
               "det_via_divided_differences", "divided_differences",
               "exp_moment_log_bound", "tail_log_bound"),
    "exact": ("CountDistribution", "DiscretizedKernel", "Spectrum", "correlation_function",
              "count_distribution", "discretize", "exp_moment_sq",
              "ginibre_disk_eigenvalues", "pfaffian", "spectrum", "tail", "tail_bracket"),
    "sampler": ("PairFunctional", "SampleBatch", "additive_functional", "gaussian_bump_q",
                "mc_exp_moment", "negative_association_probe", "norm_1_inf", "sample"),
    "specfun": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
