"""Numerical toolkit for counting statistics of determinantal and Pfaffian
point processes: explicit tail/exponential-moment bound constants, exact
spectral oracles, and reproducible Monte Carlo verification."""

__version__ = "0.1.0"

from .kernels import (          # noqa: F401
    Factorization,
    GrowthEnvelope,
    Interval,
    KernelSpec,
    eval_complex,
    eval_matrix,
    eval_scalar,
    factorization,
    growth_envelope,
    intensity,
    make_kernel,
)
from .bounds import (           # noqa: F401
    BoundReport,
    b_constant,
    build_bound_report,
    c_constant,
    det_via_divided_differences,
    divided_differences,
    exp_moment_log_bound,
    tail_log_bound,
)
from .exact import (            # noqa: F401
    CountDistribution,
    DiscretizedKernel,
    Spectrum,
    correlation_function,
    count_distribution,
    discretize,
    exp_moment_sq,
    ginibre_disk_eigenvalues,
    pfaffian,
    spectrum,
    tail,
    tail_bracket,
)
from .sampler import (          # noqa: F401
    PairFunctional,
    SampleBatch,
    additive_functional,
    gaussian_bump_q,
    mc_exp_moment,
    negative_association_probe,
    norm_1_inf,
    sample,
)
