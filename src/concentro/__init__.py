"""Partition-indexed tensor norms, concentration-bound functionals for
polynomials of independent coordinates, and Monte Carlo verification tools."""

__version__ = "0.1.0"

from .partitions import SetPartition, SplitPartition, enumerate_partitions, enumerate_splits
from .tensor import (
    IndexMask,
    Tensor,
    apply_mask,
    load_tensor,
    symmetrize,
)
from .norms import NormOptions, NormResult, mixed_norm, norm_J, norm_J_bruteforce
from .poly import (
    Polynomial,
    ProductDistribution,
    expected_derivative_tensor,
    hermite,
    hermite_expansion,
    load_polynomial,
)
from .bounds import (
    BoundReport,
    BoundTerm,
    additive_functional_tail,
    eta_tail,
    gaussian_moment_bound,
    sobolev_moment_bound,
    weibull_moment_bound,
)
from .montecarlo import (
    MCConfig,
    MomentEstimate,
    TailEstimate,
    chaos_moment,
    empirical_moment,
    empirical_tail,
    hermite_tetrahedral_convergence,
    sandwich_check,
    sobolev_check,
)
from .graphs import (
    GraphSpec,
    counting_polynomial,
    er_tail_experiment,
    subgraph_norm_bound,
)
from .rmt import (
    WignerSpec,
    eigenvalues_symmetric,
    linstat_tail_bound,
    semicircle_integral,
    wigner_experiment,
)
