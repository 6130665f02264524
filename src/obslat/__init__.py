"""obslat: double obstacle problems on finite vector lattices.

Solve min E(u) over an order interval [lo, hi] for convex submodular
energies (graph Dirichlet forms, discrete fractional kernels), and verify
the solutions with machine-checkable Lewy-Stampacchia certificates.  On
graph-induced metric spaces, the same machinery builds cut-off functions
and regularized Kantorovich potentials with certified Laplacian bounds.
"""

from .certificates import (
    LSCertificate,
    certificate_report,
    free_set_harmonicity,
    harmonic_extension,
    lipschitz_ratio,
    ls_certificate,
    maximum_principle_check,
)
from .energies import (
    CheckResult,
    KernelEnergy,
    QuadraticEnergy,
    fractional_kernel_1d,
    graph_dirichlet,
    scalar_submodularity_inequality,
    submodularity_check,
    t_monotonicity_check,
    z_matrix_violation,
)
from .errors import (
    CertificateError,
    ConstructionError,
    DimensionMismatch,
    ObslatError,
    ObstacleOrderError,
    PreconditionError,
    SolverError,
)
from .lattice import (
    UNBOUNDED,
    OrderInterval,
    as_vector,
    clamp,
)
from .metric import (
    Cutoff,
    FiniteMetricSpace,
    GraphSpace,
    PotentialPair,
    build_cutoff,
    c_transform,
    coincidence_cc_report,
    cutoff_obstacles,
    hopf_lax,
    interpolation_duality_check,
    is_c_concave,
    kantorovich_regularize,
)
from .solvers import (
    Solution,
    brute_force_active_set,
    classify_active,
    kkt_residual,
    solve_newton,
    solve_projected_gradient,
    solve_psor,
)
from .suite import run_suite

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "CheckResult",
    "ConstructionError",
    "Cutoff",
    "DimensionMismatch",
    "FiniteMetricSpace",
    "GraphSpace",
    "KernelEnergy",
    "LSCertificate",
    "ObslatError",
    "ObstacleOrderError",
    "OrderInterval",
    "PotentialPair",
    "PreconditionError",
    "QuadraticEnergy",
    "Solution",
    "SolverError",
    "UNBOUNDED",
    "as_vector",
    "brute_force_active_set",
    "build_cutoff",
    "c_transform",
    "certificate_report",
    "clamp",
    "classify_active",
    "coincidence_cc_report",
    "cutoff_obstacles",
    "fractional_kernel_1d",
    "free_set_harmonicity",
    "graph_dirichlet",
    "harmonic_extension",
    "hopf_lax",
    "interpolation_duality_check",
    "is_c_concave",
    "kantorovich_regularize",
    "kkt_residual",
    "lipschitz_ratio",
    "ls_certificate",
    "maximum_principle_check",
    "run_suite",
    "scalar_submodularity_inequality",
    "solve_newton",
    "solve_projected_gradient",
    "solve_psor",
    "submodularity_check",
    "t_monotonicity_check",
    "z_matrix_violation",
]
