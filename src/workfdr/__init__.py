"""Work statistics of slowly driven one- and two-qubit systems under the
discrete two-point-measurement protocol: exact enumeration, closed-form
cross-checks, entanglement negativity, and seeded Monte Carlo validation."""

from .entanglement import negativity, negativity_cartan_basis
from .entanglers import ENTANGLERS, SINGLE_QUBIT, Entangler
from .errors import (
    ContractViolationError,
    NumericFailureError,
    UnsupportedDimensionError,
    ValidationError,
    WorkFdrError,
)
from .linalg import hermitian_eigenvalues, identity, kron, partial_transpose_A
from .model import (
    CartanCoefficients,
    SeparableXZXParams,
    cartan_entangler,
    rotation_x,
    rotation_z,
    rxx,
    separable_xzx,
)
from .sampler import ProtocolConfig, SampleStats, estimate
from .work_stats import (
    WorkDistribution,
    closed_form_distribution_cartan,
    closed_form_distribution_separable,
    closed_form_distribution_single,
    convolve_n,
    distribution_distance,
    f_beta,
    g_beta,
    jarzynski_check,
    moments,
    q_correction,
    q_single_exact,
    step_distribution,
    step_distribution_bipartite,
    step_grid,
)

__version__ = "0.1.0"

__all__ = [
    "CartanCoefficients",
    "ContractViolationError",
    "ENTANGLERS",
    "Entangler",
    "NumericFailureError",
    "ProtocolConfig",
    "SINGLE_QUBIT",
    "SampleStats",
    "SeparableXZXParams",
    "UnsupportedDimensionError",
    "ValidationError",
    "WorkDistribution",
    "WorkFdrError",
    "cartan_entangler",
    "closed_form_distribution_cartan",
    "closed_form_distribution_separable",
    "closed_form_distribution_single",
    "convolve_n",
    "distribution_distance",
    "estimate",
    "f_beta",
    "g_beta",
    "hermitian_eigenvalues",
    "identity",
    "jarzynski_check",
    "kron",
    "moments",
    "negativity",
    "negativity_cartan_basis",
    "partial_transpose_A",
    "q_correction",
    "q_single_exact",
    "rotation_x",
    "rotation_z",
    "rxx",
    "separable_xzx",
    "step_distribution",
    "step_distribution_bipartite",
    "step_grid",
    "__version__",
]
