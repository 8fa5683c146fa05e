"""qreflect: exact verification of boundary quantum-integrability identities.

Builds finite-dimensional U_q(sl2) representations, the associated L-operators
and 6-vertex R-matrices, and the generic triangular boundary K-operators, then
certifies (exactly over Q(v), v = q^(1/2), or numerically) the Yang-Baxter,
reflection, intertwining, coideal and conjugation identities relating them.
"""

from .scalars import (
    LaurentPolynomial,
    NonConvergenceError,
    PoleError,
    RationalExpression,
    ScalarContext,
    Spectral,
    poch_finite,
    poch_infinite_truncated,
    poch_ratio,
    poch_ratio_telescoped,
    q_integer,
    rational,
)
from .linalg import Matrix, lift, residual
from .representations import (
    Irrep,
    ParamSet,
    cartan_power,
    casimir,
    casimir_value,
    iota_matrix,
    make_irrep,
    make_params,
    sigma_matrix,
)
from .loperators import build_K_scalar, build_L, build_R, r_from_l
from .koperators import (
    KOperatorSpec,
    NonNilpotentError,
    RepeatedEigenvalueError,
    build_K,
    build_K0_diagonal,
    build_K_upper_split,
    candidate_intertwining_sides,
    kappa,
    q_exp_nilpotent,
)
from .checks import (
    CheckReport,
    check_appendix,
    check_aux_lemmas,
    check_coideal_algebras,
    check_coideal_coproduct,
    check_intertwining,
    check_onsager_candidate,
    check_reflection,
    check_symmetries,
    check_ybe,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
