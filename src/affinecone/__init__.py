"""Affine jump-diffusions on the cone of positive semidefinite matrices.

Tools for conservative subcritical affine processes: parameter
validation, generalized Riccati flows with closed-form cross-checks,
first-moment formulas, the stationary law through its Laplace
transform, certified exponential convergence bounds, and reproducible
Monte Carlo verification.
"""

__version__ = "0.1.0"

from .ergodicity import (
    DecayCertificate,
    HypothesisViolatedError,
    InvariantLaw,
    NotSubcriticalError,
    dL_bound,
    dL_table,
    decay_certificate,
    invariant_mean,
    log_moment_gate,
    spectral_abscissa,
    standard_u_grid,
    transient_laplace,
    transient_mean,
    w1_mean_gap_check,
)
from .params import (
    AdmissibilityError,
    AffineParams,
    LinearDrift,
    MatrixJumpMeasure,
    ScalarJumpMeasure,
    SymOperator,
    load_params,
)
from .riccati import (
    SolverFailureError,
    WishartSpec,
    congruence_integral,
    phi_closed_form_mbajd,
    psi_closed_form_wishart,
    riccati_DF,
    riccati_DR,
    riccati_F,
    riccati_R,
    semiflow_check,
    solve_riccati,
)
from .simulate import (
    PathEnsemble,
    SimConfig,
    ergodic_sweep,
    mc_mean,
    mc_vs_formula,
    simulate,
)
from .symcone import (
    ConeViolationError,
    check_cone,
    frobenius,
    inner,
    is_psd,
    mat_exp,
    min_eigval,
    project_factor_psd,
    psd_tol,
    random_psd,
    sqrt_psd,
    sym_basis,
    sym_dim,
    symmetrize,
    trace_norm_bracket,
    unvectorize,
    vectorize,
)

# the names the demos, the README and the benchmark use; every other name
# imported above stays importable from the package
__all__ = [
    "__version__",
    "AffineParams",
    "InvariantLaw",
    "LinearDrift",
    "NotSubcriticalError",
    "PathEnsemble",
    "ScalarJumpMeasure",
    "SimConfig",
    "WishartSpec",
    "dL_bound",
    "dL_table",
    "decay_certificate",
    "ergodic_sweep",
    "frobenius",
    "invariant_mean",
    "log_moment_gate",
    "mat_exp",
    "mc_vs_formula",
    "phi_closed_form_mbajd",
    "psi_closed_form_wishart",
    "riccati_R",
    "semiflow_check",
    "simulate",
    "solve_riccati",
    "sqrt_psd",
    "standard_u_grid",
    "symmetrize",
    "transient_laplace",
    "transient_mean",
    "unvectorize",
    "vectorize",
    "w1_mean_gap_check",
]
