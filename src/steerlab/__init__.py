"""steerlab: Gaussian quantum steering quantification from covariance
matrices, monogamy inequalities as executable properties, residual
tripartite steering, and quantum-secret-sharing key rates with their
steering bounds."""

from .errors import DomainError, InternalError, UsageError
from .monogamy import (
    MonogamyReport,
    RgsValue,
    fig1a_sweep,
    fig1b_sweep,
    monogamy_residual,
    rgs,
    rgs_closed_form,
)
from .qss import (
    LN_E_HALF,
    RGS_POSITIVITY_THRESHOLD,
    GhzThreshold,
    JointGains,
    KeyRateReport,
    conditional_variance,
    fig2_campaign,
    key_rate_eve,
    key_rate_full,
    key_rate_mode_invariant,
    key_rate_report,
    threshold_squeezing_ghz,
)
from .states import (
    OpticalNetworkParams,
    PureThreeModeParams,
    SamplerConfig,
    beamsplitter,
    db_from_r,
    ghz_network,
    local_invariants,
    r_from_db,
    random_mixed,
    random_params,
    random_pure,
    squeezed_vacuum,
    standard_form_pure,
    two_mode_squeezed,
    vacuum,
)
from .steering import (
    SteeringValue,
    exclusivity_check,
    gaussian_steering,
    logdet_steering_bound_check,
    renyi2_pure_bipartite_entanglement,
    steering_one_mode_steered,
)
from .symplectic import (
    CovarianceMatrix,
    apply_symplectic,
    conditional_log_det,
    is_pure,
    is_valid_cm,
    log_det,
    omega,
    partial_trace,
    schur_complement,
    symplectic_eigenvalues,
)
from .verify import SUITES, SuiteResult, run_suite

__version__ = "0.1.0"
