"""Martingale representation integrands and hedging for exponential Levy
models, computed by damped Fourier inversion."""

__version__ = "0.1.0"

from .errors import (
    AssumptionError,
    DomainError,
    InconclusiveError,
    LevyRepError,
    ParameterError,
    QuadratureError,
    SchemeError,
    TruncationError,
)
from .models import (
    BrownianModel,
    MertonModel,
    NIGModel,
    VGModel,
    check_assumption1,
    check_decay_condition,
    check_exponential_moment,
    model_from_dict,
)
from .payoffs import (
    DampedPayoff,
    PayoffDecomposition,
    check_assumption2,
    constant_payoff,
    digital_payoff,
    exp_indicator_payoff,
    payoff_from_dict,
    polynomial_payoff,
    sqrt_abs_decomposition,
    sqrt_minus_payoff,
    sqrt_plus_payoff,
)
from .fourier import (
    QuadratureGrid,
    conditional_value,
    d2F_dx2,
    dF_dt,
    dF_dx,
    density,
    density_batch,
    grid_from_dict,
    jump_compensator,
    jump_difference,
    pide_residual,
)
from .representation import (
    RepresentationIntegrands,
    build_integrands,
    replicate_batch,
    replicate_on_path,
)
from .mmm import (
    MarketSpec,
    MmmTransform,
    build_mmm,
    check_assumption3,
    density_star,
    mmm_log_density,
    psi_star,
)
from .hedging import (
    HedgeComponents,
    HedgeState,
    fs_decomposition_on_path,
    hedge_components,
    hedge_grid,
    lrm_xi,
    orthogonality_check,
)
from .simulate import PathBatch, moments_from_psi, simulate
from .malliavin import MalliavinVerdict, malliavin_classify

__all__ = [
    "__version__",
    # errors
    "LevyRepError", "DomainError", "QuadratureError", "TruncationError",
    "InconclusiveError", "AssumptionError", "SchemeError", "ParameterError",
    # models
    "BrownianModel", "MertonModel", "NIGModel", "VGModel", "model_from_dict",
    "check_exponential_moment", "check_decay_condition", "check_assumption1",
    # payoffs
    "DampedPayoff", "PayoffDecomposition", "digital_payoff",
    "exp_indicator_payoff", "sqrt_plus_payoff", "sqrt_minus_payoff",
    "polynomial_payoff", "constant_payoff", "sqrt_abs_decomposition",
    "check_assumption2", "payoff_from_dict",
    # fourier engine
    "QuadratureGrid", "grid_from_dict", "conditional_value", "dF_dx", "d2F_dx2", "dF_dt",
    "jump_difference", "jump_compensator", "pide_residual", "density",
    "density_batch",
    # representation
    "RepresentationIntegrands", "build_integrands", "replicate_batch",
    "replicate_on_path",
    # minimal martingale measure
    "MarketSpec", "MmmTransform", "build_mmm", "psi_star", "density_star",
    "mmm_log_density", "check_assumption3",
    # hedging
    "HedgeState", "HedgeComponents", "lrm_xi", "hedge_components",
    "hedge_grid", "fs_decomposition_on_path", "orthogonality_check",
    # simulation
    "PathBatch", "simulate", "moments_from_psi",
    # differentiability
    "MalliavinVerdict", "malliavin_classify",
]
