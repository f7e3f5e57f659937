"""Rate-function transforms between super-Poincare and log-Sobolev type
inequalities, with variational verification on finite Dirichlet forms."""

from .errors import (
    CapError,
    ConditionFailedError,
    ConfigError,
    FitError,
    MathDomainError,
    RateCalcError,
    SingularityError,
    SolverError,
)
from .ratefn import (
    Constant,
    ExpPower,
    ExtendedValue,
    InversePower,
    LogPower,
    LogTabulated,
    PolyPower,
    RateFunction,
    Tabulated,
    fit_exponent,
    rate_function_from_json,
)
from .transforms import (
    ConditionVerdict,
    TransformConfig,
    check_vanishing,
    log_grid,
    n_zero,
    sl_from_sp,
    sp2sl_condition,
    sp_from_sl,
    sp_from_wl,
    wl2sp_condition,
    wl_from_sp,
    xi1,
    xi2,
)
from .dirichlet import (
    FiniteDirichletForm,
    LevelData,
    SpectralGap,
    build_birth_death,
    entropy,
    level_data,
    spectral_gap,
    truncation_sequence,
)
from .optconst import (
    KINDS,
    DominationReport,
    EmpiricalRateFunction,
    SolverConfig,
    brute_force_oracle,
    certify_inequality,
    dominates,
    empirical_rate,
    optimal_value,
)

__version__ = "0.1.0"
