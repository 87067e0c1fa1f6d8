"""Deep NMF with beta-divergences and minimum-volume regularization."""

from .dataio import (
    read_matrix,
    read_trace,
    write_matrix,
    write_mosaic_pgm,
    write_trace,
)
from .divergence import (
    INFINITE_DIVERGENCE,
    SUPPORTED_BETAS,
    beta_div_matrix,
    beta_div_scalar,
    decomposition_terms,
)
from .errors import (
    ComparisonError,
    ConfigError,
    DeepBnmfError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    MonotonicityError,
    NoRootError,
    OracleError,
    ParseError,
    PreconditionError,
)
from .metrics import (
    compare_runs,
    composite_features,
    hoyer_sparsity,
    ssc_row_zero_check,
)
from .minvol import (
    AdmmRun,
    AdmmState,
    LogDetContext,
    admm_solve_w,
    admm_w_step,
    build_logdet_context,
    logdet_majorizer,
    minvol_factorize,
    z_min_step,
)
from .model import (
    COLUMN_SIMPLEX_W,
    ConvergenceTrace,
    DeepState,
    LayerSpec,
    ROW_SIMPLEX_H,
    SolverConfig,
    auto_balance_weights,
    eval_objective,
    init_random,
    validate_state,
)
from .scalars import (
    Bracket,
    lambert_w0,
    lambert_w0_from_log,
    solve_monotone_scalar,
)
from .solvers import deep_factorize, multilayer_factorize
from .updates import (
    InnerWContext,
    epsilon_floor,
    update_h_simplex,
    update_w_inner,
    update_w_terminal,
)
from .verification import brute_force_scalar_min, check_majorizer

__version__ = "0.1.0"
