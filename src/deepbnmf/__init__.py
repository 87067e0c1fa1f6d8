"""Deep NMF with beta-divergences and minimum-volume regularization.

The package namespace holds the solvers, their configuration and results,
file I/O, diagnostics and errors; the kernels stay in their own modules
(``deepbnmf.updates``, ``deepbnmf.scalars``, ``deepbnmf.minvol``, ...).
"""

from .dataio import (
    read_matrix,
    read_trace,
    write_matrix,
    write_mosaic_pgm,
    write_trace,
)
from .divergence import SUPPORTED_BETAS, beta_div_matrix
from .errors import (
    ComparisonError,
    ConfigError,
    DeepBnmfError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    MonotonicityError,
    NoRootError,
    ParseError,
)
from .metrics import (
    compare_runs,
    composite_features,
    hoyer_sparsity,
    ssc_row_zero_check,
)
from .minvol import minvol_factorize
from .model import ConvergenceTrace, DeepState, LayerSpec, SolverConfig
from .solvers import deep_factorize, multilayer_factorize

__version__ = "0.1.0"
