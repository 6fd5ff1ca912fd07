"""Random-intercept Poisson regression with generalized log-gamma random
effects, and its closed-form multivariate negative binomial special case.

Fitting, random-effect prediction, simulation, residual diagnostics with
simulated envelopes, and AIC model comparison, as a library and a CLI.
"""

from . import cli, data_io, diagnostics, glg_dist, mnb_model, pglg_model, simulate
from .data_io import ClusterData, Dataset, ModelSpec, read_csv, ungroup, write_csv
from .diagnostics import EnvelopeResult, compare_aic, qq_points, simulated_envelope
from .errors import (
    CollinearDesignError,
    DataFormatError,
    DomainError,
    EnvelopeError,
    EnvelopeReplicateWarning,
    GlgmixError,
    LeverageError,
    ModeSearchError,
    MomentExistenceError,
    NegativeDevianceWarning,
    NonPsdWeightWarning,
)
from .glg_dist import GlgParams
from .mnb_model import MnbParams, ResidualReport
from .pglg_model import PglgFitOptions, PglgParams
from .quadrature import QuadratureRule, gauss_hermite
from .results import FitResult, TraceRecord
from .simulate import SimDesign, simulate_mnb, simulate_pglg

__version__ = "0.1.0"

__all__ = [
    "CollinearDesignError",
    "ClusterData",
    "DataFormatError",
    "Dataset",
    "DomainError",
    "EnvelopeError",
    "EnvelopeReplicateWarning",
    "EnvelopeResult",
    "FitResult",
    "GlgParams",
    "GlgmixError",
    "LeverageError",
    "MnbParams",
    "ModeSearchError",
    "ModelSpec",
    "MomentExistenceError",
    "NegativeDevianceWarning",
    "NonPsdWeightWarning",
    "PglgFitOptions",
    "PglgParams",
    "QuadratureRule",
    "ResidualReport",
    "SimDesign",
    "TraceRecord",
    "__version__",
    "cli",
    "compare_aic",
    "data_io",
    "diagnostics",
    "gauss_hermite",
    "glg_dist",
    "mnb_model",
    "pglg_model",
    "qq_points",
    "read_csv",
    "simulate",
    "simulate_mnb",
    "simulate_pglg",
    "simulated_envelope",
    "ungroup",
    "write_csv",
]
