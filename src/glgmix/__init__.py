"""Random-intercept Poisson regression with generalized log-gamma random
effects, and its closed-form multivariate negative binomial special case.

Fitting, random-effect prediction, simulation, residual diagnostics with
simulated envelopes, and AIC model comparison, as a library and a CLI.

Submodules and the public names below load on first access (PEP 562), so
``import glgmix`` itself loads none of them and a caller pays only for
the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# home module of each public name
_HOMES = {
    "data_io": ("ClusterData", "Dataset", "ModelSpec", "read_csv", "ungroup", "write_csv"),
    "diagnostics": ("EnvelopeResult", "compare_aic", "qq_points", "simulated_envelope"),
    "errors": (
        "CollinearDesignError",
        "DataFormatError",
        "DomainError",
        "EnvelopeError",
        "EnvelopeReplicateWarning",
        "GlgmixError",
        "LeverageError",
        "ModeSearchError",
        "MomentExistenceError",
        "NegativeDevianceWarning",
        "NonPsdWeightWarning",
    ),
    "glg_dist": ("GlgParams", "PglgParams"),
    "mnb_model": ("MnbParams", "ResidualReport"),
    "pglg_model": ("PglgFitOptions",),
    "quadrature": ("QuadratureRule", "gauss_hermite"),
    "results": ("FitResult", "TraceRecord"),
    "simulate": ("SimDesign", "simulate_mnb", "simulate_pglg"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(("_newton", "_special", "cli", *_HOMES))

__all__ = [
    "__version__",
    "cli",
    "data_io",
    "diagnostics",
    "glg_dist",
    "mnb_model",
    "pglg_model",
    "simulate",
    *_HOME_OF,
]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME_OF[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
