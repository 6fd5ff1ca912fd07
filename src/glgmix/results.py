"""Shared container for fit output: estimates, uncertainty, and the
iteration trace."""

from __future__ import annotations

import numpy as np

from ._record import record
from .errors import DomainError


@record
class TraceRecord:
    """One accepted iteration of a fitting loop."""

    iteration: int
    loglik: float
    max_grad: float


@record
class FitResult:
    """Estimates and metadata common to both model families.

    ``names`` lists the free parameters only, in estimate order; the AIC
    penalty counts exactly these.  ``z_defined`` marks parameters whose
    Wald z-statistic is meaningful (regression coefficients and the shape;
    not the boundary-adjacent scale or dispersion parameters, for which no
    z is reported).
    """

    model: str
    names: tuple
    estimates: np.ndarray
    std_errors: np.ndarray | None
    loglik: float
    n_iterations: int
    converged: bool
    trace: tuple
    z_defined: tuple

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        est = np.asarray(self.estimates, dtype=float)
        zdef = tuple(bool(b) for b in self.z_defined)
        if est.shape != (len(names),) or len(zdef) != len(names):
            raise DomainError("names, estimates and z_defined must have equal length")
        se = self.std_errors
        if se is not None:
            se = np.asarray(se, dtype=float)
            if se.shape != est.shape:
                raise DomainError("std_errors length must match estimates")
            if not np.all(np.isfinite(se)) or np.any(se <= 0):
                raise DomainError("std_errors must be finite and positive (or None)")
            se.setflags(write=False)
        est.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "std_errors", se)
        object.__setattr__(self, "trace", tuple(self.trace))
        object.__setattr__(self, "z_defined", zdef)

    @property
    def aic(self):
        """-2 loglik + 2 (number of free parameters), by construction."""
        return -2.0 * self.loglik + 2.0 * len(self.names)

    def estimate(self, name):
        """Estimate for the parameter called ``name``."""
        try:
            return float(self.estimates[self.names.index(name)])
        except ValueError:
            raise KeyError(f"no parameter named {name!r}; have {self.names}") from None

    def std_error(self, name):
        """Standard error for ``name`` (NaN when none were computed)."""
        idx = self.names.index(name) if name in self.names else None
        if idx is None:
            raise KeyError(f"no parameter named {name!r}; have {self.names}")
        return float(self.std_errors[idx]) if self.std_errors is not None else float("nan")

    def z_values(self):
        """Wald z where defined, NaN elsewhere (all NaN without SEs)."""
        z = np.full(len(self.names), np.nan)
        if self.std_errors is not None:
            mask = np.array(self.z_defined)
            z[mask] = self.estimates[mask] / self.std_errors[mask]
        return z

    def as_dict(self):
        """JSON-ready report: per-parameter rows plus fit metadata."""
        z = self.z_values()
        params = []
        for k, name in enumerate(self.names):
            se = float(self.std_errors[k]) if self.std_errors is not None else None
            params.append(
                {
                    "name": name,
                    "estimate": float(self.estimates[k]),
                    "std_error": se,
                    "z_value": float(z[k]) if np.isfinite(z[k]) else None,
                }
            )
        return {
            "model": self.model,
            "params": params,
            "loglik": float(self.loglik),
            "aic": float(self.aic),
            "n_iterations": int(self.n_iterations),
            "converged": bool(self.converged),
            "trace": [
                {"iteration": t.iteration, "loglik": t.loglik, "max_grad": t.max_grad}
                for t in self.trace
            ],
        }
