"""Residual-based model checking: normal QQ positions, simulated
envelopes, and AIC comparison tables.

Normal quantiles come from :class:`statistics.NormalDist` (Wichura's
AS241 algorithm), one plotting position at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    DomainError,
    EnvelopeError,
    EnvelopeReplicateWarning,
    GlgmixError,
    NegativeDevianceWarning,
)
from .mnb_model import _maximise as mnb_maximise
from .mnb_model import residuals as mnb_residuals
from .simulate import resample_mnb

_MIN_REPLICATES = 19  # fewer cannot bracket a 95% band
_MAX_DROP_FRACTION = 0.2


_ndtri = NormalDist().inv_cdf  # standard normal quantile of one probability


def _normal_positions(n):
    """Standard normal quantiles at the plotting positions (k - 3/8) / (n + 1/4)."""
    return np.array([_ndtri((k - 0.375) / (n + 0.25)) for k in range(1, n + 1)])


def qq_points(values):
    """Pair each value with its normal plotting position.

    Returns an (N, 2) array of (theoretical quantile, ordered value)
    using positions (k - 3/8) / (N + 1/4).  Requires at least three
    finite values; one row per input value.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 3:
        raise DomainError(f"need at least 3 values, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise DomainError("values must all be finite")
    return np.column_stack([_normal_positions(v.size), np.sort(v)])


@dataclass(frozen=True)
class EnvelopeResult:
    """Simulated envelope for an ordered residual plot.

    ``n_replicates`` counts the replicates retained; ``n_dropped`` the
    discarded ones (non-convergence or undefined residuals).
    """

    theoretical: np.ndarray
    observed_sorted: np.ndarray
    lower: np.ndarray
    median: np.ndarray
    upper: np.ndarray
    n_dropped: int
    n_replicates: int


def _pick_residual(report, which):
    if which == "deviance":
        return report.dev_resid
    if which == "pearson":
        return report.pearson
    raise DomainError(f"residual must be 'deviance' or 'pearson', got {which!r}")


def _one_replicate(dataset, params, which, seed_seq):
    """Sorted residual vector from one parametric-bootstrap refit, or None."""
    rng = np.random.default_rng(seed_seq)
    sim = resample_mnb(dataset, params, rng)
    try:
        pars, _, converged, _ = mnb_maximise(sim, init=params)
        if not converged:
            return None
        report = mnb_residuals(sim, pars)
    except (GlgmixError, np.linalg.LinAlgError):
        return None
    r = _pick_residual(report, which)
    if not np.all(np.isfinite(r)):
        return None
    return np.sort(r)


def simulated_envelope(
    dataset,
    params,
    residual="deviance",
    n_replicates=100,
    level=0.95,
    seed=0,
):
    """Parametric-bootstrap envelope for the ordered residuals.

    Each replicate redraws responses from the fitted law, refits, and
    contributes a sorted residual vector; the bands are per-rank
    quantiles at the requested ``level`` (1.0 gives the min/max hull).
    Replicates that fail to converge or yield undefined residuals are
    dropped with a warning; more than 20% dropped is an error.
    """
    if n_replicates < _MIN_REPLICATES:
        raise DomainError(
            f"n_replicates must be >= {_MIN_REPLICATES}, got {n_replicates}"
        )
    if not 0.0 < level <= 1.0:
        raise DomainError(f"level must be in (0, 1], got {level}")

    base_report = mnb_residuals(dataset, params)
    base = _pick_residual(base_report, residual)
    if not np.all(np.isfinite(base)):
        raise EnvelopeError(
            "observed deviance residuals are undefined for some observations "
            "(negative deviance components); use residual='pearson'"
        )
    observed = np.sort(base)
    n_obs = observed.size

    seeds = np.random.SeedSequence(seed).spawn(n_replicates)
    with warnings.catch_warnings():
        # replicate refits may hit negative components; only the observed
        # data's warning (raised above) should reach the user
        warnings.simplefilter("ignore", NegativeDevianceWarning)
        results = [_one_replicate(dataset, params, residual, s) for s in seeds]

    kept = [r for r in results if r is not None]
    n_dropped = n_replicates - len(kept)
    if n_dropped:
        warnings.warn(
            f"dropped {n_dropped} of {n_replicates} envelope replicates "
            "(non-convergence or undefined residuals)",
            EnvelopeReplicateWarning,
            stacklevel=2,
        )
    if n_dropped > _MAX_DROP_FRACTION * n_replicates:
        raise EnvelopeError(
            f"{n_dropped} of {n_replicates} replicates dropped; envelope "
            "would be unreliable"
        )

    stack = np.vstack(kept)  # (R_kept, n_obs), each row already sorted
    alpha = (1.0 - level) / 2.0
    lower, median, upper = np.quantile(stack, [alpha, 0.5, 1.0 - alpha], axis=0)

    return EnvelopeResult(
        theoretical=_normal_positions(n_obs),
        observed_sorted=observed,
        lower=lower,
        median=median,
        upper=upper,
        n_dropped=n_dropped,
        n_replicates=len(kept),
    )


def compare_aic(fits):
    """Rank fitted models by AIC, best first.

    Returns one dict per fit with keys ``model``, ``loglik``, ``aic``,
    and ``delta_aic`` (gap to the best model).
    """
    fits = list(fits)
    if len(fits) < 2:
        raise DomainError(f"need at least 2 fits to compare, got {len(fits)}")
    rows = sorted(
        (
            {"model": f.model, "loglik": float(f.loglik), "aic": float(f.aic)}
            for f in fits
        ),
        key=lambda r: r["aic"],
    )
    best = rows[0]["aic"]
    for r in rows:
        r["delta_aic"] = r["aic"] - best
    return rows
