"""Damped Newton ascent shared by the model families' fits.

An objective maps an unconstrained parameter vector to (loglik, score,
hessian), or to None where any of them is unavailable.  A step is halved
until the log-likelihood does not fall, unless the score is below
``_UNCHECKED_SCORE`` before or after it: there the true rise can be below
what the objective resolves, so the step is taken on trust.
"""

from __future__ import annotations

import numpy as np

from .results import TraceRecord

_MAX_STEP = 1.0  # largest move of any coordinate in one Newton step
_MAX_HALVINGS = 40
_UNCHECKED_SCORE = 1e-3


def _max_abs(theta, score):
    return float(np.max(np.abs(score)))


def _newton_step(hess, score):
    """Ascent step ``|H|^-1 score``, every eigenvalue of the Hessian taken
    by absolute value, shrunk so that no coordinate moves more than
    ``_MAX_STEP``."""
    evals, evecs = np.linalg.eigh(hess)
    step = evecs @ ((evecs.T @ score) / np.abs(evals))
    return step / max(1.0, np.max(np.abs(step)) / _MAX_STEP)


def maximise(objective, theta, gtol, max_iter, size=_max_abs):
    """Climb from ``theta`` until ``size(theta, score)`` (max |score| by
    default) is below ``gtol``, after ``max_iter`` steps, or when no halving
    of a step is accepted.  Returns None when the objective is unavailable
    at ``theta``, else (theta, (loglik, score, hessian), size, trace)."""
    current = objective(theta)
    if current is None:
        return None
    loglik, score, hess = current
    max_score = size(theta, score)
    trace = [TraceRecord(iteration=0, loglik=loglik, max_grad=max_score)]
    while max_score >= gtol and len(trace) <= max_iter:
        step = _newton_step(hess, score)
        for _ in range(_MAX_HALVINGS):
            candidate = theta + step
            trial = objective(candidate)
            if trial is not None and (
                min(max_score, size(candidate, trial[1])) < _UNCHECKED_SCORE or trial[0] >= loglik
            ):
                break
            step = 0.5 * step
        else:
            break
        theta = candidate
        loglik, score, hess = trial
        max_score = size(theta, score)
        trace.append(TraceRecord(iteration=len(trace), loglik=loglik, max_grad=max_score))
    return theta, (loglik, score, hess), max_score, trace
