"""Damped Newton ascent shared by the model families' fits.

The loop climbs a stack of R independent problems at once, one parameter
vector per row of ``theta``; a single fit is the stack of one row.  An
objective maps points of shape (n, k) for the rows ``rows`` of the stack
to (loglik (n,), score (n, k), hessian (n, k, k)); a row whose values
are not all finite is unavailable at that point.  A step is halved until
the log-likelihood does not fall, unless the score is below
``_UNCHECKED_SCORE`` before or after it: there the true rise can be below
what the objective resolves, so the step is taken on trust.  Every row
keeps its own halvings, stop, iteration count and trace, so a row's
iterates are those it would have alone; each halving round evaluates only
the rows whose step is still pending.  The loop keeps the arrays an
objective returns and writes into them, so each call returns new arrays.
Each iteration's accepted values are kept as arrays (the rows that moved,
their log-likelihoods and score sizes); the per-row traces are built
from them only when read, so a stack whose traces nobody reads makes no
per-row objects.

The module also holds what both families do before they climb: the
design rank check, :func:`_check_design_rank`, and the independence
Poisson start, :func:`_poisson_irls`.  A fit of either family thus
imports only its own model module and this one.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import CollinearDesignError
from .results import TraceRecord

_MAX_STEP = 1.0  # largest move of any coordinate in one Newton step
_MAX_HALVINGS = 40
_UNCHECKED_SCORE = 1e-3

# The independence Poisson start converges once its relative step is below
# _IRLS_TOL, and falls back to zeros after _IRLS_MAX_ITER steps.
_IRLS_TOL = 1e-10
_IRLS_MAX_ITER = 100


# a plain class, not a record (glgmix._record): its rows are working
# arrays that no caller compares, hashes or prints
class Climb:
    """Where each row of a stack stopped: its last accepted iterate, the
    objective's log-likelihood and Hessian there, whether the objective
    was available at its start (``started``; if not, the row holds the
    start and NaN values) and whether it ``converged``; and its trace."""

    def __init__(self, theta, loglik, hess, started, converged, history):
        self.theta, self.loglik, self.hess = theta, loglik, hess
        self.started, self.converged = started, converged
        self._history = history

    @cached_property
    def traces(self):
        """One list of :class:`~glgmix.results.TraceRecord` per row, one
        record per accepted iterate, the start first; empty for a row that
        did not start."""
        traces = tuple([] for _ in range(len(self.theta)))
        for rows, loglik, sizes in self._history:
            for r, ll, s in zip(rows.tolist(), loglik.tolist(), sizes.tolist()):
                trace = traces[r]
                trace.append(TraceRecord(iteration=len(trace), loglik=ll, max_grad=s))
        return traces


def _max_abs(theta, score):
    return np.abs(score).max(axis=1)


def available(loglik, score, hess):
    """Rows at which the objective's values are all finite."""
    return np.isfinite(loglik) & np.isfinite(score).all(axis=-1) & np.isfinite(hess).all(axis=(-2, -1))


def _newton_step(hess, score):
    """Ascent steps ``|H|^-1 score``, every eigenvalue of each Hessian taken
    by absolute value, each shrunk so that no coordinate moves more than
    ``_MAX_STEP``."""
    evals, evecs = np.linalg.eigh(hess)
    step = (evecs @ ((score[:, None, :] @ evecs)[:, 0] / np.abs(evals))[:, :, None])[:, :, 0]
    return step / np.maximum(1.0, np.abs(step).max(axis=1, keepdims=True) / _MAX_STEP)


def _try_step(objective, size, state, step, rows):
    """Evaluate the stack rows ``rows`` at their ``state`` theta + ``step``:
    the new state (theta, loglik, score, hessian, size) and which rows the
    damped rule accepts."""
    theta, loglik, _, _, sizes = state
    candidate = theta + step
    t_loglik, t_score, t_hess = objective(candidate, rows)
    with np.errstate(all="ignore"):  # an unavailable point may overflow or be NaN
        t_size = size(candidate, t_score)
        accept = available(t_loglik, t_score, t_hess) & (
            (np.minimum(sizes, t_size) < _UNCHECKED_SCORE) | (t_loglik >= loglik))
    return [candidate, t_loglik, t_score, t_hess, t_size], accept


def _halve(objective, size, state, step, rows, new, moved):
    """Halve the steps the damped rule refused until each is accepted or
    ``_MAX_HALVINGS`` tries are spent; only the rows still pending are
    evaluated again.  Accepted points go into ``new`` and ``moved``; a row
    that no halving lets move keeps its ``state``."""
    pending, accept = np.arange(len(rows)), moved.copy()
    for _ in range(_MAX_HALVINGS - 1):
        pending, step = pending[~accept], 0.5 * step[~accept]
        trial, accept = _try_step(objective, size, [a[pending] for a in state], step, rows[pending])
        for a, t in zip(new, trial):
            a[pending[accept]] = t[accept]
        moved[pending[accept]] = True
        if accept.all():
            return
    for a, s in zip(new, state):
        a[~moved] = s[~moved]


def maximise(objective, theta, gtol, max_iter, size=_max_abs):
    """Climb every row of ``theta`` (R, k) until ``size(theta, score)`` (max
    |score| by default, one value per row) is below ``gtol``, after
    ``max_iter`` steps, or when no halving of a step is accepted.  Returns
    a :class:`Climb`."""
    theta = np.array(theta, dtype=float)
    loglik, score, hess = (np.array(v, dtype=float) for v in objective(theta, np.arange(len(theta))))
    started = available(loglik, score, hess)
    with np.errstate(all="ignore"):  # unavailable rows may overflow or be NaN
        sizes = np.where(started, size(theta, score), np.nan)
    # (rows, loglik, size) of the accepted iterates: the start's, then each
    # iteration's; copies, as the loop writes into its state arrays
    history = [(np.flatnonzero(started), loglik[started], sizes[started])]
    final = [theta, loglik, score, hess, sizes]
    # The rows still climbing keep their state in compact arrays (``final``
    # itself while every row climbs), so the usual step, taken by every row
    # at once, needs no indexing; a row's state goes back into ``final``
    # when it stops.
    climbing = started & (sizes >= gtol) & (max_iter > 0)
    rows, state = np.arange(len(theta)), final
    if not climbing.all():
        rows, state = rows[climbing], [a[climbing] for a in final]
    iteration = 0
    while rows.size:
        iteration += 1
        step = _newton_step(state[3], state[2])
        new, moved = _try_step(objective, size, state, step, rows)
        if not moved.all():
            _halve(objective, size, state, step, rows, new, moved)
        history.append((rows[moved], new[1][moved], new[4][moved]))
        stop = ~moved | (new[4] < gtol) | (iteration >= max_iter)
        if rows.size == len(theta) and stop.all():  # the whole stack stops at once
            final, rows = new, rows[:0]
        elif stop.any():
            for a, n in zip(final, new):
                a[rows[stop]] = n[stop]
            rows, new = rows[~stop], [n[~stop] for n in new]
        state = new
    theta, loglik, _, hess, sizes = final
    return Climb(theta=theta, loglik=loglik, hess=hess, started=started,
                 converged=started & (sizes < gtol), history=history)


def _check_design_rank(dataset):
    """Raise CollinearDesignError naming the dependent columns, if any.

    The rank counts singular values above max(n, p) * eps times the
    largest.  Named is every column whose row of the null-space basis (the
    right singular vectors past the rank) has a norm above sqrt(eps); that
    norm is basis-free, the root of a diagonal of the null-space projector.
    """
    X = dataset.X
    # all p right singular vectors; U stays n x min(n, p)
    _, s, vt = np.linalg.svd(X, full_matrices=X.shape[0] < X.shape[1])
    eps = np.finfo(float).eps
    rank = int(np.sum(s > max(X.shape) * eps * s[0]))
    if rank < X.shape[1]:
        involved = np.linalg.norm(vt[rank:], axis=0) > math.sqrt(eps)
        bad = sorted(name for name, hit in zip(dataset.column_names, involved) if hit)
        raise CollinearDesignError(
            f"design is rank deficient (rank {rank} < {X.shape[1]}); "
            f"columns involved: {bad}",
            columns=bad,
        )


def _poisson_irls(dataset):
    """Independence Poisson fit (the phi -> infinity limit); returns beta.

    Standard iteratively reweighted least squares on the stacked data.
    Used only to produce starting values, so failures fall back to zeros.
    """
    X, offset = dataset.X, dataset.offset
    y = dataset.y.astype(float)
    zeros = np.zeros(X.shape[1])
    beta = zeros
    eta = X @ beta + offset
    for _ in range(_IRLS_MAX_ITER):
        mu = np.exp(np.clip(eta, -30.0, 30.0))
        z = (eta - offset) + (y - mu) / mu
        xtw = X.T * mu
        try:
            beta_new = np.linalg.solve(xtw @ X, xtw @ z)
        except np.linalg.LinAlgError:
            return zeros
        if not np.all(np.isfinite(beta_new)):
            return zeros
        change = np.max(np.abs(beta_new - beta)) / max(1.0, np.max(np.abs(beta_new)))
        beta = beta_new
        eta = X @ beta + offset
        if change < _IRLS_TOL:
            return beta
    return zeros
