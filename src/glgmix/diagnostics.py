"""Residual-based model checking: normal QQ positions, simulated
envelopes, and AIC comparison tables.

Normal quantiles come from :func:`glgmix._special.ndtri` (Wichura's
AS241 algorithm, as ``statistics.NormalDist`` computes it), one plotting
position at a time.

A simulated envelope (Atkinson 1981) refits every replicate together: the
replicates' counts form one stack on the observed design, the damped
Newton climbs all their fits at once and the residuals of the one kind
asked for come out for the whole stack; the observed residuals come out
of the same path, as a stack of one row.  Replicates go through in
blocks whose largest working arrays hold at most ``_BLOCK_ELEMENTS``
numbers between them: per replicate, the (n_obs, p) products of the
information, the m x m weight matrices of every cluster (deviance
residuals only) and the cumulative gamma-function tables, one entry per
unit of the largest cluster total.  So the working memory does not grow
with the number of replicates.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter

import numpy as np

from ._newton import _check_design_rank
from ._record import record
from ._special import ndtri
from .errors import DomainError, EnvelopeError, EnvelopeReplicateWarning, LeverageError
from .mnb_model import _SUM_TERMS_MAX, RESIDUAL_KINDS, _climb
from .mnb_model import _replicate_residuals, deviance_components

_MIN_REPLICATES = 19  # fewer cannot bracket a 95% band
_MAX_DROP_FRACTION = 0.2
_BLOCK_ELEMENTS = 1_000_000  # working elements of the replicates refitted at once

# why a replicate is dropped
ALL_ZERO = "every count 0: no maximum"
NOT_CONVERGED = "not converged"
NOT_STARTED = "objective not finite at the start"
NON_FINITE = "non-finite residuals"
SINGULAR = "singular pooled information"


def _normal_positions(n):
    """Standard normal quantiles at the plotting positions (k - 3/8) / (n + 1/4)."""
    return np.array([ndtri((k - 0.375) / (n + 0.25)) for k in range(1, n + 1)])


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


@record
class EnvelopeResult:
    """Simulated envelope for an ordered residual plot.

    ``n_replicates`` counts the replicates retained; ``n_dropped`` the
    discarded ones, and ``dropped`` names each as (replicate index,
    reason): every count 0 (the log-likelihood has no maximum, as
    :func:`~glgmix.mnb_model.fit` reports), not converged, objective not
    finite at the start, non-finite residuals, or singular pooled
    information.
    """

    theoretical: np.ndarray
    observed_sorted: np.ndarray
    lower: np.ndarray
    median: np.ndarray
    upper: np.ndarray
    n_dropped: int
    n_replicates: int
    dropped: tuple = ()


def _replicate_elements(dataset, which):
    """Elements of one replicate's largest working arrays that do not
    depend on its counts: the (n_obs, p) products of the information and,
    for deviance residuals, the m x m weight matrices of all clusters."""
    elements = dataset.n_obs * dataset.p
    if which == "deviance":
        elements = max(elements, int(np.sum(dataset.sizes.astype(np.int64) ** 2)))
    return elements


def _count_blocks(dataset, params, which, seeds):
    """Draw every replicate's counts from its own generator, in order, and
    yield them in blocks as (index of the block's first replicate, count
    stack).  A block holds at most ``_BLOCK_ELEMENTS`` working elements:
    it is sized by :func:`_replicate_elements`, and once drawn it is cut
    again where its gamma-function tables, one row of up to the largest
    cluster total per replicate, would pass the bound."""
    from .simulate import _mnb_counts  # only the envelope loads the simulator

    block = max(1, _BLOCK_ELEMENTS // _replicate_elements(dataset, which))
    for first in range(0, len(seeds), block):
        y = _mnb_counts(dataset, params, [np.random.default_rng(s) for s in seeds[first:first + block]])
        width = min(int(dataset.cluster_sums(y, axis=-1).max()), _SUM_TERMS_MAX) + 1
        piece = max(1, _BLOCK_ELEMENTS // width)
        for start in range(0, len(y), piece):
            yield first + start, y[start:start + piece]


def _block_residuals(dataset, params, which, y):
    """Sorted residual rows of the refits, started at ``params``, to the
    count stack ``y`` (B, n_obs), and each row's reason to be dropped
    (None for a row that is kept)."""
    start = np.append(params.beta, math.log(params.phi))
    climb = _climb(dataset, np.tile(start, (len(y), 1)), y)
    with np.errstate(all="ignore"):  # non-finite residuals drop their row below
        resid, singular = _replicate_residuals(
            dataset, climb.theta[:, :-1], np.exp(climb.theta[:, -1]), y, which)
    reasons = np.select(
        [~y.any(axis=1), ~climb.started, ~climb.converged, singular,
         ~np.isfinite(resid).all(axis=1)],
        [ALL_ZERO, NOT_STARTED, NOT_CONVERGED, SINGULAR, NON_FINITE],
        None,
    )
    return np.sort(resid, axis=1), reasons.tolist()


def _rank_quantiles(stack, probs):
    """The quantile of each column of the finite ``stack`` (R >= 2, n) at
    each of ``probs``, as ``np.quantile(stack, probs, axis=0)`` gives it
    but without its ``numpy.ma`` import: NumPy's linear rule between the
    order statistics k = floor(v) and k + 1 at v = (R - 1) q, interpolated
    from the nearer one.  The bands are equal bit for bit, except that a
    column holding both 0.0 and -0.0 may give a zero of the other sign
    (which of the two equal values sits at a rank is up to the sort)."""
    ordered = np.sort(stack, axis=0)
    last = len(ordered) - 1
    bands = []
    for q in probs:
        v = last * q
        k = math.floor(v)
        t = v - k
        a, b = ordered[k], ordered[min(k + 1, last)]
        bands.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return bands


def simulated_envelope(
    dataset,
    params,
    residual="deviance",
    n_replicates=100,
    level=0.95,
    seed=0,
):
    """Parametric-bootstrap envelope for the ordered residuals.

    Each replicate redraws responses from the fitted law with its own
    child of ``SeedSequence(seed)``, refits, and contributes a sorted
    residual vector; the bands are per-rank quantiles at the requested
    ``level`` (1.0 gives the min/max hull).  Replicates that fail to
    converge or yield undefined residuals are dropped with a warning that
    counts them by reason; more than 20% dropped is an error.
    """
    if n_replicates < _MIN_REPLICATES:
        raise DomainError(
            f"n_replicates must be >= {_MIN_REPLICATES}, got {n_replicates}"
        )
    if not 0.0 < level <= 1.0:
        raise DomainError(f"level must be in (0, 1], got {level}")
    if residual not in RESIDUAL_KINDS:
        raise DomainError(f"residual must be one of {', '.join(RESIDUAL_KINDS)}, got {residual!r}")
    _check_design_rank(dataset)  # once: every replicate shares the design

    # the observed counts at ``params`` are a stack of one row; its
    # non-finite residuals are reported below, not warned about
    with np.errstate(divide="ignore", invalid="ignore"):
        base, singular = _replicate_residuals(
            dataset, params.beta[None], np.array([params.phi]), dataset.y[None], residual)
    if singular[0]:
        raise LeverageError("pooled weighted cross-product matrix is singular")
    if not np.all(np.isfinite(base)):
        if residual == "pearson":
            raise EnvelopeError(
                "observed Pearson residuals are undefined for some observations "
                "(fitted means that are zero or not finite)"
            )
        deviance_components(dataset, params)  # warns how many components are negative
        raise EnvelopeError(
            "observed deviance residuals are undefined for some observations "
            "(negative deviance components); use residual='pearson'"
        )
    observed = np.sort(base[0])

    seeds = np.random.SeedSequence(seed).spawn(n_replicates)
    kept, dropped = [], []
    for first, y in _count_blocks(dataset, params, residual, seeds):
        rows, reasons = _block_residuals(dataset, params, residual, y)
        kept.append(rows[[r is None for r in reasons]])
        dropped += [(first + i, r) for i, r in enumerate(reasons) if r is not None]

    n_dropped = len(dropped)
    if n_dropped:
        counts = Counter(r for _, r in dropped)
        warnings.warn(
            f"dropped {n_dropped} of {n_replicates} envelope replicates ("
            + ", ".join(f"{r}: {k}" for r, k in counts.items()) + ")",
            EnvelopeReplicateWarning,
            stacklevel=2,
        )
    if n_dropped > _MAX_DROP_FRACTION * n_replicates:
        raise EnvelopeError(
            f"{n_dropped} of {n_replicates} replicates dropped; envelope "
            "would be unreliable"
        )

    alpha = (1.0 - level) / 2.0
    lower, median, upper = _rank_quantiles(np.concatenate(kept), (alpha, 0.5, 1.0 - alpha))

    return EnvelopeResult(
        theoretical=_normal_positions(observed.size),
        observed_sorted=observed,
        lower=lower,
        median=median,
        upper=upper,
        n_dropped=n_dropped,
        n_replicates=n_replicates - n_dropped,
        dropped=tuple(dropped),
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
