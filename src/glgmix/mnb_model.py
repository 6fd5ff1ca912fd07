"""Multivariate negative binomial regression for clustered counts.

A cluster's counts are independent Poisson draws around a shared gamma
frailty with shape = rate = phi, so the joint pmf is available in closed
form with means mu_ij = exp(x_ij' beta + offset_ij), Var(y_ij) = mu_ij +
mu_ij^2/phi and Cov(y_ij, y_ij') = mu_ij mu_ij'/phi.  Score, observed
and Fisher information are analytic; the fit is the damped Newton ascent
that the PGLG fit also uses, jointly in (beta, log phi) on the exact
observed information.

Every dataset-wide quantity is an array kernel on the flat
:class:`~glgmix.data_io.Dataset`: the cluster totals it needs (y+, mu+,
X'mu) are segment sums over the cluster starts, so the cost grows with
the number of observations and no Python loop runs over clusters.  The
kernels keep observations (or clusters) on the last axis and take an
optional leading replicate axis: a stack of R count vectors on one
design, with one (beta, phi) per replicate, as a simulated envelope
refits them; their phi is then a column (R, 1), made once per call by
:func:`_col`.  The single-dataset functions are the case without it.

The gamma-function ratios need no special-function library: the
log-gamma, digamma and trigamma differences at phi + y+ and phi are
finite sums over j < y+ read off one cumulative table per call
(:func:`_lgamma_spans`, :func:`_digamma_spans`, :func:`_trigamma_spans`;
one table per replicate's phi), and the data's own log y! sums are cached
on the dataset.  The Fisher information for phi has no closed form either;
it is a series over the tail probabilities of a cluster's total y+, which
depends on the cluster only through mu+, so :func:`_k_phi` runs it once
per distinct mu+: clusters with the same design rows share one.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._newton import _check_design_rank, _poisson_irls, maximise
from ._record import record
from ._special import digamma, trigamma
from .errors import (
    DomainError,
    LeverageError,
    NegativeDevianceWarning,
    NonPsdWeightWarning,
)
from .results import FitResult

# Explicit finite sums switch to differences of log-gamma, digamma or
# trigamma past this many terms; the two forms agree to float precision
# at the boundary.
_SUM_TERMS_MAX = 10_000

# Tail-probability cutoff and term cap for the dispersion information series.
_KPHI_TAIL = 1e-12
_KPHI_MAX_TERMS = 10 ** 6
_KPHI_BLOCK = 64  # terms per vectorised step; divides _KPHI_MAX_TERMS

# The fit stops once max(|U_beta|_inf, |U_phi|) is below _SCORE_TOL, in
# the natural units of phi, or after _MAX_ITER Newton steps.
_SCORE_TOL = 1e-6
_MAX_ITER = 100

# The residual kinds a simulated envelope can band; ``residuals`` reports both.
RESIDUAL_KINDS = ("deviance", "pearson")


@record
class MnbParams:
    """Coefficients and dispersion of the multivariate negative binomial."""

    beta: np.ndarray
    phi: float

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if beta.ndim != 1 or not np.all(np.isfinite(beta)):
            raise DomainError("beta must be a finite vector")
        if not np.isfinite(self.phi) or self.phi <= 0:
            raise DomainError(f"phi must be positive and finite, got {self.phi}")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "phi", float(self.phi))


@record
class ScoreInfo:
    """Score vector and Fisher information blocks at one parameter point.

    The information for theta = (beta, phi) is block diagonal, so two
    blocks suffice: ``k_beta`` (p x p) and the scalar ``k_phi``.
    """

    u_beta: np.ndarray
    u_phi: float
    k_beta: np.ndarray
    k_phi: float


@record
class ResidualReport:
    """Per-observation diagnostics, flattened in dataset order.

    ``dev_comp`` is the squared deviance component, which the even
    per-cluster apportionment can push below zero; where that happens the
    standardized deviance residual ``dev_resid`` is NaN (absent), never
    clamped.  Leverages come from the pooled weighted projection, so they
    lie in [0, 1] and their grand total is the number of coefficients.
    """

    cluster_ids: tuple
    obs_index: np.ndarray
    fitted: np.ndarray
    leverage: np.ndarray
    dev_comp: np.ndarray
    dev_resid: np.ndarray
    pearson: np.ndarray


def log_pmf(c, params):
    """Log joint pmf of one cluster's count vector.

    All gamma ratios go through log-gamma so large counts or dispersion
    cannot overflow.
    """
    mu = np.exp(c.X @ params.beta + c.offset)
    y = c.y.astype(float)
    phi = params.phi
    y_plus = float(y.sum())
    mu_plus = float(mu.sum())
    return float(
        math.lgamma(phi + y_plus)
        - math.lgamma(phi)
        - sum(math.lgamma(v + 1.0) for v in y.tolist())
        + phi * math.log(phi)
        + float(y @ np.log(mu))
        - (phi + y_plus) * math.log(phi + mu_plus)
    )


def _col(phi):
    """phi as the kernels take it, against arrays with clusters or
    observations on the last axis: a stack (R,) becomes a column (R, 1);
    one value, or a stack of one, stays a number, which NumPy combines with
    an array faster."""
    phi = np.asarray(phi, dtype=float)
    return phi.reshape(-1)[0] if phi.size == 1 else phi[..., None]


def _rows_at(v, M):
    """``v @ M`` for each row of ``v`` (..., n) as a product of its own, so
    that a row's result does not depend on the stack it is in (one matrix
    product over the stack rounds rows differently by stack size)."""
    return (v[..., None, :] @ M)[..., 0, :]


def _means(dataset, beta, y=None, y_plus=None):
    """Observation means, their cluster totals mu+, and the counts with
    their cluster totals y+, all as floats.  ``beta`` is one coefficient
    vector or a stack (R, p); ``y`` a stack of counts (R, n_obs) on the
    dataset's layout, the dataset's own counts by default, and ``y_plus``
    their cluster totals where the caller has them."""
    mu = np.exp(_rows_at(beta, dataset.X.T) + dataset.offset)
    y = dataset.y.astype(float) if y is None else y
    y_plus = dataset.cluster_sums(y, axis=-1) if y_plus is None else y_plus
    return mu, dataset.cluster_sums(mu, axis=-1), y, y_plus


def log_likelihood(dataset, params):
    """Sum of cluster log pmfs (:func:`log_pmf`), from per-cluster sums."""
    return float(_log_likelihood(dataset, params.phi, _means(dataset, params.beta)))


def _log_likelihood(dataset, phi, sums, log_y_factorials=None, layout=None):
    """Log-likelihood per replicate; ``log_y_factorials`` are the counts'
    per-cluster sums of log y!, the dataset's own by default."""
    mu, mu_plus, y, y_plus = sums
    if log_y_factorials is None:
        log_y_factorials = dataset.log_y_factorials
    per_cluster = (
        _lgamma_spans(y_plus, phi, layout)
        - log_y_factorials
        + phi * np.log(phi)
        + dataset.cluster_sums(y * np.log(mu), axis=-1)
        - (phi + y_plus) * np.log(phi + mu_plus)
    )
    return per_cluster.sum(axis=-1)


def _span_layout(y_plus):
    """Where :func:`_spans` reads the clusters' y+ off its tables: the
    largest y+ <= _SUM_TERMS_MAX, each cluster's flat position in the
    tables (one row of top + 1 entries per leading index of ``y_plus``)
    and the mask of the clusters past it, or None.  It depends on the
    counts alone, so a fit works it out once."""
    counts = y_plus.astype(np.int64)
    small = counts <= _SUM_TERMS_MAX
    top = int(counts[small].max(initial=0))
    index = np.where(small, counts, 0)
    if index.ndim > 1:  # one table row per replicate, at flat positions top + 1 apart
        index = index + np.arange(0, index.shape[0] * (top + 1), top + 1)[:, None]
    return top, index, None if small.all() else ~small


def _spans(y_plus, phi, term, past, layout=None):
    """sum_{j=0}^{y+ - 1} term(phi + j) per cluster, zero for y+ = 0.

    ``y_plus`` has clusters on its last axis and ``phi`` is one value or
    a column with one value per leading index (see :func:`_col`).  One
    cumulative table per phi runs up to the largest y+ <= _SUM_TERMS_MAX;
    a cluster past it gets the closed form past(phi + y+) - past(phi), one
    scalar call each.  ``layout`` is :func:`_span_layout` of ``y_plus``,
    worked out here when not given.
    """
    top, index, large = _span_layout(y_plus) if layout is None else layout
    table = np.zeros((*np.shape(phi)[:-1], top + 1))
    np.cumsum(term(phi + np.arange(top)), axis=-1, out=table[..., 1:])
    spans = table.ravel()[index]
    if large is not None:  # rare; keeps scalar code off the common path
        phis = np.broadcast_to(phi, y_plus.shape)[large]
        spans[large] = [past(f + n) - past(f) for f, n in zip(phis.tolist(), y_plus[large].tolist())]
    return spans


def _lgamma_spans(y_plus, phi, layout=None):
    # lgamma(phi + y+) - lgamma(phi) = sum_{j < y+} log(phi + j)
    return _spans(y_plus, phi, np.log, math.lgamma, layout)


def _digamma_spans(y_plus, phi, layout=None):
    # digamma(phi + y+) - digamma(phi) = sum_{j < y+} 1/(phi + j)
    return _spans(y_plus, phi, np.reciprocal, digamma, layout)


def _trigamma_spans(y_plus, phi, layout=None):
    # trigamma(phi + y+) - trigamma(phi) = -sum_{j < y+} 1/(phi + j)^2
    return _spans(y_plus, phi, lambda x: -1.0 / (x * x), trigamma, layout)


def _phi_scores(y_plus, mu_plus, phi, layout=None):
    """Per-cluster contributions to U_phi."""
    return (
        _digamma_spans(y_plus, phi, layout)
        - y_plus / (phi + mu_plus)
        - np.log1p(mu_plus / phi)
        + mu_plus / (phi + mu_plus)
    )


def _phi_curvatures(y_plus, mu_plus, phi, layout=None):
    """Per-cluster contributions to d U_phi / d phi."""
    return (
        _trigamma_spans(y_plus, phi, layout)
        + 1.0 / phi
        - 1.0 / (phi + mu_plus)
        - (mu_plus - y_plus) / (phi + mu_plus) ** 2
    )


def _scores(dataset, phi, sums, layout=None):
    """The weights a_i = (phi + y+_i)/(phi + mu+_i), U_beta and U_phi,
    from the output of :func:`_means`."""
    mu, mu_plus, y, y_plus = sums
    a = (phi + y_plus) / (phi + mu_plus)
    u_beta = _rows_at(y - dataset.per_obs(a, axis=-1) * mu, dataset.X)
    return a, u_beta, _phi_scores(y_plus, mu_plus, phi, layout).sum(axis=-1)


def _k_phi(mu_plus, phi):
    # sum over clusters of sum_{j>=0} (j + phi)^-2 P(Y+ >= j + 1)
    # - mu+/(phi (mu+ + phi)), with Y+ negative binomial of mean mu+ and
    # dispersion phi.  The series depends on a cluster only through mu+, so
    # it runs once per distinct mu+ (clusters with the same design rows
    # share it); ``rows`` maps each running cluster to its distinct row,
    # and is the identity when no mu+ repeats.  A series stops after its
    # first term whose tail probability is below _KPHI_TAIL or has stopped
    # falling (see below).  All series step through the terms together,
    # _KPHI_BLOCK at a time: log P(Y+ = j) and the tail run as cumulative
    # sums along the block, and finished rows leave the working arrays.  Each block's terms are gathered back
    # to one row per running cluster before the sum, so the sum adds the
    # same numbers in the same order as one series per cluster would.
    # Logs, because P(Y+ = 0) = (phi/(phi + mu+))^phi underflows when
    # phi log1p(mu+/phi) is large.
    distinct, rows = np.unique(mu_plus, return_inverse=True)
    if distinct.size == mu_plus.size:  # no repeats: no gather copies
        distinct, rows = mu_plus, slice(None)
    log_ratio = np.log(distinct / (phi + distinct))
    log_p = phi * np.log(phi / (phi + distinct))  # log P(Y+ = 0)
    tail = 1.0 - np.exp(log_p)  # P(Y+ >= 1)
    total = 0.0
    for j0 in range(0, _KPHI_MAX_TERMS, _KPHI_BLOCK):
        j = j0 + np.arange(_KPHI_BLOCK)
        # column c holds the state at term j0 + c; column 0 is carried in
        steps = np.empty((log_p.size, _KPHI_BLOCK + 1))
        steps[:, 0] = log_p
        steps[:, 1:] = np.log((phi + j) / (j + 1.0)) + log_ratio[:, None]
        log_probs = np.cumsum(steps, axis=1)
        probs = np.exp(log_probs)  # P(Y+ = j0 + c)
        steps[:, 0] = tail
        steps[:, 1:] = -probs[:, 1:]
        tails = np.maximum(np.cumsum(steps, axis=1), 0.0)  # P(Y+ >= j0 + c + 1)
        # A series ends at a term whose tail is below _KPHI_TAIL, or at one
        # below 1 that the next term's tail equals: the tail falls at every
        # term before the mode, and past it the terms only shrink, so the
        # tail has reached the rounding floor of its subtractions (above
        # _KPHI_TAIL when P(Y+ = 0) underflows) and stays there.
        last = (tails[:, :-1] < _KPHI_TAIL) | (
            (tails[:, 1:] == tails[:, :-1]) & (tails[:, :-1] < 1.0))
        # so once a row's series ends it stays ended: a term is taken up to
        # the first one that ends it
        taken = np.empty_like(last)
        taken[:, 0] = True
        taken[:, 1:] = ~last[:, :-1]
        # summed as a temporary: holding the term array into the next block
        # made all-distinct stacks of 900 clusters about 15% slower
        total += float(np.sum((np.where(taken, tails[:, :-1], 0.0) / (j + phi) ** 2)[rows]))
        going = ~last.any(axis=1)
        if not going.any():
            break
        if not isinstance(rows, slice):
            rows = (np.cumsum(going) - 1)[rows[going[rows]]]
        log_p, tail, log_ratio = log_probs[going, -1], tails[going, -1], log_ratio[going]
    return total - float(np.sum(mu_plus / (phi * (mu_plus + phi))))


def _info_beta(dataset, mu, mu_plus, phi, weights=None):
    """sum_i w_i X_i' W_i X_i with W_i = D(mu_i) - mu_i mu_i'/(phi + mu+_i);
    unit weights when ``weights`` is None."""
    X = dataset.X
    xm = dataset.cluster_sums(X * mu[..., :, None], axis=-2)  # (..., n_clusters, p): X_i' mu_i
    shrink = 1.0 / (phi + mu_plus)
    if weights is not None:
        mu = mu * dataset.per_obs(weights, axis=-1)
        shrink = shrink * weights
    # one product per replicate, as with _rows_at
    return (X.T * mu[..., None, :]) @ X - (xm.swapaxes(-1, -2) * shrink[..., None, :]) @ xm


def score(dataset, params):
    """Analytic score and expected (Fisher) information from per-cluster
    sums, all clusters at once."""
    phi = params.phi
    sums = _means(dataset, params.beta)
    _, u_beta, u_phi = _scores(dataset, phi, sums)
    mu, mu_plus = sums[:2]
    return ScoreInfo(
        u_beta=u_beta,
        u_phi=float(u_phi),
        k_beta=_info_beta(dataset, mu, mu_plus, phi),
        k_phi=_k_phi(mu_plus, phi),
    )


def observed_info_beta(dataset, params):
    """Observed information for beta: minus the Jacobian of U_beta.

    Equals sum_i a_i X_i' W_i X_i; its expectation (a_i -> 1) is the
    ``k_beta`` block of :func:`score`.
    """
    phi = params.phi
    mu, mu_plus, _, y_plus = _means(dataset, params.beta)
    return _info_beta(dataset, mu, mu_plus, phi, weights=(phi + y_plus) / (phi + mu_plus))


def phi_curvature(dataset, params):
    """d U_phi / d phi, the dispersion's own curvature."""
    _, mu_plus, _, y_plus = _means(dataset, params.beta)
    return float(_phi_curvatures(y_plus, mu_plus, params.phi).sum())


def intraclass_corr(mu_j, mu_k, phi):
    """Within-cluster correlation sqrt(mu_j mu_k)/sqrt((phi+mu_j)(phi+mu_k))."""
    if min(mu_j, mu_k, phi) <= 0:
        raise DomainError("intraclass_corr needs positive means and dispersion")
    return float(math.sqrt(mu_j * mu_k / ((phi + mu_j) * (phi + mu_k))))


def _moment_start_phi(dataset, beta):
    # phi_0 = mean(mu^2) / (residual variance - mean(mu)), floored at 0.1;
    # near-Poisson data pushes the denominator to the epsilon guard and the
    # start toward the independence limit.
    mus = np.exp(dataset.X @ beta + dataset.offset)
    y = dataset.y.astype(float)
    resid_var = float(np.mean((y - mus) ** 2))
    excess = max(1e-8, resid_var - float(np.mean(mus)))
    return max(0.1, float(np.mean(mus ** 2)) / excess)


def _objective(dataset, y=None):
    """The objective :func:`~glgmix._newton.maximise` climbs over theta =
    (beta, log phi): (loglik, score, hessian) at points (n, p + 1) for rows
    of the count stack ``y`` (R, n_obs), from one :func:`_means` pass.
    Without ``y`` the stack is the dataset's own counts, one row.

    The score is (U_beta, phi U_phi).  The Hessian is minus the exact
    observed information: the beta block is :func:`_info_beta` with
    weights a_i, the cross block is -phi X'(per_obs((mu+ - y+)/(phi +
    mu+)^2) mu), and the log phi entry is phi^2 dU_phi/dphi + phi U_phi.
    """
    X, p = dataset.X, dataset.p
    if y is None:
        y, log_y_factorials = dataset.y[None].astype(float), dataset.log_y_factorials[None]
    else:
        y, log_y_factorials = y.astype(float), dataset.log_factorial_sums(y)
    # what the counts alone fix, worked out once for the whole stack
    y_plus = dataset.cluster_sums(y, axis=-1)
    stack_layout = _span_layout(y_plus)

    def evaluate(theta, rows):
        if len(rows) == len(y):  # rows come in order, so these are the whole stack
            ys, ys_plus, log_ys, layout = y, y_plus, log_y_factorials, stack_layout
        else:
            ys, ys_plus, log_ys = y[rows], y_plus[rows], log_y_factorials[rows]
            layout = _span_layout(ys_plus)
        with np.errstate(all="ignore"):  # non-finite values mark the row unavailable
            phi = np.exp(theta[:, p])
            col = _col(phi)
            sums = _means(dataset, theta[:, :p], ys, ys_plus)
            mu, mu_plus = sums[:2]
            loglik = _log_likelihood(dataset, col, sums, log_ys, layout)
            a, u_beta, u_phi = _scores(dataset, col, sums, layout)
            beta_beta = _info_beta(dataset, mu, mu_plus, col, weights=a)
            shift = dataset.per_obs((mu_plus - ys_plus) / (col + mu_plus) ** 2, axis=-1)
            cross = -col * _rows_at(shift * mu, X)
            curv = _phi_curvatures(ys_plus, mu_plus, col, layout).sum(axis=-1)
            hess = np.empty((len(rows), p + 1, p + 1))
            hess[:, :p, :p] = -0.5 * (beta_beta + beta_beta.swapaxes(-1, -2))  # exactly symmetric
            hess[:, :p, p] = hess[:, p, :p] = cross
            hess[:, p, p] = phi * phi * curv + phi * u_phi
            return loglik, np.column_stack([u_beta, phi * u_phi]), hess

    return evaluate


def _natural_size(theta, score):
    # max(|U_beta|_inf, |U_phi|), U_phi back in the natural units of phi
    return np.maximum(np.abs(score[:, :-1]).max(axis=1), np.abs(score[:, -1]) / np.exp(theta[:, -1]))


def _climb(dataset, theta, y=None):
    """The damped Newton in (beta, log phi) from each row of ``theta``
    (R, p + 1), on the matching row of the count stack ``y`` (the
    dataset's own counts by default): a :class:`~glgmix._newton.Climb`."""
    return maximise(_objective(dataset, y), theta, _SCORE_TOL, _MAX_ITER, _natural_size)


def _maximise(dataset, init=None):
    """(estimate, loglik, converged, trace) of the shared damped Newton in
    (beta, log phi), from ``init`` or the independence Poisson fit with a
    moment estimate of phi."""
    _check_design_rank(dataset)
    if not dataset.y.any():
        # each cluster adds phi log(phi/(phi + mu+)), which rises toward 0
        # as phi -> 0 whatever beta is: the supremum is never attained
        raise DomainError(
            "every count is 0: the MNB log-likelihood rises toward 0 as phi -> 0 "
            "and has no maximum")
    if init is None:
        beta = _poisson_irls(dataset)
        init = MnbParams(beta=beta, phi=_moment_start_phi(dataset, beta))
    climb = _climb(dataset, np.append(init.beta, math.log(init.phi))[None])
    if not climb.started[0]:
        raise DomainError("MNB log-likelihood, score or information not finite at the start")
    theta = climb.theta[0]
    params = MnbParams(beta=theta[:-1], phi=float(np.exp(theta[-1])))
    return params, float(climb.loglik[0]), bool(climb.converged[0]), climb.traces[0]


def fit(dataset, init=None):
    """Maximum likelihood by damped Newton in (beta, log phi) on the exact
    observed information, as in the PGLG fit.

    Converged means max(|U_beta|_inf, |U_phi|) < 1e-6, with U_phi in the
    natural units of phi.  Standard errors come from the inverse Fisher
    information blocks at the estimate.  Non-convergence returns the last
    iterate flagged, it does not raise.

    Raises
    ------
    CollinearDesignError
        When the stacked design is rank deficient (names the columns).
    DomainError
        When every count is 0, so that no maximum exists, or when the
        log-likelihood is not finite at the start.
    """
    params, loglik, converged, trace = _maximise(dataset, init)
    return FitResult(
        model="mnb",
        names=(*dataset.column_names, "phi"),
        estimates=np.append(params.beta, params.phi),
        std_errors=_standard_errors(score(dataset, params)),
        loglik=loglik,
        n_iterations=len(trace) - 1,
        converged=converged,
        trace=tuple(trace),
        z_defined=(True,) * dataset.p + (False,),
    )


def _standard_errors(info):
    try:
        cov_beta = np.linalg.inv(info.k_beta)
    except np.linalg.LinAlgError:
        return None
    var = np.append(np.diag(cov_beta), 1.0 / info.k_phi if info.k_phi > 0 else np.nan)
    if not np.all(np.isfinite(var)) or np.any(var <= 0):
        return None
    return np.sqrt(var)


def _deviance_terms(dataset, phi, sums):
    """Per-cluster log((phi + mu+)/(phi + y+)) and per-observation terms
    y log(y (phi + mu+) / (mu (phi + y+))), zero where y = 0, from the
    output of :func:`_means`."""
    mu, mu_plus, y, y_plus = sums
    pos = y > 0
    num = dataset.per_obs(phi + mu_plus, axis=-1)[pos]
    den = dataset.per_obs(phi + y_plus, axis=-1)[pos]
    own = np.zeros(y.shape)
    own[pos] = y[pos] * np.log(y[pos] * num / (mu[pos] * den))
    return np.log((phi + mu_plus) / (phi + y_plus)), own


def deviance(dataset, fitted):
    """Twice the log-likelihood gap to the saturated model (mu-hat = y).

    The dispersion is held fixed at ``fitted.phi`` in both models, so a
    perfect mean fit gives exactly zero.
    """
    log_ratio, own = _deviance_terms(dataset, fitted.phi, _means(dataset, fitted.beta))
    return float(2.0 * (fitted.phi * log_ratio.sum() + own.sum()))


def _components(dataset, phi, sums):
    log_ratio, own = _deviance_terms(dataset, phi, sums)
    return 2.0 * (dataset.per_obs((phi / dataset.sizes) * log_ratio, axis=-1) + own)


def deviance_components(dataset, fitted):
    """Per-observation squared deviance components, flattened in dataset order.

    The cluster-level dispersion term is split evenly over the cluster's
    m_i observations; that even split can make individual components
    negative, which is reported as-is with a warning.
    """
    comps = _components(dataset, fitted.phi, _means(dataset, fitted.beta))
    _warn_negative(comps)
    return comps


def _warn_negative(dev_comp):
    """Warn the public function's caller of any negative components."""
    n_neg = int(np.sum(dev_comp < 0))
    if n_neg:
        warnings.warn(
            f"{n_neg} squared deviance component(s) are negative; the matching "
            "deviance residuals are reported as NaN",
            NegativeDevianceWarning,
            stacklevel=3,
        )


def _pooled_inverse(dataset, mu, mu_plus, phi):
    """Inverses of the pooled cross products sum_i X_i' W_i X_i, and a mask
    of those that are singular (an exact zero in their LU factors, where
    ``inv`` would raise), whose inverse is NaN.  The sign of the
    determinant is 0 exactly then; the determinant itself can underflow
    to 0 for a matrix with small entries."""
    info = _info_beta(dataset, mu, mu_plus, phi)
    singular = np.linalg.slogdet(info)[0] == 0.0
    inverse = np.linalg.inv(np.where(singular[..., None, None], np.eye(info.shape[-1]), info))
    return np.where(singular[..., None, None], np.nan, inverse), singular


def _leverages(dataset, mu, mu_plus, phi, pooled_inv):
    """Diagonals of W_i^(1/2) X_i M^(-1) X_i' W_i^(1/2), with the symmetric
    square roots from one stacked ``eigh`` per cluster size."""
    lev = np.empty(mu.shape)
    lowest = 0.0
    for m in sorted(set(dataset.sizes.tolist())):  # np.unique here would load numpy.ma
        which = np.flatnonzero(dataset.sizes == m)
        rows = dataset.starts[which][:, None] + np.arange(m)  # (n_m, m)
        mus = mu[..., rows]
        # W = D(mu) - mu mu'/(phi + mu+); PSD by construction, so
        # eigenvalues below -1e-10 indicate real trouble
        w = -mus[..., :, None] * mus[..., None, :] / (phi + mu_plus[..., which])[..., None, None]
        w[..., np.arange(m), np.arange(m)] += mus
        vals, vecs = np.linalg.eigh(w)
        lowest = min(lowest, float(vals.min()))
        half = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ vecs.swapaxes(-1, -2)
        a = half @ dataset.X[rows]  # (..., n_m, m, p)
        lev[..., rows] = ((a @ pooled_inv[..., None, :, :]) * a).sum(axis=-1)
    if lowest < -1e-10:
        warnings.warn(
            f"weight matrix eigenvalue {lowest:.3e} below -1e-10; clipping",
            NonPsdWeightWarning,
            stacklevel=3,
        )
    return np.clip(lev, 0.0, 1.0)  # shave float dust off [0, 1]


def _pearson(y, mu, phi):
    return (y - mu) / np.sqrt(mu + mu ** 2 / phi)


def _deviance_residuals(y, mu, dev_comp, leverage):
    """sign(y - mu) sqrt(dev_comp / (1 - h)), NaN where dev_comp < 0."""
    with np.errstate(invalid="ignore"):
        return np.where(
            dev_comp >= 0,
            np.sign(y - mu) * np.sqrt(np.where(dev_comp >= 0, dev_comp, 0.0))
            / np.sqrt(1.0 - leverage),
            np.nan,
        )


def residuals(dataset, fitted):
    """Deviance-component and Pearson residuals with pooled leverages.

    The deviance residual is ``sign(y - mu) * sqrt(dev_comp / (1 - h))``;
    ``dev_comp`` already carries the deviance's factor 2, so the squared
    raw residuals add up to :func:`deviance`.

    Leverage of observation (i, j) is the j-th diagonal entry of
    H_i = W_i^(1/2) X_i M^(-1) X_i' W_i^(1/2) with M the pooled cross
    product sum_k X_k' W_k X_k, so leverages add up to p over the whole
    dataset.  (A per-cluster M would need every X_i to have full column
    rank, which already fails for m_i < p.)  A weight matrix with an
    eigenvalue below -1e-10 gives one NonPsdWeightWarning per call,
    naming the smallest eigenvalue.
    """
    phi = fitted.phi
    sums = _means(dataset, fitted.beta)
    mu, mu_plus, y, _ = sums
    pooled_inv, singular = _pooled_inverse(dataset, mu, mu_plus, phi)
    if singular:
        raise LeverageError("pooled weighted cross-product matrix is singular")
    leverage = _leverages(dataset, mu, mu_plus, phi, pooled_inv)
    dev_comp = _components(dataset, phi, sums)
    _warn_negative(dev_comp)
    return ResidualReport(
        cluster_ids=tuple(dataset.obs_ids()),
        obs_index=np.arange(1, dataset.n_obs + 1) - dataset.per_obs(dataset.starts),
        fitted=mu,
        leverage=leverage,
        dev_comp=dev_comp,
        dev_resid=_deviance_residuals(y, mu, dev_comp, leverage),
        pearson=_pearson(y, mu, phi),
    )


def _replicate_residuals(dataset, beta, phis, y, which):
    """One kind of residual, ``"pearson"`` or ``"deviance"``, for each fit
    (beta (R, p), phi (R,)) to its row of the count stack ``y`` (R, n_obs),
    as :func:`residuals` reports it; and the mask of rows whose pooled
    information is singular, which have no deviance residuals.  A Pearson
    residual needs only the means and phi.  Leverages are computed only
    for rows whose deviance components are all non-negative; every
    residual of the other rows is NaN."""
    phi = _col(phis)
    sums = _means(dataset, beta, y.astype(float))
    mu, mu_plus, y, _ = sums
    if which == "pearson":
        return _pearson(y, mu, phi), np.zeros(len(y), dtype=bool)
    comps = _components(dataset, phi, sums)
    pooled_inv, singular = _pooled_inverse(dataset, mu, mu_plus, phi)
    defined = np.flatnonzero((comps >= 0).all(axis=1))
    leverage = np.full(mu.shape, np.nan)
    if defined.size:
        leverage[defined] = _leverages(
            dataset, mu[defined], mu_plus[defined], _col(phis[defined]), pooled_inv[defined])
    return _deviance_residuals(y, mu, comps, leverage), singular
