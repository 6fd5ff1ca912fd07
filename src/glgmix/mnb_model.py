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
the number of observations and no Python loop runs over clusters.

The gamma-function ratios need no special-function library: the
log-gamma, digamma and trigamma differences at phi + y+ and phi are
finite sums over j < y+ read off one cumulative table per call
(:func:`_lgamma_spans`, :func:`_digamma_spans`, :func:`_trigamma_spans`),
and the data's own log y! sums are cached on the dataset.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._newton import maximise
from ._special import digamma, trigamma
from .errors import (
    CollinearDesignError,
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ScoreInfo:
    """Score vector and Fisher information blocks at one parameter point.

    The information for theta = (beta, phi) is block diagonal, so two
    blocks suffice: ``k_beta`` (p x p) and the scalar ``k_phi``.
    """

    u_beta: np.ndarray
    u_phi: float
    k_beta: np.ndarray
    k_phi: float


@dataclass(frozen=True)
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


def _means(dataset, beta):
    """Observation means, their cluster totals mu+, and the counts with
    their cluster totals y+, all as floats."""
    mu = np.exp(dataset.X @ beta + dataset.offset)
    y = dataset.y.astype(float)
    return mu, dataset.cluster_sums(mu), y, dataset.cluster_sums(y)


def log_likelihood(dataset, params):
    """Sum of cluster log pmfs (:func:`log_pmf`), from per-cluster sums."""
    return _log_likelihood(dataset, params.phi, _means(dataset, params.beta))


def _log_likelihood(dataset, phi, sums):
    mu, mu_plus, y, y_plus = sums
    per_cluster = (
        _lgamma_spans(y_plus, phi)
        - dataset.log_y_factorials
        + phi * math.log(phi)
        + dataset.cluster_sums(y * np.log(mu))
        - (phi + y_plus) * np.log(phi + mu_plus)
    )
    return float(per_cluster.sum())


def _spans(y_plus, phi, term, past):
    """sum_{j=0}^{y+ - 1} term(phi + j) per cluster, zero for y+ = 0.

    One cumulative table runs up to the largest y+ <= _SUM_TERMS_MAX; a
    cluster past it gets the closed form past(phi + y+) - past(phi), one
    scalar call each.
    """
    counts = y_plus.astype(np.int64)
    small = counts <= _SUM_TERMS_MAX
    top = int(counts[small].max(initial=0))
    table = np.concatenate(([0.0], np.cumsum(term(phi + np.arange(top)))))
    spans = np.empty(counts.size)
    spans[small] = table[counts[small]]
    if not small.all():  # rare; keeps scalar code off the common path
        spans[~small] = [past(phi + n) - past(phi) for n in y_plus[~small].tolist()]
    return spans


def _lgamma_spans(y_plus, phi):
    # lgamma(phi + y+) - lgamma(phi) = sum_{j < y+} log(phi + j)
    return _spans(y_plus, phi, np.log, math.lgamma)


def _digamma_spans(y_plus, phi):
    # digamma(phi + y+) - digamma(phi) = sum_{j < y+} 1/(phi + j)
    return _spans(y_plus, phi, np.reciprocal, digamma)


def _trigamma_spans(y_plus, phi):
    # trigamma(phi + y+) - trigamma(phi) = -sum_{j < y+} 1/(phi + j)^2
    return _spans(y_plus, phi, lambda x: -1.0 / (x * x), trigamma)


def _phi_scores(y_plus, mu_plus, phi):
    """Per-cluster contributions to U_phi."""
    return (
        _digamma_spans(y_plus, phi)
        - y_plus / (phi + mu_plus)
        - np.log1p(mu_plus / phi)
        + mu_plus / (phi + mu_plus)
    )


def _phi_curvatures(y_plus, mu_plus, phi):
    """Per-cluster contributions to d U_phi / d phi."""
    return (
        _trigamma_spans(y_plus, phi)
        + 1.0 / phi
        - 1.0 / (phi + mu_plus)
        - (mu_plus - y_plus) / (phi + mu_plus) ** 2
    )


def _scores(dataset, phi, sums):
    """The weights a_i = (phi + y+_i)/(phi + mu+_i), U_beta and U_phi,
    from the output of :func:`_means`."""
    mu, mu_plus, y, y_plus = sums
    a = (phi + y_plus) / (phi + mu_plus)
    u_beta = dataset.X.T @ (y - dataset.per_obs(a) * mu)
    return a, u_beta, float(np.sum(_phi_scores(y_plus, mu_plus, phi)))


def _k_phi(mu_plus, phi):
    # sum over clusters of sum_{j>=0} (j + phi)^-2 P(Y+ >= j + 1)
    # - mu+/(phi (mu+ + phi)), with Y+ negative binomial of mean mu+ and
    # dispersion phi.  A cluster's series stops after its first term whose
    # tail probability is below _KPHI_TAIL.  All clusters step through the
    # terms together, _KPHI_BLOCK at a time: log P(Y+ = j) and the tail run
    # as cumulative sums along the block, and finished clusters leave the
    # working arrays.  Logs, because P(Y+ = 0) = (phi/(phi + mu+))^phi
    # underflows when phi log1p(mu+/phi) is large.
    log_ratio = np.log(mu_plus / (phi + mu_plus))
    log_p = phi * np.log(phi / (phi + mu_plus))  # log P(Y+ = 0)
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
        below = tails[:, :-1] < _KPHI_TAIL
        taken = np.cumsum(below, axis=1) - below == 0  # up to the first term below
        total += float(np.sum(np.where(taken, tails[:, :-1], 0.0) / (j + phi) ** 2))
        going = ~below.any(axis=1)
        if not going.any():
            break
        log_p, tail, log_ratio = log_probs[going, -1], tails[going, -1], log_ratio[going]
    return total - float(np.sum(mu_plus / (phi * (mu_plus + phi))))


def _info_beta(dataset, mu, mu_plus, phi, weights=None):
    """sum_i w_i X_i' W_i X_i with W_i = D(mu_i) - mu_i mu_i'/(phi + mu+_i);
    unit weights when ``weights`` is None."""
    X = dataset.X
    xm = dataset.cluster_sums(X * mu[:, None])  # (n_clusters, p): X_i' mu_i
    shrink = 1.0 / (phi + mu_plus)
    if weights is not None:
        mu = mu * dataset.per_obs(weights)
        shrink = shrink * weights
    return (X.T * mu) @ X - (xm.T * shrink) @ xm


def score(dataset, params):
    """Analytic score and expected (Fisher) information from per-cluster
    sums, all clusters at once."""
    phi = params.phi
    sums = _means(dataset, params.beta)
    _, u_beta, u_phi = _scores(dataset, phi, sums)
    mu, mu_plus = sums[:2]
    return ScoreInfo(
        u_beta=u_beta,
        u_phi=u_phi,
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


def _poisson_irls(dataset, max_iter=100, tol=1e-10):
    """Independence Poisson fit (the phi -> infinity limit); returns beta.

    Standard iteratively reweighted least squares on the stacked data.
    Used only to produce starting values, so failures fall back to zeros.
    """
    X, offset = dataset.X, dataset.offset
    y = dataset.y.astype(float)
    zeros = np.zeros(X.shape[1])
    beta = zeros
    eta = X @ beta + offset
    for _ in range(max_iter):
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
        if change < tol:
            return beta
    return zeros


def _moment_start_phi(dataset, beta):
    # phi_0 = mean(mu^2) / (residual variance - mean(mu)), floored at 0.1;
    # near-Poisson data pushes the denominator to the epsilon guard and the
    # start toward the independence limit.
    mus = np.exp(dataset.X @ beta + dataset.offset)
    y = dataset.y.astype(float)
    resid_var = float(np.mean((y - mus) ** 2))
    excess = max(1e-8, resid_var - float(np.mean(mus)))
    return max(0.1, float(np.mean(mus ** 2)) / excess)


def _objective(dataset):
    """(loglik, score, hessian) over theta = (beta, log phi) from one
    :func:`_means` pass, or None where any of them is not finite.

    The score is (U_beta, phi U_phi).  The Hessian is minus the exact
    observed information: the beta block is :func:`_info_beta` with
    weights a_i, the cross block is -phi X'(per_obs((mu+ - y+)/(phi +
    mu+)^2) mu), and the log phi entry is phi^2 dU_phi/dphi + phi U_phi.
    """
    X, p = dataset.X, dataset.p

    def evaluate(theta):
        with np.errstate(all="ignore"):  # non-finite values return None below
            phi = float(np.exp(theta[p]))
            if phi == 0.0:  # phi log phi below would raise
                return None
            sums = _means(dataset, theta[:p])
            mu, mu_plus, _, y_plus = sums
            loglik = _log_likelihood(dataset, phi, sums)
            a, u_beta, u_phi = _scores(dataset, phi, sums)
            beta_beta = _info_beta(dataset, mu, mu_plus, phi, weights=a)
            cross = -phi * (X.T @ (dataset.per_obs((mu_plus - y_plus) / (phi + mu_plus) ** 2) * mu))
            curv = float(_phi_curvatures(y_plus, mu_plus, phi).sum())
        hess = np.empty((p + 1, p + 1))
        hess[:p, :p] = -0.5 * (beta_beta + beta_beta.T)  # exactly symmetric
        hess[:p, p] = hess[p, :p] = cross
        hess[p, p] = phi * phi * curv + phi * u_phi
        score = np.append(u_beta, phi * u_phi)
        if not (math.isfinite(loglik) and np.all(np.isfinite(score)) and np.all(np.isfinite(hess))):
            return None
        return loglik, score, hess

    return evaluate


def _natural_size(theta, score):
    # max(|U_beta|_inf, |U_phi|), U_phi back in the natural units of phi
    return max(float(np.max(np.abs(score[:-1]))), abs(score[-1]) / float(np.exp(theta[-1])))


def _maximise(dataset, init=None):
    """(estimate, loglik, converged, trace) of the shared damped Newton in
    (beta, log phi), from ``init`` or the independence Poisson fit with a
    moment estimate of phi."""
    _check_design_rank(dataset)
    if init is None:
        beta = _poisson_irls(dataset)
        init = MnbParams(beta=beta, phi=_moment_start_phi(dataset, beta))
    theta = np.append(init.beta, math.log(init.phi))
    found = maximise(_objective(dataset), theta, _SCORE_TOL, _MAX_ITER, _natural_size)
    if found is None:
        raise DomainError("MNB log-likelihood, score or information not finite at the start")
    theta, (loglik, _, _), max_score, trace = found
    params = MnbParams(beta=theta[:-1], phi=float(np.exp(theta[-1])))
    return params, loglik, max_score < _SCORE_TOL, trace


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
    num = dataset.per_obs(phi + mu_plus)[pos]
    den = dataset.per_obs(phi + y_plus)[pos]
    own = np.zeros(y.size)
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
    return 2.0 * (dataset.per_obs((phi / dataset.sizes) * log_ratio) + own)


def deviance_components(dataset, fitted):
    """Per-observation squared deviance components, flattened in dataset order.

    The cluster-level dispersion term is split evenly over the cluster's
    m_i observations; that even split can make individual components
    negative, which is reported as-is with a warning.
    """
    comps = _components(dataset, fitted.phi, _means(dataset, fitted.beta))
    n_neg = int(np.sum(comps < 0))
    if n_neg:
        warnings.warn(
            f"{n_neg} squared deviance component(s) are negative; the matching "
            "deviance residuals are undefined (NaN)",
            NegativeDevianceWarning,
            stacklevel=2,
        )
    return comps


def _leverages(dataset, mu, mu_plus, phi, pooled_inv):
    """Diagonals of W_i^(1/2) X_i M^(-1) X_i' W_i^(1/2), with the symmetric
    square roots from one stacked ``eigh`` per cluster size."""
    lev = np.empty(dataset.n_obs)
    lowest = 0.0
    for m in np.unique(dataset.sizes).tolist():
        which = np.flatnonzero(dataset.sizes == m)
        rows = dataset.starts[which][:, None] + np.arange(m)  # (n_m, m)
        mus = mu[rows]
        # W = D(mu) - mu mu'/(phi + mu+); PSD by construction, so
        # eigenvalues below -1e-10 indicate real trouble
        w = -mus[:, :, None] * mus[:, None, :] / (phi + mu_plus[which])[:, None, None]
        w[:, np.arange(m), np.arange(m)] += mus
        vals, vecs = np.linalg.eigh(w)
        lowest = min(lowest, float(vals.min()))
        half = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) @ vecs.transpose(0, 2, 1)
        a = half @ dataset.X[rows]  # (n_m, m, p)
        lev[rows] = np.einsum("nij,jk,nik->ni", a, pooled_inv, a)
    if lowest < -1e-10:
        warnings.warn(
            f"weight matrix eigenvalue {lowest:.3e} below -1e-10; clipping",
            NonPsdWeightWarning,
            stacklevel=3,
        )
    return np.clip(lev, 0.0, 1.0)  # shave float dust off [0, 1]


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
    try:
        pooled_inv = np.linalg.inv(_info_beta(dataset, mu, mu_plus, phi))
    except np.linalg.LinAlgError:
        raise LeverageError("pooled weighted cross-product matrix is singular") from None
    leverage = _leverages(dataset, mu, mu_plus, phi, pooled_inv)
    dev_comp = _components(dataset, phi, sums)

    n_neg = int(np.sum(dev_comp < 0))
    if n_neg:
        warnings.warn(
            f"{n_neg} squared deviance component(s) are negative; the matching "
            "deviance residuals are reported as NaN",
            NegativeDevianceWarning,
            stacklevel=2,
        )
    with np.errstate(invalid="ignore"):
        dev_resid = np.where(
            dev_comp >= 0,
            np.sign(y - mu) * np.sqrt(np.where(dev_comp >= 0, dev_comp, 0.0))
            / np.sqrt(1.0 - leverage),
            np.nan,
        )
    return ResidualReport(
        cluster_ids=tuple(dataset.obs_ids()),
        obs_index=np.arange(1, dataset.n_obs + 1) - dataset.per_obs(dataset.starts),
        fitted=mu,
        leverage=leverage,
        dev_comp=dev_comp,
        dev_resid=dev_resid,
        pearson=(y - mu) / np.sqrt(mu + mu ** 2 / phi),
    )
