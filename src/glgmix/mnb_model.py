"""Multivariate negative binomial regression for clustered counts.

A cluster's counts are independent Poisson draws around a shared gamma
frailty with shape = rate = phi, so the joint pmf is available in closed
form with means mu_ij = exp(x_ij' beta + offset_ij), Var(y_ij) = mu_ij +
mu_ij^2/phi and Cov(y_ij, y_ij') = mu_ij mu_ij'/phi.  Score and Fisher
information are analytic and block-diagonal in (beta, phi), so the fit
alternates Fisher scoring on beta with Newton steps on phi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr
from scipy.special import digamma, gammaln, polygamma

from .errors import (
    CollinearDesignError,
    DomainError,
    LeverageError,
    NegativeDevianceWarning,
    NonPsdWeightWarning,
)
from .results import FitResult, TraceRecord

# Explicit partial-fraction sums switch to digamma differences past this
# many terms; the two forms agree to float precision at the boundary.
_SUM_TERMS_MAX = 10_000

# Tail-probability cutoff and term cap for the dispersion information series.
_KPHI_TAIL = 1e-12
_KPHI_MAX_TERMS = 10 ** 6


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


def _cluster_mu(c, params):
    return np.exp(c.X @ params.beta + c.offset)


def log_pmf(c, params):
    """Log joint pmf of one cluster's count vector.

    All gamma ratios go through log-gamma so large counts or dispersion
    cannot overflow.
    """
    mu = _cluster_mu(c, params)
    y = c.y.astype(float)
    phi = params.phi
    y_plus = float(y.sum())
    mu_plus = float(mu.sum())
    return float(
        gammaln(phi + y_plus)
        - gammaln(phi)
        - gammaln(y + 1.0).sum()
        + phi * math.log(phi)
        + float(y @ np.log(mu))
        - (phi + y_plus) * math.log(phi + mu_plus)
    )


def log_likelihood(dataset, params):
    """Sum of cluster log pmfs, in dataset order."""
    return float(sum(log_pmf(c, params) for c in dataset.clusters))


def _harmonic_span(y_plus, phi):
    # sum_{j=0}^{y_plus - 1} 1/(j + phi); zero for y_plus = 0
    if y_plus > _SUM_TERMS_MAX:
        return float(digamma(phi + y_plus) - digamma(phi))
    if y_plus == 0:
        return 0.0
    return float(np.sum(1.0 / (phi + np.arange(y_plus))))


def _u_phi_cluster(y_plus, mu_plus, phi):
    return (
        _harmonic_span(y_plus, phi)
        - y_plus / (phi + mu_plus)
        - math.log1p(mu_plus / phi)
        + mu_plus / (phi + mu_plus)
    )


def _k_phi_cluster(mu_plus, phi):
    # sum_{j>=0} (j + phi)^-2 P(Y+ >= j + 1) - mu+/(phi (mu+ + phi)), with
    # Y+ negative binomial of mean mu+ and dispersion phi.  The series is
    # truncated when the tail probability drops below _KPHI_TAIL.
    ratio = mu_plus / (phi + mu_plus)
    p = math.exp(phi * math.log(phi / (phi + mu_plus)))  # P(Y+ = 0)
    tail = 1.0 - p  # P(Y+ >= 1)
    total = 0.0
    for j in range(_KPHI_MAX_TERMS):
        total += tail / (j + phi) ** 2
        if tail < _KPHI_TAIL:
            break
        p *= (phi + j) / (j + 1.0) * ratio  # P(Y+ = j + 1)
        tail = max(tail - p, 0.0)
    return total - mu_plus / (phi * (mu_plus + phi))


def _sweep(dataset, params, want_k_phi=True):
    """One pass over the clusters, accumulating score and information."""
    phi = params.phi
    p = dataset.p
    u_beta = np.zeros(p)
    u_phi = 0.0
    k_beta = np.zeros((p, p))
    k_phi = 0.0
    for c in dataset.clusters:
        mu = _cluster_mu(c, params)
        y_plus = float(c.y.sum())
        mu_plus = float(mu.sum())
        a = (phi + y_plus) / (phi + mu_plus)
        u_beta += c.X.T @ (c.y - a * mu)
        u_phi += _u_phi_cluster(y_plus, mu_plus, phi)
        xm = c.X.T @ mu
        k_beta += (c.X.T * mu) @ c.X - np.outer(xm, xm) / (phi + mu_plus)
        if want_k_phi:
            k_phi += _k_phi_cluster(mu_plus, phi)
    return ScoreInfo(u_beta=u_beta, u_phi=float(u_phi), k_beta=k_beta, k_phi=float(k_phi))


def score(dataset, params):
    """Analytic score and expected (Fisher) information, from one cluster sweep."""
    return _sweep(dataset, params)


def observed_info_beta(dataset, params):
    """Observed information for beta: minus the Jacobian of U_beta.

    Equals sum_i a_i X_i' W_i X_i; its expectation (a_i -> 1) is the
    ``k_beta`` block of :func:`score`.
    """
    phi = params.phi
    p = dataset.p
    info = np.zeros((p, p))
    for c in dataset.clusters:
        mu = _cluster_mu(c, params)
        y_plus = float(c.y.sum())
        mu_plus = float(mu.sum())
        a = (phi + y_plus) / (phi + mu_plus)
        xm = c.X.T @ mu
        info += a * ((c.X.T * mu) @ c.X - np.outer(xm, xm) / (phi + mu_plus))
    return info


def phi_curvature(dataset, params):
    """d U_phi / d phi (the Newton denominator for the dispersion)."""
    phi = params.phi
    total = 0.0
    for c in dataset.clusters:
        mu = _cluster_mu(c, params)
        y_plus = float(c.y.sum())
        mu_plus = float(mu.sum())
        total += (
            float(polygamma(1, phi + y_plus) - polygamma(1, phi))
            + 1.0 / phi
            - 1.0 / (phi + mu_plus)
            - (mu_plus - y_plus) / (phi + mu_plus) ** 2
        )
    return float(total)


def intraclass_corr(mu_j, mu_k, phi):
    """Within-cluster correlation sqrt(mu_j mu_k)/sqrt((phi+mu_j)(phi+mu_k))."""
    if min(mu_j, mu_k, phi) <= 0:
        raise DomainError("intraclass_corr needs positive means and dispersion")
    return float(math.sqrt(mu_j * mu_k / ((phi + mu_j) * (phi + mu_k))))


def _stacked_design(dataset):
    return np.vstack([c.X for c in dataset.clusters])


def _check_design_rank(dataset):
    """Raise CollinearDesignError naming the dependent columns, if any."""
    X = _stacked_design(dataset)
    _, r, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(X.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < X.shape[1]:
        bad = sorted(dataset.column_names[j] for j in piv[rank:])
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
    X = _stacked_design(dataset)
    y = np.concatenate([c.y for c in dataset.clusters]).astype(float)
    offset = np.concatenate([c.offset for c in dataset.clusters])
    beta = np.zeros(X.shape[1])
    eta = X @ beta + offset
    for _ in range(max_iter):
        mu = np.exp(np.clip(eta, -30.0, 30.0))
        z = (eta - offset) + (y - mu) / mu
        xtw = X.T * mu
        try:
            beta_new = np.linalg.solve(xtw @ X, xtw @ z)
        except np.linalg.LinAlgError:
            return beta
        if not np.all(np.isfinite(beta_new)):
            return beta
        change = np.max(np.abs(beta_new - beta)) / max(1.0, np.max(np.abs(beta_new)))
        beta = beta_new
        eta = X @ beta + offset
        if change < tol:
            break
    return beta


def _moment_start_phi(dataset, beta):
    # phi_0 = mean(mu^2) / (residual variance - mean(mu)), floored at 0.1;
    # near-Poisson data pushes the denominator to the epsilon guard and the
    # start toward the independence limit.
    mus = np.concatenate([_cluster_mu(c, MnbParams(beta=beta, phi=1.0)) for c in dataset.clusters])
    y = np.concatenate([c.y for c in dataset.clusters]).astype(float)
    resid_var = float(np.mean((y - mus) ** 2))
    excess = max(1e-8, resid_var - float(np.mean(mus)))
    return max(0.1, float(np.mean(mus ** 2)) / excess)


@dataclass(frozen=True)
class MnbFitOptions:
    """Controls for the alternating Fisher-scoring/Newton loop."""

    max_iter: int = 100
    score_tol: float = 1e-6
    max_halvings: int = 50


# Once the score is this small the iterate is inside the quadratic basin
# and a full step is accepted without the (float-resolution-limited)
# likelihood-increase check.
_BASIN_SCORE = 1e-4


def fit(dataset, init=None, options=None):
    """Maximum likelihood via alternating Fisher scoring on beta and
    Newton steps on phi, with step-halving.

    Convergence is declared when max(|U_beta|_inf, |U_phi|) drops below
    ``options.score_tol``.  Standard errors come from the inverse Fisher
    information blocks at the optimum.  Non-convergence returns the last
    iterate flagged, it does not raise.

    Raises
    ------
    CollinearDesignError
        When the stacked design is rank deficient (names the columns).
    """
    options = options or MnbFitOptions()
    _check_design_rank(dataset)

    if init is not None:
        beta, phi = init.beta.copy(), init.phi
    else:
        beta = _poisson_irls(dataset)
        phi = _moment_start_phi(dataset, beta)

    params = MnbParams(beta=beta, phi=phi)
    loglik = log_likelihood(dataset, params)
    trace = []
    converged = False
    n_iter = 0

    for r in range(options.max_iter):
        info = _sweep(dataset, params, want_k_phi=False)
        max_score = max(float(np.max(np.abs(info.u_beta))), abs(info.u_phi))
        trace.append(TraceRecord(iteration=r, loglik=loglik, max_grad=max_score))
        if max_score < options.score_tol:
            converged = True
            break
        n_iter = r + 1

        # Fisher scoring step on beta, judged against the beta score only.
        try:
            direction = np.linalg.solve(info.k_beta, info.u_beta)
        except np.linalg.LinAlgError:
            break
        accepted, params, loglik = _try_step(
            dataset, params, loglik, direction, 0.0,
            float(np.max(np.abs(info.u_beta))), options,
        )
        if not accepted:
            break

        # Newton step on phi at the updated beta.
        u_phi = sum(
            _u_phi_cluster(float(c.y.sum()), float(_cluster_mu(c, params).sum()), params.phi)
            for c in dataset.clusters
        )
        curv = phi_curvature(dataset, params)
        if curv < 0:
            dphi = -u_phi / curv
        else:
            # Not locally concave in phi: bounded uphill move.
            dphi = math.copysign(0.5 * params.phi, u_phi)
        accepted, params, loglik = _try_step(
            dataset, params, loglik, np.zeros_like(params.beta), dphi,
            abs(u_phi), options,
        )
        if not accepted:
            break
    else:
        r = options.max_iter  # loop exhausted
        info = _sweep(dataset, params, want_k_phi=False)
        max_score = max(float(np.max(np.abs(info.u_beta))), abs(info.u_phi))
        trace.append(TraceRecord(iteration=r, loglik=loglik, max_grad=max_score))

    final = _sweep(dataset, params)
    std_errors = _standard_errors(final)
    return FitResult(
        model="mnb",
        names=(*dataset.column_names, "phi"),
        estimates=np.append(params.beta, params.phi),
        std_errors=std_errors,
        loglik=loglik,
        n_iterations=n_iter,
        converged=converged,
        trace=tuple(trace),
        z_defined=(True,) * dataset.p + (False,),
    )


def _try_step(dataset, params, loglik, dbeta, dphi, score, options):
    """Apply one step with halving until the likelihood does not drop.

    ``score`` is the gradient magnitude for the block being moved.  Inside
    its quadratic basin (score below _BASIN_SCORE) the improvement can be
    below float resolution of the log-likelihood, so the full step is
    taken on trust there.
    """
    scale = 1.0
    for _ in range(options.max_halvings + 1):
        phi_new = params.phi + scale * dphi
        if phi_new <= 0:
            scale *= 0.5
            continue
        candidate = MnbParams(beta=params.beta + scale * dbeta, phi=phi_new)
        loglik_new = log_likelihood(dataset, candidate)
        if np.isfinite(loglik_new) and (loglik_new > loglik or score < _BASIN_SCORE):
            return True, candidate, loglik_new
        scale *= 0.5
    return False, params, loglik


def _standard_errors(info):
    try:
        cov_beta = np.linalg.inv(info.k_beta)
    except np.linalg.LinAlgError:
        return None
    var = np.append(np.diag(cov_beta), 1.0 / info.k_phi if info.k_phi > 0 else np.nan)
    if not np.all(np.isfinite(var)) or np.any(var <= 0):
        return None
    return np.sqrt(var)


def deviance(dataset, fitted):
    """Twice the log-likelihood gap to the saturated model (mu-hat = y).

    The dispersion is held fixed at ``fitted.phi`` in both models, so a
    perfect mean fit gives exactly zero.
    """
    total = 0.0
    for c in dataset.clusters:
        mu = _cluster_mu(c, fitted)
        total += _cluster_deviance(c.y.astype(float), mu, fitted.phi)
    return float(total)


def _cluster_deviance(y, mu, phi):
    y_plus = float(y.sum())
    mu_plus = float(mu.sum())
    term = phi * math.log((phi + mu_plus) / (phi + y_plus))
    pos = y > 0
    if np.any(pos):
        term += float(
            y[pos] @ np.log(y[pos] * (phi + mu_plus) / (mu[pos] * (phi + y_plus)))
        )
    return 2.0 * term


def deviance_components(dataset, fitted):
    """Per-observation squared deviance components, flattened in dataset order.

    The cluster-level dispersion term is split evenly over the cluster's
    m_i observations; that even split can make individual components
    negative, which is reported as-is with a warning.
    """
    comps = []
    for c in dataset.clusters:
        mu = _cluster_mu(c, fitted)
        y = c.y.astype(float)
        phi = fitted.phi
        y_plus = float(y.sum())
        mu_plus = float(mu.sum())
        shared = (phi / c.m) * math.log((phi + mu_plus) / (phi + y_plus))
        for j in range(c.m):
            own = 0.0
            if y[j] > 0:
                own = y[j] * math.log(y[j] * (phi + mu_plus) / (mu[j] * (phi + y_plus)))
            comps.append(2.0 * (shared + own))
    comps = np.asarray(comps)
    n_neg = int(np.sum(comps < 0))
    if n_neg:
        warnings.warn(
            f"{n_neg} squared deviance component(s) are negative; the matching "
            "deviance residuals are undefined (NaN)",
            NegativeDevianceWarning,
            stacklevel=2,
        )
    return comps


def _weight_sqrt(mu, phi):
    # symmetric square root of W = D(mu) - mu mu'/(phi + mu+); W is PSD by
    # construction, so eigenvalues below -1e-10 indicate real trouble
    w = np.diag(mu) - np.outer(mu, mu) / (phi + mu.sum())
    vals, vecs = np.linalg.eigh(w)
    if np.any(vals < -1e-10):
        warnings.warn(
            f"weight matrix eigenvalue {vals.min():.3e} below -1e-10; clipping",
            NonPsdWeightWarning,
            stacklevel=3,
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def residuals(dataset, fitted):
    """Deviance-component and Pearson residuals with pooled leverages.

    The deviance residual is ``sign(y - mu) * sqrt(dev_comp / (1 - h))``;
    ``dev_comp`` already carries the deviance's factor 2, so the squared
    raw residuals add up to :func:`deviance`.

    Leverage of observation (i, j) is the j-th diagonal entry of
    H_i = W_i^(1/2) X_i M^(-1) X_i' W_i^(1/2) with M the pooled cross
    product sum_k X_k' W_k X_k, so leverages add up to p over the whole
    dataset.  (A per-cluster M would need every X_i to have full column
    rank, which already fails for m_i < p.)
    """
    phi = fitted.phi
    mus = [_cluster_mu(c, fitted) for c in dataset.clusters]
    pooled = np.zeros((dataset.p, dataset.p))
    for c, mu in zip(dataset.clusters, mus):
        xm = c.X.T @ mu
        pooled += (c.X.T * mu) @ c.X - np.outer(xm, xm) / (phi + mu.sum())
    try:
        pooled_inv = np.linalg.inv(pooled)
    except np.linalg.LinAlgError:
        raise LeverageError("pooled weighted cross-product matrix is singular") from None

    with warnings.catch_warnings():
        # one combined warning below, not one per call site
        warnings.simplefilter("ignore", NegativeDevianceWarning)
        dev_comp = deviance_components(dataset, fitted)

    ids, obs_index, fit_vals, lev, pearson = [], [], [], [], []
    for c, mu in zip(dataset.clusters, mus):
        half = _weight_sqrt(mu, phi)
        a = half @ c.X
        h = np.einsum("ij,jk,ik->i", a, pooled_inv, a)
        lev.append(np.clip(h, 0.0, 1.0))  # shave float dust off [0, 1]
        fit_vals.append(mu)
        pearson.append((c.y - mu) / np.sqrt(mu + mu ** 2 / phi))
        ids.extend([c.id] * c.m)
        obs_index.extend(range(1, c.m + 1))

    leverage = np.concatenate(lev)
    fitted_vals = np.concatenate(fit_vals)
    n_neg = int(np.sum(dev_comp < 0))
    if n_neg:
        warnings.warn(
            f"{n_neg} squared deviance component(s) are negative; the matching "
            "deviance residuals are reported as NaN",
            NegativeDevianceWarning,
            stacklevel=2,
        )
    y_all = np.concatenate([c.y for c in dataset.clusters]).astype(float)
    with np.errstate(invalid="ignore"):
        dev_resid = np.where(
            dev_comp >= 0,
            np.sign(y_all - fitted_vals) * np.sqrt(np.where(dev_comp >= 0, dev_comp, 0.0))
            / np.sqrt(1.0 - leverage),
            np.nan,
        )
    return ResidualReport(
        cluster_ids=tuple(ids),
        obs_index=np.asarray(obs_index),
        fitted=fitted_vals,
        leverage=leverage,
        dev_comp=dev_comp,
        dev_resid=dev_resid,
        pearson=np.concatenate(pearson),
    )
