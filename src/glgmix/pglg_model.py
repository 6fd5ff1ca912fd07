"""Random-intercept Poisson regression with generalized log-gamma effects.

Counts in cluster i are independent Poisson given a latent intercept b_i
drawn from GLG(0, sigma, lam); the cluster's marginal likelihood is a
one-dimensional integral handled by mode-recentred Gauss-Hermite
quadrature.  Setting sigma = lam > 0 recovers the closed-form
multivariate negative binomial with dispersion phi = lam^-2, which is the
cross-check used throughout the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import glg_dist
from .errors import DomainError, ModeSearchError
from .glg_dist import GlgParams
from .mnb_model import _check_design_rank, _poisson_irls
from .quadrature import (
    DEFAULT_ORDER,
    gauss_hermite,
    log_integrate_adaptive_batch,
    posterior_mean_batch,
)
from .results import FitResult, TraceRecord


@dataclass(frozen=True)
class PglgParams:
    """Coefficients, random-effect scale, and shape."""

    beta: np.ndarray
    sigma: float
    lam: float

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if beta.ndim != 1 or not np.all(np.isfinite(beta)):
            raise DomainError("beta must be a finite vector")
        if not np.isfinite(self.sigma) or self.sigma <= 0:
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if not np.isfinite(self.lam):
            raise DomainError("lam must be finite")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "lam", float(self.lam))


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use: only PGLG fits
    need it, and the import is large."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


class _Packed:
    """Clusters padded into rectangular arrays for batched quadrature."""

    def __init__(self, dataset):
        self.dataset = dataset
        n = dataset.n_clusters
        m_max = int(dataset.sizes.max())
        rows = dataset.per_obs(np.arange(n))
        cols = np.arange(dataset.n_obs) - dataset.per_obs(dataset.starts)
        self.y = np.zeros((n, m_max))
        self.mask = np.zeros((n, m_max))
        self.xo = np.zeros((n, m_max))  # offset part of the linear predictor
        self.X = np.zeros((n, m_max, dataset.p))
        self.y[rows, cols] = dataset.y
        self.mask[rows, cols] = 1.0
        self.xo[rows, cols] = dataset.offset
        self.X[rows, cols, :] = dataset.X
        # log y! is parameter free; fold it in once
        self.lgamma_const = (gammaln(self.y + 1.0) * self.mask).sum(axis=1)

    def eta0(self, beta):
        """Linear predictor without the random effect, shape (n, m_max)."""
        return self.X @ beta + self.xo


def _poisson_part(packed, eta0, b):
    # sum_j y_ij (eta0_ij + b_i) - exp(eta0_ij + b_i) over real observations
    if b.ndim == 1:
        eta = eta0 + b[:, None]
        y, mask = packed.y, packed.mask
        axis = 1
    else:
        eta = eta0[:, None, :] + b[:, :, None]
        y, mask = packed.y[:, None, :], packed.mask[:, None, :]
        axis = 2
    with np.errstate(over="ignore"):
        terms = np.where(mask > 0, y * eta - np.exp(eta), 0.0)
    return terms.sum(axis=axis)


def _make_batch_integrand(packed, params):
    eta0 = packed.eta0(params.beta)
    prior = GlgParams(mu=0.0, sigma=params.sigma, lam=params.lam)
    const = packed.lgamma_const

    def g(b):
        pois = _poisson_part(packed, eta0, b)
        c = const if b.ndim == 1 else const[:, None]
        return pois - c + glg_dist.log_pdf(b, prior)

    return g


def _batch_log_marginals(packed, params, rule):
    g = _make_batch_integrand(packed, params)
    return log_integrate_adaptive_batch(g, rule, np.zeros(packed.y.shape[0]))


def _raise_for_failures(dataset, failed, b_hat):
    bad = [cid for cid, f in zip(dataset.ids, failed) if f]
    raise ModeSearchError(
        f"quadrature mode search failed for cluster(s) {bad}", last_iterate=b_hat[failed]
    )


def cluster_log_marginal(c, params, rule=None):
    """Log marginal likelihood of one cluster (integral over its intercept)."""
    rule = rule or gauss_hermite(DEFAULT_ORDER)
    from .data_io import Dataset

    packed = _Packed(Dataset(clusters=(c,), column_names=("x",) * c.p))
    values, failed, b_hat = _batch_log_marginals(packed, params, rule)
    if failed[0]:
        _raise_for_failures(packed.dataset, failed, b_hat)
    return float(values[0])


def log_likelihood(dataset, params, rule=None):
    """Sum of cluster log marginals, in dataset order."""
    rule = rule or gauss_hermite(DEFAULT_ORDER)
    values, failed, b_hat = _batch_log_marginals(_Packed(dataset), params, rule)
    if failed.any():
        _raise_for_failures(dataset, failed, b_hat)
    return float(values.sum())


def predict_random_effects(dataset, params, rule=None):
    """Posterior means E[b_i | y_i], one (cluster id, value) pair per cluster.

    Numerator and denominator integrals share one adaptive recentring.
    """
    rule = rule or gauss_hermite(DEFAULT_ORDER)
    g = _make_batch_integrand(_Packed(dataset), params)
    means, failed, b_hat = posterior_mean_batch(g, rule, np.zeros(dataset.n_clusters))
    if failed.any():
        _raise_for_failures(dataset, failed, b_hat)
    return [(cid, float(m)) for cid, m in zip(dataset.ids, means)]


def marginal_moments(c, params):
    """Marginal mean vector, variance vector, and covariance matrix of one
    cluster's counts.

    E(y_j) = mu_j E(e^b), Var(y_j) = mu_j^2 Var(e^b) + mu_j E(e^b), and
    Cov(y_j, y_k) = mu_j mu_k Var(e^b), with mu_j = exp(x_j' beta +
    offset_j).  Existence of the exponential moments is required (for
    lam < 0 that is k sigma |lam| < 1 for k = 1, 2).
    """
    prior = GlgParams(mu=0.0, sigma=params.sigma, lam=params.lam)
    e1 = glg_dist.exp_moment(prior, 1)
    e2 = glg_dist.exp_moment(prior, 2)
    var_eb = e2 - e1 ** 2
    mu = np.exp(c.X @ params.beta + c.offset)
    means = mu * e1
    variances = mu ** 2 * var_eb + mu * e1
    cov = np.outer(mu, mu) * var_eb
    np.fill_diagonal(cov, variances)
    return means, variances, cov


@dataclass(frozen=True)
class PglgFitOptions:
    """Controls for the quasi-Newton maximization.

    ``fix_lambda`` pins the shape (0.0 gives the Poisson-normal model);
    ``tie_sigma_lambda`` constrains sigma = lam > 0, the closed-form
    multivariate negative binomial reparameterization.
    """

    order: int = DEFAULT_ORDER
    gtol: float = 1e-5
    ftol: float = 1e-9
    max_iter: int = 200
    fix_lambda: float | None = None
    tie_sigma_lambda: bool = False


_GRAD_STEP = 1e-6
_HESS_STEP = 1e-4
_BIG = 1e12  # objective surrogate where the likelihood is unavailable


class _Objective:
    """Negative log-likelihood over the unconstrained vector
    (beta, log sigma[, lam]), with warm-started quadrature modes."""

    def __init__(self, dataset, options):
        self.packed = _Packed(dataset)
        self.options = options
        self.rule = gauss_hermite(options.order)
        self.modes = np.zeros(dataset.n_clusters)
        self.f_memo = {}
        self.g_memo = {}

    def to_params(self, theta):
        p = self.packed.dataset.p
        beta = theta[:p]
        sigma = math.exp(theta[p])
        if self.options.tie_sigma_lambda:
            lam = sigma
        elif self.options.fix_lambda is not None:
            lam = self.options.fix_lambda
        else:
            lam = theta[p + 1]
        return PglgParams(beta=beta, sigma=sigma, lam=lam)

    def __call__(self, theta):
        try:
            params = self.to_params(theta)
        except (DomainError, OverflowError):
            return _BIG
        g = _make_batch_integrand(self.packed, params)
        values, failed, modes = log_integrate_adaptive_batch(g, self.rule, self.modes.copy())
        if failed.any() or not np.all(np.isfinite(values)):
            # retry from scratch before giving up on this point
            values, failed, modes = log_integrate_adaptive_batch(
                g, self.rule, np.zeros(self.modes.size)
            )
            if failed.any() or not np.all(np.isfinite(values)):
                return _BIG
        # remember the recentrings to warm-start the next evaluation
        self.modes = modes
        value = -float(values.sum())
        self.f_memo = {theta.tobytes(): value}
        return value

    def gradient(self, theta):
        grad = np.empty_like(theta)
        for k in range(theta.size):
            h = _GRAD_STEP * max(1.0, abs(theta[k]))
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            grad[k] = (self(up) - self(down)) / (2.0 * h)
        self.g_memo = {theta.tobytes(): float(np.max(np.abs(grad)))}
        return grad


def fit(dataset, init=None, options=None):
    """Maximize the marginal likelihood over (beta, log sigma, lam).

    BFGS with central-difference gradients; standard errors come from the
    inverse numerical Hessian at the optimum, delta-method-adjusted for
    the log-sigma transform.  Convergence requires both a small gradient
    (``gtol``) and a small relative log-likelihood change (``ftol``).

    Defaults start beta at the independence Poisson fit, sigma at 0.5,
    and lam at 0.1.
    """
    options = options or PglgFitOptions()
    if options.fix_lambda is not None and options.tie_sigma_lambda:
        raise DomainError("fix_lambda and tie_sigma_lambda are mutually exclusive")
    _check_design_rank(dataset)

    p = dataset.p
    free_lambda = options.fix_lambda is None and not options.tie_sigma_lambda
    if init is not None:
        theta0 = np.concatenate([init.beta, [math.log(init.sigma)]])
        if free_lambda:
            theta0 = np.append(theta0, init.lam)
    else:
        beta0 = _poisson_irls(dataset)
        theta0 = np.concatenate([beta0, [math.log(0.5)]])
        if free_lambda:
            theta0 = np.append(theta0, 0.1)

    objective = _Objective(dataset, options)
    trace = []
    history = []

    def callback(xk):
        loglik = -objective.f_memo.get(xk.tobytes(), objective(xk))
        max_grad = objective.g_memo.get(xk.tobytes(), np.nan)
        trace.append(TraceRecord(iteration=len(trace), loglik=loglik, max_grad=max_grad))
        history.append(loglik)

    loglik0 = -objective(theta0)
    grad0 = float(np.max(np.abs(objective.gradient(theta0))))
    trace.insert(0, TraceRecord(iteration=0, loglik=loglik0, max_grad=grad0))
    history.insert(0, loglik0)

    res = minimize(
        objective,
        theta0,
        jac=objective.gradient,
        method="BFGS",
        callback=callback,
        options={"gtol": options.gtol, "maxiter": options.max_iter},
    )
    theta_hat = res.x
    params_hat = objective.to_params(theta_hat)
    loglik = -float(res.fun)

    max_grad = float(np.max(np.abs(res.jac)))
    if len(history) >= 2:
        rel_change = abs(history[-1] - history[-2]) / max(1.0, abs(history[-1]))
    else:
        rel_change = 0.0
    converged = bool(max_grad < options.gtol and rel_change < options.ftol)

    std_errors = _pglg_standard_errors(objective, theta_hat, params_hat.sigma, free_lambda)

    names = [*dataset.column_names, "sigma=lambda" if options.tie_sigma_lambda else "sigma"]
    z_defined = [True] * p + [False]
    if free_lambda:
        names.append("lambda")
        z_defined.append(True)

    if options.tie_sigma_lambda:
        model = "pglg-tied"
    elif options.fix_lambda is None:
        model = "pglg"
    elif options.fix_lambda == 0.0:
        model = "pglg-normal"
    else:
        model = "pglg-fixed-lambda"

    estimates = np.append(params_hat.beta, params_hat.sigma)
    if free_lambda:
        estimates = np.append(estimates, params_hat.lam)
    return FitResult(
        model=model,
        names=tuple(names),
        estimates=estimates,
        std_errors=std_errors,
        loglik=loglik,
        n_iterations=int(res.nit),
        converged=converged,
        trace=tuple(trace),
        z_defined=tuple(z_defined),
    )


def _pglg_standard_errors(objective, theta, sigma, free_lambda):
    """Inverse numerical Hessian with the log-sigma row mapped back to sigma."""
    k = theta.size
    h = _HESS_STEP * np.maximum(1.0, np.abs(theta))
    hess = np.empty((k, k))
    f0 = objective(theta)
    if f0 >= _BIG:
        return None
    for a in range(k):
        ea = np.zeros(k)
        ea[a] = h[a]
        hess[a, a] = (objective(theta + ea) - 2.0 * f0 + objective(theta - ea)) / h[a] ** 2
        for b in range(a + 1, k):
            eb = np.zeros(k)
            eb[b] = h[b]
            val = (
                objective(theta + ea + eb)
                - objective(theta + ea - eb)
                - objective(theta - ea + eb)
                + objective(theta - ea - eb)
            ) / (4.0 * h[a] * h[b])
            hess[a, b] = hess[b, a] = val
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return None
    # delta method: the scale row of theta is log sigma
    p = k - 2 if free_lambda else k - 1
    scale = np.ones(k)
    scale[p] = sigma
    var = np.diag(cov) * scale ** 2
    if not np.all(np.isfinite(var)) or np.any(var <= 0):
        return None
    return np.sqrt(var)
