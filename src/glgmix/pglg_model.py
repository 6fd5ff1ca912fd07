"""Random-intercept Poisson regression with generalized log-gamma effects.

Counts in cluster i are independent Poisson given a latent intercept b_i
drawn from GLG(0, sigma, lam).  b_i enters only through y+_i b - mu+_i e^b,
so the cluster's log marginal likelihood is c_i + log int exp(g_i(b)) db,
g_i(b) = y+_i b - mu+_i e^b + log f(b) and c_i = sum_j (y_ij log mu_ij -
log y_ij!): per-cluster sums and a one-dimensional integral, handled by
mode-recentred Gauss-Hermite quadrature.  The integrand depends on the
data only through (y+_i, mu+_i), so the quadrature runs once per distinct
pair and clusters that share one reuse its result: a balanced design
costs its distinct totals, not its cluster count.  On the same nodes,
Fisher's identity gives the score as a posterior mean of the complete-data
score, and Louis' identity gives the observed information from the
posterior moments of the complete-data first and second derivatives;
:func:`fit` climbs the score with damped Newton steps on that
information.  Setting sigma = lam > 0 recovers the closed-form
multivariate negative binomial with dispersion phi = lam^-2, which is the
cross-check used throughout the tests.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import glg_dist
from ._newton import _check_design_rank, _poisson_irls, maximise
from ._record import record
from .data_io import Dataset
from .errors import DomainError, ModeSearchError
from .glg_dist import GlgParams, PglgParams  # PglgParams is re-exported
from .quadrature import DEFAULT_ORDER, MAX_ORDER, adaptive_nodes, gauss_hermite
from .results import FitResult


def _cluster_sums(dataset, beta):
    """(c, log mu+) per cluster, and the means mu per observation."""
    eta0 = dataset.X @ beta + dataset.offset
    with np.errstate(over="ignore", divide="ignore"):
        mu = np.exp(eta0)
        log_mu_plus = np.log(dataset.cluster_sums(mu))
    c = dataset.cluster_sums(dataset.y * eta0) - dataset.log_y_factorials
    return c, log_mu_plus, mu


def _totals(dataset):
    """y+ per cluster and a stable argsort of it, which :func:`_distinct`
    reuses for every beta."""
    y_plus = dataset.cluster_sums(dataset.y)
    return y_plus, np.argsort(y_plus, kind="stable")


def _integrand(y_plus, log_mu_plus, params, prior_terms=None):
    """g_i(b) = y+_i b - mu+_i e^b + log f(b) for b of shape (n, k), and its
    derivatives (y+_i - mu+_i e^b + (log f)', -mu+_i e^b + (log f)'') for
    b of shape (n,).  Given a list ``prior_terms``, g also leaves there the
    (log sigma, lam) gradient and Hessian of log f at its b, from the same
    pass as log f."""
    prior = GlgParams(mu=0.0, sigma=params.sigma, lam=params.lam)

    def g(b):
        # mu+ e^b as one exp, so that an underflowed mu+ gives 0, not 0 * inf
        with np.errstate(over="ignore"):
            if prior_terms is None:
                log_f = glg_dist.log_pdf(b, prior)
            else:  # b holds quadrature nodes, finite by construction
                log_f, *prior_terms[:] = glg_dist._terms(b, prior)
            return y_plus[:, None] * b - np.exp(b + log_mu_plus[:, None]) + log_f

    # the terms of glg_dist.log_pdf_y_derivatives, with its constants
    # computed once; far out an exp overflows to inf, and the mode search
    # steps away from it
    curv = -prior.sigma ** -2.0
    if prior.is_normal:
        def derivatives(b):
            with np.errstate(over="ignore"):
                mu_e = np.exp(b + log_mu_plus)
                return y_plus - mu_e + b * curv, curv - mu_e
    else:
        lam_over_sigma, minus_sigma_lam = prior.lam / prior.sigma, -prior.sigma * prior.lam

        def derivatives(b):
            with np.errstate(over="ignore"):
                mu_e = np.exp(b + log_mu_plus)
                em1 = np.expm1(b * lam_over_sigma)
                return y_plus - mu_e + em1 / minus_sigma_lam, (em1 + 1.0) * curv - mu_e

    return g, derivatives


def _distinct(y_plus, log_mu_plus, by_y):
    """(first, inverse): the index of one cluster per distinct pair (y+,
    log mu+), the lowest, and each cluster's position in ``first``, so that
    ``y_plus[first][inverse]`` is ``y_plus``.  Every NaN is a pair of its
    own.  ``by_y``, a stable argsort of ``y_plus``, orders the pairs as the
    lexsort on (y+, log mu+) does unless log mu+ splits a run of equal y+,
    and only then does that lexsort run."""
    def neighbours_differ(order):
        y_sorted, l_sorted = y_plus[order], log_mu_plus[order]
        return y_sorted[1:] != y_sorted[:-1], l_sorted[1:] != l_sorted[:-1]

    order = by_y
    new_y, new_l = neighbours_differ(order)
    if (new_l & ~new_y).any():  # log mu+ splits a run of equal y+
        order = np.lexsort((log_mu_plus, y_plus))
        new_y, new_l = neighbours_differ(order)
    new = np.empty(order.size, dtype=bool)
    new[0] = True
    np.logical_or(new_y, new_l, out=new[1:])
    inverse = np.empty_like(order)
    inverse[order] = new.cumsum()
    inverse -= 1
    return order[new], inverse


def _nodes(dataset, params, rule, init, totals=None, prior_terms=None):
    """The nodes of every distinct cluster integrand, with mode searches
    started at ``init`` (one per cluster): the (values, points, weights,
    failed, modes) of :func:`adaptive_nodes`, one row per distinct pair;
    ``inverse``, whose rows give every cluster its own row again; the
    clusters' constants c; and the means mu per observation.  ``totals``
    is :func:`_totals` of the dataset (computed when None), and
    ``prior_terms`` goes to :func:`_integrand`."""
    y_plus, by_y = totals or _totals(dataset)
    c, log_mu_plus, mu = _cluster_sums(dataset, params.beta)
    first, inverse = _distinct(y_plus, log_mu_plus, by_y)
    g, derivatives = _integrand(y_plus[first], log_mu_plus[first], params, prior_terms)
    return adaptive_nodes(g, derivatives, rule, init[first]), inverse, c, mu


def _checked_nodes(dataset, params, rule, init):
    """:func:`_nodes`, raising one ModeSearchError naming every cluster
    whose mode search failed."""
    nodes, inverse, c, mu = _nodes(dataset, params, rule, init)
    *_, failed, b_hat = nodes
    failed, b_hat = failed[inverse], b_hat[inverse]
    if failed.any():
        bad = [cid for cid, f in zip(dataset.ids, failed) if f]
        raise ModeSearchError(
            f"quadrature mode search failed for cluster(s) {bad}", last_iterate=b_hat[failed]
        )
    return nodes, inverse, c, mu


def _log_likelihood(dataset, params, rule, init):
    """Sum of cluster log marginals, in dataset order, with mode searches
    started at ``init``."""
    (values, *_), inverse, c, _ = _checked_nodes(dataset, params, rule, init)
    return float((values[inverse] + c).sum())


def cluster_log_marginal(c, params, rule=None):
    """Log marginal likelihood of one cluster (integral over its intercept)."""
    return log_likelihood(Dataset(clusters=(c,), column_names=("x",) * c.p), params, rule)


def log_likelihood(dataset, params, rule=None):
    """Sum of cluster log marginals, in dataset order."""
    rule = rule or gauss_hermite(DEFAULT_ORDER)
    return _log_likelihood(dataset, params, rule, np.zeros(dataset.n_clusters))


def predict_random_effects(dataset, params, rule=None):
    """Posterior means E[b_i | y_i], one (cluster id, value) pair per cluster.

    Numerator and denominator integrals share one adaptive recentring.
    The default rule is ``gauss_hermite(MAX_ORDER)``, not DEFAULT_ORDER:
    weighting the nodes by b reaches farther into a skewed law's long
    tail, so a mean needs more nodes than a log marginal, and one batch
    is cheap.
    """
    rule = rule or gauss_hermite(MAX_ORDER)
    init = np.zeros(dataset.n_clusters)
    (_, points, weights, *_), inverse, _, _ = _checked_nodes(dataset, params, rule, init)
    means = (weights * points).sum(axis=1)[inverse]
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


@record
class PglgFitOptions:
    """Controls for the damped Newton maximization.

    ``fix_lambda`` pins the shape (0.0 gives the Poisson-normal model);
    ``tie_sigma_lambda`` constrains sigma = lam > 0, the closed-form
    multivariate negative binomial reparameterization; the two exclude
    each other.  ``order`` is an integer in [1, ``MAX_ORDER // 2``], so
    that the convergence check can compare the fit with the rule of twice
    its order.
    """

    order: int = DEFAULT_ORDER
    fix_lambda: float | None = None
    tie_sigma_lambda: bool = False

    def __post_init__(self):
        limit = MAX_ORDER // 2
        try:
            order = operator.index(self.order)
        except TypeError:
            raise DomainError(
                f"order must be an integer in [1, {limit}], got {self.order!r}") from None
        if not 1 <= order <= limit:
            bound = f"at most {limit}" if order > limit else "at least 1"
            raise DomainError(
                f"order must be {bound}, in [1, {limit}] (the order check uses twice "
                f"the order, and rules stop at {MAX_ORDER}), got {order}"
            )
        object.__setattr__(self, "order", order)
        if self.fix_lambda is not None and self.tie_sigma_lambda:
            raise DomainError("fix_lambda and tie_sigma_lambda are mutually exclusive")


# The fit stops once max |score| is below _SCORE_TOL or after _MAX_ITER
# Newton steps.
_SCORE_TOL = 1e-5
_MAX_ITER = 200
_ORDER_TOL_PER_CLUSTER = 1e-6  # log-likelihood change allowed at twice the order


def _posterior_mean(weights, live, values):
    """Posterior means of ``values`` on the nodes; ``live`` is the mask
    ``weights > 0``, or None when every weight is positive.  Nodes of
    weight 0 may sit where ``values`` overflows; they add nothing (the
    caller ignores the invalid products there)."""
    terms = weights * values
    return (terms if live is None else np.where(live, terms, 0.0)).sum(axis=1)


def _centred(live, values, means):
    """``values`` minus their posterior means, 0 at nodes of weight 0
    (where ``live``, if not None, is False)."""
    centred = values - means[:, None]
    return centred if live is None else np.where(live, centred, 0.0)


class _Objective:
    """Log-likelihood, exact score and observed information over the
    unconstrained vector (beta, log sigma[, lam]), with warm-started
    quadrature modes.  y+ and its sort are computed once, for every
    call."""

    def __init__(self, dataset, options):
        self.dataset = dataset
        self.options = options
        self.rule = gauss_hermite(options.order)
        self.modes = np.zeros(dataset.n_clusters)
        self.totals = _totals(dataset)

    def to_params(self, theta):
        p = self.dataset.p
        beta = theta[:p]
        sigma = math.exp(theta[p])
        if self.options.tie_sigma_lambda:
            lam = sigma
        elif self.options.fix_lambda is not None:
            lam = self.options.fix_lambda
        else:
            lam = theta[p + 1]
        return PglgParams(beta=beta, sigma=sigma, lam=lam)

    def _scale_derivatives(self, grad, hess, sigma):
        """First and second derivatives of log f at the nodes in the scale
        coordinates of theta, a list d and a nested list h, from its
        gradient and Hessian in (log sigma, lam)."""
        d_s, d_lam = grad
        h_ss, h_s_lam, h_lam_lam = hess
        if self.options.tie_sigma_lambda:  # lam = sigma = e^(log sigma)
            d = d_s + sigma * d_lam
            h = h_ss + 2.0 * sigma * h_s_lam + sigma * sigma * h_lam_lam + sigma * d_lam
            return [d], [[h]]
        if self.options.fix_lambda is not None:
            return [d_s], [[h_ss]]
        return [d_s, d_lam], [[h_ss, h_s_lam], [h_s_lam, h_lam_lam]]

    def __call__(self, theta):
        """(loglik, score, hessian) at ``theta`` from one batch of nodes, or
        None where any of them is unavailable.

        The score is Fisher's identity and the Hessian Louis' identity,
        sum_i (E_i[d^2 l_c] + Cov_i[d l_c]), both under each cluster's
        posterior on the nodes; l_c is the complete-data log-likelihood.
        The derivatives of log f at the nodes come from the same pass as
        the integrand's log f.
        """
        try:
            params = self.to_params(theta)
        except (DomainError, OverflowError):
            return None
        ds = self.dataset
        prior_terms = []  # the gradient and Hessian of log f at the nodes
        # one row per distinct integrand; [inverse] gives every cluster its
        # own row again before anything is summed over clusters
        for init in (self.modes, np.zeros(ds.n_clusters)):  # warm, then cold
            nodes, inverse, c, mu = _nodes(ds, params, self.rule, init, self.totals, prior_terms)
            values, points, weights, failed, modes = nodes
            if not failed.any() and np.all(np.isfinite(values)):
                break
        else:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            live = weights > 0  # the nodes that count, one mask for every moment
            if live.all():
                live = None
            exp_b = np.exp(points)
            e_b = _posterior_mean(weights, live, exp_b)
            d, h = self._scale_derivatives(*prior_terms, params.sigma)
            d_means = [_posterior_mean(weights, live, dk) for dk in d]
            e_b_obs = ds.per_obs(e_b[inverse]) * mu
            u_beta = ds.X.T @ (ds.y - e_b_obs)
            score = np.concatenate([u_beta, [mean[inverse].sum() for mean in d_means]])
            if not np.all(np.isfinite(score)):
                return None

            # cross moments of the centred complete-data scores
            c_b = _centred(live, exp_b, e_b)
            c_d = [_centred(live, dk, mean) for dk, mean in zip(d, d_means)]
            w_c_b = weights * c_b
            w_c_d = [weights * ck for ck in c_d]
            m = ds.cluster_sums(mu[:, None] * ds.X)  # X_i' mu_i, one row per cluster
            p, k = ds.p, len(d)
            hess = np.empty((p + k, p + k))
            beta_beta = (m.T * (w_c_b * c_b).sum(axis=1)[inverse]) @ m - (
                ds.X.T * e_b_obs
            ) @ ds.X
            hess[:p, :p] = 0.5 * (beta_beta + beta_beta.T)  # exactly symmetric
            for a in range(k):
                cross = -m.T @ (w_c_b * c_d[a]).sum(axis=1)[inverse]
                hess[:p, p + a] = hess[p + a, :p] = cross
                for b in range(a + 1):
                    hess[p + a, p + b] = hess[p + b, p + a] = (
                        _posterior_mean(weights, live, h[a][b])
                        + (w_c_d[a] * c_d[b]).sum(axis=1)
                    )[inverse].sum()
            if not np.all(np.isfinite(hess)):
                return None
        self.modes = modes[inverse]
        return float((values[inverse] + c).sum()), score, hess

    def stacked(self, theta, rows):
        """The objective at a stack of one point, in the form
        :func:`~glgmix._newton.maximise` takes; NaN where unavailable."""
        found = self(theta[0])
        if found is None:
            return np.full(1, np.nan), np.full(theta.shape, np.nan), np.full((1, *theta.shape), np.nan)
        loglik, score, hess = found
        return np.array([loglik]), score[None], hess[None]


def _order_adequate(dataset, params, loglik, options, init):
    """Whether the log-likelihood at twice the order agrees within
    ``_ORDER_TOL_PER_CLUSTER`` per cluster.  The integrand does not depend
    on the rule, so the fit's last modes ``init`` warm-start its searches."""
    try:
        finer = _log_likelihood(dataset, params, gauss_hermite(2 * options.order), init)
    except ModeSearchError:
        return False
    return abs(finer - loglik) <= _ORDER_TOL_PER_CLUSTER * dataset.n_clusters


def fit(dataset, init=None, options=None):
    """Maximize the marginal likelihood over (beta, log sigma, lam).

    The damped Newton ascent shared with the MNB fit, on the exact score
    with Louis' observed information as the Hessian.  A step is halved
    until the log-likelihood does not fall, unless max |score| is below
    1e-3 before or after it; each try costs one batch of nodes.  Converged
    means max |score| < ``_SCORE_TOL`` and a log-likelihood that moves by at
    most 1e-6 per cluster at twice the quadrature order.  Standard errors
    invert the same Hessian at the estimate.  Defaults start beta at the
    independence Poisson fit, sigma at 0.5, and lam at 0.1.
    """
    options = options or PglgFitOptions()
    _check_design_rank(dataset)

    p = dataset.p
    free_lambda = options.fix_lambda is None and not options.tie_sigma_lambda
    start = init if init is not None else PglgParams(
        beta=_poisson_irls(dataset), sigma=0.5, lam=0.1)
    theta = np.append(start.beta, math.log(start.sigma))
    if free_lambda:
        theta = np.append(theta, start.lam)

    objective = _Objective(dataset, options)
    climb = maximise(objective.stacked, theta[None], _SCORE_TOL, _MAX_ITER)
    if not climb.started[0]:  # raises, naming the clusters, when a mode search is the cause
        log_likelihood(dataset, objective.to_params(theta), objective.rule)
        raise ModeSearchError(
            "log-likelihood, score or information not finite at the start", last_iterate=None
        )
    theta, loglik, trace = climb.theta[0], float(climb.loglik[0]), climb.traces[0]

    params_hat = objective.to_params(theta)
    converged = climb.converged[0] and _order_adequate(
        dataset, params_hat, loglik, options, objective.modes
    )
    std_errors = _pglg_standard_errors(climb.hess[0], params_hat.sigma, p)

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
        n_iterations=len(trace) - 1,
        converged=bool(converged),
        trace=tuple(trace),
        z_defined=tuple(z_defined),
    )


def _pglg_standard_errors(hess, sigma, p):
    """Inverse of minus the Hessian with the log-sigma row ``p`` mapped
    back to sigma by the delta method."""
    try:
        cov = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        return None
    scale = np.ones(hess.shape[0])
    scale[p] = sigma
    var = np.diag(cov) * scale ** 2
    if not np.all(np.isfinite(var)) or np.any(var <= 0):
        return None
    return np.sqrt(var)
