"""Gauss-Hermite rules and adaptive (mode-recentred) log-domain integration.

The integrals of interest are ``I_i = int exp(g_i(b)) db``, one per
cluster, with each ``g_i`` smooth and concave-ish: the marginal
likelihood ``log I_i``, and posterior means ``int h(b) exp(g_i(b)) db /
I_i`` (of a random intercept, or by Fisher's identity the score).  A
fixed Gauss-Hermite rule applied to such an integrand is accurate only
if the integrand mass sits near 0 with unit width, so one batched engine,
:func:`adaptive_nodes`, first locates the mode of every ``g_i``,
rescales by the curvature there, and only then lays out the rule; the
other integrals reduce its nodes and normalised weights.

Rules come from NumPy's ``hermgauss`` and are built once per order and
process; the log-sum-exp of the nodes is the row-maximum shift below.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DomainError

MAX_ORDER = 200
DEFAULT_ORDER = 40

_MODE_MAX_ITER = 100
_MODE_STEP_CAP = 10.0  # trust cap on a single Newton displacement
# Step size below which the iterate counts as converged.  Central
# differences with step 1e-4 carry an O(h^2) bias, so Newton steps
# bottom out near 1e-8; demanding less than that loops forever.
_MODE_STEP_TOL = 1e-7


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a physicists' Gauss-Hermite rule.

    Weight function exp(-x^2): the weights sum to sqrt(pi) and the rule
    integrates polynomials up to degree ``2*order - 1`` exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@functools.lru_cache(maxsize=MAX_ORDER)
def gauss_hermite(order):
    """The Gauss-Hermite rule of the given order (1..200), built once per
    order; rules are read-only, so callers share them."""
    if not 1 <= order <= MAX_ORDER:
        raise DomainError(f"order must be in [1, {MAX_ORDER}], got {order}")
    nodes, weights = hermgauss(order)
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def _logsumexp(terms):
    """log of sum(exp(terms)) along axis 1, shifted by each row's maximum
    (a non-finite maximum shifts by 0): a row of -inf gives -inf, a +inf
    gives +inf, and a NaN gives NaN."""
    top = terms.max(axis=1)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(terms - shift[:, None]).sum(axis=1)) + shift


def _find_mode_batch(log_integrand, init):
    """Safeguarded Newton ascent on a batch of integrands at once.

    ``log_integrand`` maps an array of positions (one per integrand, shape
    (n,) or (n, k)) to values of the same shape.  Derivatives come from
    central differences; steps are capped and halved until the objective
    does not decrease.  Components freeze as they converge.  Returns
    (modes, curvatures, failed_mask), the curvature being g''(mode).
    """
    b = np.array(init, dtype=float)
    g_b = np.asarray(log_integrand(b), dtype=float)
    active = np.isfinite(g_b)
    failed = ~active
    curv_out = np.full_like(b, np.nan)

    for _ in range(_MODE_MAX_ITER):
        if not active.any():
            break
        h = 1e-4 * np.maximum(1.0, np.abs(b))
        g_plus = np.asarray(log_integrand(b + h), dtype=float)
        g_minus = np.asarray(log_integrand(b - h), dtype=float)
        # a probe can overshoot the integrand's effective support even
        # though g(b) is finite; tighten those stencils, failing any
        # component that will not yield finite probes
        broken = active & ~(np.isfinite(g_plus) & np.isfinite(g_minus))
        for _shrink in range(3):
            if not broken.any():
                break
            h = np.where(broken, h * 0.1, h)
            g_plus = np.where(broken, np.asarray(log_integrand(b + h), dtype=float), g_plus)
            g_minus = np.where(broken, np.asarray(log_integrand(b - h), dtype=float), g_minus)
            broken = active & ~(np.isfinite(g_plus) & np.isfinite(g_minus))
        if broken.any():
            failed |= broken
            active &= ~broken
            if not active.any():
                break
            g_plus = np.where(broken, g_b, g_plus)
            g_minus = np.where(broken, g_b, g_minus)
        with np.errstate(invalid="ignore"):
            grad = (g_plus - g_minus) / (2.0 * h)
            curv = (g_plus - 2.0 * g_b + g_minus) / (h * h)

        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(curv < 0, -grad / curv, np.sign(grad) * _MODE_STEP_CAP)
        step = np.clip(step, -_MODE_STEP_CAP, _MODE_STEP_CAP)

        tol = _MODE_STEP_TOL * np.maximum(1.0, np.abs(b))
        done = np.abs(step) < tol
        curv_out[active & done] = curv[active & done]
        active = active & ~done
        if not active.any():
            break

        step = np.where(active, step, 0.0)
        g_new = np.asarray(log_integrand(b + step), dtype=float)
        for _halve in range(60):
            bad = active & (~np.isfinite(g_new) | (g_new < g_b))
            # finite but descending with a sub-resolution step: converged
            stalled = bad & np.isfinite(g_new) & (curv < 0) & (np.abs(step) < tol)
            if stalled.any():
                curv_out[stalled] = curv[stalled]
                active &= ~stalled
                step = np.where(stalled, 0.0, step)
                bad &= ~stalled
            if not bad.any():
                break
            step = np.where(bad, step * 0.5, step)
            g_new = np.asarray(log_integrand(b + step), dtype=float)
        else:
            bad = active & (~np.isfinite(g_new) | (g_new < g_b))
            failed |= bad
            active &= ~bad
            step = np.where(bad, 0.0, step)
        b = b + step
        g_b = np.where(active, g_new, g_b)
    else:
        failed |= active  # ran out of iterations

    # Final curvature for components that converged on the last pass.
    pending = np.isnan(curv_out) & ~failed
    if pending.any():
        h = 1e-4 * np.maximum(1.0, np.abs(b))
        g_plus = np.asarray(log_integrand(b + h), dtype=float)
        g_minus = np.asarray(log_integrand(b - h), dtype=float)
        curv_out = np.where(pending, (g_plus - 2.0 * g_b + g_minus) / (h * h), curv_out)
    failed |= ~(curv_out < 0)
    return b, curv_out, failed


def adaptive_nodes(log_integrand, rule, init):
    """The rule laid out around each component's mode.

    ``log_integrand`` maps positions of shape (n,) or (n, order) to values
    of the same shape (component i at its own positions).  Returns (values,
    points, weights, failed, modes): log ``int exp(g_i(b)) db``, NaN where
    the mode search failed (callers attach their own context); the points
    ``mode + sqrt(2) * (-g''(mode))^(-1/2) * node``; weights such that
    ``(weights * h(points)).sum(axis=1)`` is the mean of h under the
    density proportional to ``exp(g_i)``; the failed mask; and the modes
    (a failed search's last iterate), which can warm-start the next call.
    """
    b_hat, curv, failed = _find_mode_batch(log_integrand, np.asarray(init, dtype=float))
    h_hat = np.where(failed, 1.0, (-np.where(failed, -1.0, curv)) ** -0.5)

    points = b_hat[:, None] + np.sqrt(2.0) * h_hat[:, None] * rule.nodes[None, :]
    g_vals = np.asarray(log_integrand(points), dtype=float)
    terms = np.log(rule.weights)[None, :] + g_vals + (rule.nodes ** 2)[None, :]
    log_sum = _logsumexp(terms)
    with np.errstate(invalid="ignore"):
        weights = np.exp(terms - log_sum[:, None])
    values = log_sum + 0.5 * np.log(2.0) + np.log(h_hat)
    return np.where(failed, np.nan, values), points, weights, failed, b_hat


def log_integrate_adaptive_batch(log_integrand, rule, init):
    """log of ``int exp(g_i(b)) db`` for every component i: (values,
    failed_mask, modes) of :func:`adaptive_nodes`."""
    values, _, _, failed, b_hat = adaptive_nodes(log_integrand, rule, init)
    return values, failed, b_hat


def posterior_mean_batch(log_integrand, rule, init):
    """Mean of b under each density proportional to ``exp(g_i(b))``.

    The first-moment and normalizing integrals share one recentring.
    Returns (means, failed_mask, modes) with NaN means for failed
    components, as :func:`log_integrate_adaptive_batch` does.
    """
    _, points, weights, failed, b_hat = adaptive_nodes(log_integrand, rule, init)
    return np.where(failed, np.nan, (weights * points).sum(axis=1)), failed, b_hat
