"""Gauss-Hermite rules and adaptive (mode-recentred) log-domain integration.

The integrals of interest are ``I_i = int exp(g_i(b)) db``, one per
cluster, with each ``g_i`` smooth and concave: the marginal likelihood
``log I_i``, and posterior means ``int h(b) exp(g_i(b)) db / I_i`` (of a
random intercept, or by Fisher's identity the score).  A fixed
Gauss-Hermite rule applied to such an integrand is accurate only if the
integrand mass sits near 0 with unit width, so one batched engine,
:func:`adaptive_nodes`, first locates the mode of every ``g_i`` by exact
Newton on the closed-form derivatives the caller supplies, rescales by
the curvature there, and only then lays out the rule (Liu & Pierce 1994).
It returns the log integrals with the nodes and their normalised
weights, and a caller reduces those to the posterior means it needs.
The integrand itself is evaluated on the nodes only.  Components are
independent, so a caller passes each distinct integrand once:
:mod:`~glgmix.pglg_model` integrates once per distinct cluster total
(y+, mu+) and maps the results back to the clusters that share it.

A rule's nodes are the eigenvalues of the symmetric tridiagonal Jacobi
matrix of the Hermite polynomials (Golub & Welsch 1969), polished by one
Newton step, and its weights come from the normalised Hermite polynomial
of one degree less: :func:`_hermgauss` is NumPy's ``hermgauss`` step for
step, and gives the same rule bit for bit without loading
``numpy.polynomial``.  Rules are built once per order and process; the
log-sum-exp of the nodes is the row-maximum shift below.
"""

import functools

import numpy as np

from ._record import record
from .errors import DomainError

MAX_ORDER = 200
DEFAULT_ORDER = 40

_MODE_MAX_ITER = 100
_MODE_STEP_CAP = 10.0  # trust cap on a single Newton displacement
_EPS = np.finfo(float).eps
_SQRT_EPS = np.sqrt(_EPS)


@record
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
    nodes, weights = _hermgauss(order)
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def _normed_hermite(x, n):
    """The normalised Hermite polynomial of degree ``n`` at ``x``, by the
    three-term recurrence (the physicists' polynomials overflow past
    degree 206)."""
    if n == 0:
        return np.full(x.shape, 1 / np.sqrt(np.sqrt(np.pi)))
    c0 = 0.0
    c1 = 1.0 / np.sqrt(np.sqrt(np.pi))
    nd = float(n)
    for _ in range(n - 1):
        c0, c1 = -c1 * np.sqrt((nd - 1.0) / nd), c0 + c1 * x * np.sqrt(2.0 / nd)
        nd -= 1.0
    return c0 + c1 * x * np.sqrt(2)


def _hermgauss(n):
    """Nodes and weights of the order-``n`` Gauss-Hermite rule, computed
    as NumPy's ``hermgauss`` computes them."""
    # the symmetric companion matrix of H_n; eigvalsh reads its lower triangle
    x = np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1, n)), -1))
    x -= _normed_hermite(x, n) / (_normed_hermite(x, n - 1) * np.sqrt(2 * n))
    # w_k is proportional to 1 / p_{n-1}(x_k)^2, scaled against overflow
    fm = _normed_hermite(x, n - 1)
    fm /= np.abs(fm).max()
    w = 1 / (fm * fm)
    w = (w + w[::-1]) / 2  # the rule is symmetric about 0
    x = (x - x[::-1]) / 2
    w *= np.sqrt(np.pi) / w.sum()
    return x, w


def _logsumexp(terms):
    """log of sum(exp(terms)) along axis 1, shifted by each row's maximum
    (a non-finite maximum shifts by 0): a row of -inf gives -inf, a +inf
    gives +inf, and a NaN gives NaN."""
    top = terms.max(axis=1)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(terms - shift[:, None]).sum(axis=1)) + shift


def _find_mode_batch(derivatives, init):
    """Exact Newton on g' for a batch of integrands at once.

    ``derivatives`` maps positions b of shape (n,), one per integrand, to
    the pair (g'(b), g''(b)).  Where g'' < 0 the step is -g'/g'', capped at
    ``_MODE_STEP_CAP``; elsewhere it is the cap in the direction of g'.
    Each component keeps a bracket of the last positions where g' was
    positive and negative.  A step that leaves the bracket is replaced by
    its midpoint, and so is a step larger than half the step before last
    (Numerical Recipes' rtsafe rule: Newton is crawling, as it does down
    an exponential wall); without a far end to halve towards, such a
    crawl takes the capped step instead.  That capped jump lands on new
    ground, so the step after it is judged against the jump, not against
    the crawl step before it.  (After a midpoint the step before last
    stays the yardstick: on a wall, bisecting twice in a row beats a
    Newton crawl in between.)  A component converges once its
    step is within rounding of max(1, |b|), so the mode is a root of g' to
    rounding.  It fails where g' is NaN, staying there, where g'' at the
    mode is not finite and negative, or after ``_MODE_MAX_ITER`` steps.
    Returns (modes, curvatures, failed_mask), the curvature being
    g''(mode); a failed component's mode is its last iterate.
    """
    b = np.array(init, dtype=float)
    lo = np.full_like(b, -np.inf)
    hi = np.full_like(b, np.inf)
    last = np.full_like(b, np.inf)  # sizes of the last two steps
    before = np.full_like(b, np.inf)
    curv = np.full_like(b, np.nan)
    active = np.ones(b.shape, dtype=bool)
    failed = np.zeros(b.shape, dtype=bool)

    # NaN and infinite derivatives are handled below, not warned about
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MODE_MAX_ITER):
            grad, hess = derivatives(b)
            lo = np.where(grad > 0, b, lo)
            hi = np.where(grad < 0, b, hi)
            concave = (hess < 0) & (hess > -np.inf)
            step = np.where(concave, -grad / hess, np.sign(grad) * _MODE_STEP_CAP)
            step = np.minimum(np.maximum(step, -_MODE_STEP_CAP), _MODE_STEP_CAP)
            new = b + step
            # a step heads away from b, the end just set, so it leaves the
            # bracket only past a finite far end; steps below sqrt(eps) are
            # quadratic Newton or rounding noise, never a crawl
            outside = (new != b) & ~((lo < new) & (new < hi))
            replace = outside | (np.abs(step) > np.maximum(0.5 * before, _SQRT_EPS))
            if replace.any():
                bracketed = hi - lo < np.inf
                far = np.where(bracketed, 0.5 * (lo + hi), b + np.sign(step) * _MODE_STEP_CAP)
                new = np.where(replace, far, new)
                # a capped jump lands on new ground: the next step is judged
                # against the jump, not against the crawl step before it
                last = np.where(replace & ~bracketed, np.abs(new - b), last)
            before, last = last, np.abs(new - b)

            done = active & (last <= _EPS * np.maximum(1.0, np.abs(b)))
            curv = np.where(done, hess, curv)
            failed |= active & np.isnan(grad)
            active &= ~(done | failed)
            if not active.any():
                break
            b = np.where(active, new, b)
        else:
            failed |= active  # ran out of iterations

    failed |= ~((curv < 0) & (curv > -np.inf))
    return b, curv, failed


def adaptive_nodes(log_integrand, derivatives, rule, init):
    """The rule laid out around each component's mode.

    ``log_integrand`` maps positions of shape (n, order) to values of the
    same shape (component i at its own positions), and ``derivatives``
    maps positions of shape (n,) to (g'_i, g''_i) there, as
    :func:`_find_mode_batch` takes them.  Returns (values,
    points, weights, failed, modes): log ``int exp(g_i(b)) db``, NaN where
    the mode search failed (callers attach their own context); the points
    ``mode + sqrt(2) * (-g''(mode))^(-1/2) * node``; weights such that
    ``(weights * h(points)).sum(axis=1)`` is the mean of h under the
    density proportional to ``exp(g_i)``; the failed mask; and the modes
    (a failed search's last iterate), which can warm-start the next call.
    """
    b_hat, curv, failed = _find_mode_batch(derivatives, init)
    h_hat = np.where(failed, 1.0, (-np.where(failed, -1.0, curv)) ** -0.5)

    points = b_hat[:, None] + np.sqrt(2.0) * h_hat[:, None] * rule.nodes[None, :]
    g_vals = np.asarray(log_integrand(points), dtype=float)
    terms = np.log(rule.weights)[None, :] + g_vals + (rule.nodes ** 2)[None, :]
    log_sum = _logsumexp(terms)
    with np.errstate(invalid="ignore"):
        weights = np.exp(terms - log_sum[:, None])
    values = log_sum + 0.5 * np.log(2.0) + np.log(h_hat)
    return np.where(failed, np.nan, values), points, weights, failed, b_hat

