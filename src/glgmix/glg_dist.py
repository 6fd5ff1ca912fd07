"""The generalized log-gamma (GLG) distribution.

Three-parameter location-scale-shape family containing the normal law
(shape 0) and the extreme-value law (shape 1); skewed right for negative
shape, left for positive shape.  Density, for shape lam != 0 and
z = (y - mu) / sigma:

    f(y) = c(lam)/sigma * exp{ z/lam - lam^-2 * exp(lam*z) },
    c(lam) = |lam| * (lam^-2)^(lam^-2) / Gamma(lam^-2),

and the N(mu, sigma^2) density for lam = 0.  Equivalently, for lam != 0,

    y = mu + (sigma/lam) * log(lam^2 * w),   w ~ Gamma(lam^-2, rate 1),

which is the representation used for sampling and for the closed-form
moments below.  See Lawless (2002, ch. 5) for background.

The special functions of q = lam^-2 are scalar ``math`` code: log-gamma
is ``math.lgamma``, digamma and trigamma come from
:mod:`glgmix._special`.  Only :func:`support_interval` needs SciPy (for
gamma quantiles), and imports it when called.
"""

import math

import numpy as np

from ._record import record
from ._special import digamma, trigamma
from .errors import DomainError, MomentExistenceError

# Below this |lam| the normal branch is used.  Gamma(lam^-2) overflows long
# before the two branches become statistically distinguishable.
LAMBDA_EPS = 1e-6

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


@record
class GlgParams:
    """Position, scale and shape of a generalized log-gamma law."""

    mu: float
    sigma: float
    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma) and np.isfinite(self.lam)):
            raise DomainError("GLG parameters must be finite")
        if self.sigma <= 0:
            raise DomainError(f"scale must be positive, got sigma={self.sigma}")

    @property
    def is_normal(self):
        """True when the shape is (numerically) zero."""
        return abs(self.lam) < LAMBDA_EPS


@record
class PglgParams:
    """Coefficients, random-effect scale, and shape of a Poisson-GLG model
    (:mod:`glgmix.pglg_model`); defined here, next to the law of its
    random effect, so that simulating from it loads no fitting code."""

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


def _log_c(lam):
    # log of the normalizing constant |lam| (lam^-2)^(lam^-2) / Gamma(lam^-2)
    q = lam ** -2.0
    return math.log(abs(lam)) + q * math.log(q) - math.lgamma(q)


# Taylor coefficients in u of the small-|u| parts of log_pdf_hess:
# (u e^u - expm1 u)/u^2 = sum_{n>=2} (n - 1) u^(n-2) / n! and
# (6 expm1 u - 3u expm1 u - 6u - u expm1 u + u^2 e^u)/u^4
#   = -sum_{n>=4} (n - 2)(n - 3) u^(n-4) / n!, through u^8.
_SERIES_S_LAM = tuple((n - 1) / math.factorial(n) for n in range(10, 1, -1))
_SERIES_LAM_LAM = tuple(-(n - 2) * (n - 3) / math.factorial(n) for n in range(12, 3, -1))
# below these |lam z| the direct forms cancel more than the series err:
# the lam-score's series, and the Hessian's two
_SERIES_GRAD_U = 0.01
_SERIES_HESS_U = 0.2


def _horner(u, coefs):
    # sum_k coefs[-1 - k] u^k, highest power first
    out = np.full_like(u, coefs[0])
    for c in coefs[1:]:
        out = out * u + c
    return out


def _terms(y, params, derivatives=True):
    """log f at ``y`` (not checked for finiteness) and, unless
    ``derivatives`` is False, the pair of :func:`log_pdf_grad` and the
    triple of :func:`log_pdf_hess`: one pass of the formulas there, from
    one z, u = lam z, e^u and expm1(u).  Each Taylor series is evaluated
    only at the points under its switch and written over the direct form
    there."""
    z = (np.asarray(y, dtype=float) - params.mu) / params.sigma
    if params.is_normal:
        log_f = -_LOG_SQRT_2PI - np.log(params.sigma) - 0.5 * z * z
        if not derivatives:
            return log_f
        z2 = z * z
        return (log_f, (-1.0 + z2, -(z2 * z) / 6.0),
                (-2.0 * z2, 0.5 * z2 * z, -1.0 / 6.0 - z2 * z2 / 12.0))
    lam = params.lam
    # exp may overflow far in the heavy tail; -inf is the correct limit of log f
    with np.errstate(over="ignore"):
        u = lam * z
        z_lam = z / lam
        e_u = np.exp(u)
        log_f = _log_c(lam) - np.log(params.sigma) + z_lam - lam ** -2.0 * e_u
    if not derivatives:
        return log_f

    if abs(lam) < 0.1:
        a = -lam / 6.0 + lam ** 5 / 60.0 - lam ** 9 / 126.0
        a_prime = -1.0 / 6.0 + lam ** 4 / 12.0 - lam ** 8 / 14.0
    else:
        q = lam ** -2.0
        a = 1.0 / lam - 2.0 * lam ** -3.0 * (math.log(q) - digamma(q))
        a_prime = (-q + 6.0 * q * q * (math.log(q) - digamma(q))
                   + 4.0 * q * q * q * (lam * lam - trigamma(q)))
    # far in the heavy tail e^u and expm1 overflow; such points carry no weight
    with np.errstate(over="ignore", invalid="ignore"):
        em1 = np.expm1(u)
        z2 = z * z
        z_lam_em1 = z_lam * em1
        two_em1 = 2.0 * em1
        u_e_u = u * e_u
        # arrays even for a scalar y, so that the series below can be written in
        d_lam = np.asarray((two_em1 - u * (em1 + 2.0)) / lam ** 3)
        h_s_lam = np.asarray((z / (lam * lam)) * (u_e_u - em1))
        h_lam_lam = np.asarray((u * (em1 - u_e_u) - 3.0 * (two_em1 - u * em1 - 2.0 * u)) / lam ** 4)
        d_s = -1.0 + z_lam_em1
        h_ss = -z_lam_em1 - z2 * e_u
    abs_u = np.abs(u)
    near = abs_u < _SERIES_GRAD_U
    z_near, u_near = z[near], u[near]
    # -z^3 sum_{n>=3} (n - 2) u^(n-3) / n!
    d_lam[near] = -(z_near * z_near * z_near) * (
        1 / 6 + u_near * (1 / 12 + u_near * (1 / 40 + u_near * (1 / 180 + u_near / 1008))))
    near = abs_u < _SERIES_HESS_U
    z_near, u_near = z[near], u[near]
    z2_near = z_near * z_near
    h_s_lam[near] = z2_near * z_near * _horner(u_near, _SERIES_S_LAM)
    h_lam_lam[near] = z2_near * z2_near * _horner(u_near, _SERIES_LAM_LAM)
    return log_f, (d_s, a + d_lam), (h_ss, h_s_lam, a_prime + h_lam_lam)


def log_pdf(y, params):
    """Log density at ``y`` (scalar or ndarray).

    Raises
    ------
    DomainError
        If any ``y`` is not finite.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("log_pdf requires finite y")
    out = _terms(y, params, derivatives=False)
    return out if out.ndim else float(out)


def log_pdf_y_derivatives(y, params):
    """First and second derivatives of :func:`log_pdf` in ``y``, as two arrays.

    With z = (y - mu)/sigma and u = lam z: -expm1(u)/(sigma lam) and
    -e^u/sigma^2, or -z/sigma and -1/sigma^2 on the normal branch.  Far in
    the heavy tail e^u overflows to inf, the correct limit.  Unlike
    :func:`log_pdf`, non-finite ``y`` is not rejected.
    """
    y = np.asarray(y, dtype=float)
    curv = -params.sigma ** -2.0
    if params.is_normal:
        return (y - params.mu) * curv, np.full_like(y, curv)
    with np.errstate(over="ignore"):
        em1 = np.expm1((y - params.mu) * (params.lam / params.sigma))
    return em1 / (-params.sigma * params.lam), (em1 + 1.0) * curv


def log_pdf_grad(y, params):
    """Derivatives of :func:`log_pdf` at ``y`` in (log sigma, lam), as two arrays.

    With z = (y - mu)/sigma, u = lam z and q = lam^-2: -1 + (z/lam) expm1(u)
    and 1/lam - 2 lam^-3 (log q + 1 - digamma(q)) - z/lam^2 + (2 lam^-3 -
    z lam^-2) e^u, or (-1 + z^2, -z^3/6) on the normal branch.  The lam^-3
    terms of the second cancel, so below |lam| = 0.1 and |u| = 0.01 its
    parts come from series (digamma's asymptotic one, and Taylor in u).
    """
    return _terms(y, params)[1]


def log_pdf_hess(y, params):
    """Second derivatives of :func:`log_pdf` at ``y`` in (log sigma, lam),
    as three arrays (ss, s-lam, lam-lam).

    With z = (y - mu)/sigma, u = lam z and q = lam^-2:

        ss        -(z/lam) expm1(u) - z^2 e^u
        s-lam     (z/lam^2)(u e^u - expm1(u))
        lam-lam   a'(lam) + [u(expm1 u - u e^u)
                             - 3(2 expm1 u - u expm1 u - 2u)]/lam^4,

    a'(lam) = -1/lam^2 + 6 lam^-4 (log q - digamma(q)) + 4 lam^-6 (lam^2 -
    trigamma(q)), or (-2 z^2, z^3/2, -1/6 - z^4/12) on the normal branch.
    The last two cancel for small arguments, so below |lam| = 0.1 a'
    comes from digamma's asymptotic series and below |u| = 0.2 the
    bracketed parts from their Taylor series.
    """
    return _terms(y, params)[2]


def pdf(y, params):
    """Density at ``y``."""
    return np.exp(log_pdf(y, params))


def mean(params):
    """E(y).

    For lam != 0 this follows from the gamma representation:
    E(y) = mu + (sigma/lam) * {digamma(lam^-2) + log(lam^2)}.  The sign of
    lam matters: mirroring the shape mirrors the mean about mu.
    """
    if params.is_normal:
        return params.mu
    q = params.lam ** -2.0
    return params.mu + params.sigma * (digamma(q) - math.log(q)) / params.lam


def variance(params):
    """Var(y) = sigma^2 * trigamma(lam^-2) / lam^2 (sigma^2 for lam = 0)."""
    if params.is_normal:
        return params.sigma ** 2
    q = params.lam ** -2.0
    return params.sigma ** 2 * trigamma(q) / params.lam ** 2


def _check_exp_moment_exists(params, k):
    # E(e^{k b}) = (lam^2)^{k sigma/lam} Gamma(q*(1 + k*lam*sigma))/Gamma(q)
    # requires a positive gamma argument; for lam < 0 that is k*sigma*|lam| < 1.
    if params.lam < 0 and k * params.sigma * abs(params.lam) >= 1.0:
        raise MomentExistenceError(
            f"E(exp({k}*b)) diverges for sigma={params.sigma}, lam={params.lam}: "
            f"need k*sigma*|lam| < 1"
        )


def exp_moment(params, k):
    """E(e^{k b}) for b ~ GLG(0, sigma, lam), k in {1, 2}.

    Uses the lognormal expression for lam = 0 and the gamma-ratio closed
    form otherwise.  For lam < 0 the underlying integral converges only
    when k*sigma*|lam| < 1; outside that region a
    :class:`MomentExistenceError` is raised.

    Parameters
    ----------
    params : GlgParams
        Must have ``mu == 0``.
    k : int
        Moment order, 1 or 2.
    """
    if k not in (1, 2):
        raise DomainError(f"k must be 1 or 2, got {k!r}")
    if params.mu != 0.0:
        raise DomainError("exp_moment is defined for mu = 0")
    if params.is_normal:
        return float(np.exp(0.5 * (k * params.sigma) ** 2))
    _check_exp_moment_exists(params, k)
    lam, sigma = params.lam, params.sigma
    q = lam ** -2.0
    log_m = ((k * sigma / lam) * math.log(lam ** 2)
             + math.lgamma(q * (1.0 + k * lam * sigma)) - math.lgamma(q))
    return float(np.exp(log_m))


def sample(params, seed, n):
    """Draw ``n`` i.i.d. variates; deterministic given ``seed``.

    ``seed`` may be an int or a ``numpy.random.Generator``.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if params.is_normal:
        return rng.normal(params.mu, params.sigma, size=n)
    lam = params.lam
    w = rng.gamma(lam ** -2.0, 1.0, size=n)
    return params.mu + (params.sigma / lam) * np.log(lam ** 2 * w)


def support_interval(params, tail=1e-7):
    """An interval carrying all but ``tail`` probability in each tail.

    Used to choose plotting grids.  Exact quantiles: the normal branch
    inverts the normal CDF, otherwise the gamma representation maps
    gamma quantiles through b = mu + (sigma/lam) log(lam^2 w).
    """
    from scipy.special import gammaincinv, ndtri  # only glg-curve needs SciPy

    if not 0.0 < tail < 0.5:
        raise DomainError(f"tail must be in (0, 0.5), got {tail}")
    if params.is_normal:
        half = abs(ndtri(tail)) * params.sigma
        return params.mu - half, params.mu + half
    lam = params.lam
    q = lam ** -2.0
    w_lo = gammaincinv(q, tail)
    w_hi = gammaincinv(q, 1.0 - tail)
    a = params.mu + (params.sigma / lam) * np.log(lam ** 2 * w_lo)
    b = params.mu + (params.sigma / lam) * np.log(lam ** 2 * w_hi)
    return (a, b) if a <= b else (b, a)
