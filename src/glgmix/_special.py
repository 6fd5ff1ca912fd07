"""Scalar digamma, trigamma and the standard normal quantile in
plain-float ``math`` code.

The GLG law needs them at q = lam^-2 and the MNB dispersion terms at
phi + y+ for cluster totals past the cumulative tables of
:mod:`glgmix.mnb_model`; both call sites pass one float at a time, so a
Python loop over floats beats any array routine.  Below ``_ASYMPTOTIC_X``
the recurrences psi(x) = psi(x + 1) - 1/x and psi'(x) = psi'(x + 1) +
1/x^2 move the argument up; from there the asymptotic series in 1/x^2
(Bernoulli-number coefficients) is accurate to a few ulps.

:func:`ndtri` is Wichura's AS241 rational approximation, as the standard
library's ``statistics.NormalDist().inv_cdf`` computes it, so the normal
QQ positions load no ``statistics`` module.
"""

import math

_ASYMPTOTIC_X = 10.0

# B_2k / (2k) for k = 1..7: psi(x) ~ log x - 1/(2x) - sum_k c_k x^-2k
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
# B_2k for k = 1..8: psi'(x) ~ 1/x + 1/(2x^2) + sum_k B_2k x^-(2k+1)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _series(coefs, w):
    # sum_k coefs[k] w^(k+1), by Horner from the highest power
    out = 0.0
    for c in reversed(coefs):
        out = (out + c) * w
    return out


def digamma(x):
    """psi(x) = d log Gamma(x) / dx for a float x > 0."""
    shift = 0.0
    while x < _ASYMPTOTIC_X:
        shift += 1.0 / x
        x += 1.0
    return math.log(x) - 0.5 / x - _series(_DIGAMMA_SERIES, 1.0 / (x * x)) - shift


def trigamma(x):
    """psi'(x) = d^2 log Gamma(x) / dx^2 for a float x > 0."""
    shift = 0.0
    while x < _ASYMPTOTIC_X:
        shift += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    return shift + inv * (1.0 + 0.5 * inv + _series(_TRIGAMMA_SERIES, inv * inv))


def ndtri(p):
    """The standard normal quantile at a float p in (0, 1): Wichura's
    AS241 (Appl. Statist. 37:477, 1988), operation for operation as the
    pure-Python ``statistics.NormalDist().inv_cdf(p)``.  Its C accelerator
    gives the same float on x86-64 builds of CPython 3.11; a build that
    fuses the C code's multiply-adds may differ in the last bit."""
    q = p - 0.5
    if math.fabs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e+3 * r +
                     3.3430575583588128105e+4) * r +
                     6.7265770927008700853e+4) * r +
                     4.5921953931549871457e+4) * r +
                     1.3731693765509461125e+4) * r +
                     1.9715909503065514427e+3) * r +
                     1.3314166789178437745e+2) * r +
                     3.3871328727963666080e+0) * q
        den = (((((((5.2264952788528545610e+3 * r +
                     2.8729085735721942674e+4) * r +
                     3.9307895800092710610e+4) * r +
                     2.1213794301586595867e+4) * r +
                     5.3941960214247511077e+3) * r +
                     6.8718700749205790830e+2) * r +
                     4.2313330701600911252e+1) * r +
                     1.0)
        return num / den
    r = p if q <= 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r = r - 1.6
        num = (((((((7.74545014278341407640e-4 * r +
                     2.27238449892691845833e-2) * r +
                     2.41780725177450611770e-1) * r +
                     1.27045825245236838258e+0) * r +
                     3.64784832476320460504e+0) * r +
                     5.76949722146069140550e+0) * r +
                     4.63033784615654529590e+0) * r +
                     1.42343711074968357734e+0)
        den = (((((((1.05075007164441684324e-9 * r +
                     5.47593808499534494600e-4) * r +
                     1.51986665636164571966e-2) * r +
                     1.48103976427480074590e-1) * r +
                     6.89767334985100004550e-1) * r +
                     1.67638483018380384940e+0) * r +
                     2.05319162663775882187e+0) * r +
                     1.0)
    else:
        r = r - 5.0
        num = (((((((2.01033439929228813265e-7 * r +
                     2.71155556874348757815e-5) * r +
                     1.24266094738807843860e-3) * r +
                     2.65321895265761230930e-2) * r +
                     2.96560571828504891230e-1) * r +
                     1.78482653991729133580e+0) * r +
                     5.46378491116411436990e+0) * r +
                     6.65790464350110377720e+0)
        den = (((((((2.04426310338993978564e-15 * r +
                     1.42151175831644588870e-7) * r +
                     1.84631831751005468180e-5) * r +
                     7.86869131145613259100e-4) * r +
                     1.48753612908506148525e-2) * r +
                     1.36929880922735805310e-1) * r +
                     5.99832206555887937690e-1) * r +
                     1.0)
    x = num / den
    return -x if q < 0.0 else x
