"""Scalar digamma and trigamma in plain-float ``math`` code.

The GLG law needs them at q = lam^-2 and the MNB dispersion terms at
phi + y+ for cluster totals past the cumulative tables of
:mod:`glgmix.mnb_model`; both call sites pass one float at a time, so a
Python loop over floats beats any array routine.  Below ``_ASYMPTOTIC_X``
the recurrences psi(x) = psi(x + 1) - 1/x and psi'(x) = psi'(x + 1) +
1/x^2 move the argument up; from there the asymptotic series in 1/x^2
(Bernoulli-number coefficients) is accurate to a few ulps.
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
