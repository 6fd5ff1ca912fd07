"""The scalar digamma and trigamma against 40-digit mpmath, and the normal
quantile against the standard library's.

``NormalDist().inv_cdf`` runs CPython's C accelerator where there is one.
Its bits match ``ndtri``'s on x86-64 builds of CPython 3.11, where these
tests were checked; a build whose C compiler fuses multiply-adds may round
differently in the last bit, and these tests would show it."""

import math
import statistics

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glgmix._special import _ASYMPTOTIC_X, digamma, ndtri, trigamma

# a geometric grid over [1e-3, 1e6], plus points around the switch from
# the recurrence to the asymptotic series and near digamma's positive root
GRID = np.concatenate([
    np.geomspace(1e-3, 1e6, 301),
    _ASYMPTOTIC_X + np.array([-1.0, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1.0]),
    [1.4616321449683622, 0.5, 1.0, 2.0],
]).tolist()


@pytest.mark.parametrize(
    "ours, ref",
    [(digamma, mpmath.digamma), (trigamma, lambda x: mpmath.polygamma(1, x))],
    ids=["digamma", "trigamma"],
)
def test_against_mpmath(ours, ref):
    with mpmath.workdps(40):
        worst = max(
            abs(ours(x) - float(ref(mpmath.mpf(x)))) / max(1.0, abs(float(ref(mpmath.mpf(x)))))
            for x in GRID
        )
    assert worst <= 1e-14


def test_plain_float_results():
    assert type(digamma(3.0)) is float and type(trigamma(3.0)) is float


INV_CDF = statistics.NormalDist().inv_cdf


def same_float(a, b):
    # equal bits: -0.0 and 0.0 differ
    return math.copysign(1.0, a) == math.copysign(1.0, b) and a == b


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_ndtri_is_inv_cdf(p):
    assert same_float(ndtri(p), INV_CDF(p))


@pytest.mark.parametrize("n", [1, 2, 3, 19, 99, 100, 1000, 4321, 10_000])
def test_ndtri_at_plotting_positions(n):
    for k in range(1, n + 1):
        p = (k - 0.375) / (n + 0.25)
        assert same_float(ndtri(p), INV_CDF(p)), (n, k)


def test_ndtri_at_branch_switches_and_tails():
    # |p - 1/2| = 0.425 and r = 5 switch branches; the tails reach 1e-300 and 1 - 1e-16
    points = [0.075, 0.925, math.nextafter(0.075, 0), math.nextafter(0.925, 1), 0.5,
              math.exp(-25.0), math.nextafter(math.exp(-25.0), 1), 1 - math.exp(-25.0),
              1 - 1e-16, math.nextafter(1.0, 0), 5e-324, 2.2250738585072014e-308]
    points += [10.0 ** -e for e in range(1, 301)] + [1 - 10.0 ** -e for e in range(1, 17)]
    for p in points:
        assert same_float(ndtri(p), INV_CDF(p)), p
