"""The scalar digamma and trigamma against 40-digit mpmath."""

import mpmath
import numpy as np
import pytest

from glgmix._special import _ASYMPTOTIC_X, digamma, trigamma

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
