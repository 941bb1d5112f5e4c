"""Both closed forms against a 50-digit mpmath evaluation at large alpha.

The oracle evaluates the textbook expressions directly: at 50 digits the
cancellations that the library's forms avoid cost nothing.  The float
``alpha`` is taken exactly, and ``pi`` at 50 digits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelambda import constant_efficiency_closed, optimal_efficiency_closed, theta0_complement

mpmath = pytest.importorskip("mpmath")

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

#: Largest error of either closed form, in units in the last place of the
#: oracle's value; the constant form measured 3.0 and the optimal one 1.2 over
#: 300 alphas log-spaced in [1e2, 1e300].
CLOSED_FORM_ULPS = 4


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: float(10.0**e))


def optimal_reference(alpha):
    """exp(-alpha sin^2 e) sin^2((alpha/4) sin 2e), e = pi/2 - theta0 solved at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        e = mpmath.findroot(lambda e: a / 4 * mpmath.sin(2 * e) + 2 * e - mpmath.pi / 2,
                            mpmath.mpf(theta0_complement(alpha)))
        return mpmath.exp(-a * mpmath.sin(e) ** 2) * mpmath.sin(a / 4 * mpmath.sin(2 * e)) ** 2


def constant_reference(alpha):
    """exp(-alpha/2) [cosh(k alpha) + sinh(k alpha)/(4 k)]^2, k^2 = 1/16 - (pi/(2 alpha))^2."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        k = mpmath.sqrt(mpmath.mpf(1) / 16 - (mpmath.pi / (2 * a)) ** 2)
        return mpmath.exp(-a / 2) * (mpmath.cosh(k * a) + mpmath.sinh(k * a) / (4 * k)) ** 2


def ulps(got, want):
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(got) - want) / float(np.spacing(float(want))))


@PROPERTY
@given(alpha=log_uniform(1e2, 1e300))
def test_closed_forms_match_50_digit_oracle(alpha):
    assert ulps(optimal_efficiency_closed(alpha), optimal_reference(alpha)) <= CLOSED_FORM_ULPS
    assert ulps(constant_efficiency_closed(alpha), constant_reference(alpha)) <= CLOSED_FORM_ULPS


@pytest.mark.parametrize("alpha", [1e4, 1e6, 8.4e8, 1e12, 1e15])
def test_constant_closed_form_keeps_its_digits(alpha):
    # the damping -alpha/2 + 2 k alpha, summed as written, lost about eps * alpha
    assert ulps(constant_efficiency_closed(alpha), constant_reference(alpha)) <= CLOSED_FORM_ULPS


@settings(PROPERTY, max_examples=300)
@given(alpha=log_uniform(1e2, 1e15))
def test_constant_never_rounds_above_optimal(alpha):
    assert constant_efficiency_closed(alpha) <= optimal_efficiency_closed(alpha)
