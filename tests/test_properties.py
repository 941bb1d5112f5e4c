"""Property-based checks over optical densities spanning many decades.

Examples are derandomized so that the suite is reproducible; each property
still sees a spread of alphas, segment counts and seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelambda import (
    constant_efficiency_closed,
    constant_protocol,
    optimal_efficiency_closed,
    optimal_protocol,
    optimize_piecewise,
    propagate_piecewise_exact,
    tabulated_protocol,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: float(10.0**e))


@PROPERTY
@given(alpha=log_uniform(1e-6, 1e4))
def test_closed_forms_match_segment_propagation(alpha):
    # rounding in the segment exponentials grows in proportion to alpha
    tol = 1e-15 * max(alpha, 1e3)
    for protocol, closed in ((optimal_protocol, optimal_efficiency_closed),
                             (constant_protocol, constant_efficiency_closed)):
        final = propagate_piecewise_exact(protocol(alpha))
        assert abs(final.omega_s) ** 2 == pytest.approx(closed(alpha), abs=tol)


@settings(PROPERTY, max_examples=25)
@given(alpha=log_uniform(0.05, 300.0), n_segments=st.integers(2, 16),
       seed=st.integers(0, 2**31 - 1))
def test_search_never_beats_the_bound_and_reloads(alpha, n_segments, seed):
    res = optimize_piecewise(alpha, n_segments, seed=seed)
    assert res.efficiency <= optimal_efficiency_closed(alpha) + 1e-9
    z, theta = res.knots.T
    reloaded = propagate_piecewise_exact(tabulated_protocol(z, theta)).omega_s
    assert abs(reloaded) ** 2 == pytest.approx(res.efficiency, abs=1e-12)
