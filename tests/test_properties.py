"""Property-based checks over optical densities spanning many decades.

Examples are derandomized so that the suite is reproducible; each property
still sees a spread of alphas, segment counts, seeds, rates and fields.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from doublelambda import (
    DriveFields,
    NonFinite,
    Rates,
    SingularSystem,
    coherence_residuals,
    constant_efficiency_closed,
    constant_protocol,
    optimal_efficiency_closed,
    optimal_protocol,
    optimize_piecewise,
    piecewise_efficiency,
    propagate_piecewise_exact,
    propagate_reduced,
    segment_step,
    steady_coherences,
    tabulated_protocol,
    theta0_complement,
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


@PROPERTY
@given(alpha=log_uniform(1e-12, 1e300))
def test_optimal_knots_stay_in_range_at_any_alpha(alpha):
    knots = optimal_protocol(alpha).knots
    assert all(0.0 <= theta <= np.pi / 2 for _, theta in knots)
    assert knots[-1][1] == theta0_complement(alpha)


@PROPERTY
@given(dz=log_uniform(1e-3, 1e3), e=st.floats(-1e-9, 1e-9),
       y=st.floats(-1.0, 1.0), x=st.floats(-1.0, 1.0))
def test_segment_step_continuous_across_zero_k(dz, e, y, x):
    # u = 1/4 is k^2 = 0, where the hyperbolic and trigonometric branches meet
    at = segment_step(y, x, 0.25, dz)
    near = segment_step(y, x, 0.25 + e, dz)
    for a, b in zip(near, at):
        assert abs(a - b) <= 10.0 * abs(e)


@PROPERTY
@given(alpha=log_uniform(1e-3, 1e3),
       thetas=st.lists(st.floats(0.0, np.pi / 2), min_size=3, max_size=33))
def test_piecewise_efficiency_matches_uniform_knot_table(alpha, thetas):
    eta = piecewise_efficiency(thetas, alpha)
    assert 0.0 <= eta <= 1.0
    z = np.linspace(0.0, alpha, len(thetas))
    final = propagate_piecewise_exact(tabulated_protocol(z, thetas))
    assert eta == pytest.approx(final.omega_s**2, abs=1e-12)


RATES = st.builds(
    Rates,
    gamma31=st.floats(0.1, 10.0),
    gamma41=st.floats(0.1, 10.0),
    gamma21=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)


def complex_arrays(size, min_magnitude, max_magnitude):
    return arrays(complex, size, elements=st.complex_numbers(
        min_magnitude=min_magnitude, max_magnitude=max_magnitude,
        allow_nan=False, allow_infinity=False))


@PROPERTY
@given(rates=RATES, data=st.data())
def test_array_steady_solve_matches_scalar_solves(rates, data):
    # weak probe and signal, controls bounded away from zero
    n = data.draw(st.integers(1, 24))
    op, os_ = data.draw(complex_arrays(n, 0.0, 0.1)), data.draw(complex_arrays(n, 0.0, 0.1))
    oc, od = data.draw(complex_arrays(n, 0.1, 3.0)), data.draw(complex_arrays(n, 0.1, 3.0))
    fields = DriveFields(op, os_, oc, od)
    sol = steady_coherences(fields, rates)
    for r in coherence_residuals(fields, rates, sol):
        assert r.shape == (n,)
        assert np.max(np.abs(r)) <= 1e-12
    for i in range(n):
        one = steady_coherences(DriveFields(op[i], os_[i], oc[i], od[i]), rates)
        assert isinstance(one.rho21, complex)
        assert (one.rho21, one.rho31, one.rho41) == (sol.rho21[i], sol.rho31[i], sol.rho41[i])

    # one bad point spoils the whole array
    i = data.draw(st.integers(0, n - 1))
    bad = oc.copy()
    bad[i] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan, complex(0.0, np.inf)]))
    with pytest.raises(NonFinite):
        steady_coherences(DriveFields(op, os_, bad, od), rates)
    off_c, off_d = oc.copy(), od.copy()
    off_c[i] = off_d[i] = 0.0
    if rates.gamma21 == 0.0:
        with pytest.raises(SingularSystem):
            steady_coherences(DriveFields(op, os_, off_c, off_d), rates)
    else:
        off = steady_coherences(DriveFields(op, os_, off_c, off_d), rates)
        assert off.rho21[i] == 0.0


@PROPERTY
@given(alpha=log_uniform(0.05, 300.0), data=st.data())
def test_reduced_norm_never_grows_on_decreasing_tables(alpha, data):
    n = data.draw(st.integers(2, 17))
    widths = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1)))
    thetas = data.draw(st.lists(st.floats(0.0, np.pi / 2), min_size=n, max_size=n))
    z = np.concatenate([[0.0], np.cumsum(widths)]) * (alpha / widths.sum())
    z[-1] = alpha
    traj = propagate_reduced(tabulated_protocol(z, sorted(thetas, reverse=True)))
    assert np.all(np.diff(traj.norm_sq) <= 1e-12)
    assert 0.0 <= traj.efficiency <= 1.0
