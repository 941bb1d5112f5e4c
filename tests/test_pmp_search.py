"""Optimality structure along the singular arc and the independent search.

The direct search is evidence, not proof, of global optimality: sampled
profiles and search results must never exceed the closed-form optimum, and
the search must rediscover the analytic structure (linear interior, entry
angle, slope) without being told about it.
"""

import math
import time

import numpy as np
import pytest

from doublelambda import (
    IntegratorOptions,
    InvalidAlpha,
    InvalidSearchSettings,
    optimal_efficiency_closed,
    optimize_piecewise,
    piecewise_efficiency,
    piecewise_efficiency_and_grad,
    propagate_reduced,
    sampled_profile_efficiencies,
    singular_arc_checks,
    singular_slope,
    solve_theta0,
    tabulated_protocol,
    verify_singular_arc,
)


# ---------------------------------------------------------------------------
# Singular-arc verification
# ---------------------------------------------------------------------------

def test_arc_ratio_constant_at_100():
    arc = verify_singular_arc(100.0)
    checks = singular_arc_checks(arc)
    assert arc.theta0 == pytest.approx(1.540568, abs=1e-5)
    assert checks["ratio_residual"] < 1e-6  # y/x pinned to tan(theta0)
    assert np.max(np.abs(arc.y / arc.x - math.tan(arc.theta0))) < 1e-6


def test_arc_switching_function_and_hamiltonian():
    for alpha in (1.0, 10.0, 100.0):
        checks = singular_arc_checks(verify_singular_arc(alpha))
        assert checks["max_abs_phi"] < 1e-8
        assert checks["hc_drift"] < 1e-8


def test_arc_feedback_law_at_10():
    checks = singular_arc_checks(verify_singular_arc(10.0))
    assert checks["feedback_residual"] < 1e-8


def test_arc_orthogonality_identity():
    # lambda_x y + lambda_y x = 0 holds identically for the closed-form
    # costates.
    for alpha in (0.5, 7.0, 64.0):
        checks = singular_arc_checks(verify_singular_arc(alpha))
        assert checks["orthogonality"] < 1e-14


def test_arc_costates_solve_adjoint_equations():
    for alpha in (1.0, 10.0, 100.0):
        checks = singular_arc_checks(verify_singular_arc(alpha))
        assert checks["adjoint_fd_residual"] < 1e-8
        assert checks["adjoint_integration_error"] < 1e-8


def test_arc_hamiltonian_value():
    # On the arc H_c = x/(4 y) = 1/(4 tan(theta0)), constant.
    arc = verify_singular_arc(25.0)
    assert arc.hc[0] == pytest.approx(1.0 / (4.0 * math.tan(arc.theta0)), rel=1e-10)


# ---------------------------------------------------------------------------
# Piecewise evaluator cross-checks
# ---------------------------------------------------------------------------

def test_piecewise_efficiency_reproduces_closed_forms():
    for alpha in (1.0, 10.0, 100.0):
        theta0 = solve_theta0(alpha)
        u_s = singular_slope(theta0)
        eff = piecewise_efficiency([theta0, theta0 - u_s * alpha], alpha)
        assert eff == pytest.approx(optimal_efficiency_closed(alpha), abs=1e-13)
        ramp = piecewise_efficiency(np.linspace(np.pi / 2, 0.0, 33), alpha)
        from doublelambda import constant_efficiency_closed

        assert ramp == pytest.approx(constant_efficiency_closed(alpha), abs=1e-12)


def test_piecewise_efficiency_agrees_with_rk4():
    rng = np.random.default_rng(4)
    alpha = 30.0
    for _ in range(5):
        th = rng.uniform(0.0, np.pi / 2, 9)
        z = np.linspace(0.0, alpha, 9)
        prof = tabulated_protocol(z, th)
        rk = propagate_reduced(prof, opts=IntegratorOptions(steps_per_unit=500)).efficiency
        assert piecewise_efficiency(th, alpha) == pytest.approx(rk, abs=1e-8)


# ---------------------------------------------------------------------------
# Discrete-adjoint gradient
# ---------------------------------------------------------------------------

def _fd_gradient(thetas, alpha, h=1e-4):
    """Finite-difference gradient of piecewise_efficiency.

    Fourth-order central differences inside the box; second-order one-sided
    differences pointing into it for knots on a bound.
    """
    th = np.asarray(thetas, dtype=float)
    grad = np.empty(th.size)
    for i in range(th.size):
        def f(d):
            t = th.copy()
            t[i] += d
            return piecewise_efficiency(t, alpha)

        if th[i] <= 0.0:
            grad[i] = (-3.0 * f(0.0) + 4.0 * f(h) - f(2.0 * h)) / (2.0 * h)
        elif th[i] >= np.pi / 2:
            grad[i] = (3.0 * f(0.0) - 4.0 * f(-h) + f(-2.0 * h)) / (2.0 * h)
        else:
            grad[i] = (f(-2.0 * h) - 8.0 * f(-h) + 8.0 * f(h) - f(2.0 * h)) / (12.0 * h)
    return grad


def _assert_gradient_matches(thetas, alpha, h=1e-4):
    eta, grad = piecewise_efficiency_and_grad(thetas, alpha)
    assert eta == piecewise_efficiency(thetas, alpha)  # bit for bit
    fd = _fd_gradient(thetas, alpha, h)
    assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(grad))


@pytest.mark.parametrize("alpha", [0.05, 0.5, 10.0, 150.0, 6000.0])
@pytest.mark.parametrize("n_segments", [2, 6, 24])
def test_adjoint_gradient_matches_central_differences(alpha, n_segments):
    rng = np.random.default_rng(n_segments)
    for _ in range(3):
        _assert_gradient_matches(rng.uniform(0.01, np.pi / 2 - 0.01, n_segments + 1), alpha)


def test_adjoint_gradient_at_quarter_slope():
    # u = 1/4 exactly: k^2 = 0, and the differences straddle the switch
    # between the hyperbolic and trigonometric branches
    for alpha, thetas in ((4.0, [1.25, 1.0, 0.75, 0.5, 0.25]), (2.0, [1.5, 1.25, 0.75])):
        dz = alpha / (len(thetas) - 1)
        assert (thetas[0] - thetas[1]) / dz == 0.25
        _assert_gradient_matches(thetas, alpha, h=1e-5)


def test_adjoint_gradient_with_knots_on_the_bounds():
    for alpha in (0.5, 10.0, 100.0):
        thetas = [np.pi / 2, np.pi / 2, 1.0, 0.3, 0.0, 0.0]
        _assert_gradient_matches(thetas, alpha, h=1e-5)


def test_adjoint_value_clips_like_piecewise_efficiency():
    thetas = np.array([2.0, 1.2, 0.4, -0.3])
    eta, _ = piecewise_efficiency_and_grad(thetas, 7.0)
    assert eta == piecewise_efficiency(thetas, 7.0)


# ---------------------------------------------------------------------------
# Sampled dominance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [1.0, 10.0, 100.0])
def test_random_profiles_never_beat_the_bound(alpha):
    effs = sampled_profile_efficiencies(alpha, 1000, seed=2024)
    assert effs.max() <= optimal_efficiency_closed(alpha) + 1e-9
    assert np.all(effs >= 0.0)


# ---------------------------------------------------------------------------
# Direct search
# ---------------------------------------------------------------------------

def test_search_is_deterministic():
    a = optimize_piecewise(50.0, 8, seed=11, budget=5_000)
    b = optimize_piecewise(50.0, 8, seed=11, budget=5_000)
    assert a.efficiency == b.efficiency
    assert np.array_equal(a.knots, b.knots)
    assert a.evaluations == b.evaluations


def test_search_respects_bound_and_band():
    bound = optimal_efficiency_closed(100.0)
    res = optimize_piecewise(100.0, 64, seed=7, budget=60_000)
    assert res.efficiency <= bound + 1e-9
    assert res.efficiency >= bound - 1e-3
    assert res.evaluations <= 60_000


def test_low_dimensional_search_converges_to_bound():
    bound = optimal_efficiency_closed(100.0)
    res = optimize_piecewise(100.0, 2, seed=7, budget=50_000)
    assert res.converged
    assert res.efficiency == pytest.approx(bound, abs=1e-9)
    assert res.efficiency <= bound + 1e-9


def test_search_recovers_linear_interior_and_slope_small_alpha():
    alpha = 0.5
    res = optimize_piecewise(alpha, 8, seed=3, budget=40_000, n_starts=4)
    z, th = res.knots[:, 0], res.knots[:, 1]
    coeffs = np.polyfit(z, th, 1)
    # interior approximately linear: tiny residual around the fitted line
    assert np.max(np.abs(np.polyval(coeffs, z) - th)) < 1e-3
    theta0 = solve_theta0(alpha)
    u_s = singular_slope(theta0)
    assert theta0 == pytest.approx(np.pi / 4, abs=0.1)
    assert coeffs[0] == pytest.approx(-u_s, rel=0.02)
    assert th[0] == pytest.approx(theta0, abs=5e-3)


def test_search_budget_exhaustion_flag():
    res = optimize_piecewise(10.0, 16, seed=0, budget=5)
    assert not res.converged
    assert res.evaluations <= 5


def test_search_validation():
    with pytest.raises(ValueError):
        optimize_piecewise(10.0, 1, seed=0, budget=100)
    with pytest.raises(ValueError):
        optimize_piecewise(10.0, 4, seed=0, budget=0)
    with pytest.raises(InvalidSearchSettings):
        optimize_piecewise(10.0, 4, seed=0, n_starts=0)
    for alpha in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(InvalidAlpha):
            optimize_piecewise(alpha, 4, seed=0, budget=100)


def test_search_runtime_within_budget():
    t0 = time.perf_counter()
    res = optimize_piecewise(100.0, 64, seed=7, budget=60_000)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert res.efficiency > 0.908
