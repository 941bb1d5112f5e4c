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
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelambda import (
    IntegratorOptions,
    InvalidAlpha,
    InvalidSearchSettings,
    NonFinite,
    optimal_efficiency_closed,
    optimal_protocol,
    optimize_piecewise,
    piecewise_efficiency,
    piecewise_efficiency_and_grad,
    propagate_reduced,
    sampled_profile_efficiencies,
    singular_arc_checks,
    tabulated_protocol,
    verify_singular_arc,
)
from doublelambda import pmp_search
from doublelambda.pmp_search import SAMPLE_CHUNK, SAMPLED_KNOTS


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
        params = optimal_protocol(alpha).params
        theta0, u_s = params["theta0"], params["u_s"]
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


@pytest.mark.parametrize("alpha", [0.05, 1.0, 10.0, 100.0, 150.0])
def test_batched_samples_match_scalar_evaluation(alpha):
    # more rows than one chunk: the chunked draws continue the one-shot stream
    n = SAMPLE_CHUNK + 3
    draws = np.random.default_rng(7).uniform(0.0, math.pi / 2, (n, SAMPLED_KNOTS))
    expected = np.array([piecewise_efficiency(row, alpha) for row in draws])
    effs = sampled_profile_efficiencies(alpha, n, seed=7)
    assert effs.shape == (n,)
    assert np.max(np.abs(effs - expected)) <= 1e-15
    assert np.argmax(effs) == np.argmax(expected)


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
    params = optimal_protocol(alpha).params
    theta0, u_s = params["theta0"], params["u_s"]
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
    with pytest.raises(InvalidSearchSettings):
        optimize_piecewise(10.0, 4, seed=-1, budget=100)
    for alpha in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(InvalidAlpha):
            optimize_piecewise(alpha, 4, seed=0, budget=100)


@pytest.mark.parametrize("function", [piecewise_efficiency, piecewise_efficiency_and_grad])
def test_piecewise_efficiency_refuses_bad_inputs(function):
    # a depth _check_alpha refuses has no efficiency, and one knot no segment
    for alpha in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(InvalidAlpha):
            function([1.5, 0.2], alpha)
    for thetas in ([], [1.0], 1.0, [[1.5, 0.2], [1.0, 0.1]]):
        with pytest.raises(InvalidSearchSettings, match="at least two knots"):
            function(thetas, 1.0)


@pytest.mark.parametrize("function", [piecewise_efficiency, piecewise_efficiency_and_grad])
def test_piecewise_efficiency_refuses_nan_knots(function):
    for thetas in ([math.nan, 0.2], [1.5, math.nan, 0.2], [1.5, 0.2, math.nan]):
        with pytest.raises(NonFinite, match="NaN"):
            function(thetas, 1.0)
    # finite knots outside [0, pi/2] are still clipped
    value = function([-1.0, 0.7, 2.0], 3.0)
    assert (value[0] if isinstance(value, tuple) else value) == \
        piecewise_efficiency([0.0, 0.7, math.pi / 2], 3.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(thetas=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                       max_size=30),
       alpha=st.floats(-300.0, 5.0).map(lambda e: 10.0**e))
def test_finite_knots_give_a_finite_value(thetas, alpha):
    # the NaN check reads the value, so finite knots, clipped, must give a finite one
    assert math.isfinite(piecewise_efficiency(thetas, alpha))


@pytest.mark.parametrize("budget, converged", [(20_000, True), (7, False)])
def test_search_evaluates_once_per_counted_evaluation(monkeypatch, budget, converged):
    # L-BFGS-B takes the gradient from the objective's memo of the point it
    # just evaluated: every efficiency evaluation is one counted evaluation,
    # none of them at the point evaluated just before it
    points = []

    def counted(thetas, alpha):
        points.append(np.array(thetas, dtype=float))
        return piecewise_efficiency_and_grad(thetas, alpha)

    monkeypatch.setattr(pmp_search, "piecewise_efficiency_and_grad", counted)
    res = optimize_piecewise(10.0, 6, seed=0, budget=budget)
    assert res.converged is converged
    assert len(points) == res.evaluations
    assert not any(np.array_equal(p, q) for p, q in zip(points, points[1:]))


def test_objective_grad_reuses_the_kept_point_only():
    alpha = 10.0
    x1 = np.linspace(math.pi / 2, 0.0, 7)
    x2 = x1 * 0.9
    objective = pmp_search._BudgetedObjective(alpha, budget=2)
    assert objective.value(x1) == -piecewise_efficiency_and_grad(x1, alpha)[0]
    # the kept gradient at the point just evaluated, no second evaluation
    assert np.array_equal(objective.grad(x1.copy()), -piecewise_efficiency_and_grad(x1, alpha)[1])
    assert objective.count == 1
    # the caller's array changed in place is a new point, not the kept one
    x1[:] = x2
    assert np.array_equal(objective.grad(x1), -piecewise_efficiency_and_grad(x2, alpha)[1])
    assert objective.count == 2
    # a new point once the budget is spent is not evaluated
    with pytest.raises(pmp_search._BudgetExceeded):
        objective.grad(x2 * 0.9)
    assert objective.count == 2


def test_search_draws_starts_only_when_their_run_begins():
    # the budget ends the search in its first run; no start after it is drawn
    import scipy.optimize  # noqa: F401  (imported outside the timed call)

    t0 = time.perf_counter()
    res = optimize_piecewise(10.0, 64, budget=10, n_starts=10**7)
    assert time.perf_counter() - t0 < 1.0
    assert res.evaluations <= 10
    assert res.restarts == 1 and not res.converged


def test_search_runtime_within_budget():
    t0 = time.perf_counter()
    res = optimize_piecewise(100.0, 64, seed=7, budget=60_000)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert res.efficiency > 0.908
