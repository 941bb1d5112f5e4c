"""Closed-form efficiencies, asymptotic limits, and the numeric route."""

import math

import numpy as np
import pytest

from doublelambda import (
    AdiabaticState,
    ControlSchedule,
    IntegratorOptions,
    InvalidAlpha,
    ProtocolSpec,
    constant_efficiency_closed,
    numerical_efficiency,
    optimal_efficiency_closed,
    propagate_adiabatic,
)


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------

def test_reference_point_alpha_100():
    assert optimal_efficiency_closed(100.0) == pytest.approx(0.9094, abs=5e-4)
    assert constant_efficiency_closed(100.0) == pytest.approx(0.9077, abs=5e-4)


def test_optimal_zero_alpha():
    assert optimal_efficiency_closed(0.0) == 0.0
    with pytest.raises(InvalidAlpha):
        optimal_efficiency_closed(-1.0)
    with pytest.raises(InvalidAlpha):
        constant_efficiency_closed(0.0)
    for alpha in (math.inf, math.nan):
        for closed in (optimal_efficiency_closed, constant_efficiency_closed):
            with pytest.raises(InvalidAlpha):
                closed(alpha)


# ---------------------------------------------------------------------------
# Asymptotics
# ---------------------------------------------------------------------------

def test_optimal_small_alpha_quadratic():
    alpha = 0.01
    assert optimal_efficiency_closed(alpha) == pytest.approx(alpha**2 / 16, rel=0.01)


@pytest.mark.parametrize("alpha", [1e-8, 1e-6, 1e-4, 1e-3])
def test_optimal_small_alpha_series(alpha):
    # eta = alpha^2/16 (1 - alpha/2 + alpha^2/6 + O(alpha^3)), to full
    # relative precision while theta0 nears pi/4
    ratio = optimal_efficiency_closed(alpha) / (alpha**2 / 16)
    assert abs(ratio - (1.0 - alpha / 2 + alpha**2 / 6)) <= 1e-14 + alpha**3


def test_constant_small_alpha_quadratic():
    alpha = 0.01
    assert constant_efficiency_closed(alpha) == pytest.approx(
        alpha**2 / (4 * math.pi**2), rel=0.01
    )


def test_large_alpha_deficit():
    alpha = 1e4
    deficit = math.pi**2 / alpha
    assert abs((1.0 - optimal_efficiency_closed(alpha)) - deficit) < 0.01 * deficit
    assert abs((1.0 - constant_efficiency_closed(alpha)) - deficit) < 0.01 * deficit


@pytest.mark.parametrize("alpha", [1e4, 1e10, 1e15, 1e20, 1e100, 1e300])
def test_optimal_deficit_to_second_order_at_any_alpha(alpha):
    # eta = 1 - pi^2/alpha + O(1/alpha^2); far out, theta0 rounds to pi/2
    # and only its complement carries the deficit
    eta = optimal_efficiency_closed(alpha)
    assert abs(eta - (1.0 - math.pi**2 / alpha)) <= 2e-16 + 200.0 / alpha / alpha


def test_small_alpha_ratio_of_leading_coefficients():
    alpha = 1e-3
    ratio = optimal_efficiency_closed(alpha) / constant_efficiency_closed(alpha)
    assert ratio == pytest.approx(math.pi**2 / 4, rel=0.01)


# ---------------------------------------------------------------------------
# Branch point of the constant-protocol formula
# ---------------------------------------------------------------------------

def test_branch_point_value():
    # k -> 0 at alpha = 2 pi: closed limit exp(-pi) (1 + pi/2)^2.
    expected = math.exp(-math.pi) * (1 + math.pi / 2) ** 2
    assert constant_efficiency_closed(2 * math.pi) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.2856, abs=5e-5)


def test_branch_point_cross_check_by_integration():
    # Independent route: integrate the rotated-frame system at u = 1/4.
    alpha = 2 * math.pi
    sched = ControlSchedule(alpha=alpha, u=lambda z: np.full_like(np.asarray(z, float), 0.25))
    traj = propagate_adiabatic(
        sched, initial=AdiabaticState(x=0.0, y=1.0),
        opts=IntegratorOptions(steps_per_unit=400),
    )
    assert traj.final_state.y ** 2 == pytest.approx(
        constant_efficiency_closed(alpha), abs=1e-10
    )


def test_branch_continuity():
    a0 = 2 * math.pi
    eps = 5e-10
    left = constant_efficiency_closed(a0 - eps)
    right = constant_efficiency_closed(a0 + eps)
    center = constant_efficiency_closed(a0)
    assert abs(left - right) < 1e-10
    assert abs(left - center) < 1e-10
    # smooth: one-sided slopes agree across the branch point
    h = 1e-4
    d_left = (center - constant_efficiency_closed(a0 - h)) / h
    d_right = (constant_efficiency_closed(a0 + h) - center) / h
    assert d_left == pytest.approx(d_right, rel=1e-2)


def test_no_overflow_at_huge_alpha():
    eta = constant_efficiency_closed(1e6)
    assert 0.0 < eta < 1.0


# ---------------------------------------------------------------------------
# Curve structure
# ---------------------------------------------------------------------------

def test_dominance_and_monotonicity_on_grid():
    alphas = np.linspace(0.5, 100.0, 200)
    opt = np.array([optimal_efficiency_closed(a) for a in alphas])
    con = np.array([constant_efficiency_closed(a) for a in alphas])
    assert np.all(opt >= con)
    assert np.all(np.diff(opt) > 0)
    assert np.all(np.diff(con) > 0)
    assert np.all((opt >= 0) & (opt <= 1))
    assert np.all((con >= 0) & (con <= 1))


# ---------------------------------------------------------------------------
# Numerical route
# ---------------------------------------------------------------------------

def test_numeric_matches_closed_at_default_resolution():
    for kind in ("optimal", "constant"):
        rep = numerical_efficiency(ProtocolSpec(kind=kind, alpha=100.0))
        assert rep.eta_closed is not None
        assert rep.discrepancy < 1e-6
        assert rep.step_count == 1000


def test_numeric_adiabatic_reference():
    rep = numerical_efficiency(ProtocolSpec(kind="adiabatic", alpha=100.0, zeta0=50.0, zbar=5.0))
    assert rep.eta_closed is None
    assert rep.discrepancy is None
    assert rep.eta_numeric == pytest.approx(0.8197, abs=5e-4)


def test_numeric_constant_tiny_alpha():
    alpha = 1e-3
    rep = numerical_efficiency(ProtocolSpec(kind="constant", alpha=alpha))
    assert rep.eta_numeric == pytest.approx(alpha**2 / (4 * math.pi**2), rel=0.01)


def test_report_fields():
    rep = numerical_efficiency(ProtocolSpec(kind="optimal", alpha=10.0))
    assert rep.alpha == 10.0
    assert rep.protocol == "optimal"
    assert 0.0 <= rep.eta_numeric <= 1.0
