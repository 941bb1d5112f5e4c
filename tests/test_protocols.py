"""Protocol construction: root solve, slopes, profiles, control envelopes."""

import math
import warnings

import numpy as np
import pytest

from doublelambda import (
    InvalidAlpha,
    InvalidZbar,
    NonFinite,
    ProfileDomainMismatch,
    adiabatic_protocol,
    build_profile,
    constant_protocol,
    optimal_efficiency_closed,
    optimal_protocol,
    solve_theta0,
    theta0_complement,
    tabulated_protocol,
    theta_to_controls,
)
from doublelambda.protocols import HALF_PI


def theta0_residual(theta0, alpha):
    """Residual of the optimality condition (alpha/4) sin(2 t) - 2 t + pi/2."""
    return (alpha / 4.0) * np.sin(2.0 * np.asarray(theta0)) - 2.0 * np.asarray(theta0) + HALF_PI


# ---------------------------------------------------------------------------
# Entry-angle solve
# ---------------------------------------------------------------------------

def test_theta0_reference_value():
    # Worked case at alpha = 100.
    assert solve_theta0(100.0) == pytest.approx(1.540568, abs=1e-5)


def test_theta0_small_alpha_limit():
    assert solve_theta0(1e-8) == pytest.approx(np.pi / 4, abs=1e-8)


def test_theta0_against_dense_sign_scan():
    # Brute-force oracle: locate the sign change of the residual on a
    # million-point grid and compare the bisection result against it.
    alpha = 10.0
    grid = np.linspace(np.pi / 4, np.pi / 2, 1_000_001)
    res = theta0_residual(grid, alpha)
    signs = np.sign(res)
    (crossings,) = np.nonzero(signs[:-1] * signs[1:] < 0)
    assert crossings.size == 1
    i = crossings[0]
    scan_root = 0.5 * (grid[i] + grid[i + 1])
    assert solve_theta0(alpha) == pytest.approx(scan_root, abs=grid[1] - grid[0])


def test_theta0_residual_at_root():
    for alpha in (0.1, 1.0, 10.0, 100.0, 1000.0):
        t0 = solve_theta0(alpha)
        assert abs(theta0_residual(t0, alpha)) < 1e-12
        assert np.pi / 4 < t0 < np.pi / 2


def test_theta0_complement_solves_the_condition_at_any_alpha():
    # in e = pi/2 - theta0 the condition is (alpha/4) sin(2e) + 2e = pi/2;
    # e keeps its relative precision where theta0 rounds to pi/2
    for alpha in np.geomspace(1e-300, 1e300, 61):
        e = theta0_complement(alpha)
        assert 0.0 < e <= math.pi / 4
        assert abs(0.25 * alpha * math.sin(2.0 * e) + 2.0 * e - HALF_PI) <= 1e-15
        assert solve_theta0(alpha) == HALF_PI - e


@pytest.mark.parametrize("alpha", [1e-3, 0.3, 37.5, 1e5])
def test_theta0_solve_is_shared_and_bit_identical(alpha):
    # the closed-form efficiency and the protocol at one alpha share a bisection
    theta0_complement.cache_clear()
    optimal_efficiency_closed(alpha)
    profile = optimal_protocol(alpha)
    info = theta0_complement.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert profile.knots[-1][1] == theta0_complement.__wrapped__(alpha)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0])
def test_theta0_errors_are_not_cached(alpha):
    theta0_complement.cache_clear()
    for _ in range(2):
        with pytest.raises(InvalidAlpha):
            theta0_complement(alpha)
    assert theta0_complement.cache_info().currsize == 0


def test_residual_bracketing_signs():
    for alpha in np.geomspace(1e-3, 1e5, 25):
        assert theta0_residual(np.pi / 4, alpha) > 0
        assert theta0_residual(np.pi / 2, alpha) < 0


def test_theta0_monotone_increasing_to_half_pi():
    alphas = np.geomspace(0.01, 1e5, 40)
    roots = np.array([solve_theta0(a) for a in alphas])
    assert np.all(np.diff(roots) > 0)
    assert roots[-1] == pytest.approx(np.pi / 2, abs=1e-3)


def test_invalid_alpha():
    with pytest.raises(InvalidAlpha):
        solve_theta0(0.0)
    with pytest.raises(InvalidAlpha):
        solve_theta0(-1.0)
    with pytest.raises(InvalidAlpha):
        constant_protocol(0.0)


# ---------------------------------------------------------------------------
# Singular slope
# ---------------------------------------------------------------------------

def test_singular_slope_reference_value():
    assert optimal_protocol(100.0).params["u_s"] == pytest.approx(0.015105, abs=1e-5)


def test_singular_slope_hand_values():
    # theta0 -> pi/4 as alpha -> 0, so u_s = sin(2 theta0)/4 -> 1/4
    assert optimal_protocol(1e-8).params["u_s"] == pytest.approx(0.25, abs=1e-15)
    # theta0 = pi/3 solves (alpha/4) sin(2 theta0) = 2 theta0 - pi/2 at alpha = 4 pi/(3 sqrt 3)
    params = optimal_protocol(4.0 * np.pi / (3.0 * np.sqrt(3.0))).params
    assert params["theta0"] == pytest.approx(np.pi / 3, abs=1e-15)
    assert params["u_s"] == pytest.approx(np.sqrt(3) / 8, abs=1e-15)


def test_singular_slope_bounds():
    for alpha in (0.1, 1.0, 10.0, 100.0):
        u = optimal_protocol(alpha).params["u_s"]
        assert 0 < u <= 0.25


# ---------------------------------------------------------------------------
# Optimal protocol
# ---------------------------------------------------------------------------

def test_optimal_profile_structure_at_100():
    prof = optimal_protocol(100.0)
    theta0 = prof.params["theta0"]
    u_s = prof.params["u_s"]
    assert prof.entry_jump == (HALF_PI, pytest.approx(theta0, abs=0))
    # Interior endpoints derived from the two reported constants.
    assert float(prof.theta(0.0)) == pytest.approx(1.540568, abs=1e-5)
    assert float(prof.theta(100.0)) == pytest.approx(0.030068, abs=2e-4)
    # Exit angle identity: theta0 - u_s alpha = pi/2 - theta0 exactly.
    assert float(prof.theta(100.0)) == pytest.approx(HALF_PI - theta0, abs=1e-12)
    assert prof.exit_jump[1] == 0.0
    assert u_s * 100.0 < HALF_PI


def test_optimal_profile_boundary_conditions_any_alpha():
    for alpha in (0.3, 2.0, 50.0, 400.0):
        prof = optimal_protocol(alpha)
        assert prof.theta_pre == HALF_PI
        assert prof.theta_post == 0.0
        th = prof.theta(np.linspace(0, alpha, 101))
        assert np.all(th > 0) and np.all(th < HALF_PI)
        # genuine exit jump toward zero
        assert 0 < prof.exit_jump[0] < HALF_PI


# ---------------------------------------------------------------------------
# Constant protocol
# ---------------------------------------------------------------------------

def test_constant_profile_midpoint_and_endpoints():
    prof = constant_protocol(100.0)
    assert float(prof.theta(50.0)) == pytest.approx(np.pi / 4, abs=1e-14)
    assert float(prof.theta(0.0)) == HALF_PI
    assert float(prof.theta(100.0)) == pytest.approx(0.0, abs=1e-13)
    assert prof.entry_jump == (HALF_PI, HALF_PI)  # no jumps


def test_constant_profile_control_boundary_values():
    prof = constant_protocol(100.0)
    oc0, od0 = theta_to_controls(prof, 0.0)
    oca, oda = theta_to_controls(prof, 100.0)
    assert oc0 == pytest.approx(1.0, abs=1e-14)
    assert od0 == pytest.approx(0.0, abs=1e-14)
    assert oca == pytest.approx(0.0, abs=1e-13)
    assert oda == pytest.approx(1.0, abs=1e-13)


def test_constant_profile_slope_branch():
    # alpha = 4 pi gives u = 1/8 < 1/4: the segment propagator stays on the
    # hyperbolic branch.
    prof = constant_protocol(4 * np.pi)
    u = prof.params["u"]
    assert u == pytest.approx(0.125, abs=1e-15)
    assert 0.0625 - u * u > 0


# ---------------------------------------------------------------------------
# Adiabatic protocol
# ---------------------------------------------------------------------------

def test_adiabatic_symmetry_point():
    prof = adiabatic_protocol(100.0, 50.0, 5.0)
    assert float(prof.theta(50.0)) == pytest.approx(np.pi / 4, abs=1e-14)


def test_adiabatic_strictly_decreasing_with_boundary_defect():
    prof = adiabatic_protocol(100.0, 50.0, 5.0)
    th = prof.theta(np.linspace(0, 100, 501))
    assert np.all(np.diff(th) < 0)
    assert 0 < float(prof.theta(100.0))
    assert float(prof.theta(0.0)) < HALF_PI
    d_in, d_out = prof.boundary_defect
    assert d_in == pytest.approx(HALF_PI - math.atan(math.exp(5.0)), abs=1e-14)
    assert d_out == pytest.approx(math.atan(math.exp(-5.0)), abs=1e-14)


def test_adiabatic_max_slope_against_finite_differences():
    zbar = 5.0
    prof = adiabatic_protocol(100.0, 50.0, zbar)
    z = np.linspace(0.0, 100.0, 20001)
    dz = z[1] - z[0]
    fd = np.diff(prof.theta(z)) / dz
    assert np.max(np.abs(fd)) == pytest.approx(1.0 / (4.0 * zbar), rel=1e-4)
    # analytic slope agrees with finite differences everywhere
    mid = 0.5 * (z[:-1] + z[1:])
    assert np.max(np.abs(prof.slope(mid) - fd)) < 1e-6


def test_adiabatic_advisory_and_errors():
    with pytest.raises(InvalidZbar):
        adiabatic_protocol(10.0, 5.0, 0.0)
    for zeta0 in (math.nan, math.inf):
        with pytest.raises(NonFinite):
            adiabatic_protocol(10.0, zeta0, 5.0)
    with pytest.warns(UserWarning):
        adiabatic_protocol(10.0, 5.0, 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adiabatic_protocol(10.0, 5.0, 2.0)  # no warning above the threshold


def test_build_profile_kinds_and_adiabatic_defaults():
    assert build_profile("adiabatic", 20.0).params == {"zeta0": 10.0, "zbar": 5.0}
    assert build_profile("constant", 20.0).knots == constant_protocol(20.0).knots
    for kind in ("custom", "bogus"):  # tables go through tabulated_protocol
        with pytest.raises(ValueError, match="unknown protocol kind"):
            build_profile(kind, 20.0)


# ---------------------------------------------------------------------------
# Control envelopes
# ---------------------------------------------------------------------------

def test_controls_at_theta_half_pi():
    prof = constant_protocol(10.0)
    oc, od = theta_to_controls(prof, 0.0)
    assert (oc, od) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-15))


def test_optimal_entry_control_leak():
    # The entry jump leaves a nonzero second control at the entrance.
    prof = optimal_protocol(100.0)
    _, od = theta_to_controls(prof, 0.0)
    assert od == pytest.approx(math.cos(1.540568), abs=1e-4)
    assert od == pytest.approx(0.0302, abs=1e-3)
    assert od > 0


def test_adiabatic_controls_recover_sigmoid_envelopes():
    zeta0, zbar = 50.0, 5.0
    prof = adiabatic_protocol(100.0, zeta0, zbar)
    z = np.linspace(0.0, 100.0, 301)
    oc, od = theta_to_controls(prof, z)
    oc_ref = (1.0 + np.exp((z - zeta0) / zbar)) ** -0.5
    od_ref = (1.0 + np.exp(-(z - zeta0) / zbar)) ** -0.5
    assert np.max(np.abs(oc - oc_ref)) < 1e-12
    assert np.max(np.abs(od - od_ref)) < 1e-12


def test_controls_norm_identity_and_roundtrip():
    rng = np.random.default_rng(3)
    prof = adiabatic_protocol(20.0, 10.0, 3.0)
    z = rng.uniform(0.0, 20.0, 200)
    oc, od = theta_to_controls(prof, z)
    assert np.max(np.abs(oc**2 + od**2 - 1.0)) < 1e-14
    # arctan of the envelope ratio recovers the angle
    assert np.max(np.abs(np.arctan2(oc, od) - prof.theta(z))) < 1e-14


def test_controls_domain_error():
    prof = constant_protocol(10.0)
    with pytest.raises(ProfileDomainMismatch):
        theta_to_controls(prof, 10.5)
    with pytest.raises(ProfileDomainMismatch):
        prof.theta(-0.1)


# ---------------------------------------------------------------------------
# Tabulated profiles
# ---------------------------------------------------------------------------

def test_tabulated_interpolation_and_knots():
    z = [0.0, 1.0, 3.0, 4.0]
    t = [1.2, 1.0, 0.4, 0.1]
    prof = tabulated_protocol(z, t)
    assert prof.alpha == 4.0
    assert float(prof.theta(2.0)) == pytest.approx(0.7, abs=1e-15)
    assert prof.breakpoints == (1.0, 3.0)
    assert prof.knots == ((0.0, 1.2), (1.0, 1.0), (3.0, 0.4), (4.0, 0.1))


def test_tabulated_span_tolerance_is_relative_below_unit_alpha():
    # an absolute 1e-9 took a table ending at 1e-12 for alpha = 5e-10
    with pytest.raises(ProfileDomainMismatch):
        tabulated_protocol([0.0, 1e-12], [1.4, 0.1], alpha=5e-10)
    with pytest.raises(ProfileDomainMismatch):
        tabulated_protocol([1e-12, 5e-10], [1.4, 0.1])
    small = tabulated_protocol([0.0, 5e-10 * (1 + 1e-10)], [1.4, 0.1], alpha=5e-10)
    small.theta([0.0, 5e-10 * (1 + 1e-13)])
    with pytest.raises(ProfileDomainMismatch):
        small.theta(-1e-13)
    with pytest.raises(ProfileDomainMismatch):
        small.theta(5e-10 * (1 + 1e-11))
    # from alpha = 1 up both stay absolute, 1e-9 and 1e-12
    for alpha in (1.0, 100.0):
        prof = tabulated_protocol([0.9e-9, alpha - 0.9e-9], [1.4, 0.1], alpha=alpha)
        prof.theta([-0.9e-12, alpha + 0.9e-12])
        with pytest.raises(ProfileDomainMismatch):
            prof.theta(alpha + 1.1e-12)
        for z in ([1.1e-9, alpha], [0.0, alpha - 1.1e-9]):
            with pytest.raises(ProfileDomainMismatch):
                tabulated_protocol(z, [1.4, 0.1], alpha=alpha)


def test_tabulated_validation():
    with pytest.raises(ProfileDomainMismatch):
        tabulated_protocol([0.0, 1.0], [0.5, 0.4], alpha=2.0)  # short table
    with pytest.raises(ProfileDomainMismatch):
        tabulated_protocol([0.0, 1.0, 1.0], [0.5, 0.4, 0.3])  # not increasing
    with pytest.raises(ProfileDomainMismatch):
        tabulated_protocol([0.0, 1.0], [0.5, 2.0])  # theta out of range
    # every comparison with NaN is false: no range or order check catches it
    for z, t in (([0.0, 5.0, 10.0], [1.4, math.nan, 0.1]),
                 ([0.0, math.nan, 10.0], [1.4, 0.8, 0.1]),
                 ([0.0, 5.0, math.inf], [1.4, 0.8, 0.1])):
        with pytest.raises(NonFinite):
            tabulated_protocol(z, t)
