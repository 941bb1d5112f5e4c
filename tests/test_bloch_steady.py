"""Steady-state coherence solve: closed-form elimination vs oracles and projector.

Oracle strategy: the solve is checked by (a) substituting the solution back
into the steady-state equations (:func:`coherence_residuals`, residual at
rounding level), (b) a generic complex 3x3 ``np.linalg.solve`` of the same
equations, built here, at zero and at positive ground dephasing, and (c)
under the reduction assumptions, the weak-field projector formula
``(i/gamma) P(theta) @ (Omega_p, Omega_s)``.  :func:`elimination_solve`
repeats the library's elimination order in scalar arithmetic, so it checks
the arithmetic but is not an independent route.
"""

import cmath

import numpy as np
import pytest

from doublelambda import (
    DriveFields,
    NonFinite,
    Rates,
    SingularSystem,
    projector_matrix,
    steady_coherences,
)


def coherence_residuals(fields, rates, sol):
    """Residuals of the three steady-state equations for a candidate solution.

    Complex scalars for scalar fields, arrays of the broadcast shape otherwise.
    """
    op, os_, oc, od = (
        np.asarray(f) for f in (fields.omega_p, fields.omega_s, fields.omega_c, fields.omega_d)
    )
    r1 = 1j * (op + oc * sol.rho21) - rates.gamma31 * sol.rho31
    r2 = 1j * (os_ + od * sol.rho21) - rates.gamma41 * sol.rho41
    r3 = 1j * (oc.conj() * sol.rho31 + od.conj() * sol.rho41) - rates.gamma21 * sol.rho21
    return r1, r2, r3


def reduced_coherences(omega_p, omega_s, theta, gamma=1.0, omega=1.0):
    """(rho31, rho41) of the exact solve under the reduction assumptions: equal
    decay rates ``gamma``, no dephasing, controls ``omega * (sin, cos)(theta)``."""
    fields = DriveFields(omega_p=omega_p, omega_s=omega_s,
                         omega_c=omega * np.sin(theta), omega_d=omega * np.cos(theta))
    sol = steady_coherences(fields, Rates(gamma, gamma, 0.0))
    return sol.rho31, sol.rho41


def projector_coherences(omega_p, omega_s, theta, gamma=1.0):
    """Weak-field optical coherences (i/gamma) * P(theta) @ (Omega_p, Omega_s)."""
    return (1j / gamma) * projector_matrix(theta) @ (omega_p, omega_s)


def elimination_solve(fields, rates):
    """The library's elimination order in scalar arithmetic: rho31, rho41 out, then rho21."""
    op, os_, oc, od = fields.omega_p, fields.omega_s, fields.omega_c, fields.omega_d
    g31, g41, g21 = rates.gamma31, rates.gamma41, rates.gamma21
    s = oc.conjugate() * op / g31 + od.conjugate() * os_ / g41
    d = abs(oc) ** 2 / g31 + abs(od) ** 2 / g41
    rho21 = -s / (d + g21)
    rho31 = 1j * (op + oc * rho21) / g31
    rho41 = 1j * (os_ + od * rho21) / g41
    return rho21, rho31, rho41


def random_fields(rng):
    z = rng.standard_normal(8)
    return DriveFields(
        omega_p=complex(z[0], z[1]) * 0.01,
        omega_s=complex(z[2], z[3]) * 0.01,
        omega_c=complex(z[4], z[5]),
        omega_d=complex(z[6], z[7]),
    )


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------

def test_no_controls_decoupled():
    # With the controls off and finite dephasing the equations decouple.
    fields = DriveFields(omega_p=0.3, omega_s=0.1j, omega_c=0.0, omega_d=0.0)
    rates = Rates(gamma31=1.5, gamma41=0.7, gamma21=0.2)
    sol = steady_coherences(fields, rates)
    assert sol.rho21 == 0
    assert sol.rho31 == pytest.approx(1j * 0.3 / 1.5, abs=1e-15)
    assert sol.rho41 == pytest.approx(1j * 0.1j / 0.7, abs=1e-15)


def test_probe_dark_state_at_theta_half_pi():
    # theta = pi/2: Omega_c carries all the control power; the probe is dark.
    omega = 2.0
    fields = DriveFields(omega_p=1.0, omega_s=0.0, omega_c=omega, omega_d=0.0)
    sol = steady_coherences(fields, Rates(1.0, 1.0, 0.0))
    assert sol.rho31 == pytest.approx(0.0, abs=1e-15)
    assert sol.rho41 == pytest.approx(0.0, abs=1e-15)
    assert sol.rho21 == pytest.approx(-1.0 * omega / omega**2, abs=1e-15)


def test_first_order_theta_zero():
    for route in (reduced_coherences, projector_coherences):
        r31, r41 = route(1.0, 0.0, theta=0.0)
        assert r31 == pytest.approx(1j, abs=1e-15)
        assert r41 == pytest.approx(0.0, abs=1e-15)


def test_first_order_dark_combination():
    for route in (reduced_coherences, projector_coherences):
        r31, r41 = route(1.0, 1.0, theta=np.pi / 4)
        assert abs(r31) < 1e-15
        assert abs(r41) < 1e-15


def test_first_order_hand_value_theta_pi_third():
    # cos^2 = 1/4 and sin*cos = sqrt(3)/4 at theta = pi/3.
    for route in (reduced_coherences, projector_coherences):
        r31, r41 = route(1.0, 0.0, theta=np.pi / 3)
        assert r31 == pytest.approx(0.25j, abs=1e-15)
        assert r41 == pytest.approx(-1j * np.sqrt(3) / 4, abs=1e-15)


# ---------------------------------------------------------------------------
# Derived oracles
# ---------------------------------------------------------------------------

def test_residuals_and_elimination_agreement_random():
    rng = np.random.default_rng(101)
    rates = Rates(gamma31=1.0, gamma41=1.0, gamma21=0.1)
    for _ in range(200):
        fields = random_fields(rng)
        sol = steady_coherences(fields, rates)
        for r in coherence_residuals(fields, rates, sol):
            assert abs(r) < 1e-12
        e21, e31, e41 = elimination_solve(fields, rates)
        assert abs(sol.rho21 - e21) < 1e-12
        assert abs(sol.rho31 - e31) < 1e-12
        assert abs(sol.rho41 - e41) < 1e-12


def test_general_rates_residuals():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = rng.uniform(0.2, 3.0, size=2)
        rates = Rates(gamma31=g[0], gamma41=g[1], gamma21=rng.uniform(0.0, 1.0))
        fields = random_fields(rng)
        sol = steady_coherences(fields, rates)
        for r in coherence_residuals(fields, rates, sol):
            assert abs(r) < 1e-12


def test_closed_form_matches_generic_solve_with_and_without_dephasing():
    # The library solve is a closed-form elimination at every gamma21;
    # compare it against the generic 3x3 linear solve evaluated here, at
    # gamma21 = 0 and at gamma21 log-uniform in [1e-8, 10].
    rng = np.random.default_rng(23)
    rng_g21 = np.random.default_rng(29)
    for _ in range(100):
        fields = random_fields(rng)
        g31, g41 = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
        for g21 in (0.0, 10.0 ** rng_g21.uniform(-8.0, 1.0)):
            rates = Rates(gamma31=g31, gamma41=g41, gamma21=g21)
            sol = steady_coherences(fields, rates)
            a = np.array(
                [
                    [rates.gamma31, 0, -1j * fields.omega_c],
                    [0, rates.gamma41, -1j * fields.omega_d],
                    [-1j * np.conj(fields.omega_c), -1j * np.conj(fields.omega_d),
                     rates.gamma21],
                ],
                dtype=complex,
            )
            b = np.array([1j * fields.omega_p, 1j * fields.omega_s, 0.0])
            r31, r41, r21 = np.linalg.solve(a, b)
            assert abs(sol.rho21 - r21) < 1e-11
            assert abs(sol.rho31 - r31) < 1e-12
            assert abs(sol.rho41 - r41) < 1e-12


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

def test_projector_identity_on_grid():
    for theta in np.linspace(0.0, np.pi / 2, 181):
        m = projector_matrix(theta)
        assert np.allclose(m @ m, m, atol=1e-15)
        assert np.allclose(m, m.T, atol=0)


def test_first_order_matches_exact_under_reduction_assumptions():
    # gamma21 = 0, equal decay rates, real controls: the weak-field formula
    # is exact, not just first order.
    rng = np.random.default_rng(5)
    for _ in range(200):
        theta = rng.uniform(0.0, np.pi / 2)
        gamma = rng.uniform(0.3, 2.5)
        omega = rng.uniform(0.1, 3.0)
        op, os_ = rng.standard_normal(2) * 0.05
        s31, s41 = reduced_coherences(op, os_, theta, gamma, omega)
        r31, r41 = projector_coherences(op, os_, theta, gamma)
        assert abs(s31 - r31) < 1e-12
        assert abs(s41 - r41) < 1e-12


def test_dark_state_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        theta = rng.uniform(0.0, np.pi / 2)
        amp = rng.uniform(0.01, 1.0)
        for route in (reduced_coherences, projector_coherences):
            r31, r41 = route(amp * np.sin(theta), amp * np.cos(theta), theta)
            assert abs(r31) < 1e-14
            assert abs(r41) < 1e-14


def test_linearity_in_weak_fields():
    rng = np.random.default_rng(31)
    rates = Rates(1.0, 1.3, 0.05)
    ctrl = dict(omega_c=complex(0.8, -0.2), omega_d=complex(0.1, 0.5))
    for _ in range(50):
        a = complex(*rng.standard_normal(2))
        b = complex(*rng.standard_normal(2))
        c1, c2 = rng.standard_normal(2)
        f_a = DriveFields(omega_p=a, omega_s=b, **ctrl)
        f_b = DriveFields(omega_p=b, omega_s=a, **ctrl)
        f_ab = DriveFields(omega_p=c1 * a + c2 * b, omega_s=c1 * b + c2 * a, **ctrl)
        s_a = steady_coherences(f_a, rates)
        s_b = steady_coherences(f_b, rates)
        s_ab = steady_coherences(f_ab, rates)
        for name in ("rho21", "rho31", "rho41"):
            lhs = getattr(s_ab, name)
            rhs = c1 * getattr(s_a, name) + c2 * getattr(s_b, name)
            assert cmath.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Error contracts
# ---------------------------------------------------------------------------

def test_singular_case_raises():
    fields = DriveFields(omega_p=1.0, omega_s=0.0, omega_c=0.0, omega_d=0.0)
    with pytest.raises(SingularSystem):
        steady_coherences(fields, Rates(1.0, 1.0, 0.0))


def test_non_finite_input_raises():
    with pytest.raises(NonFinite):
        DriveFields(omega_p=np.inf, omega_s=0.0, omega_c=1.0, omega_d=0.0)


def test_overflowing_solve_raises():
    # finite fields whose coherences overflow: rho21 ~ -Op/Oc = -1e458
    fields = DriveFields(omega_p=1e308, omega_s=0.0, omega_c=1e-150, omega_d=1e-150)
    with pytest.raises(NonFinite, match="overflowed"):
        steady_coherences(fields, Rates(1.0, 1.0, 0.0))


def test_rates_validation():
    with pytest.raises(ValueError):
        Rates(gamma31=0.0)
    with pytest.raises(ValueError):
        Rates(gamma21=-0.1)
    for bad in ({"gamma31": np.inf}, {"gamma41": np.nan}, {"gamma21": np.inf},
                {"gamma21": np.nan}):
        with pytest.raises(NonFinite):
            Rates(**bad)
