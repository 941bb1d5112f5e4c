"""Propagation routes: reduced, rotated-frame, microscopic, segment-exact.

Every route is cross-checked against at least one independent companion:
hand-integrable constant-angle cases, the closed-form segment propagator,
and the microscopically closed integration.
"""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from doublelambda import (
    AdiabaticState,
    ControlSchedule,
    DoubleLambdaError,
    DriveFields,
    FieldState,
    IntegratorOptions,
    NonFinite,
    ProfileDomainMismatch,
    Rates,
    adiabatic_protocol,
    build_profile,
    constant_efficiency_closed,
    constant_protocol,
    dissipation_order,
    dissipation_residual,
    from_adiabatic,
    optimal_protocol,
    propagate_adiabatic,
    propagate_exact,
    propagate_piecewise_exact,
    propagate_reduced,
    schedule_from_profile,
    segment_step,
    steady_coherences,
    tabulated_protocol,
    to_adiabatic,
)
from doublelambda import propagation
from doublelambda.propagation import (
    _BLOCK,
    MAX_STEPS,
    adiabatic_initial,
    propagate_exact_many,
    propagate_reduced_chunks,
    propagate_reduced_many,
)
from test_rk4_reference import reference_rk4

HALF_PI = np.pi / 2


def flat_profile(alpha, theta):
    """Constant-angle profile (no jumps) for hand-integrable cases."""
    return tabulated_protocol([0.0, alpha], [theta, theta])


def lab_to_rotated(profile, traj):
    th = profile.theta(traj.zeta)
    y = np.sin(th) * traj.omega_p + np.cos(th) * traj.omega_s
    x = np.cos(th) * traj.omega_p - np.sin(th) * traj.omega_s
    return y, x


# ---------------------------------------------------------------------------
# Frame transformation
# ---------------------------------------------------------------------------

def test_adiabatic_frame_at_boundary_angles():
    st = to_adiabatic(HALF_PI, FieldState(1.0, 0.0))
    assert (st.y, st.x) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-16))
    st = to_adiabatic(0.0, FieldState(0.3, -0.7))
    assert (st.y, st.x) == (pytest.approx(-0.7), pytest.approx(0.3))


def test_frame_roundtrip_random():
    rng = np.random.default_rng(2)
    for _ in range(300):
        theta = rng.uniform(-1.0, 3.0)
        state = FieldState(*rng.standard_normal(2))
        back = from_adiabatic(theta, to_adiabatic(theta, state))
        assert back.omega_p == pytest.approx(state.omega_p, abs=1e-14)
        assert back.omega_s == pytest.approx(state.omega_s, abs=1e-14)
        # norm preserved
        assert to_adiabatic(theta, state).norm_sq == pytest.approx(state.norm_sq, rel=1e-14)


# ---------------------------------------------------------------------------
# Reduced propagation: hand-integrable cases
# ---------------------------------------------------------------------------

def test_reduced_flat_zero_angle_pure_decay():
    traj = propagate_reduced(
        flat_profile(4.0, 0.0),
        initial=FieldState(1.0, 0.0),
        opts=IntegratorOptions(steps_per_unit=200),
    )
    assert traj.final_state.omega_p == pytest.approx(math.exp(-2.0), abs=1e-10)
    assert traj.final_state.omega_s == pytest.approx(0.0, abs=1e-15)


def test_reduced_flat_quarter_pi_eigenmodes():
    alpha = 6.0
    traj = propagate_reduced(
        flat_profile(alpha, np.pi / 4),
        initial=FieldState(1.0, 0.0),
        opts=IntegratorOptions(steps_per_unit=200),
    )
    expected_p = 0.5 * (1.0 + math.exp(-alpha / 2))
    expected_s = 0.5 * (1.0 - math.exp(-alpha / 2))
    assert traj.final_state.omega_p == pytest.approx(expected_p, abs=1e-10)
    assert traj.final_state.omega_s == pytest.approx(expected_s, abs=1e-10)


def test_reduced_grid_spans_interval():
    prof = constant_protocol(7.0)
    traj = propagate_reduced(prof)
    assert traj.zeta[0] == 0.0
    assert traj.zeta[-1] == pytest.approx(7.0, abs=0)
    assert np.all(np.diff(traj.zeta) > 0)


# ---------------------------------------------------------------------------
# Rotated-frame propagation
# ---------------------------------------------------------------------------

def test_adiabatic_zero_control_decay():
    sched = ControlSchedule(alpha=2.0, u=lambda z: np.zeros_like(np.asarray(z, float)))
    traj = propagate_adiabatic(
        sched, initial=AdiabaticState(x=1.0, y=0.0),
        opts=IntegratorOptions(steps_per_unit=200),
    )
    assert traj.final_state.x == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert traj.final_state.y == pytest.approx(0.0, abs=1e-15)


def test_adiabatic_zero_control_conserves_dark_mode():
    sched = ControlSchedule(alpha=37.0, u=lambda z: np.zeros_like(np.asarray(z, float)))
    traj = propagate_adiabatic(sched, initial=AdiabaticState(x=0.0, y=1.0))
    assert np.all(traj.y == 1.0)
    assert traj.final_state.y == 1.0
    assert traj.final_state.x == 0.0


def test_adiabatic_singular_slope_reproduces_reference_efficiency():
    # Constant slope 0.015105 with the boundary rotations of the optimal
    # protocol: the outgoing dark-mode amplitude squared is the reference
    # conversion efficiency 0.9094.
    prof = optimal_protocol(100.0)
    traj = propagate_adiabatic(
        schedule_from_profile(prof), initial=AdiabaticState(x=0.0, y=1.0)
    )
    assert prof.params["u_s"] == pytest.approx(0.015105, abs=1e-5)
    assert traj.final_state.y ** 2 == pytest.approx(0.9094, abs=5e-4)
    # the lab-frame signal is the same number: jumps do not touch lab fields
    assert traj.final_state.y ** 2 == pytest.approx(
        propagate_reduced(prof).efficiency, abs=1e-12
    )


#: Knot table with three slope jumps, two of them sign changes.
KINKED = ([0.0, 3.0, 7.0, 12.0], [1.5, 0.4, 1.2, 0.1])


def test_rotated_frame_rejects_interior_knots():
    # a step ending on a knot would take the next segment's slope
    with pytest.raises(ProfileDomainMismatch, match="interior knots"):
        schedule_from_profile(tabulated_protocol(*KINKED))


def test_frame_consistency_all_protocols():
    opts = IntegratorOptions(steps_per_unit=50.0)
    profiles = [
        optimal_protocol(100.0),
        constant_protocol(100.0),
        adiabatic_protocol(100.0, 50.0, 5.0),
        # exp(-(z - zeta0)/(2 zbar)) overflows for z < 148: the slope must
        # stay finite there and the angle build must not warn
        adiabatic_protocol(2000.0, 1000.0, 0.6),
    ]
    for prof in profiles:
        tr_lab = propagate_reduced(prof, opts=opts)
        tr_rot = propagate_adiabatic(
            schedule_from_profile(prof),
            initial=adiabatic_initial(prof, FieldState(1.0, 0.0)),
            opts=opts,
        )
        y_lab, x_lab = lab_to_rotated(prof, tr_lab)
        assert np.max(np.abs(y_lab - tr_rot.y)) < 1e-8
        assert np.max(np.abs(x_lab - tr_rot.x)) < 1e-8


# ---------------------------------------------------------------------------
# Conservation and dissipation structure
# ---------------------------------------------------------------------------

def test_norm_never_increases():
    rng = np.random.default_rng(17)
    for _ in range(20):
        knots_z = np.sort(np.concatenate([[0.0, 10.0], rng.uniform(0, 10, 4)]))
        knots_t = rng.uniform(0.0, HALF_PI, knots_z.size)
        prof = tabulated_protocol(knots_z, knots_t)
        traj = propagate_reduced(prof)
        assert np.all(np.diff(traj.norm_sq) <= 1e-12)


def test_dissipation_identity_residual_shrinks():
    prof = constant_protocol(10.0)
    _, res = dissipation_order(prof, [100, 200, 400])
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-7


def test_dissipation_identity_order_band():
    for prof in (constant_protocol(10.0), adiabatic_protocol(10.0, 5.0, 2.0)):
        slope, _ = dissipation_order(prof, [50, 100, 200, 400])
        assert 3.5 < slope < 4.5


def test_final_state_fourth_order_convergence():
    # Halving the step cuts the final-state error by about 2^4.
    prof = adiabatic_protocol(10.0, 5.0, 1.0)
    ref = propagate_reduced(prof, opts=IntegratorOptions(step_count=51200)).final_state
    errs = []
    for n in (50, 100, 200):
        fs = propagate_reduced(prof, opts=IntegratorOptions(step_count=n)).final_state
        errs.append(math.hypot(fs.omega_p - ref.omega_p, fs.omega_s - ref.omega_s))
    for a, b in zip(errs[:-1], errs[1:]):
        assert 8.0 < a / b < 32.0


def test_kinked_table_fourth_order_convergence():
    # the grid has a node at every knot, so no step straddles a slope jump
    prof = tabulated_protocol(*KINKED)
    exact = propagate_piecewise_exact(prof)
    errs = []
    for n in (50, 100, 200, 400):
        fs = propagate_reduced(prof, opts=IntegratorOptions(step_count=n)).final_state
        errs.append(math.hypot(fs.omega_p - exact.omega_p, fs.omega_s - exact.omega_s))
    for a, b in zip(errs[:-1], errs[1:]):
        assert 8.0 < a / b < 32.0


# ---------------------------------------------------------------------------
# Jump handling
# ---------------------------------------------------------------------------

def test_interior_jump_leaves_fields_continuous():
    # a kink (slope jump) at the cut: the grid has a node there, and the
    # state at it is the one the left segment alone ends with
    alpha, cut = 8.0, 4.0
    th0, th1, th2 = 1.4, 1.1, 0.3
    opts = IntegratorOptions(step_count=80)
    kinked = tabulated_protocol([0.0, cut, alpha], [th0, th1, th2])
    combined = propagate_reduced(kinked, opts=opts)

    left = propagate_reduced(
        tabulated_protocol([0.0, cut], [th0, th1]), opts=IntegratorOptions(step_count=40)
    )
    right = propagate_reduced(
        tabulated_protocol([0.0, alpha - cut], [th1, th2]),
        initial=left.final_state,
        opts=IntegratorOptions(step_count=40),
    )

    i_cut = int(np.flatnonzero(combined.zeta == cut)[0])
    # the state at the jump is exactly the left-segment endpoint: zero change
    assert combined.omega_p[i_cut] == left.omega_p[-1]
    assert combined.omega_s[i_cut] == left.omega_s[-1]
    # and the downstream evolution matches the manual composition (up to
    # last-place differences in the two linspace grids)
    assert combined.omega_p[-1] == pytest.approx(right.omega_p[-1], abs=1e-14)
    assert combined.omega_s[-1] == pytest.approx(right.omega_s[-1], abs=1e-14)


def test_boundary_jumps_do_not_change_lab_fields():
    # optimal protocol with jumps vs the same interior without them
    prof = optimal_protocol(50.0)
    bare = dataclasses.replace(
        tabulated_protocol(*zip(*prof.knots)),
        theta_pre=prof.knots[0][1],
        theta_post=prof.knots[-1][1],
    )
    a = propagate_reduced(prof)
    b = propagate_reduced(bare)
    assert a.final_state == b.final_state


# ---------------------------------------------------------------------------
# Microscopically closed route
# ---------------------------------------------------------------------------

def test_exact_no_controls_pure_absorption():
    traj = propagate_exact(
        lambda z: (0.0, 0.0), alpha=3.0, rates=Rates(1.0, 1.0, 0.3),
        opts=IntegratorOptions(steps_per_unit=200),
    )
    assert abs(traj.omega_p[-1] - math.exp(-1.5)) < 1e-10
    assert abs(traj.omega_s[-1]) < 1e-15


def controls_of(profile):
    def ctrl(z):
        th = profile.theta(z)
        return np.sin(th), np.cos(th)

    return ctrl


@pytest.mark.parametrize("alpha", [1.0, 10.0, 100.0])
def test_oracle_equivalence_all_protocols(alpha):
    # Exact steady solve + field equations vs the reduced system: identical
    # algebra under the reduction assumptions, so the fixed grids agree to
    # rounding, far inside the 1e-8 contract.
    profiles = [
        optimal_protocol(alpha),
        constant_protocol(alpha),
        adiabatic_protocol(alpha, alpha / 2.0, 5.0),
    ]
    for prof in profiles:
        tr_e = propagate_exact(controls_of(prof), alpha, Rates(1.0, 1.0, 0.0))
        tr_r = propagate_reduced(prof)
        assert abs(complex(tr_e.omega_p[-1]) - tr_r.omega_p[-1]) < 1e-8
        assert abs(complex(tr_e.omega_s[-1]) - tr_r.omega_s[-1]) < 1e-8


def test_exact_route_independent_of_common_decay_rate():
    # Equal decay rates cancel between the coherence and field equations.
    prof = constant_protocol(10.0)
    a = propagate_exact(controls_of(prof), 10.0, Rates(1.0, 1.0, 0.0))
    b = propagate_exact(controls_of(prof), 10.0, Rates(2.5, 2.5, 0.0))
    assert abs(a.omega_p[-1] - b.omega_p[-1]) < 1e-13
    assert abs(a.omega_s[-1] - b.omega_s[-1]) < 1e-13


def test_exact_route_reference_efficiencies_at_100():
    # Full microscopic loop against the two reference numbers: the constant
    # protocol driven through theta, and the adiabatic protocol driven by
    # its sigmoid envelopes directly.
    tr = propagate_exact(controls_of(constant_protocol(100.0)), 100.0, Rates())
    assert abs(tr.omega_s[-1]) ** 2 == pytest.approx(0.9077, abs=5e-4)

    zeta0, zbar = 50.0, 5.0

    def sigmoid_controls(z):
        return (
            (1.0 + np.exp((z - zeta0) / zbar)) ** -0.5,
            (1.0 + np.exp(-(z - zeta0) / zbar)) ** -0.5,
        )

    tr = propagate_exact(sigmoid_controls, 100.0, Rates())
    assert abs(tr.omega_s[-1]) ** 2 == pytest.approx(0.8197, abs=5e-4)


def test_exact_route_propagates_singular_system():
    from doublelambda import SingularSystem

    with pytest.raises(SingularSystem):
        propagate_exact(lambda z: (0.0, 0.0), alpha=1.0, rates=Rates(1.0, 1.0, 0.0))


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
def test_exact_route_rejects_invalid_alpha(alpha):
    from doublelambda import InvalidAlpha

    with pytest.raises(InvalidAlpha):
        propagate_exact(controls_of(constant_protocol(1.0)), alpha)


def test_exact_route_rejects_non_finite_fields():
    from doublelambda import NonFinite

    prof = constant_protocol(1.0)
    with pytest.raises(NonFinite):
        propagate_exact(controls_of(prof), 1.0, initial=FieldState(math.inf, 0.0))


def test_exact_route_with_dephasing_loses_more():
    prof = constant_protocol(10.0)
    clean = propagate_exact(controls_of(prof), 10.0, Rates(1.0, 1.0, 0.0))
    noisy = propagate_exact(controls_of(prof), 10.0, Rates(1.0, 1.0, 0.2))
    assert abs(noisy.omega_s[-1]) < abs(clean.omega_s[-1])


def test_exact_route_general_rates_matches_staged_rk4():
    # Unequal decay rates, ground dephasing, a complex control phase,
    # interior breakpoints and a non-unit input, against RK4 written out
    # stage by stage with the steady solve at the actual stage fields.
    rates = Rates(1.3, 0.7, 0.2)
    prof = tabulated_protocol([0.0, 2.0, 5.5, 8.0], [1.4, 1.0, 0.6, 0.2])
    phase = cmath.exp(0.7j)

    def ctrl(z):
        th = prof.theta(z)
        return phase * np.sin(th), np.cos(th)

    def rhs(f, z):
        oc, od = ctrl(z)
        sol = steady_coherences(DriveFields(f[0], f[1], oc, od), rates)
        return 0.5j * np.array([rates.gamma31 * sol.rho31, rates.gamma41 * sol.rho41])

    f = np.array([0.8, -0.3], dtype=complex)
    zs, fs = [0.0], [f]
    for a, b, n in ((0.0, 2.0, 20), (2.0, 5.5, 35), (5.5, 8.0, 25)):
        z = np.linspace(a, b, n + 1)
        for z0, z1 in zip(z[:-1], z[1:]):
            h, zh = z1 - z0, 0.5 * (z0 + z1)
            k1 = rhs(f, z0)
            k2 = rhs(f + 0.5 * h * k1, zh)
            k3 = rhs(f + 0.5 * h * k2, zh)
            k4 = rhs(f + h * k3, z1)
            f = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            zs.append(z1)
            fs.append(f)
    ref = np.array(fs)

    traj = propagate_exact(ctrl, 8.0, rates, initial=FieldState(0.8, -0.3),
                           breakpoints=prof.breakpoints)
    assert np.array_equal(traj.zeta, zs)
    assert np.max(np.abs(traj.omega_p - ref[:, 0])) <= 1e-12
    assert np.max(np.abs(traj.omega_s - ref[:, 1])) <= 1e-12


def test_final_state_keeps_complex_amplitudes():
    # A phase on the control pair rephases the converted signal.
    prof = constant_protocol(10.0)

    def ctrl(z):
        th = prof.theta(z)
        return 1j * np.sin(th), np.cos(th)

    traj = propagate_exact(ctrl, 10.0, Rates())
    fs = traj.final_state
    assert fs.omega_s == traj.omega_s[-1]
    assert fs.omega_s.imag == pytest.approx(-0.654, abs=1e-3)
    assert abs(fs.omega_s) ** 2 == pytest.approx(
        constant_efficiency_closed(10.0), abs=1e-6)
    assert fs.norm_sq == pytest.approx(traj.norm_sq[-1], rel=1e-15)


def _complex_exact_run(controls, alpha, opts, breakpoints=()):
    """States of the exact route with A and the input kept complex throughout.

    Integrated by the frozen reference kernel, which never drops to real
    arithmetic, rather than by the shared driver under test.
    """
    unit_p, unit_s = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])

    def matrices(z):
        oc, od = (np.broadcast_to(c, z.shape) for c in controls(z))
        sol = steady_coherences(DriveFields(unit_p, unit_s, oc, od), Rates())
        return np.moveaxis(np.stack([0.5j * sol.rho31, 0.5j * sol.rho41]), -1, 0)

    grid = propagation._segment_grid(alpha, breakpoints, opts.resolve_steps(alpha))
    return reference_rk4(matrices, grid, np.array([1.0, 0.0], dtype=complex))


def test_exact_route_real_system_matches_complex_kernel(monkeypatch):
    # Real controls at gamma21 = 0 give a real A, which the route builds and
    # applies in real arithmetic; the states must be the complex kernel's.
    dtypes = []
    build = propagation._rk4_step_matrices

    def recording(a0, a_mid, a1, h):
        dtypes.append(a0.dtype)
        return build(a0, a_mid, a1, h)

    monkeypatch.setattr(propagation, "_rk4_step_matrices", recording)
    alpha = 150.0  # 1500 steps: two chunks
    for kind in ("optimal", "constant", "adiabatic"):
        prof = build_profile(kind, alpha)
        dtypes.clear()
        traj = propagate_exact(controls_of(prof), alpha, breakpoints=prof.breakpoints)
        assert dtypes == [np.float64, np.float64]
        ref = _complex_exact_run(controls_of(prof), alpha, IntegratorOptions(),
                                 prof.breakpoints)
        assert traj.omega_p.dtype == traj.omega_s.dtype == complex
        assert np.array_equal(traj.omega_p, ref[:, 0])
        assert np.array_equal(traj.omega_s, ref[:, 1])
        assert traj.final_state == FieldState(ref[-1, 0].item(), ref[-1, 1].item())

    # a control phase on one half of the medium, 4500 steps in five chunks:
    # switched on halfway (real chunks, then complex ones) and switched off
    # halfway (complex chunks, then real ones on a complex state)
    prof = constant_protocol(alpha)
    opts = IntegratorOptions(steps_per_unit=30.0)
    phase = cmath.exp(0.7j)
    for first, second, chunks in ((1.0, phase, [np.float64] * 2 + [np.complex128] * 3),
                                  (phase, 1.0, [np.complex128] * 3 + [np.float64] * 2)):

        def phased(z, first=first, second=second):
            th = prof.theta(z)
            return np.where(z < 0.5 * alpha, first, second) * np.sin(th), np.cos(th)

        dtypes.clear()
        traj = propagate_exact(phased, alpha, opts=opts)
        assert dtypes == chunks
        ref = _complex_exact_run(phased, alpha, opts)
        assert (traj.omega_p == ref[:, 0]).all() and (traj.omega_s == ref[:, 1]).all()
        assert traj.omega_s[-1].imag != 0.0


# ---------------------------------------------------------------------------
# Closed-form segment propagator
# ---------------------------------------------------------------------------

def test_segment_step_matches_rk4_on_constant_slope():
    sched = ControlSchedule(alpha=6.0, u=lambda z: np.full_like(np.asarray(z, float), 0.09))
    traj = propagate_adiabatic(
        sched, initial=AdiabaticState(x=0.2, y=0.9),
        opts=IntegratorOptions(step_count=6000),
    )
    y, x = segment_step(0.9, 0.2, 0.09, 6.0)
    assert traj.final_state.y == pytest.approx(y, abs=1e-12)
    assert traj.final_state.x == pytest.approx(x, abs=1e-12)


def test_segment_step_branch_continuity_at_quarter():
    # u crossing 1/4 switches hyperbolic <-> trigonometric evaluation.
    eps = 1e-9
    below = segment_step(1.0, 0.1, 0.25 - eps, 3.0)
    at = segment_step(1.0, 0.1, 0.25, 3.0)
    above = segment_step(1.0, 0.1, 0.25 + eps, 3.0)
    for a, b in zip(below, at):
        assert a == pytest.approx(b, abs=1e-7)
    for a, b in zip(above, at):
        assert a == pytest.approx(b, abs=1e-7)


def test_piecewise_exact_matches_fine_rk4():
    rng = np.random.default_rng(9)
    for _ in range(5):
        z = np.sort(np.concatenate([[0.0, 20.0], rng.uniform(0, 20, 5)]))
        t = rng.uniform(0.0, HALF_PI, z.size)
        prof = tabulated_protocol(z, t)
        exact = propagate_piecewise_exact(prof)
        rk = propagate_reduced(prof, opts=IntegratorOptions(steps_per_unit=1000)).final_state
        assert exact.omega_p == pytest.approx(rk.omega_p, abs=1e-7)
        assert exact.omega_s == pytest.approx(rk.omega_s, abs=1e-7)


def test_piecewise_exact_long_segment_does_not_overflow():
    # One constant-slope segment of length 1e4: cosh/sinh(k dz) alone would
    # overflow, the damped combination does not.
    fs = propagate_piecewise_exact(constant_protocol(1e4))
    assert fs.omega_s**2 == pytest.approx(constant_efficiency_closed(1e4), rel=1e-12)


def test_piecewise_exact_rejects_overflowing_slope():
    # 64 segments of length 4.7e-310: the first one's drop of pi/2 gives a
    # slope past the largest float, and the angle it held is lost
    alpha = 3e-308
    thetas = np.zeros(65)
    thetas[0] = HALF_PI
    prof = tabulated_protocol(np.linspace(0.0, alpha, 65), thetas)
    with pytest.raises(NonFinite):
        propagate_piecewise_exact(prof)


def test_piecewise_exact_requires_knots():
    with pytest.raises(ProfileDomainMismatch):
        propagate_piecewise_exact(adiabatic_protocol(10.0, 5.0, 2.0))


# ---------------------------------------------------------------------------
# Options validation
# ---------------------------------------------------------------------------

def test_integrator_options_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(step_count=1)
    with pytest.raises(ValueError):
        IntegratorOptions(steps_per_unit=0.0)
    for spu in (math.inf, -math.inf, math.nan):
        with pytest.raises(DoubleLambdaError):
            IntegratorOptions(steps_per_unit=spu)
    assert IntegratorOptions().resolve_steps(0.01) == 2  # floor of two steps


def test_resolved_step_count_is_capped():
    assert MAX_STEPS >= 100 * 51_200  # far above the finest grid in this suite
    assert IntegratorOptions(steps_per_unit=1.0).resolve_steps(MAX_STEPS) == MAX_STEPS
    for opts, alpha in ((IntegratorOptions(), 1e7),
                        (IntegratorOptions(steps_per_unit=1.0), float(MAX_STEPS + 1)),
                        (IntegratorOptions(step_count=MAX_STEPS + 1), 1.0),
                        (IntegratorOptions(), math.inf),
                        (IntegratorOptions(), math.nan)):
        with pytest.raises(DoubleLambdaError):
            opts.resolve_steps(alpha)


@pytest.mark.parametrize("route", [
    lambda p, opts: propagate_reduced(p, opts=opts),
    lambda p, opts: propagate_adiabatic(schedule_from_profile(p), opts=opts),
    lambda p, opts: propagate_exact(controls_of(p), p.alpha, opts=opts),
], ids=["reduced", "adiabatic", "exact"])
def test_grid_step_share_overflow_raises_non_finite(route):
    # n_steps * alpha overflows: a NonFinite, not a bare OverflowError
    with pytest.raises(NonFinite, match="overflow the grid"):
        route(build_profile("constant", 1e308), IntegratorOptions(step_count=10))


def test_grid_of_overflowing_depth_keeps_pieces_that_fit():
    # n_steps * alpha overflows, but each piece's share does not: grid unchanged
    grid = propagation._segment_grid(1e308, [5e307], 2)
    assert grid.tolist() == [0.0, 5e307, 1e308]


def test_dissipation_residual_requires_uniform_grid():
    # the short first segment forces a step size different from the rest
    prof = tabulated_protocol([0.0, 0.05, 10.0], [1.5, 1.2, 0.1])
    traj = propagate_reduced(prof)
    with pytest.raises(ValueError):
        dissipation_residual(traj)


def test_dissipation_residual_requires_the_mixing_angle():
    # the exact route is driven by controls, so its trajectory carries no angle
    traj = propagate_exact(controls_of(constant_protocol(1.0)), 1.0)
    assert traj.theta is None
    with pytest.raises(ValueError, match="no mixing angle"):
        dissipation_residual(traj)


# ---------------------------------------------------------------------------
# Batched propagation: chunking of the shared RK4 integrator
# ---------------------------------------------------------------------------

def _count_builds(monkeypatch) -> list[int]:
    """Record the step count of every step-matrix build."""
    builds = []
    build = propagation._rk4_step_matrices

    def counting(a0, a_mid, a1, h):
        builds.append(h.size)
        return build(a0, a_mid, a1, h)

    monkeypatch.setattr(propagation, "_rk4_step_matrices", counting)
    return builds


def test_batch_builds_step_matrices_per_chunk_not_per_run(monkeypatch):
    # the runs of an efficiency curve, 3 protocols x 8 alphas at 10 steps per
    # unit: per protocol, runs of 2, 3, 11, 40, 130 and 400 steps and the
    # first 438 of the 1100-step run fill one chunk; that run then ends in a
    # chunk of 662 steps and the 2900-step run in chunks of 1024, 1024 and
    # 852, each flushed as its run ends -- 15 builds where one per run and
    # per chunk of a run would take 33
    assert _BLOCK == 1024
    builds = _count_builds(monkeypatch)
    alphas = [0.07, 0.3, 1.1, 4.0, 13.0, 40.0, 110.0, 290.0]
    runs = [(build_profile(kind, alpha), IntegratorOptions())
            for kind in ("adiabatic", "constant", "optimal") for alpha in alphas]
    trajectories = list(propagate_reduced_many(runs))
    assert [len(t.zeta) - 1 for t in trajectories[:8]] == [2, 3, 11, 40, 130, 400, 1100, 2900]
    assert builds == [1024, 662, 1024, 1024, 852] * 3


def test_dissipation_order_runs_share_one_build(monkeypatch):
    builds = _count_builds(monkeypatch)
    dissipation_order(build_profile("constant", 1.0), [10, 20, 40, 80])
    assert builds == [150]


def test_batch_yields_run_spanning_chunks_before_pulling_the_next():
    # a run longer than a chunk is yielded before the next run's grid exists
    pulled = []

    def runs():
        for i, n in enumerate([10, 3 * _BLOCK, 10]):
            pulled.append(i)
            yield build_profile("constant", 1.0 + i), IntegratorOptions(step_count=n)

    batch = propagate_reduced_many(runs())
    assert len(next(batch).zeta) == 11 and pulled == [0, 1]
    assert len(next(batch).zeta) == 3 * _BLOCK + 1 and pulled == [0, 1]
    assert len(next(batch).zeta) == 11 and pulled == [0, 1, 2]


@pytest.mark.parametrize("profile, steps", [
    (build_profile("optimal", 3.0), 2 * _BLOCK + 1),
    (build_profile("adiabatic", 30.0), _BLOCK),
    (tabulated_protocol([0.0, 1.0, 2.0, 3.0], [1.5, 1.0, 0.4, 0.1]), 3 * _BLOCK),
    (build_profile("constant", 1e-6), 2),
], ids=["past-two-chunks", "one-chunk", "knots-on-chunk-edges", "two-steps"])
def test_chunk_stream_is_the_trajectory_in_pieces(profile, steps, monkeypatch):
    builds = _count_builds(monkeypatch)
    initial = FieldState(0.6, -0.8)
    opts = IntegratorOptions(step_count=steps)
    chunks = propagate_reduced_chunks(profile, initial, opts)
    assert builds == []  # nothing integrated before the stream is read
    pieces = list(chunks)
    assert [len(z) for z, _, _ in pieces] == [1 + b for b in builds[:1]] + builds[1:]
    assert all(len(z) == len(theta) == len(v) for z, theta, v in pieces)
    traj = propagate_reduced(profile, initial, opts)
    for name, column in (("zeta", 0), ("theta", 1)):
        joined = np.concatenate([piece[column] for piece in pieces])
        assert joined.tobytes() == getattr(traj, name).tobytes()
    states = np.concatenate([v for _, _, v in pieces])
    assert states[:, 0].tobytes() == traj.omega_p.tobytes()
    assert states[:, 1].tobytes() == traj.omega_s.tobytes()


def test_chunk_stream_checks_before_it_is_read():
    with pytest.raises(NonFinite):
        propagate_reduced_chunks(tabulated_protocol([0.0, 1e-310, 10.0], [1.4, 0.2, 0.1]))
    with pytest.raises(DoubleLambdaError, match="RK4 steps requested"):
        propagate_reduced_chunks(build_profile("optimal", 1e7))


def assert_same_bits(traj, alone):
    for name in ("zeta", "omega_p", "omega_s"):
        a, b = getattr(traj, name), getattr(alone, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert traj.theta is None and alone.theta is None


def _exact_runs(alpha):
    """The three protocols and a kinked table, as ``propagate_exact_many`` runs."""
    profiles = [build_profile(kind, alpha) for kind in ("optimal", "constant", "adiabatic")]
    profiles.append(tabulated_protocol([0.0, 0.2 * alpha, 0.55 * alpha, alpha],
                                       [1.4, 1.0, 0.6, 0.2]))
    return [(controls_of(p), alpha, IntegratorOptions(), p.breakpoints) for p in profiles]


@pytest.mark.parametrize("alpha, chunks", [
    (2.0, [80]),                     # four runs of 20 steps in one chunk
    (30.0, [1024, 176]),             # runs of 300: the fourth spans two chunks
    (60.0, [1024, 176, 1024, 176]),  # runs of 600: every chunk ends inside a run
])
def test_exact_batch_matches_each_run_alone(alpha, chunks, monkeypatch):
    builds = _count_builds(monkeypatch)
    runs = _exact_runs(alpha)
    batch = list(propagate_exact_many(runs))
    assert builds == chunks
    for traj, (controls, a, opts, breakpoints) in zip(batch, runs, strict=True):
        assert_same_bits(traj, propagate_exact(controls, a, opts=opts, breakpoints=breakpoints))


@pytest.mark.parametrize("alpha", [2.0, 60.0])
@pytest.mark.parametrize("switch", [0.0, 0.5], ids=["phased", "phase-on-halfway"])
def test_exact_batch_with_a_phased_run_matches_each_run_alone(alpha, switch):
    # a complex run between real ones makes the chunks it shares with them
    # complex; the real runs there must keep the bits they have alone
    profile = build_profile("constant", alpha)
    phase = cmath.exp(0.7j)

    def phased(z):
        th = profile.theta(z)
        return np.where(z < switch * alpha, 1.0, phase) * np.sin(th), np.cos(th)

    real = _exact_runs(alpha)
    runs = [real[0], (phased, alpha, IntegratorOptions(), ()), *real[1:]]
    batch = list(propagate_exact_many(runs, Rates(), FieldState(0.8, 0.6)))
    for traj, (controls, a, opts, breakpoints) in zip(batch, runs, strict=True):
        alone = propagate_exact(controls, a, Rates(), FieldState(0.8, 0.6), opts, breakpoints)
        assert_same_bits(traj, alone)
    assert batch[1].omega_s[-1].imag != 0.0
    assert not batch[0].omega_s.imag.any() and not batch[2].omega_s.imag.any()


def test_exact_batch_yields_run_spanning_chunks_before_pulling_the_next():
    pulled = []
    profile = build_profile("constant", 1.0)

    def runs():
        for i, n in enumerate([10, 3 * _BLOCK, 10]):
            pulled.append(i)
            yield controls_of(profile), 1.0, IntegratorOptions(step_count=n), ()

    batch = propagate_exact_many(runs())
    assert len(next(batch).zeta) == 11 and pulled == [0, 1]
    assert len(next(batch).zeta) == 3 * _BLOCK + 1 and pulled == [0, 1]
    assert len(next(batch).zeta) == 11 and pulled == [0, 1, 2]


def test_long_run_holds_its_states_once():
    # a run owns one (len(grid), 2) state array that its chunks write into;
    # the grid, angles and states it returns take 32 bytes per step
    n = 200_000
    profile = build_profile("optimal", 100.0)
    propagate_reduced(build_profile("optimal", 1.0))  # imports and caches outside the trace
    tracemalloc.start()
    try:
        traj = propagate_reduced(profile, opts=IntegratorOptions(step_count=n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.zeta) == n + 1
    assert peak / n < 40


def test_exact_run_holds_its_states_once():
    # the exact route's run takes a complex v0, so its real steps write into
    # the one complex state array it returns, with no copy at the end: the
    # grid and states take 40 bytes per step (56 with a real array copied)
    n = 200_000
    profile = build_profile("optimal", 100.0)
    propagate_exact(controls_of(profile), 1.0)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        traj = propagate_exact(controls_of(profile), 100.0, breakpoints=profile.breakpoints,
                               opts=IntegratorOptions(step_count=n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.zeta) == n + 1
    assert traj.omega_p.dtype == traj.omega_s.dtype == complex
    assert peak / n < 48
