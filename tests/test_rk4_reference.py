"""Every RK4 route against a frozen copy of the per-propagation kernel.

``reference_rk4`` is the kernel the routes used while each propagation built
and applied its own step matrices, one block of up to 1024 steps at a time.
The shared build/apply integrator must reproduce it bit for bit
(``np.array_equal``) on every route, alone and in batches whose chunks of
``_BLOCK`` steps end both inside and between propagations.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelambda import pmp_search
from doublelambda.bloch_steady import DriveFields, Rates, projector_matrix, steady_coherences
from doublelambda.pmp_search import integrate_adjoint_along_arc, verify_singular_arc
from doublelambda.propagation import (
    _BLOCK,
    FieldState,
    IntegratorOptions,
    Trajectory,
    _exact_batch,
    _lab_matrices,
    _lab_run,
    _rk4,
    _rotate,
    _slope_matrices,
    adiabatic_initial,
    propagate_adiabatic,
    propagate_exact,
    propagate_reduced,
    schedule_from_profile,
)
from doublelambda.protocols import build_profile, tabulated_protocol, theta_to_controls

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def reference_rk4(matrices, grid, v0):
    """Classical RK4 for ``dv/dzeta = A(zeta) v`` on one grid, block by block."""
    eye = np.eye(2)
    p, q = np.asarray(v0).tolist()
    blocks = [np.asarray(v0)[None, :]]
    for lo in range(0, grid.size - 1, 1024):
        z = grid[lo : lo + 1024 + 1]
        h = np.diff(z)[:, None, None]
        a = matrices(z)
        a_half = matrices(0.5 * (z[:-1] + z[1:]))
        k = a[:-1]
        r = k.copy()
        for a_stage, frac, weight in ((a_half, 0.5, 2.0), (a_half, 0.5, 2.0), (a[1:], 1.0, 1.0)):
            k = a_stage @ (eye + frac * h * k)
            r += weight * k
        r *= h / 6.0
        r += eye
        out = []
        extend = out.extend
        for r00, r01, r10, r11 in r.reshape(-1, 4).tolist():
            p, q = r00 * p + r01 * q, r10 * p + r11 * q
            extend((p, q))
        blocks.append(np.array(out, dtype=np.result_type(r, v0)).reshape(-1, 2))
    return np.concatenate(blocks)


def linspace_grid(alpha, breakpoints, n_steps):
    """A propagation's grid built piece by piece with ``np.linspace``: a node
    at every breakpoint, each piece its share of the steps."""
    cuts = [0.0, *sorted({b for b in breakpoints if 0.0 < b < alpha}), alpha]
    pieces = [np.linspace(a, b, max(1, round(n_steps * (b - a) / alpha)) + 1)
              for a, b in zip(cuts[:-1], cuts[1:])]
    return np.concatenate([pieces[0]] + [p[1:] for p in pieces[1:]])


def reduced_batch(runs, initial=FieldState(1.0, 0.0)):
    """Whole trajectories of ``(profile, opts)`` runs batched through the
    shared driver, as ``propagate_reduced`` collects a run of one."""
    lab_runs = (_lab_run(profile, opts, initial) for profile, opts in runs)
    for zeta, theta, v in _rk4(_lab_matrices, lab_runs, keep_nodes=True):
        yield Trajectory(zeta=zeta, omega_p=v[:, 0], omega_s=v[:, 1], theta=theta)


def exact_batch(runs, rates=Rates(), initial=FieldState(1.0, 0.0)):
    """Whole trajectories of ``(controls, alpha, opts, breakpoints)`` runs
    batched through the shared driver, as ``propagate_exact`` collects a run
    of one."""
    for zeta, _, v in _rk4(*_exact_batch(runs, rates, initial)):
        yield Trajectory(zeta=zeta, omega_p=v[:, 0], omega_s=v[:, 1])


def reference_reduced(profile, n_steps, initial=FieldState(1.0, 0.0)):
    def lab_matrices(z):
        theta = np.asarray(profile.interior(z), dtype=float)
        return -0.5 * np.moveaxis(projector_matrix(theta), -1, 0)

    grid = linspace_grid(profile.alpha, profile.breakpoints, n_steps)
    v0 = np.array([float(initial.omega_p), float(initial.omega_s)])
    return grid, reference_rk4(lab_matrices, grid, v0)


def assert_reduced_matches(traj, profile, n_steps, initial=FieldState(1.0, 0.0)):
    grid, v = reference_reduced(profile, n_steps, initial)
    assert np.array_equal(traj.zeta, grid)
    assert np.array_equal(traj.omega_p, v[:, 0])
    assert np.array_equal(traj.omega_s, v[:, 1])
    assert np.array_equal(traj.theta, profile.interior(grid))


#: Step counts on either side of the first two multiples of the chunk size.
NEAR_BLOCKS = [m * _BLOCK + d for m in (1, 2) for d in (-1, 0, 1)]
STEPS = st.one_of(st.sampled_from(NEAR_BLOCKS), st.integers(2, 60))
ALPHAS = st.floats(-3.0, 3.0).map(lambda e: float(10.0**e))


@st.composite
def profiles(draw, kinds=("optimal", "constant", "adiabatic", "custom")):
    """A protocol profile at alpha in [1e-3, 1e3]; custom tables are kinked."""
    kind = draw(st.sampled_from(kinds))
    alpha = draw(ALPHAS)
    if kind == "adiabatic":
        # zbar <= 1/2 warns of broken adiabaticity, an error under the test settings
        return build_profile(kind, alpha, alpha * draw(st.floats(0.0, 1.0)),
                             draw(st.floats(0.51, 50.0)))
    if kind != "custom":
        return build_profile(kind, alpha)
    inner = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4, unique=True)))
    thetas = sorted(draw(st.lists(st.floats(0.0, math.pi / 2), min_size=len(inner) + 2,
                                  max_size=len(inner) + 2)), reverse=True)
    return tabulated_protocol([0.0, *(alpha * f for f in inner), alpha], thetas)


@PROPERTY
@given(profile=profiles(), n_steps=STEPS,
       initial=st.sampled_from([FieldState(1.0, 0.0), FieldState(0.3, -0.8)]))
def test_reduced_route_matches_reference(profile, n_steps, initial):
    traj = propagate_reduced(profile, initial, IntegratorOptions(step_count=n_steps))
    assert_reduced_matches(traj, profile, n_steps, initial)


@PROPERTY
@given(runs=st.lists(st.tuples(profiles(), STEPS), min_size=2, max_size=5))
def test_reduced_batches_match_reference(runs):
    batch = reduced_batch((profile, IntegratorOptions(step_count=n)) for profile, n in runs)
    trajectories = list(batch)
    assert len(trajectories) == len(runs)
    for traj, (profile, n) in zip(trajectories, runs):
        assert_reduced_matches(traj, profile, n)


@pytest.mark.parametrize("counts", [
    [_BLOCK - 24, 24, 5],          # a chunk ends between the first two runs
    [_BLOCK - 24, 50, 2 * _BLOCK],  # chunks end inside the second and third runs
    [2] * (_BLOCK // 2 + 3),       # many runs per chunk, one chunk end between runs
])
def test_batch_chunk_ends_inside_and_between_runs(counts):
    kinds = ("optimal", "constant", "adiabatic")
    runs = [(build_profile(kinds[i % 3], 0.5 + i), n) for i, n in enumerate(counts)]
    batch = reduced_batch((p, IntegratorOptions(step_count=n)) for p, n in runs)
    for traj, (profile, n) in zip(batch, runs, strict=True):
        assert_reduced_matches(traj, profile, n)


@PROPERTY
@given(profile=profiles(kinds=("optimal", "constant", "adiabatic")), n_steps=STEPS,
       fields=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_adiabatic_route_matches_reference(profile, n_steps, fields):
    schedule = schedule_from_profile(profile)
    initial = adiabatic_initial(profile, FieldState(*fields))
    traj = propagate_adiabatic(schedule, initial, IntegratorOptions(step_count=n_steps))
    grid = np.linspace(0.0, profile.alpha, n_steps + 1)
    v0 = np.array(_rotate(float(initial.y), float(initial.x), schedule.entry_rotation))
    v = reference_rk4(lambda z: _slope_matrices(schedule.u(z), -0.5), grid, v0)
    assert np.array_equal(traj.zeta, grid)
    assert np.array_equal(traj.y, v[:, 0])
    assert np.array_equal(traj.x, v[:, 1])
    y_out, x_out = _rotate(*v[-1].tolist(), schedule.exit_rotation)
    assert (traj.final_state.y, traj.final_state.x) == (y_out, x_out)


@PROPERTY
@given(profile=profiles(), n_steps=STEPS,
       rates=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.0, 0.5)),
       field=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_exact_route_with_complex_fields_matches_reference(profile, n_steps, rates, field):
    rates = Rates(*rates)
    initial = FieldState(complex(field[0], field[1]), complex(field[2], field[3]))
    controls = functools.partial(theta_to_controls, profile)
    traj = propagate_exact(controls, profile.alpha, rates, initial,
                           IntegratorOptions(step_count=n_steps), profile.breakpoints)
    unit_p, unit_s = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])

    def matrices(z):
        oc, od = (np.broadcast_to(c, z.shape) for c in controls(z))
        sol = steady_coherences(DriveFields(unit_p, unit_s, oc, od), rates)
        return np.moveaxis(np.stack([0.5j * rates.gamma31 * sol.rho31,
                                     0.5j * rates.gamma41 * sol.rho41]), -1, 0)

    grid = linspace_grid(profile.alpha, profile.breakpoints, n_steps)
    v = reference_rk4(matrices, grid, np.array([initial.omega_p, initial.omega_s], dtype=complex))
    assert np.array_equal(traj.zeta, grid)
    assert np.array_equal(traj.omega_p, v[:, 0])
    assert np.array_equal(traj.omega_s, v[:, 1])


@PROPERTY
@given(alpha=st.one_of(st.floats(-3.0, 1.5).map(lambda e: float(10.0**e)),
                       st.sampled_from([n / 100.0 for n in NEAR_BLOCKS])))
def test_adjoint_route_matches_reference(alpha):
    # the arc takes 100 steps per unit, so alpha = n/100 puts n steps on it
    arc = verify_singular_arc(alpha)
    z = arc.zeta[::-1]
    exact = np.column_stack([arc.lambda_y, arc.lambda_x])[::-1]
    lam = reference_rk4(lambda zz: _slope_matrices(np.full(zz.shape, arc.u_s), 0.5), z, exact[0])
    # the backward run is handed out chunk by chunk: one run, whose pieces
    # together are its states
    starts, states, chunks = [], [], pmp_search._rk4_chunks

    def recording(matrices, runs, block=None):
        for size, lo, zeta, nodes, v in chunks(matrices, runs, block):
            starts.append(lo)
            states.append(v)
            yield size, lo, zeta, nodes, v

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pmp_search, "_rk4_chunks", recording)
        deviation = integrate_adjoint_along_arc(arc)
    assert starts.count(0) == 1 and np.array_equal(np.concatenate(states), lam)
    assert deviation == float(np.max(np.abs(lam - exact)))
