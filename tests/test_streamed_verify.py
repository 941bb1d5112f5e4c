"""The streamed ``verify`` stages against whole-array references, bit for bit.

The arc checks, the adjoint run and the dissipation order take running
maxima chunk by chunk, and the arc keeps its forward states over a bounded
tail only, integrating earlier chunks again for the backward run.  Each
reference here holds whole trajectories and evaluates every formula once
over them, as the stages did before they streamed.  Densities run
log-spaced over [1e-3, 300], with arc step counts at the edges of the RK4
driver's chunks, of the routes' :data:`_BLOCK` and of the checks'
:data:`_CHECK_BLOCK` steps (the arc takes 100 steps per unit, so alpha
about n/100 puts n steps on it), and past :data:`ARC_RETAINED_STEPS`, where
the backward run integrates forward states again.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelambda.errors import DoubleLambdaError
from doublelambda.pmp_search import (
    ARC_MIN_STEPS,
    ARC_OPTIONS,
    ARC_RETAINED_STEPS,
    singular_arc_checks,
    verify_singular_arc,
)
from doublelambda.propagation import (
    _BLOCK,
    _CHECK_BLOCK,
    FieldState,
    IntegratorOptions,
    _five_point_derivative,
    _GridNodes,
    _lab_matrices,
    _lab_run,
    _ReversedNodes,
    _rk4_chunks,
    _slope_matrices,
    _stencil_window,
    dissipation_order,
    propagate_adiabatic,
    propagate_exact_finals,
    propagate_reduced_finals,
    schedule_from_profile,
)
from doublelambda.protocols import (
    build_profile,
    optimal_protocol,
    tabulated_protocol,
    theta_to_controls,
)
from test_rk4_reference import (
    NEAR_BLOCKS,
    exact_batch,
    linspace_grid,
    reduced_batch,
    reference_rk4,
)


def arc_alpha(n):
    """A density at which the arc takes ``n`` steps: n/100, or the float just
    below it where ``n/100 * 100`` rounds above ``n``."""
    alpha = n / 100.0
    while ARC_OPTIONS.resolve_steps(alpha) > n:
        alpha = math.nextafter(alpha, 0.0)
    return alpha


LOG_SPACED = [float(a) for a in np.geomspace(1e-3, 300.0, 9)]
NEAR_CHECK_BLOCKS = [2 * _CHECK_BLOCK + d for d in (-1, 0, 1)]
# one step past the tail, whose backward run ends on one node integrated
# again; a tail and a chunk not whole; a tail and three whole chunks of the
# checks and one step, whose backward run ends on a one-step chunk from node
# 0; a tail and 32 chunks and one step
RECOMPUTED_STEPS = [n + ARC_RETAINED_STEPS
                    for n in (1, 4464, 3 * _CHECK_BLOCK + 1, ARC_RETAINED_STEPS + 1)]
ARC_STEPS = NEAR_BLOCKS + NEAR_CHECK_BLOCKS + [ARC_RETAINED_STEPS] + RECOMPUTED_STEPS
RECOMPUTED = [arc_alpha(n) for n in RECOMPUTED_STEPS]
ALPHAS = LOG_SPACED + [arc_alpha(n) for n in ARC_STEPS]


def five_point(f, h):
    return (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)


def reference_arc(alpha):
    """The arc's samples and checks from one whole forward and one whole backward run."""
    profile = optimal_protocol(alpha)
    theta0, u = profile.params["theta0"], profile.params["u_s"]
    n = max(ARC_MIN_STEPS, ARC_OPTIONS.resolve_steps(alpha))
    traj = propagate_adiabatic(schedule_from_profile(profile),
                               opts=IntegratorOptions(step_count=n))
    z, x, y = traj.zeta, traj.x, traj.y
    lx, ly = -1.0 / (2.0 * y), 1.0 / (2.0 * x)
    phi = lx * y - ly * x + 1.0
    hc = phi * u - 0.5 * lx * x
    h = z[1] - z[0]
    lam = reference_rk4(lambda zz: _slope_matrices(np.full(zz.shape, u), 0.5), z[::-1],
                        np.array([ly[-1], lx[-1]]))
    samples = {"zeta": z, "x": x, "y": y, "lambda_x": lx, "lambda_y": ly, "phi": phi, "hc": hc}
    checks = {
        "max_abs_phi": np.max(np.abs(phi)),
        "hc_drift": np.max(np.abs(hc - hc[0])),
        "feedback_residual": np.max(np.abs(x * y / (2.0 * (x * x + y * y)) - u)),
        "ratio_residual": np.max(np.abs(y / x - math.tan(theta0))),
        "adjoint_fd_residual": max(
            np.max(np.abs(five_point(lx, h) - (u * ly[2:-2] + 0.5 * lx[2:-2]))),
            np.max(np.abs(five_point(ly, h) - (-u * lx[2:-2])))),
        "adjoint_integration_error": np.max(np.maximum(np.abs(lam[:, 0] - ly[::-1]),
                                                       np.abs(lam[:, 1] - lx[::-1]))),
    }
    return samples, {name: float(value) for name, value in checks.items()}


def reference_dissipation_order(profile, steps_list):
    res = []
    runs = [(profile, IntegratorOptions(step_count=n)) for n in steps_list]
    for traj in reduced_batch(runs):
        p, s, th = traj.omega_p, traj.omega_s, traj.theta
        x = p * np.cos(th) - s * np.sin(th)
        r = five_point(p * p + s * s, traj.zeta[1] - traj.zeta[0]) + x[2:-2] ** 2
        res.append(float(np.max(np.abs(r))))
    slope = float(np.polyfit(np.log([profile.alpha / n for n in steps_list]), np.log(res), 1)[0])
    return slope, res


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def hexed(values):
    return [float(v).hex() for v in values]


def test_arc_densities_put_their_step_counts_on_the_arc():
    steps = [ARC_OPTIONS.resolve_steps(alpha) for alpha in ALPHAS[len(LOG_SPACED):]]
    assert steps == ARC_STEPS


@pytest.mark.parametrize("alpha", ALPHAS)
def test_arc_checks_match_whole_arrays(alpha):
    _, expected = reference_arc(alpha)
    checks = singular_arc_checks(verify_singular_arc(alpha))
    assert list(checks) == list(expected)
    assert hexed(checks.values()) == hexed(expected.values())


@pytest.mark.parametrize("alpha", RECOMPUTED)
def test_arc_arrays_come_from_the_tail_and_kept_starts(alpha):
    # past the retained tail: the states before it are integrated again
    samples, _ = reference_arc(alpha)
    arc = verify_singular_arc(alpha)
    assert len(arc.tail) == ARC_RETAINED_STEPS + 1 < len(samples["zeta"])
    for name, values in samples.items():
        got = getattr(arc, name)
        assert got.dtype == values.dtype and got.tobytes() == values.tobytes(), name


@pytest.mark.parametrize("alpha", LOG_SPACED)
def test_dissipation_order_matches_whole_trajectories(alpha):
    # the step counts verify takes at the default resolution
    base = max(5, round(10 * alpha))
    profile = build_profile("constant", alpha)
    steps = [base, 2 * base, 4 * base, 8 * base]
    slope, res = dissipation_order(profile, steps)
    ref_slope, ref_res = reference_dissipation_order(profile, steps)
    assert hexed([slope, *res]) == hexed([ref_slope, *ref_res])


@pytest.mark.parametrize("steps", [
    [_BLOCK - 4, 6, _BLOCK + 1, 2 * _BLOCK - 1],  # a chunk ends 4 steps into a run, then 2 after
    [4, 5, 6, 7],                                 # shortest runs with a residual, one chunk
    [_BLOCK, _BLOCK, 2 * _BLOCK, 4],              # runs end on chunk edges
    [20_000, 10],                                 # a run of several chunks of checks
    # runs that end 4 steps into a chunk of the checks, 6 steps after, and on
    # its next edge; a run whose first piece is one step; runs on its edges
    [_CHECK_BLOCK + 4, 6, 2 * _CHECK_BLOCK - 10],
    [_CHECK_BLOCK - 1, 5],
    [_CHECK_BLOCK, _CHECK_BLOCK, 2 * _CHECK_BLOCK, 4],
])
def test_dissipation_order_across_chunk_edges(steps):
    profile = build_profile("adiabatic", 7.0)
    slope, res = dissipation_order(profile, steps)
    ref_slope, ref_res = reference_dissipation_order(profile, steps)
    assert hexed([slope, *res]) == hexed([ref_slope, *ref_res])


@pytest.mark.parametrize("block", [1, 7, _CHECK_BLOCK])
def test_driver_pieces_of_any_block_have_the_default_bits(block):
    # runs sharing a chunk, spanning chunks, and kinked, at 1 step a chunk too
    def pieces(block):
        runs = (_lab_run(p, IntegratorOptions(step_count=n), FieldState(0.6, -0.8))
                for p, n in zip(batch_profiles(30.0), (5, 2100, 300, 2050)))
        return list(_rk4_chunks(_lab_matrices, runs, block))

    got, default = pieces(block), pieces(None)
    assert [size for size, lo, *_ in got if lo == 0] == [6, 2101, 301, 2051]
    for _, lo, z, theta, v in got:
        assert len(z) == len(theta) == len(v) <= block + (lo == 0)
    for column in (2, 3, 4):
        whole = [np.concatenate([piece[column] for piece in p]) for p in (got, default)]
        assert whole[0].tobytes() == whole[1].tobytes()


def test_dissipation_order_refuses_a_run_without_a_residual():
    # four grid nodes leave the five-point stencil nothing to evaluate
    with pytest.raises(DoubleLambdaError, match="at least five grid nodes"):
        dissipation_order(build_profile("constant", 1.0), [10, 3])


@PROPERTY
@given(f=st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=40),
       cuts=st.lists(st.integers(0, 40), max_size=8))
def test_stencil_windows_give_the_whole_stencil_once(f, cuts):
    # pieces of any length, one sample or none included
    f = np.array(f)
    edges = [0, *sorted(cuts), len(f)]
    out, carry = [], None
    for lo, hi in zip(edges, edges[1:]):
        (window,), carry = _stencil_window(carry, (f[lo:hi],))
        out.append(_five_point_derivative(window, 0.1))
    whole = _five_point_derivative(f, 0.1)
    assert np.concatenate(out).tobytes() == whole.tobytes()


@PROPERTY
@given(alpha=st.floats(1e-3, 1e3), n_steps=st.integers(2, 5000),
       knots=st.lists(st.floats(0.0, 1.0), max_size=4),
       rows=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_grid_nodes_slice_the_segment_grid(alpha, n_steps, knots, rows):
    breakpoints = [alpha * k for k in knots]
    whole = linspace_grid(alpha, breakpoints, n_steps)
    grid = _GridNodes(alpha, breakpoints, n_steps)
    lo, hi = sorted(round(r * whole.size) for r in rows)
    assert grid.size == whole.size
    assert grid[lo:hi].tobytes() == whole[lo:hi].tobytes()
    assert _ReversedNodes(grid)[lo:hi].tobytes() == whole[::-1][lo:hi].tobytes()


def batch_profiles(alpha):
    profiles = [build_profile(kind, alpha) for kind in ("optimal", "constant", "adiabatic")]
    profiles.append(tabulated_protocol([0.0, 0.2 * alpha, 0.55 * alpha, alpha],
                                       [1.4, 1.0, 0.6, 0.2]))
    return profiles


@pytest.mark.parametrize("alpha", [0.3, 30.0, 150.0])
def test_final_samples_are_the_last_rows(alpha):
    # runs sharing a chunk, spanning chunks, and kinked: grids of several pieces
    profiles = batch_profiles(alpha)
    opts = IntegratorOptions()
    reduced = list(reduced_batch((p, opts) for p in profiles))
    exact_runs = [(functools.partial(theta_to_controls, p), alpha, opts, p.breakpoints)
                  for p in profiles]
    exact = list(exact_batch(exact_runs))
    for finals, whole in ((propagate_reduced_finals((p, opts) for p in profiles), reduced),
                          (propagate_exact_finals(exact_runs), exact)):
        finals = list(finals)
        assert len(finals) == len(whole)
        for last, traj in zip(finals, whole):
            for name in ("zeta", "omega_p", "omega_s"):
                a, b = getattr(last, name), getattr(traj, name)[-1:]
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert last.final_state == traj.final_state and last.efficiency == traj.efficiency
