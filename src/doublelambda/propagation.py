"""Spatial propagation of the probe/signal pair through the medium.

Three routes integrate the same physics at different levels of reduction:

* :func:`propagate_reduced` (and :func:`propagate_reduced_many`, its batch
  over several profiles) -- the two-field lab-frame system
  ``d(Omega_p, Omega_s)/dzeta = -1/2 P(theta) (Omega_p, Omega_s)`` with
  ``P`` the rank-one projector of the mixing angle.  On resonance the system
  is real and the overall control magnitude drops out.
* :func:`propagate_adiabatic` -- the rotated-frame system
  ``dy/dzeta = -u x``, ``dx/dzeta = u y - x/2`` where ``u = -dtheta/dzeta``;
  boundary jumps of the angle become instantaneous rotations of ``(y, x)``.
* :func:`propagate_exact` -- the field equations closed microscopically
  through the exact steady-state coherence solve, for general decay rates.

Each route is the linear system ``dv/dzeta = A(zeta) v`` with a 2x2 matrix
``A`` and supplies only that matrix to one shared fixed-step classical
fourth-order Runge-Kutta integrator, :func:`_rk4`, on one grid per
propagation with a node at every interior knot of the profile;
deterministic output is preferred over adaptivity.  The integrator builds
the step matrices of a chunk of :data:`_BLOCK` steps at once
(:func:`_rk4_step_matrices`) and applies them in order on Python scalars
(:func:`_apply_steps`).  Independent
propagations are batched through it, their steps walked in chunks that may
span several of them, with results equal bit for bit to propagating each
alone: :func:`propagate_reduced_many`.  The rotated-frame matrix holds the
slope, which jumps at a knot, so that route takes continuous slopes only.
For piecewise-linear profiles the rotated-frame system has a closed-form
matrix exponential, exposed as :func:`segment_step` /
:func:`propagate_piecewise_exact`; exact to rounding, it is an independent
oracle for the Runge-Kutta routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bloch_steady import DriveFields, Rates, steady_coherences
from .errors import DoubleLambdaError, NonFinite, ProfileDomainMismatch
from .protocols import ThetaProfile, _check_alpha


@dataclass(frozen=True)
class FieldState:
    """Probe/signal amplitudes in units of the input amplitude.

    Real on the reduced route; complex on the microscopic route, whose
    controls may carry phases.
    """

    omega_p: complex
    omega_s: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.omega_p) ** 2 + abs(self.omega_s) ** 2


@dataclass(frozen=True)
class AdiabaticState:
    """Rotated-frame amplitudes: y rides the lossless mode, x the lossy one."""

    x: float
    y: float

    @property
    def norm_sq(self) -> float:
        return self.x**2 + self.y**2


#: Most RK4 steps one propagation may take; far above any resolution in use,
#: it turns a runaway request into an error before anything is allocated.
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class IntegratorOptions:
    """Fixed-step RK4 configuration.

    ``step_count`` overrides the resolution directly; otherwise the step
    count is ``ceil(alpha * steps_per_unit)``.  Either way it may not exceed
    :data:`MAX_STEPS`.
    """

    step_count: int | None = None
    steps_per_unit: float = 10.0

    def __post_init__(self):
        if self.step_count is not None and self.step_count < 2:
            raise ValueError("step_count must be at least 2")
        if not (math.isfinite(self.steps_per_unit) and self.steps_per_unit > 0):
            raise DoubleLambdaError("steps_per_unit must be finite and positive")

    def resolve_steps(self, alpha: float) -> int:
        n = alpha * self.steps_per_unit if self.step_count is None else self.step_count
        if not n <= MAX_STEPS:
            raise DoubleLambdaError(f"{n:g} RK4 steps requested, at most {MAX_STEPS} allowed")
        return max(2, math.ceil(n))


DEFAULT_OPTIONS = IntegratorOptions()


@dataclass
class Trajectory:
    """Lab-frame trajectory samples; ``theta`` is the interior mixing angle."""

    zeta: np.ndarray
    omega_p: np.ndarray
    omega_s: np.ndarray
    theta: np.ndarray | None = None

    @property
    def final_state(self) -> FieldState:
        return FieldState(self.omega_p[-1].item(), self.omega_s[-1].item())

    @property
    def norm_sq(self) -> np.ndarray:
        return np.abs(self.omega_p) ** 2 + np.abs(self.omega_s) ** 2

    @property
    def efficiency(self) -> float:
        """Fraction of the input intensity leaving in the signal field."""
        return float(np.abs(self.omega_s[-1]) ** 2)


@dataclass
class AdiabaticTrajectory:
    """Rotated-frame samples between the boundary rotations.

    The sample at ``zeta = 0`` is taken after the entry rotation and the one
    at ``zeta = alpha`` before the exit rotation; ``final_state`` holds the
    state after the exit rotation.
    """

    zeta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    final_state: AdiabaticState


def to_adiabatic(theta: float, state: FieldState) -> AdiabaticState:
    """Rotate lab-frame fields into the frame of the mixing angle."""
    c, s = math.cos(theta), math.sin(theta)
    return AdiabaticState(
        y=s * state.omega_p + c * state.omega_s,
        x=c * state.omega_p - s * state.omega_s,
    )


def from_adiabatic(theta: float, state: AdiabaticState) -> FieldState:
    """Inverse of :func:`to_adiabatic` (the rotation is an involution)."""
    c, s = math.cos(theta), math.sin(theta)
    return FieldState(
        omega_p=s * state.y + c * state.x,
        omega_s=c * state.y - s * state.x,
    )


@dataclass
class ControlSchedule:
    """Slope control ``u(zeta) = -dtheta/dzeta``, continuous, plus boundary rotations."""

    alpha: float
    u: Callable[[np.ndarray], np.ndarray]
    entry_rotation: float = 0.0  # theta(0+) - theta(0-)
    exit_rotation: float = 0.0  # theta(alpha+) - theta(alpha-)


def schedule_from_profile(profile: ThetaProfile) -> ControlSchedule:
    """Derive the rotated-frame control schedule of an angle profile.

    The slope jumps at interior knots, which raise :class:`ProfileDomainMismatch`:
    kinked tables take :func:`propagate_reduced` or the closed form.
    """
    if profile.breakpoints:
        raise ProfileDomainMismatch(f"profile '{profile.kind}' has interior knots")
    pre, start = profile.entry_jump
    end, post = profile.exit_jump
    return ControlSchedule(
        alpha=profile.alpha,
        u=lambda z: -profile.interior_slope(np.asarray(z, dtype=float)),
        entry_rotation=start - pre,
        exit_rotation=post - end,
    )


def adiabatic_initial(profile: ThetaProfile, initial: FieldState) -> AdiabaticState:
    """Rotated-frame image of lab-frame input fields, in the incoming frame.

    The incoming frame is ``theta_pre``: pi/2 for profiles with an entry
    jump (where lab ``(1, 0)`` maps to ``(y, x) = (1, 0)``), the interior
    boundary value for jump-free profiles such as the adiabatic protocol.
    """
    return to_adiabatic(profile.theta_pre, initial)


def _segment_grid(alpha: float, breakpoints: Sequence[float], n_steps: int) -> np.ndarray:
    """Grid on [0, alpha] with a node at every breakpoint, uniform in between."""
    cuts = [0.0, *sorted({float(b) for b in breakpoints if 0.0 < b < alpha}), alpha]
    pieces = [np.zeros(1)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = max(1, round(n_steps * (b - a) / alpha))
        pieces.append(np.linspace(a, b, n + 1)[1:])
    return np.concatenate(pieces)


#: Steps whose RK4 step matrices are built at once; bounds the kernel's
#: working memory independently of the grid length and of the number of
#: propagations in a batch.
_BLOCK = 1024

_EYE = np.eye(2)


def _rk4_step_matrices(a0: np.ndarray, a_mid: np.ndarray, a1: np.ndarray,
                       h: np.ndarray) -> np.ndarray:
    """RK4 step matrices of the linear system ``dv/dzeta = A(zeta) v``.

    ``a0``, ``a_mid`` and ``a1`` hold ``A`` at the start, the midpoint and
    the end of each step, as ``(n, 2, 2)`` arrays, and ``h`` the ``n`` step
    sizes.  Linearity folds the four stages of a step into one matrix
    ``R = I + h/6 (K1 + 2 K2 + 2 K3 + K4)`` with ``K1 = A(zeta)``,
    ``K2 = A(zeta + h/2) (I + h/2 K1)``, ``K3 = A(zeta + h/2) (I + h/2 K2)``
    and ``K4 = A(zeta + h) (I + h K3)``.  Each step's matrix depends on its
    own inputs only, so steps of independent propagations may share a call.
    """
    h = h[:, None, None]
    half_h = 0.5 * h
    r = a0.copy()
    k = a0
    for a_stage, frac_h, weight in ((a_mid, half_h, 2.0), (a_mid, half_h, 2.0), (a1, h, 1.0)):
        y = frac_h * k
        y += _EYE
        k = a_stage @ y
        r += weight * k
    r *= h / 6.0
    r += _EYE
    return r


def _apply_steps(entries: list, p, q) -> list:
    """Apply step matrices in order to the state ``(p, q)``.

    ``entries`` holds the matrices flat, row by row (``r00, r01, r10, r11``
    of each step in turn).  Runs on Python floats (or complex numbers),
    carrying one state, so rounding accumulates as in a stage-by-stage
    integration; a prefix-product scan would be faster but loses accuracy at
    large ``alpha``.  Returns ``p`` and ``q`` after each step, flat.
    """
    out = []
    append = out.append
    it = iter(entries)
    for a, b, c, d in zip(it, it, it, it):
        p, q = a * p + b * q, c * p + d * q
        append(p)
        append(q)
    return out


class _Run:
    """One propagation in flight through :func:`_rk4`; it owns its states."""

    def __init__(self, grid: np.ndarray, v0: np.ndarray, at):
        self.grid = grid
        self.at = at
        # parameters of A at the grid nodes, evaluated once
        self.nodes = grid if at is None else at(grid)
        # (len(grid), 2), v0 in row 0; each chunk writes the rows of its steps
        self.states = np.empty((grid.size, 2), np.result_type(v0, float))
        self.states[0] = v0


def _rk4(matrices: Callable[[np.ndarray], np.ndarray], runs: Iterable[tuple]):
    """Classical RK4 for ``dv/dzeta = A v`` over a stream of independent runs.

    Each run is ``(grid, v0, at)``: a grid, the initial state, and the map
    ``at`` from positions to the parameters of ``A`` (``None`` when they
    are the positions themselves).  ``matrices(x)`` returns ``A`` for the
    parameters ``x`` as an ``(n, 2, 2)`` array and serves every run.

    The runs' steps are walked in order, in chunks of up to :data:`_BLOCK`
    steps that may span several runs.  Each chunk makes one ``matrices``
    call, over its step nodes and midpoints, and one
    :func:`_rk4_step_matrices` call; :func:`_apply_steps` then applies the
    steps in order, restarting from ``v0`` at each run's first step.  A
    step's matrix and its application do not depend on the chunk it falls
    in, so the states are those of each run integrated alone, bit for bit.

    Yields ``(grid, nodes, states)`` for each run, in order, as soon as its
    last step is applied: the parameters at the grid nodes and the
    ``(len(grid), 2)`` states, starting with ``v0``, in the one array the
    run owns from when it is pulled.  Runs are pulled only as the chunks
    reach them, and a run that spans chunks is yielded as soon as it ends,
    before the next run's grid is built; so the working memory is one
    chunk, the short runs it holds, and the run being yielded.
    """
    chunk = []  # (run, lo, hi): steps lo..hi of a run
    room = _BLOCK
    for grid, v0, at in runs:
        run = _Run(grid, v0, at)
        lo, n = 0, grid.size - 1
        while lo < n:
            hi = min(n, lo + room)
            chunk.append((run, lo, hi))
            room -= hi - lo
            lo = hi
            # flush a full chunk, and one that ends a run begun in an earlier chunk
            if room == 0 or (hi == n and chunk[0][1] > 0):
                yield from _rk4_chunk(matrices, chunk)
                chunk, room = [], _BLOCK
    if chunk:
        yield from _rk4_chunk(matrices, chunk)


def _rk4_chunk(matrices, chunk):
    """Build and apply one chunk of :func:`_rk4`; yield the runs it finishes."""
    nodes, mids, steps = [], [], []
    for run, lo, hi in chunk:
        z = run.grid[lo : hi + 1]
        z_mid = 0.5 * (z[:-1] + z[1:])
        nodes.append(run.nodes[lo : hi + 1])
        mids.append(z_mid if run.at is None else run.at(z_mid))
        steps.append(z[1:] - z[:-1])
    h = np.concatenate(steps)
    n = h.size
    a = matrices(np.concatenate(nodes + mids))
    if len(chunk) == 1:
        a0, a1 = a[:n], a[1 : n + 1]
    else:
        # each piece adds one node more than steps, so step i starts at node i + piece
        start = np.arange(n) + np.repeat(np.arange(len(chunk)), [x.size for x in steps])
        a0, a1 = a[start], a[start + 1]
    r = _rk4_step_matrices(a0, a[n + len(chunk) :], a1, h)
    i = 0
    for run, lo, hi in chunk:
        m = hi - lo
        out = _apply_steps(r[i : i + m].ravel().tolist(), *run.states[lo].tolist())
        i += m
        # a run stays complex once a chunk has made it so
        run.states = run.states.astype(np.result_type(r, run.states), copy=False)
        run.states[lo + 1 : hi + 1] = np.fromiter(out, run.states.dtype, 2 * m).reshape(m, 2)
        if hi == run.grid.size - 1:
            yield run.grid, run.nodes, run.states


def _slope_matrices(u: np.ndarray, decay: float) -> np.ndarray:
    """``[[0, -u], [u, decay]]`` for every slope in ``u``, acting on ``(y, x)``."""
    u = np.asarray(u, dtype=float)
    m = np.zeros(u.shape + (2, 2))
    m[..., 0, 1] = -u
    m[..., 1, 0] = u
    m[..., 1, 1] = decay
    return m


def _lab_matrices(theta: np.ndarray) -> np.ndarray:
    """``-1/2 P(theta)`` for every angle in ``theta``, P the rank-one projector.

    The entries are those of :func:`projector_matrix`, written straight into
    the ``(n, 2, 2)`` layout that :func:`_rk4` takes.
    """
    c, s = np.cos(theta), np.sin(theta)
    m = np.empty(theta.shape + (2, 2))
    m[:, 0, 0] = c * c
    m[:, 0, 1] = m[:, 1, 0] = -s * c
    m[:, 1, 1] = s * s
    m *= -0.5
    return m


def propagate_reduced_many(
    runs: Iterable[tuple[ThetaProfile, IntegratorOptions]],
    initial: FieldState = FieldState(1.0, 0.0),
) -> Iterator[Trajectory]:
    """:func:`propagate_reduced` of each ``(profile, opts)`` pair, batched.

    The propagations share one RK4 integrator: their steps are built and applied
    in chunks of :data:`_BLOCK` that may span several of them, each chunk
    with one evaluation of ``-1/2 P(theta)`` and one step-matrix build.
    Each profile's angle is evaluated once at its grid nodes, which become
    ``Trajectory.theta``, and once at its step midpoints.  Trajectories are
    yielded in order as they finish and equal those of
    :func:`propagate_reduced`, bit for bit.  Pairs are read from ``runs``
    only as the chunks reach them, and a run longer than what is left of a
    chunk is yielded before the next pair is read, so the working memory is
    one chunk, the short runs it holds, and the trajectory being yielded.
    """
    v0 = np.array([float(initial.omega_p), float(initial.omega_s)])

    def lab_runs():
        for profile, opts in runs:
            knots = profile.knots or ()
            for (z0, t0), (z1, t1) in zip(knots[:-1], knots[1:]):
                if not math.isfinite((t1 - t0) / (z1 - z0)):
                    raise NonFinite("segment slope overflows; its angle change is lost")
            grid = _segment_grid(
                profile.alpha, profile.breakpoints, opts.resolve_steps(profile.alpha))
            yield grid, v0, lambda z, f=profile.interior: np.asarray(f(z), dtype=float)

    for grid, theta, v in _rk4(_lab_matrices, lab_runs()):
        yield Trajectory(zeta=grid, omega_p=v[:, 0], omega_s=v[:, 1], theta=theta)


def propagate_reduced(
    profile: ThetaProfile,
    initial: FieldState = FieldState(1.0, 0.0),
    opts: IntegratorOptions = DEFAULT_OPTIONS,
) -> Trajectory:
    """Integrate the reduced lab-frame system along the angle profile.

    The grid has a node at each of the profile's breakpoints (its interior
    knots), where the slope changes, so kinked tables keep fourth order.
    Boundary jumps leave the fields untouched.  Knots so close that a slope
    overflows (closer than the smallest normal float) leave the angle
    between them undefined and raise :class:`NonFinite`.  This is the batch
    of one of :func:`propagate_reduced_many`.
    """
    (traj,) = propagate_reduced_many([(profile, opts)], initial)
    return traj


def _rotate(y: float, x: float, delta: float) -> tuple[float, float]:
    """Frame rotation accompanying an angle jump by ``delta``; lab fields fixed."""
    c, s = math.cos(delta), math.sin(delta)
    return c * y + s * x, -s * y + c * x


def propagate_adiabatic(
    schedule: ControlSchedule,
    initial: AdiabaticState = AdiabaticState(x=0.0, y=1.0),
    opts: IntegratorOptions = DEFAULT_OPTIONS,
) -> AdiabaticTrajectory:
    """Integrate the rotated-frame system under a continuous slope control.

    ``initial`` is the state before the entry rotation; the returned
    ``final_state`` is the state after the exit rotation.  With ``u == 0``
    the ``y`` component is exactly conserved and ``x`` decays at rate 1/2.
    """
    grid = np.linspace(0.0, schedule.alpha, opts.resolve_steps(schedule.alpha) + 1)
    v0 = np.array(_rotate(float(initial.y), float(initial.x), schedule.entry_rotation))
    ((_, _, v),) = _rk4(lambda z: _slope_matrices(schedule.u(z), -0.5), [(grid, v0, None)])
    y_out, x_out = _rotate(*v[-1].tolist(), schedule.exit_rotation)
    return AdiabaticTrajectory(
        zeta=grid,
        x=v[:, 1],
        y=v[:, 0],
        final_state=AdiabaticState(x=x_out, y=y_out),
    )


def propagate_exact(
    controls: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    alpha: float,
    rates: Rates = Rates(),
    initial: FieldState = FieldState(1.0, 0.0),
    opts: IntegratorOptions = DEFAULT_OPTIONS,
    breakpoints: Sequence[float] = (),
) -> Trajectory:
    """Integrate the field equations closed by the exact coherence solve.

    ``controls`` maps an array of positions ``zeta`` to the complex control
    envelopes ``(Omega_c, Omega_d)`` there, as two arrays (or scalars, which
    are broadcast over ``zeta``); for a mixing-angle profile,
    ``lambda z: theta_to_controls(profile, z)``.  The steady coherences are
    linear in the weak fields, so the columns of the system matrix are
    ``i gamma/2 rho`` from the steady-state solve at unit probe and at unit
    signal, taken at the local controls: one array solve per evaluation of
    ``A`` on a block of points, both unit fields stacked.  Under the
    reduction assumptions (equal decay rates, no dephasing, real controls)
    the matrix is ``-1/2 P(theta)`` and this reproduces
    :func:`propagate_reduced` to rounding.

    Real controls at ``gamma21 = 0`` make ``A`` real.  A chunk of steps
    whose ``A`` has no imaginary part is built and applied in real
    arithmetic, as is a real ``initial`` state; the run turns complex at the
    first chunk that is not and stays complex after it.  The states equal
    those of the complex kernel bit for bit, and the trajectory is returned
    complex either way.
    """
    alpha = _check_alpha(alpha)
    g31, g41 = rates.gamma31, rates.gamma41
    # unit probe and unit signal, one row each, against the controls' points
    unit_p, unit_s = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])

    def matrices(z):
        oc, od = (np.broadcast_to(c, z.shape) for c in controls(z))
        sol = steady_coherences(DriveFields(unit_p, unit_s, oc, od), rates)
        # sol.rho31[j, i]: coherence at point i driven by unit field j (column j)
        a = np.moveaxis(np.stack([0.5j * g31 * sol.rho31, 0.5j * g41 * sol.rho41]), -1, 0)
        return a if a.imag.any() else np.ascontiguousarray(a.real)

    v0 = np.array([initial.omega_p, initial.omega_s], dtype=complex)
    if not np.all(np.isfinite(v0)):
        raise NonFinite("input fields are not finite")
    if not v0.imag.any():
        v0 = v0.real
    grid = _segment_grid(alpha, breakpoints, opts.resolve_steps(alpha))
    ((_, _, v),) = _rk4(matrices, [(grid, v0, None)])
    v = v.astype(complex, copy=False)
    return Trajectory(zeta=grid, omega_p=v[:, 0], omega_s=v[:, 1])


# ---------------------------------------------------------------------------
# Closed-form propagation for piecewise-linear profiles
# ---------------------------------------------------------------------------

def _segment_exponential(u: float, dzeta: float) -> tuple[float, float]:
    """``(ec, es)`` of the constant-slope segment exponential.

    With ``k^2 = 1/16 - u^2``, ``ec = exp(-dz/4) cosh(k dz)`` and
    ``es = exp(-dz/4) sinh(k dz)/k``; for ``u > 1/4`` the hyperbolic pair
    continues to a trigonometric one, and at ``k = 0`` to its limit.  On the
    hyperbolic branch the damping is folded into the exponentials,
    ``exp(-dz/4) cosh(k dz) = (e^{(k-1/4) dz} + e^{(-k-1/4) dz}) / 2`` with
    ``k <= 1/4``, so long segments cannot overflow.  Where ``u^2``
    overflows, ``w = sqrt(u^2 - 1/16)`` rounds to ``|u|``, which is used
    directly; an infinite ``u`` (a segment shorter than the smallest normal
    float) has lost its angle change and raises :class:`NonFinite`.
    :func:`segment_step` and the adjoint gradient of the profile search both
    build on this form.  Its array twin :func:`_segment_exponential_array`
    writes the same branches once more for the sampled dominance check; the
    property test ``test_array_segment_exponential_matches_scalar`` holds the
    two within 4 ulp.
    """
    k2 = 0.0625 - u * u
    if k2 > 1e-14:
        k = math.sqrt(k2)
        grow = math.exp((k - 0.25) * dzeta)
        m = -math.expm1(-2.0 * k * dzeta)  # 1 - exp(-2 k dz)
        return grow * (1.0 - 0.5 * m), grow * m / (2.0 * k)
    if k2 < -1e-14:
        if k2 > -math.inf:
            w = math.sqrt(-k2)
        elif math.isfinite(u):
            w = abs(u)
        else:
            raise NonFinite("segment slope overflows; its angle change is lost")
        e = math.exp(-0.25 * dzeta)
        return e * math.cos(w * dzeta), e * math.sin(w * dzeta) / w
    ec = math.exp(-0.25 * dzeta)
    return ec, ec * dzeta


def _segment_exponential_array(u: np.ndarray, dzeta) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_segment_exponential` elementwise over an array of slopes ``u``.

    The same three branches, thresholds and ``w = |u|`` rule, each evaluated
    on every element and picked with ``np.where``.  numpy's ``exp`` and
    ``expm1`` may differ from :mod:`math`'s in the last place, so the pair
    agrees with the scalar form to within 4 ulp, not bit for bit; the
    profile search and :func:`segment_step` keep the scalar form.  An
    infinite slope raises :class:`NonFinite`.
    """
    u = np.asarray(u, dtype=float)
    if np.isinf(u).any():
        raise NonFinite("segment slope overflows; its angle change is lost")
    # every branch runs on every element; the ones not picked may overflow
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k2 = 0.0625 - u * u
        # k on the hyperbolic branch, w on the trigonometric one
        r = np.where(np.isinf(k2), np.abs(u), np.sqrt(np.abs(k2)))
        grow = np.exp((r - 0.25) * dzeta)
        m = -np.expm1(-2.0 * r * dzeta)
        e = np.exp(-0.25 * dzeta)
        hyp, trig = k2 > 1e-14, k2 < -1e-14
        ec = np.where(hyp, grow * (1.0 - 0.5 * m), np.where(trig, e * np.cos(r * dzeta), e))
        es = np.where(hyp, grow * m / (2.0 * r),
                      np.where(trig, e * np.sin(r * dzeta) / r, e * dzeta))
    return ec, es


def segment_step(y: float, x: float, u: float, dzeta: float) -> tuple[float, float]:
    """Exact rotated-frame propagation over a constant-slope segment.

    The system matrix ``A = [[0, -u], [u, -1/2]]`` has the closed-form
    exponential ``exp(-dz/4) [cosh(k dz) I + sinh(k dz)/k B]`` with
    ``B = A + I/4``, i.e. ``[[ec + es/4, -u es], [u es, ec - es/4]]`` in the
    coefficients of :func:`_segment_exponential`.
    """
    ec, es = _segment_exponential(u, dzeta)
    return (
        (ec + 0.25 * es) * y - es * u * x,
        es * u * y + (ec - 0.25 * es) * x,
    )


def propagate_piecewise_exact(
    profile: ThetaProfile, initial: FieldState = FieldState(1.0, 0.0)
) -> FieldState:
    """Final lab-frame fields of a piecewise-linear profile, exact to rounding.

    Uses the knot representation of the profile; boundary jumps enter only
    through the frame choice at the two ends, which leaves the lab-frame
    fields unchanged.
    """
    if profile.knots is None:
        raise ProfileDomainMismatch(
            f"profile kind '{profile.kind}' has no piecewise-linear representation"
        )
    knots = profile.knots
    state = to_adiabatic(knots[0][1], initial)
    y, x = state.y, state.x
    for (z0, t0), (z1, t1) in zip(knots[:-1], knots[1:]):
        y, x = segment_step(y, x, (t0 - t1) / (z1 - z0), z1 - z0)
    return from_adiabatic(knots[-1][1], AdiabaticState(x=x, y=y))


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def _five_point_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """Central five-point derivative of samples ``f`` at spacing ``h``.

    Fourth order, like the integrator; defined on ``f[2:-2]``.
    """
    return (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)


def dissipation_residual(traj: Trajectory) -> np.ndarray:
    """Pointwise residual of d(norm)/dzeta = -(lossy amplitude)^2.

    The derivative of ``Omega_p^2 + Omega_s^2`` is estimated with the
    five-point central stencil (fourth-order accurate, matching the
    integrator order) on the interior of a uniform grid.
    """
    z = traj.zeta
    h = z[1] - z[0]
    # np.allclose(np.diff(z), h, rtol=1e-9, atol=1e-12) written out: the same
    # decision on a finite grid, without the broadcasting and inf handling that
    # make np.allclose cost about three times the comparison itself
    if not np.all(np.abs(np.diff(z) - h) <= 1e-12 + 1e-9 * abs(h)):
        raise ValueError("dissipation residual requires a uniform grid")
    if traj.theta is None:
        raise ValueError("trajectory carries no mixing angle")
    x = np.real(traj.omega_p) * np.cos(traj.theta) - np.real(traj.omega_s) * np.sin(traj.theta)
    return _five_point_derivative(traj.norm_sq, h) + x[2:-2] ** 2


def dissipation_order(
    profile: ThetaProfile, steps_list: Sequence[int]
) -> tuple[float, np.ndarray]:
    """Observed convergence order of the dissipation-identity residual.

    Returns the log-log slope of max residual versus step size over the
    given step counts, together with the residual maxima.  The runs are
    one batch of :func:`propagate_reduced_many`.
    """
    runs = [(profile, IntegratorOptions(step_count=int(n))) for n in steps_list]
    res = [float(np.max(np.abs(dissipation_residual(traj))))
           for traj in propagate_reduced_many(runs)]
    hs = [profile.alpha / n for n in steps_list]
    slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    return slope, np.asarray(res)
