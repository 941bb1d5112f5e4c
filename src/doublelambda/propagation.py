"""Spatial propagation of the probe/signal pair through the medium.

Three routes integrate the same physics at different levels of reduction:

* :func:`propagate_reduced` -- the two-field lab-frame system
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
fourth-order Runge-Kutta kernel, run per segment between profile
breakpoints so the right-hand side is smooth within every step;
deterministic output is preferred over adaptivity.  For piecewise-linear
angle profiles (constant control slope per segment) the rotated-frame system
has a closed-form matrix exponential, exposed as :func:`segment_step` /
:func:`propagate_piecewise_exact`; this path is exact to rounding and serves
as an independent oracle for the Runge-Kutta routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bloch_steady import DriveFields, Rates, projector_matrix, steady_coherences
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
    """Slope control ``u(zeta) = -dtheta/dzeta`` plus boundary rotations."""

    alpha: float
    u: Callable[[np.ndarray], np.ndarray]
    entry_rotation: float = 0.0  # theta(0+) - theta(0-)
    exit_rotation: float = 0.0  # theta(alpha+) - theta(alpha-)
    breakpoints: tuple[float, ...] = ()


def schedule_from_profile(profile: ThetaProfile) -> ControlSchedule:
    """Derive the rotated-frame control schedule of an angle profile."""
    pre, start = profile.entry_jump
    end, post = profile.exit_jump
    return ControlSchedule(
        alpha=profile.alpha,
        u=lambda z: -profile.interior_slope(np.asarray(z, dtype=float)),
        entry_rotation=start - pre,
        exit_rotation=post - end,
        breakpoints=profile.breakpoints,
    )


def adiabatic_initial(profile: ThetaProfile, initial: FieldState) -> AdiabaticState:
    """Rotated-frame image of lab-frame input fields, in the incoming frame.

    The incoming frame is ``theta_pre``: pi/2 for profiles with an entry
    jump (where lab ``(1, 0)`` maps to ``(y, x) = (1, 0)``), the interior
    boundary value for jump-free profiles such as the adiabatic protocol.
    """
    return to_adiabatic(profile.theta_pre, initial)


def _segment_grid(alpha: float, breakpoints: Sequence[float], n_steps: int) -> list[np.ndarray]:
    """Per-segment uniform grids covering [0, alpha], split at breakpoints."""
    cuts = [0.0]
    for b in sorted(set(float(b) for b in breakpoints)):
        if 0.0 < b < alpha:
            cuts.append(b)
    cuts.append(alpha)
    grids = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = max(1, round(n_steps * (b - a) / alpha))
        grids.append(np.linspace(a, b, n + 1))
    return grids


#: Steps whose RK4 step matrices are built at once; bounds the kernel's
#: working memory independently of the grid length.
_BLOCK = 1024


def _rk4_linear(
    matrices: Callable[[np.ndarray], np.ndarray], grid: np.ndarray, v0: np.ndarray
) -> np.ndarray:
    """Classical RK4 for the linear system ``dv/dzeta = A(zeta) v`` on one grid.

    ``matrices(z)`` returns ``A`` at the points ``z`` as an ``(n, 2, 2)``
    array; it is evaluated on the grid and at the step midpoints, two calls
    per block of up to :data:`_BLOCK` steps.  Linearity folds the four
    stages of a step into one matrix ``R = I + h/6 (K1 + 2 K2 + 2 K3 + K4)``
    with ``K1 = A(zeta)``, ``K2 = A(zeta + h/2) (I + h/2 K1)``,
    ``K3 = A(zeta + h/2) (I + h/2 K2)`` and ``K4 = A(zeta + h) (I + h K3)``,
    built with numpy for the whole block.  The steps are then applied in
    order on Python floats (or complex numbers), carrying one state, so
    rounding accumulates as in a stage-by-stage integration; a prefix-product
    scan would be faster but loses accuracy at large ``alpha``.  Returns the
    ``(len(grid) - 1, 2)`` states after each step.
    """
    eye = np.eye(2)
    p, q = np.asarray(v0).tolist()
    blocks = []
    for lo in range(0, grid.size - 1, _BLOCK):
        z = grid[lo : lo + _BLOCK + 1]
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


def _propagate(
    matrices: Callable[[np.ndarray], np.ndarray],
    grids: list[np.ndarray],
    v0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rk4_linear` over consecutive segment grids, carrying the state.

    Returns the sample positions and the ``(samples, 2)`` states, starting
    at ``v0``.
    """
    zs = [np.zeros(1)]
    vs = [np.asarray(v0)[None, :]]
    for grid in grids:
        vs.append(_rk4_linear(matrices, grid, vs[-1][-1]))
        zs.append(grid[1:])
    return np.concatenate(zs), np.concatenate(vs)


def _slope_matrices(u: np.ndarray, decay: float) -> np.ndarray:
    """``[[0, -u], [u, decay]]`` for every slope in ``u``, acting on ``(y, x)``."""
    u = np.asarray(u, dtype=float)
    m = np.zeros(u.shape + (2, 2))
    m[..., 0, 1] = -u
    m[..., 1, 0] = u
    m[..., 1, 1] = decay
    return m


def propagate_reduced(
    profile: ThetaProfile,
    initial: FieldState = FieldState(1.0, 0.0),
    opts: IntegratorOptions = DEFAULT_OPTIONS,
) -> Trajectory:
    """Integrate the reduced lab-frame system along the angle profile.

    ``profile.interior`` gives the angle on every segment; the grid is split
    at the profile's breakpoints (its interior knots), where the slope
    changes, and the state is carried across each one unchanged.  Boundary
    jumps leave the fields untouched.
    """
    grids = _segment_grid(profile.alpha, profile.breakpoints, opts.resolve_steps(profile.alpha))

    def lab_matrices(z):
        # -1/2 P(theta), with P the rank-one projector of the mixing angle
        theta = np.asarray(profile.interior(z), dtype=float)
        return -0.5 * np.moveaxis(projector_matrix(theta), -1, 0)

    zeta, v = _propagate(
        lab_matrices,
        grids,
        np.array([float(initial.omega_p), float(initial.omega_s)]),
    )
    return Trajectory(
        zeta=zeta,
        omega_p=v[:, 0],
        omega_s=v[:, 1],
        theta=np.asarray(profile.interior(zeta), dtype=float),
    )


def _rotate(y: float, x: float, delta: float) -> tuple[float, float]:
    """Frame rotation accompanying an angle jump by ``delta``; lab fields fixed."""
    c, s = math.cos(delta), math.sin(delta)
    return c * y + s * x, -s * y + c * x


def propagate_adiabatic(
    schedule: ControlSchedule,
    initial: AdiabaticState = AdiabaticState(x=0.0, y=1.0),
    opts: IntegratorOptions = DEFAULT_OPTIONS,
) -> AdiabaticTrajectory:
    """Integrate the rotated-frame system under a slope-control schedule.

    ``initial`` is the state before the entry rotation; the returned
    ``final_state`` is the state after the exit rotation.  With ``u == 0``
    the ``y`` component is exactly conserved and ``x`` decays at rate 1/2.
    """
    grids = _segment_grid(schedule.alpha, schedule.breakpoints, opts.resolve_steps(schedule.alpha))
    zeta, v = _propagate(
        lambda z: _slope_matrices(schedule.u(z), -0.5),
        grids,
        np.array(_rotate(float(initial.y), float(initial.x), schedule.entry_rotation)),
    )
    y_out, x_out = _rotate(*v[-1].tolist(), schedule.exit_rotation)
    return AdiabaticTrajectory(
        zeta=zeta,
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
    """
    alpha = _check_alpha(alpha)
    g31, g41 = rates.gamma31, rates.gamma41
    # unit probe and unit signal, one row each, against the controls' points
    unit_p, unit_s = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])

    def matrices(z):
        oc, od = (np.broadcast_to(c, z.shape) for c in controls(z))
        sol = steady_coherences(DriveFields(unit_p, unit_s, oc, od), rates)
        # sol.rho31[j, i]: coherence at point i driven by unit field j (column j)
        return np.moveaxis(np.stack([0.5j * g31 * sol.rho31, 0.5j * g41 * sol.rho41]), -1, 0)

    v0 = np.array([initial.omega_p, initial.omega_s], dtype=complex)
    if not np.all(np.isfinite(v0)):
        raise NonFinite("input fields are not finite")
    grids = _segment_grid(alpha, breakpoints, opts.resolve_steps(alpha))
    zeta, v = _propagate(matrices, grids, v0)
    return Trajectory(zeta=zeta, omega_p=v[:, 0], omega_s=v[:, 1])


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
    ``k <= 1/4``, so long segments cannot overflow.  This is the only place
    the three branches are written; :func:`segment_step` and the adjoint
    gradient of the profile search both build on it.
    """
    k2 = 0.0625 - u * u
    if k2 > 1e-14:
        k = math.sqrt(k2)
        grow = math.exp((k - 0.25) * dzeta)
        m = -math.expm1(-2.0 * k * dzeta)  # 1 - exp(-2 k dz)
        return grow * (1.0 - 0.5 * m), grow * m / (2.0 * k)
    if k2 < -1e-14:
        w = math.sqrt(-k2)
        e = math.exp(-0.25 * dzeta)
        return e * math.cos(w * dzeta), e * math.sin(w * dzeta) / w
    ec = math.exp(-0.25 * dzeta)
    return ec, ec * dzeta


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

def dissipation_residual(traj: Trajectory) -> np.ndarray:
    """Pointwise residual of d(norm)/dzeta = -(lossy amplitude)^2.

    The derivative of ``Omega_p^2 + Omega_s^2`` is estimated with the
    five-point central stencil (fourth-order accurate, matching the
    integrator order) on the interior of a uniform grid.
    """
    z = traj.zeta
    h = z[1] - z[0]
    if not np.allclose(np.diff(z), h, rtol=1e-9, atol=1e-12):
        raise ValueError("dissipation residual requires a uniform grid")
    if traj.theta is None:
        raise ValueError("trajectory carries no mixing angle")
    norm = traj.norm_sq
    x = np.real(traj.omega_p) * np.cos(traj.theta) - np.real(traj.omega_s) * np.sin(traj.theta)
    d = (norm[:-4] - 8.0 * norm[1:-3] + 8.0 * norm[3:-1] - norm[4:]) / (12.0 * h)
    return d + x[2:-2] ** 2


def dissipation_order(
    profile: ThetaProfile,
    steps_list: Sequence[int],
    initial: FieldState = FieldState(1.0, 0.0),
) -> tuple[float, np.ndarray]:
    """Observed convergence order of the dissipation-identity residual.

    Returns the log-log slope of max residual versus step size over the
    given step counts, together with the residual maxima.
    """
    res = []
    hs = []
    for n in steps_list:
        traj = propagate_reduced(profile, opts=IntegratorOptions(step_count=int(n)))
        res.append(float(np.max(np.abs(dissipation_residual(traj)))))
        hs.append(profile.alpha / n)
    slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    return slope, np.asarray(res)
