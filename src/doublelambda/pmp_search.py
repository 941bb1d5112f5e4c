"""Optimality-structure verification and independent direct search.

The optimal protocol is a singular arc of the maximum principle: along it
the switching function vanishes, the control Hamiltonian is constant, the
rotated-frame components keep a constant ratio ``y/x = tan(theta0)``, and
the slope obeys the feedback law ``u = x y / (2 (x^2 + y^2))``.  With the
multiplier normalized to ``mu = 1`` the costates are ``lambda_x = -1/(2y)``,
``lambda_y = 1/(2x)``.

:func:`verify_singular_arc` integrates the synthesized protocol with the
generic fixed-step integrator and evaluates all of these conditions on the
samples.  :func:`optimize_piecewise` attacks the same objective from the
other side: a bounded quasi-Newton search (L-BFGS-B) over piecewise-linear
angle profiles with free boundary jumps, evaluated through the closed-form
segment propagator so that the comparison against the analytic optimum is
exact to rounding.  Its gradient is the exact discrete adjoint of that
propagator (:func:`piecewise_efficiency_and_grad`), not the PMP costates, so
the search knows nothing of the singular arc.  Agreement of the two routes is
evidence for (not a proof of) global optimality of the
jump/singular-arc/jump structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSearchSettings
from .propagation import (
    IntegratorOptions,
    _rk4_linear,
    _segment_exponential,
    _slope_matrices,
    propagate_adiabatic,
    schedule_from_profile,
    segment_step,
)
from .protocols import HALF_PI, _check_alpha, optimal_protocol

#: Default resolution for arc verification; the ratio check divides small
#: numbers, so the arc is integrated finer than the propagation default.
ARC_OPTIONS = IntegratorOptions(steps_per_unit=100.0)


@dataclass
class AdjointState:
    """Costate and switching-function samples along the singular arc (mu = 1)."""

    zeta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    lambda_x: np.ndarray
    lambda_y: np.ndarray
    phi: np.ndarray
    hc: np.ndarray
    mu: float
    theta0: float
    u_s: float


def verify_singular_arc(alpha: float, opts: IntegratorOptions = ARC_OPTIONS) -> AdjointState:
    """Integrate the optimal arc and attach the closed-form costates.

    The costates are evaluated on the open interior of the arc (both
    rotated-frame components are strictly positive there; they vanish only
    outside the boundary jumps).
    """
    profile = optimal_protocol(alpha)
    theta0 = profile.params["theta0"]
    u_s = profile.params["u_s"]
    traj = propagate_adiabatic(schedule_from_profile(profile), opts=opts)
    x, y = traj.x, traj.y
    lambda_x = -1.0 / (2.0 * y)
    lambda_y = 1.0 / (2.0 * x)
    phi = lambda_x * y - lambda_y * x + 1.0
    hc = phi * u_s - 0.5 * lambda_x * x
    return AdjointState(
        zeta=traj.zeta,
        x=x,
        y=y,
        lambda_x=lambda_x,
        lambda_y=lambda_y,
        phi=phi,
        hc=hc,
        mu=1.0,
        theta0=theta0,
        u_s=u_s,
    )


def singular_arc_checks(arc: AdjointState) -> dict[str, float]:
    """Residuals of the maximum-principle conditions along the arc.

    Keys:

    * ``max_abs_phi``         -- switching function magnitude
    * ``hc_drift``            -- control-Hamiltonian deviation from its
      initial value
    * ``feedback_residual``   -- feedback law ``u = xy/(2(x^2+y^2))`` vs the
      constant singular slope
    * ``ratio_residual``      -- ``y/x`` vs ``tan(theta0)``
    * ``orthogonality``       -- ``lambda_x y + lambda_y x`` (first derivative
      condition of the switching function)
    * ``adjoint_fd_residual`` -- five-point finite-difference derivative of
      the costates vs the adjoint equations (fourth-order in the grid step)
    * ``adjoint_integration_error`` -- backward integration of the adjoint
      equations from the closed-form exit costate vs the closed form
    """
    x, y, z = arc.x, arc.y, arc.zeta
    u = arc.u_s
    checks = {
        "max_abs_phi": float(np.max(np.abs(arc.phi))),
        "hc_drift": float(np.max(np.abs(arc.hc - arc.hc[0]))),
        "feedback_residual": float(np.max(np.abs(x * y / (2.0 * (x * x + y * y)) - u))),
        "ratio_residual": float(np.max(np.abs(y / x - math.tan(arc.theta0)))),
        "orthogonality": float(np.max(np.abs(arc.lambda_x * y + arc.lambda_y * x))),
    }

    h = z[1] - z[0]

    def _d4(f):
        # five-point central derivative, fourth order like the integrator
        return (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)

    dlx = _d4(arc.lambda_x)
    dly = _d4(arc.lambda_y)
    rhs_lx = u * arc.lambda_y[2:-2] + 0.5 * arc.lambda_x[2:-2]
    rhs_ly = -u * arc.lambda_x[2:-2]
    checks["adjoint_fd_residual"] = float(
        max(np.max(np.abs(dlx - rhs_lx)), np.max(np.abs(dly - rhs_ly)))
    )

    # The adjoint pair carries a growing mode ~exp(zeta/2), so rounding
    # amplifies by exp(alpha/2) when integrated forward; the backward
    # direction is the contraction and gives a meaningful residual at any
    # optical density.
    checks["adjoint_integration_error"] = integrate_adjoint_along_arc(arc)
    return checks


def integrate_adjoint_along_arc(arc: AdjointState) -> float:
    """Max deviation of RK4-integrated costates from their closed form.

    The integration starts from the closed-form costate at the exit end and
    runs backward, against the lossy mode, which is numerically stable for
    any ``alpha``.
    """
    # (lambda_y, lambda_x)' = [[0, -u], [u, 1/2]] (lambda_y, lambda_x)
    z = arc.zeta[::-1]
    exact = np.column_stack([arc.lambda_y, arc.lambda_x])[::-1]
    lam = _rk4_linear(
        lambda zz: _slope_matrices(np.full(zz.shape, arc.u_s), 0.5), z, exact[0]
    )
    return float(np.max(np.abs(lam - exact[1:]), initial=0.0))


# ---------------------------------------------------------------------------
# Direct search over piecewise-linear profiles
# ---------------------------------------------------------------------------

@dataclass
class SearchResult:
    """Best profile found by the direct search."""

    alpha: float
    n_segments: int
    knots: np.ndarray  # (n_segments + 1, 2) columns zeta, theta
    efficiency: float
    evaluations: int
    restarts: int
    converged: bool
    best_start: int
    seed: int


def piecewise_efficiency(thetas: np.ndarray, alpha: float) -> float:
    """Conversion efficiency of a piecewise-linear profile, exact to rounding.

    ``thetas`` are angle knots at uniform spacing on [0, alpha] (values
    clipped to [0, pi/2]); the boundary jumps from pi/2 and to 0 are free and
    do not affect the lab-frame fields.
    """
    th = np.clip(np.asarray(thetas, dtype=float), 0.0, HALF_PI).tolist()
    n_seg = len(th) - 1
    dz = alpha / n_seg
    y = math.sin(th[0])
    x = math.cos(th[0])
    for i in range(n_seg):
        y, x = segment_step(y, x, (th[i] - th[i + 1]) / dz, dz)
    s = math.cos(th[-1]) * y - math.sin(th[-1]) * x
    return s * s


#: Taylor coefficients (2n + 2)/(2n + 3)! of (dz cosh(k dz) - sinh(k dz)/k)/k^2
#: in powers of k^2 dz^2, after the common factor dz^3.
_DES_SERIES = tuple((2 * n + 2) / math.factorial(2 * n + 3) for n in range(7))


def _segment_derivatives(u: float, dz: float, ec: float, es: float) -> tuple[float, float]:
    """Derivatives in ``u`` of the :func:`_segment_exponential` pair ``ec, es``.

    With ``k^2 = 1/16 - u^2`` they are ``d ec/du = -u dz es`` on every branch
    and ``d es/du = -u (dz ec - es) / k^2``; the latter cancels as
    ``k^2 dz^2 -> 0`` and is summed from its series there, which also covers
    ``k = 0``.
    """
    k2 = 0.0625 - u * u
    q = k2 * dz * dz
    if abs(q) < 0.5:
        series = 0.0
        for c in reversed(_DES_SERIES):
            series = series * q + c
        des = -u * math.exp(-0.25 * dz) * dz**3 * series
    else:
        des = -u * (dz * ec - es) / k2
    return -u * dz * es, des


def piecewise_efficiency_and_grad(thetas: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """:func:`piecewise_efficiency` and its exact gradient in the knots.

    The gradient is the discrete adjoint of the segment propagator: a forward
    pass stores the rotated-frame state at every knot, and a backward pass
    carries ``d eta / d(y, x)`` through the transposed segment matrices,
    collecting ``d eta / du`` of each segment on the way.  The segment
    exponential is the one :func:`segment_step` uses; only its derivatives
    in ``u`` are added here.  The slope of a segment is
    ``(theta_i - theta_{i+1}) / dz``, and the entry and exit angles also
    enter through the frame rotations at the two ends.  The value equals :func:`piecewise_efficiency` bit for bit.  Knots are clipped
    to [0, pi/2] like there; the gradient is that of the unclipped
    expression, which is the one-sided derivative into the box at a bound.
    """
    th = np.clip(np.asarray(thetas, dtype=float), 0.0, HALF_PI).tolist()
    n_seg = len(th) - 1
    dz = alpha / n_seg
    y = math.sin(th[0])
    x = math.cos(th[0])
    states = [(y, x)]
    coeffs = []
    for i in range(n_seg):
        u = (th[i] - th[i + 1]) / dz
        ec, es = _segment_exponential(u, dz)
        dec, des = _segment_derivatives(u, dz, ec, es)
        y, x = (ec + 0.25 * es) * y - es * u * x, es * u * y + (ec - 0.25 * es) * x
        states.append((y, x))
        coeffs.append((u, ec, es, dec, des))
    cos_n, sin_n = math.cos(th[-1]), math.sin(th[-1])
    s = cos_n * y - sin_n * x

    grad = np.empty(n_seg + 1)
    grad[-1] = -2.0 * s * (sin_n * y + cos_n * x)
    ly, lx = 2.0 * s * cos_n, -2.0 * s * sin_n  # d eta / d(y, x) at the exit
    for i in range(n_seg - 1, -1, -1):
        u, ec, es, dec, des = coeffs[i]
        y, x = states[i]
        dues = es + u * des  # d(u es)/du
        g = (ly * ((dec + 0.25 * des) * y - dues * x)
             + lx * (dues * y + (dec - 0.25 * des) * x)) / dz
        grad[i + 1] -= g
        grad[i] = g
        ly, lx = (ec + 0.25 * es) * ly + es * u * lx, -es * u * ly + (ec - 0.25 * es) * lx
    grad[0] += ly * math.cos(th[0]) - lx * math.sin(th[0])
    return s * s, grad


def sampled_profile_efficiencies(
    alpha: float, n_profiles: int, seed: int, n_knots: int = 17
) -> np.ndarray:
    """Efficiencies of seeded random piecewise-linear profiles.

    Used as a sampled global-optimality check: none of these may exceed the
    closed-form optimum.
    """
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.0, HALF_PI, size=(n_profiles, n_knots))
    return np.array([piecewise_efficiency(row, alpha) for row in samples])


class _BudgetExceeded(Exception):
    pass


class _BudgetedObjective:
    """Counts evaluations, tracks the best point, enforces a hard budget.

    ``fun`` returns ``(value, gradient)``; one such fused call is one
    evaluation.
    """

    def __init__(self, fun, budget):
        self.fun = fun
        self.budget = budget
        self.count = 0
        self.best_f = np.inf
        self.best_x = None

    def __call__(self, x):
        if self.count >= self.budget:
            raise _BudgetExceeded
        self.count += 1
        f, g = self.fun(x)
        if f < self.best_f:
            self.best_f = f
            self.best_x = np.array(x, dtype=float)
        return f, g


#: Projected-gradient tolerance of the local runs, about sqrt(machine
#: epsilon).  Near the optimum ``eta`` changes by ``g^2 / (2 H)`` for a
#: gradient ``g``, so with ``eta`` known to about 1e-16 the line search
#: cannot resolve a smaller gradient and would end in a failed search
#: instead of a converged one.
_GTOL = 1e-7


def _negated_efficiency(thetas, alpha):
    eta, grad = piecewise_efficiency_and_grad(thetas, alpha)
    return -eta, -grad


def optimize_piecewise(
    alpha: float,
    n_segments: int,
    seed: int = 0,
    budget: int = 200_000,
    n_starts: int = 3,
) -> SearchResult:
    """Bounded quasi-Newton search over piecewise-linear angle profiles.

    Multi-start L-BFGS-B over the knot values, boxed to [0, pi/2], fed the
    exact discrete-adjoint gradient of :func:`piecewise_efficiency_and_grad`.
    The first start is the linear ramp from pi/2 to 0, the others are seeded
    random decreasing profiles.  One evaluation is one fused value-and-gradient
    call; ``budget`` caps their total over all starts, and a start that would
    exceed it is cut off there.  ``restarts`` counts the local runs made, and
    ``converged`` is true when every start ran and each local run reported
    success.  Deterministic for a given seed; ties between starts resolve to
    the lowest start index.
    """
    alpha = _check_alpha(alpha)
    if n_segments < 2:
        raise InvalidSearchSettings("n_segments must be at least 2")
    if budget < 1:
        raise InvalidSearchSettings("budget must be positive")
    if n_starts < 1:
        raise InvalidSearchSettings("n_starts must be at least 1")
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    n_knots = n_segments + 1

    starts = [np.linspace(HALF_PI, 0.0, n_knots)]
    for _ in range(n_starts - 1):
        starts.append(np.sort(rng.uniform(0.0, HALF_PI, n_knots))[::-1].copy())

    bounds = [(0.0, HALF_PI)] * n_knots
    best_eff = -np.inf
    best_knots = starts[0]
    best_start = 0
    runs = 0
    used = 0
    converged = True
    for idx, x0 in enumerate(starts):
        remaining = budget - used
        if remaining <= 0:
            converged = False
            break
        objective = _BudgetedObjective(lambda th: _negated_efficiency(th, alpha), remaining)
        runs += 1
        try:
            res = minimize(
                objective,
                x0,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxfun": remaining, "maxiter": remaining,
                         "ftol": 1e-15, "gtol": _GTOL},
            )
            converged = converged and bool(res.success)
        except _BudgetExceeded:
            converged = False
        used += objective.count
        if objective.best_x is not None and -objective.best_f > best_eff:
            best_eff = -objective.best_f
            best_knots = objective.best_x
            best_start = idx

    thetas = np.clip(best_knots, 0.0, HALF_PI)
    zeta = np.linspace(0.0, alpha, n_knots)
    return SearchResult(
        alpha=alpha,
        n_segments=n_segments,
        knots=np.column_stack([zeta, thetas]),
        efficiency=float(piecewise_efficiency(thetas, alpha)),
        evaluations=used,
        restarts=runs,
        converged=converged,
        best_start=best_start,
        seed=seed,
    )
