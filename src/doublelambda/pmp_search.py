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
    _five_point_derivative,
    _rk4,
    _segment_exponential,
    _segment_exponential_array,
    _slope_matrices,
    propagate_adiabatic,
    schedule_from_profile,
    segment_step,
)
from .protocols import HALF_PI, _check_alpha, optimal_protocol

#: Default resolution for arc verification; the ratio check divides small
#: numbers, so the arc is integrated finer than the propagation default.
ARC_OPTIONS = IntegratorOptions(steps_per_unit=100.0)

#: Fewest RK4 steps on the arc at any ``alpha``: the five-point stencil of
#: the costate check needs more samples than a short arc gets from
#: :data:`ARC_OPTIONS` (three steps at ``alpha = 0.03``).
ARC_MIN_STEPS = 16

#: Knots of each random profile in the sampled dominance check.
SAMPLED_KNOTS = 17

#: Profiles of the sampled dominance check evaluated at once.
SAMPLE_CHUNK = 4096

#: Most segments the profile search may take; its optimizer and adjoint hold
#: a few hundred bytes per knot, so the cap bounds them to tens of MB.
MAX_SEGMENTS = 100_000


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
    theta0: float
    u_s: float


def verify_singular_arc(alpha: float) -> AdjointState:
    """Integrate the optimal arc and attach the closed-form costates.

    The arc is resolved by :data:`ARC_OPTIONS`, with at least
    :data:`ARC_MIN_STEPS` steps.  The costates are evaluated on the open
    interior of the arc (both rotated-frame components are strictly positive
    there; they vanish only outside the boundary jumps).
    """
    profile = optimal_protocol(alpha)
    theta0 = profile.params["theta0"]
    u_s = profile.params["u_s"]
    n_steps = max(ARC_MIN_STEPS, ARC_OPTIONS.resolve_steps(profile.alpha))
    traj = propagate_adiabatic(schedule_from_profile(profile),
                               opts=IntegratorOptions(step_count=n_steps))
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
    dlx = _five_point_derivative(arc.lambda_x, h)
    dly = _five_point_derivative(arc.lambda_y, h)
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
    ((_, _, lam),) = _rk4(
        lambda zz: _slope_matrices(np.full(zz.shape, arc.u_s), 0.5), [(z, exact[0], None)]
    )
    return float(np.max(np.abs(lam - exact)))


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


def piecewise_efficiency_and_grad(thetas: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """:func:`piecewise_efficiency` and its exact gradient in the knots.

    The gradient is the discrete adjoint of the segment propagator.  The
    forward pass applies the segment exponential of :func:`segment_step` and
    its derivatives in the slope ``u``: with ``k^2 = 1/16 - u^2``,
    ``d ec/du = -u dz es`` on every branch and ``d es/du = -u (dz ec - es) /
    k^2``, which cancels as ``k^2 dz^2 -> 0`` and is summed from its series
    there (this also covers ``k = 0``).  Per segment it keeps the matrix and
    the ``u``-derivative of the segment map applied to the state at its start,
    so the backward pass carries ``d eta / d(y, x)`` through the transposed
    matrices and collects ``d eta / du`` without revisiting the states.  The
    slope of a segment is ``(theta_i - theta_{i+1}) / dz``, and the entry and
    exit angles also enter through the frame rotations at the two ends.  The
    value equals :func:`piecewise_efficiency` bit for bit.  Knots are clipped
    to [0, pi/2] like there; the gradient is that of the unclipped
    expression, which is the one-sided derivative into the box at a bound.
    """
    th = np.clip(np.asarray(thetas, dtype=float), 0.0, HALF_PI).tolist()
    n_seg = len(th) - 1
    dz = alpha / n_seg
    e = math.exp(-0.25 * dz)
    try:
        dz3 = dz**3
    except OverflowError:  # segments this long never take the series branch
        dz3 = math.inf
    c0, c1, c2, c3, c4, c5, c6 = _DES_SERIES
    y = math.sin(th[0])
    x = math.cos(th[0])
    # per segment: the slope derivative of its map applied to the state at its
    # start, then its matrix [[a, -b], [b, d]]
    coeffs = []
    for t0, t1 in zip(th, th[1:]):
        u = (t0 - t1) / dz
        ec, es = _segment_exponential(u, dz)
        k2 = 0.0625 - u * u
        q = k2 * dz * dz
        if abs(q) < 0.5:
            des = -u * e * dz3 * ((((((c6 * q + c5) * q + c4) * q + c3) * q + c2) * q + c1) * q + c0)
        else:
            des = -u * (dz * ec - es) / k2
        dec = -u * dz * es
        dues = es + u * des  # d(u es)/du
        a, b, d = ec + 0.25 * es, es * u, ec - 0.25 * es
        coeffs.append(((dec + 0.25 * des) * y - dues * x, dues * y + (dec - 0.25 * des) * x,
                       a, b, d))
        y, x = a * y - b * x, b * y + d * x
    cos_n, sin_n = math.cos(th[-1]), math.sin(th[-1])
    s = cos_n * y - sin_n * x

    grad = [0.0] * (n_seg + 1)
    g_next = -2.0 * s * (sin_n * y + cos_n * x)
    ly, lx = 2.0 * s * cos_n, -2.0 * s * sin_n  # d eta / d(y, x) at the exit
    for i in range(n_seg - 1, -1, -1):
        gy, gx, a, b, d = coeffs[i]
        g = (ly * gy + lx * gx) / dz
        grad[i + 1] = g_next - g
        g_next = g
        ly, lx = a * ly + b * lx, -b * ly + d * lx
    grad[0] = g_next + (ly * math.cos(th[0]) - lx * math.sin(th[0]))
    return s * s, np.array(grad)


def sampled_profile_efficiencies(alpha: float, n_profiles: int, seed: int) -> np.ndarray:
    """Efficiencies of seeded random piecewise-linear profiles.

    Each profile has :data:`SAMPLED_KNOTS` knots, uniform in [0, pi/2].

    Used as a sampled global-optimality check: none of these may exceed the
    closed-form optimum.  The profiles are evaluated together, in chunks of
    :data:`SAMPLE_CHUNK` rows through :func:`_segment_exponential_array`,
    which bounds the working memory at any ``n_profiles``; each chunk is the
    next draw from one generator, so the knots are the rows of
    ``default_rng(seed).uniform(0, pi/2, (n_profiles, SAMPLED_KNOTS))`` in
    order.  Each efficiency agrees with :func:`piecewise_efficiency` of its
    row to rounding.
    """
    rng = np.random.default_rng(seed)
    dz = alpha / (SAMPLED_KNOTS - 1)
    out = np.empty(n_profiles)
    for lo in range(0, n_profiles, SAMPLE_CHUNK):
        rows = min(SAMPLE_CHUNK, n_profiles - lo)
        th = rng.uniform(0.0, HALF_PI, size=(rows, SAMPLED_KNOTS)).T
        # a segment shorter than the smallest normal float may overflow the
        # slope; the segment exponential raises on it
        with np.errstate(over="ignore"):
            u = (th[:-1] - th[1:]) / dz
        ec, es = _segment_exponential_array(u, dz)
        a, b, d = ec + 0.25 * es, es * u, ec - 0.25 * es
        y, x = np.sin(th[0]), np.cos(th[0])
        for i in range(SAMPLED_KNOTS - 1):
            y, x = a[i] * y - b[i] * x, b[i] * y + d[i] * x
        s = np.cos(th[-1]) * y - np.sin(th[-1]) * x
        out[lo : lo + rows] = s * s
    return out


class _BudgetExceeded(Exception):
    pass


class _BudgetedObjective:
    """The negated efficiency under a hard evaluation budget, for one search.

    :meth:`value` and :meth:`grad` are L-BFGS-B's ``fun`` and ``jac`` in every
    start.  One evaluation is one :func:`piecewise_efficiency_and_grad` call,
    which gives both: :meth:`value` evaluates, counts, tracks the best point,
    its value and its ``start`` (set by :func:`optimize_piecewise`), and keeps
    the gradient, and :meth:`grad` returns the kept one when asked at the
    point last evaluated, and evaluates (and counts) any other point.
    """

    def __init__(self, alpha, budget):
        self.alpha = alpha
        self.budget = budget
        self.count = 0
        self.start = 0
        self.best_f = np.inf
        self.best_x = None
        self.best_start = 0
        self._x = self._grad = None  # the point last evaluated and its gradient

    def value(self, x):
        if self.count >= self.budget:
            raise _BudgetExceeded
        self.count += 1
        eta, grad = piecewise_efficiency_and_grad(x, self.alpha)
        f = -eta
        self._x, self._grad = x, -grad
        if f < self.best_f:
            self.best_f = f
            self.best_x = np.array(x, dtype=float)
            self.best_start = self.start
        return f

    def grad(self, x):
        if not (x == self._x).all():
            self.value(x)
        return self._grad


#: Projected-gradient tolerance of the local runs, about sqrt(machine
#: epsilon).  Near the optimum ``eta`` changes by ``g^2 / (2 H)`` for a
#: gradient ``g``, so with ``eta`` known to about 1e-16 the line search
#: cannot resolve a smaller gradient and would end in a failed search
#: instead of a converged one.
_GTOL = 1e-7


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
    The first start is the linear ramp from pi/2 to 0, the others are random
    decreasing profiles from ``default_rng(seed)``, ``seed >= 0``, each drawn
    when its run begins.  One :class:`_BudgetedObjective` serves every start;
    an evaluation computes value and gradient together, once, and ``budget``
    caps their total over all starts, cutting off a start that would exceed
    it.  The result is the best point the objective evaluated, and the value
    it found there.  ``restarts`` counts the local runs made, and
    ``converged`` is true when every start ran and each local run reported
    success.  Deterministic for a given seed; ties between starts resolve to
    the lowest start index.
    """
    alpha = _check_alpha(alpha)
    if not 2 <= n_segments <= MAX_SEGMENTS:
        raise InvalidSearchSettings(f"n_segments must be in [2, {MAX_SEGMENTS}]")
    if budget < 1:
        raise InvalidSearchSettings("budget must be positive")
    if n_starts < 1:
        raise InvalidSearchSettings("n_starts must be at least 1")
    if seed < 0:
        raise InvalidSearchSettings("seed must be non-negative")
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    n_knots = n_segments + 1
    bounds = [(0.0, HALF_PI)] * n_knots
    objective = _BudgetedObjective(alpha, budget)
    converged = True
    for idx in range(n_starts):
        if objective.count >= budget:
            converged = False
            break
        x0 = (np.linspace(HALF_PI, 0.0, n_knots) if idx == 0
              else np.sort(rng.uniform(0.0, HALF_PI, n_knots))[::-1].copy())
        objective.start = idx
        try:
            # the objective's budget stops a run before either limit can
            res = minimize(
                objective.value,
                x0,
                jac=objective.grad,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxfun": budget, "maxiter": budget,
                         "ftol": 1e-15, "gtol": _GTOL},
            )
            converged = converged and bool(res.success)
        except _BudgetExceeded:
            converged = False

    thetas = np.clip(objective.best_x, 0.0, HALF_PI)
    zeta = np.linspace(0.0, alpha, n_knots)
    return SearchResult(
        alpha=alpha,
        n_segments=n_segments,
        knots=np.column_stack([zeta, thetas]),
        efficiency=-objective.best_f,
        evaluations=objective.count,
        restarts=objective.start + 1,
        converged=converged,
        best_start=objective.best_start,
        seed=seed,
    )
