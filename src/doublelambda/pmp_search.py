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
other side: a derivative-free simplex search over piecewise-linear angle
profiles with free boundary jumps, evaluated through the closed-form segment
propagator so that the comparison against the analytic optimum is exact to
rounding.  Agreement of the two routes is evidence for (not a proof of)
global optimality of the jump/singular-arc/jump structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .propagation import (
    IntegratorOptions,
    _rk4_linear,
    _slope_matrices,
    propagate_adiabatic,
    schedule_from_profile,
    segment_step,
)
from .protocols import HALF_PI, optimal_protocol

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
    checks["adjoint_integration_error"] = integrate_adjoint_along_arc(arc, direction="backward")
    return checks


def integrate_adjoint_along_arc(arc: AdjointState, direction: str = "backward") -> float:
    """Max deviation of RK4-integrated costates from their closed form.

    ``direction='forward'`` starts from the closed-form costate just inside
    the entry jump; it is only meaningful while ``exp(alpha/2)`` rounding
    amplification stays below the tolerance of interest.  ``'backward'``
    starts at the exit end and integrates against the lossy mode, which is
    numerically stable for any ``alpha``.
    """
    if direction == "forward":
        order = slice(None)
    elif direction == "backward":
        order = slice(None, None, -1)
    else:
        raise ValueError(f"unknown direction '{direction}'")
    # (lambda_y, lambda_x)' = [[0, -u], [u, 1/2]] (lambda_y, lambda_x)
    z = arc.zeta[order]
    exact = np.column_stack([arc.lambda_y, arc.lambda_x])[order]
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
    th = np.clip(np.asarray(thetas, dtype=float), 0.0, HALF_PI)
    n_seg = th.size - 1
    dz = alpha / n_seg
    y = math.sin(th[0])
    x = math.cos(th[0])
    for i in range(n_seg):
        y, x = segment_step(y, x, (th[i] - th[i + 1]) / dz, dz)
    s = math.cos(th[-1]) * y - math.sin(th[-1]) * x
    return s * s


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
    """Counts evaluations, tracks the best point, enforces a hard budget."""

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
        f = self.fun(x)
        if f < self.best_f:
            self.best_f = f
            self.best_x = np.array(x, dtype=float)
        return f


def optimize_piecewise(
    alpha: float,
    n_segments: int,
    seed: int = 0,
    budget: int = 200_000,
    n_starts: int = 3,
) -> SearchResult:
    """Derivative-free simplex search over piecewise-linear angle profiles.

    Multi-start Nelder-Mead (adaptive variant) over the knot values,
    restarted from its own best point until the improvement stalls or the
    evaluation budget runs out.  Deterministic for a given seed; ties between
    starts resolve to the lowest start index.
    """
    if n_segments < 2:
        raise ValueError("n_segments must be at least 2")
    if budget < 1:
        raise ValueError("budget must be positive")
    rng = np.random.default_rng(seed)
    n_knots = n_segments + 1

    starts = [np.linspace(HALF_PI, 0.0, n_knots)]
    for _ in range(max(0, n_starts - 1)):
        starts.append(np.sort(rng.uniform(0.0, HALF_PI, n_knots))[::-1].copy())

    best_eff = -np.inf
    best_knots = starts[0]
    best_start = 0
    restarts = 0
    used = 0
    exhausted = False
    for idx, x0 in enumerate(starts):
        remaining = budget - used
        if remaining <= 0:
            exhausted = True
            break
        objective = _BudgetedObjective(lambda th: -piecewise_efficiency(th, alpha), remaining)
        xi = np.asarray(x0, dtype=float)
        fi = None
        try:
            # Restart the simplex from its own endpoint until it stalls:
            # a fresh simplex escapes the degenerate shapes Nelder-Mead
            # collapses into in higher dimensions.
            while True:
                res = minimize(
                    objective,
                    xi,
                    method="Nelder-Mead",
                    options={
                        "maxfev": remaining - objective.count,
                        "xatol": 1e-10,
                        "fatol": 1e-13,
                        "adaptive": True,
                    },
                )
                restarts += 1
                improved = fi is None or res.fun < fi - 1e-13
                xi, fi = res.x, res.fun
                if objective.count >= remaining:
                    exhausted = True
                    break
                if not improved:
                    break
        except _BudgetExceeded:
            exhausted = True
        used += objective.count
        if objective.best_x is not None and -objective.best_f > best_eff:
            best_eff = -objective.best_f
            best_knots = objective.best_x
            best_start = idx
        if exhausted:
            break

    thetas = np.clip(best_knots, 0.0, HALF_PI)
    zeta = np.linspace(0.0, alpha, n_knots)
    return SearchResult(
        alpha=alpha,
        n_segments=n_segments,
        knots=np.column_stack([zeta, thetas]),
        efficiency=float(piecewise_efficiency(thetas, alpha)),
        evaluations=used,
        restarts=restarts,
        converged=not exhausted,
        best_start=best_start,
        seed=seed,
    )
