"""Optimality-structure verification and independent direct search.

The optimal protocol is a singular arc of the maximum principle: along it
the switching function vanishes, the control Hamiltonian is constant, the
rotated-frame components keep a constant ratio ``y/x = tan(theta0)``, and
the slope obeys the feedback law ``u = x y / (2 (x^2 + y^2))``.  With the
multiplier normalized to ``mu = 1`` the costates are ``lambda_x = -1/(2y)``,
``lambda_y = 1/(2x)``.

:func:`verify_singular_arc` integrates the synthesized protocol with the
generic fixed-step integrator and evaluates all of these conditions on the
samples, and :func:`integrate_adjoint_along_arc` integrates the costates
backward from the exit.  Both work in bounded memory at any ``alpha``: each
condition is a running maximum taken chunk by chunk as the RK4 driver
applies its chunks (``_CHECK_BLOCK``, 2048 steps), and the arc keeps its
forward states only over its last :data:`ARC_RETAINED_STEPS` steps
(1 MiB), plus one state per backward chunk before them.  The backward run,
which needs the forward state at every node, integrates those earlier
chunks again from their kept states, with the bits of the first pass; an
arc of at most that many steps (``alpha`` up to 655.36) is integrated once.
:func:`optimize_piecewise` attacks the same objective from the other side:
a bounded quasi-Newton search (L-BFGS-B) over piecewise-linear angle
profiles with free boundary jumps, evaluated through the closed-form
segment propagator so that the comparison against the analytic optimum is
exact to rounding.  Its gradient is the exact discrete adjoint of that
propagator (:func:`piecewise_efficiency_and_grad`), not the PMP costates, so
the search knows nothing of the singular arc.  Agreement of the two routes is
evidence for (not a proof of) global optimality of the
jump/singular-arc/jump structure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidSearchSettings, NonFinite
from .propagation import (
    _CHECK_BLOCK,
    IntegratorOptions,
    _five_point_derivative,
    _GridNodes,
    _ReversedNodes,
    _rk4,
    _rk4_chunks,
    _rotate,
    _running_max,
    _schedule_matrices,
    _segment_exponential,
    _segment_exponential_array,
    _slope_matrices,
    _stencil_window,
    schedule_from_profile,
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

#: Most random profiles the sampled dominance check takes per call; their
#: efficiencies are held as one float array.
MAX_SAMPLES = 1_000_000


def _check_seed(seed: int) -> None:
    if seed < 0:  # default_rng's own refusal is a plain ValueError, raised late
        raise InvalidSearchSettings("seed must be non-negative")


def _check_sampled_inputs(alpha: float, n_profiles: int, seed: int) -> float:
    """``alpha``, after checking the sampled dominance check's inputs before
    any draw or allocation: 1 to :data:`MAX_SAMPLES` profiles, the seed, and
    ``alpha`` by :func:`_check_alpha` and where no sampled slope overflows."""
    if not 1 <= n_profiles <= MAX_SAMPLES:
        raise InvalidSearchSettings(f"n_profiles must be in [1, {MAX_SAMPLES}]")
    _check_seed(seed)
    alpha = _check_alpha(alpha)
    min_alpha = (SAMPLED_KNOTS - 1) * HALF_PI / sys.float_info.max
    if alpha < min_alpha:
        raise NonFinite(f"alpha {alpha!r} is below {min_alpha!r}, where the slopes of the "
                        f"{SAMPLED_KNOTS}-knot dominance samples may overflow")
    return alpha


#: Profiles of the sampled dominance check evaluated at once.  A chunk's
#: ``(SAMPLED_KNOTS - 1, SAMPLE_CHUNK)`` float arrays take 64 KiB each, below
#: glibc's 128 KiB mmap threshold, so they come from the heap instead of each
#: being mapped, and faulted in, afresh.
SAMPLE_CHUNK = 512

#: Most segments the profile search may take; its optimizer and adjoint hold
#: a few hundred bytes per knot, so the cap bounds them to tens of MB.
MAX_SEGMENTS = 100_000


#: Forward states of the arc kept for the adjoint's backward run, in steps:
#: 1 MiB of ``(y, x)`` pairs, 32 chunks of the streamed checks.  An arc of at
#: most this many steps (``alpha`` up to 655.36) is kept whole and integrated
#: once.  Of a longer one the last this many steps are kept, and the state
#: at the start of each of the backward run's chunks before them; the
#: backward run integrates those chunks' forward states again from there.
ARC_RETAINED_STEPS = 65_536

#: Residuals of the forward arc, in the order :func:`singular_arc_checks` reports them.
_FORWARD_CHECKS = ("max_abs_phi", "hc_drift", "feedback_residual", "ratio_residual")


def _costates(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form costates ``(lambda_x, lambda_y)`` at arc samples (mu = 1)."""
    return -1.0 / (2.0 * y), 1.0 / (2.0 * x)


def _arc_samples(z: np.ndarray, y: np.ndarray, x: np.ndarray, u_s: float) -> dict:
    """Every sampled quantity of the arc at the nodes ``z``: the states, the
    closed-form costates, the switching function ``phi`` and the control
    Hamiltonian ``hc``, keyed by the names :class:`AdjointState` gives them."""
    lambda_x, lambda_y = _costates(y, x)
    phi = lambda_x * y - lambda_y * x + 1.0
    hc = phi * u_s - 0.5 * lambda_x * x
    return {"zeta": z, "x": x, "y": y, "lambda_x": lambda_x, "lambda_y": lambda_y,
            "phi": phi, "hc": hc}


@dataclass
class AdjointState:
    """The integrated singular arc, held in bounded memory.

    :func:`verify_singular_arc` fills it in one forward pass: ``residuals``
    holds the forward checks of :func:`singular_arc_checks`; ``tail`` the
    ``(y, x)`` states at the last :data:`ARC_RETAINED_STEPS` + 1 nodes of
    ``grid`` (all of them on a shorter arc); and ``starts``, keyed by node,
    the state at each node before the tail where a chunk of the backward
    run starts its forward nodes.  :meth:`states` gives the states at any
    such chunk's nodes.  Reading ``zeta``, ``x``, ``y``, ``lambda_x``,
    ``lambda_y``, ``phi`` or ``hc`` builds that whole array (for inspection
    and tests; the checks never hold one).
    """

    theta0: float
    u_s: float
    residuals: dict[str, float]
    grid: _GridNodes
    matrices: Callable[[np.ndarray], np.ndarray]
    starts: dict[int, np.ndarray]
    tail: np.ndarray

    def states(self, lo: int, hi: int) -> np.ndarray:
        """The ``(y, x)`` states at nodes ``lo`` to ``hi``, read from ``tail``
        or integrated again from ``lo``, which is where a chunk of the
        backward run starts its forward nodes (a kept start)."""
        kept = self.grid.size - len(self.tail)  # the first node kept
        if lo >= kept:
            return self.tail[lo - kept : hi - kept + 1]
        start = self.starts[lo]
        if hi == lo:  # node 0 alone, where a backward chunk of one step ends
            return start[None]
        ((_, _, v),) = _rk4(self.matrices, [(self.grid[lo : hi + 1], start, None)])
        return v

    def __getattr__(self, name):
        if name not in ("zeta", "x", "y", "lambda_x", "lambda_y", "phi", "hc"):
            raise AttributeError(name)
        edges = [*sorted(self.starts), self.grid.size - len(self.tail)]
        v = np.concatenate([self.states(lo, hi - 1) for lo, hi in zip(edges, edges[1:])]
                           + [self.tail])
        return _arc_samples(self.grid[0 : self.grid.size], v[:, 0], v[:, 1], self.u_s)[name]


def verify_singular_arc(alpha: float) -> AdjointState:
    """Integrate the optimal arc and evaluate its forward conditions.

    The arc is resolved by :data:`ARC_OPTIONS`, with at least
    :data:`ARC_MIN_STEPS` steps, and integrated as :func:`propagate_adiabatic`
    integrates its schedule, on a grid whose nodes are computed chunk by
    chunk (:class:`_GridNodes`).  The closed-form costates are evaluated on
    the open interior of the arc (both rotated-frame components are strictly
    positive there; they vanish only outside the boundary jumps), and every
    forward residual of :func:`singular_arc_checks` is a running maximum
    taken as the driver applies its chunks of :data:`_CHECK_BLOCK` steps,
    each evaluated whole, the five-point stencil carrying four samples
    across each chunk's edge.  A maximum does not depend on the order its
    values come in, so each equals the maximum over the whole arc bit for
    bit.  Beyond one chunk, only what :class:`AdjointState` keeps is held:
    at most :data:`ARC_RETAINED_STEPS` + 1 states, and one state per
    backward chunk before them.
    """
    profile = optimal_protocol(alpha)
    theta0 = profile.params["theta0"]
    u_s = profile.params["u_s"]
    n = max(ARC_MIN_STEPS, ARC_OPTIONS.resolve_steps(profile.alpha))
    schedule = schedule_from_profile(profile)
    grid, matrices = _GridNodes(profile.alpha, (), n), _schedule_matrices(schedule)
    kept = n - min(n, ARC_RETAINED_STEPS)  # the first node kept
    tail, starts = np.empty((n + 1 - kept, 2)), {}
    # the backward run's chunks start their forward nodes at n - _CHECK_BLOCK,
    # n - 2 _CHECK_BLOCK, ... and 0; those before the tail, popped ascending
    pending = [t for t in (*range(n - _CHECK_BLOCK, 0, -_CHECK_BLOCK), 0) if t < kept]
    tan0 = math.tan(theta0)
    worst = dict.fromkeys((*_FORWARD_CHECKS, "fd_x", "fd_y"))
    hc0 = h = carry = None
    v0 = np.array(_rotate(1.0, 0.0, schedule.entry_rotation))  # the unit input (y, x) = (1, 0)
    for _, i, z, _, v in _rk4_chunks(matrices, [(grid, v0, None)], _CHECK_BLOCK):
        end = i + len(v)
        if end > kept:
            tail[max(i, kept) - kept : end - kept] = v[max(0, kept - i) :]
        while pending and pending[-1] < end:
            t = pending.pop()
            starts[t] = v[t - i].copy()
        y, x = v[:, 0], v[:, 1]
        s = _arc_samples(z, y, x, u_s)
        if hc0 is None:
            h, hc0 = z[1] - z[0], s["hc"][0]
        for name, values in (
            ("max_abs_phi", s["phi"]),
            ("hc_drift", s["hc"] - hc0),
            ("feedback_residual", x * y / (2.0 * (x * x + y * y)) - u_s),
            ("ratio_residual", y / x - tan0),
        ):
            worst[name] = _running_max(worst[name], values)
        (lx, ly), carry = _stencil_window(carry, (s["lambda_x"], s["lambda_y"]))
        rhs_lx = u_s * ly[2:-2] + 0.5 * lx[2:-2]
        rhs_ly = -u_s * lx[2:-2]
        worst["fd_x"] = _running_max(worst["fd_x"], _five_point_derivative(lx, h) - rhs_lx)
        worst["fd_y"] = _running_max(worst["fd_y"], _five_point_derivative(ly, h) - rhs_ly)
    residuals = {name: float(worst[name]) for name in _FORWARD_CHECKS}
    residuals["adjoint_fd_residual"] = float(max(worst["fd_x"], worst["fd_y"]))
    return AdjointState(theta0, u_s, residuals, grid, matrices, starts, tail)


def singular_arc_checks(arc: AdjointState) -> dict[str, float]:
    """Residuals of the maximum-principle conditions along the arc.

    Keys:

    * ``max_abs_phi``         -- switching function magnitude
    * ``hc_drift``            -- control-Hamiltonian deviation from its
      initial value
    * ``feedback_residual``   -- feedback law ``u = xy/(2(x^2+y^2))`` vs the
      constant singular slope
    * ``ratio_residual``      -- ``y/x`` vs ``tan(theta0)``
    * ``adjoint_fd_residual`` -- five-point finite-difference derivative of
      the costates vs the adjoint equations (fourth-order in the grid step)
    * ``adjoint_integration_error`` -- backward integration of the adjoint
      equations from the closed-form exit costate vs the closed form

    The first five are the running maxima :func:`verify_singular_arc` took;
    the last is :func:`integrate_adjoint_along_arc`.
    """
    # The adjoint pair carries a growing mode ~exp(zeta/2), so rounding
    # amplifies by exp(alpha/2) when integrated forward; the backward
    # direction is the contraction and gives a meaningful residual at any
    # optical density.
    return {**arc.residuals, "adjoint_integration_error": integrate_adjoint_along_arc(arc)}


def integrate_adjoint_along_arc(arc: AdjointState) -> float:
    """Max deviation of RK4-integrated costates from their closed form.

    The integration starts from the closed-form costate at the exit end and
    runs backward, against the lossy mode, which is numerically stable for
    any ``alpha``.  It is one run of the RK4 driver over the arc's grid
    reversed, in chunks of :data:`_CHECK_BLOCK` steps; each chunk's forward
    states come from :meth:`AdjointState.states`, integrated again from its
    kept start beyond the retained tail, and the deviation is a running
    maximum.  A step's matrix depends on its ``A`` and its step size alone,
    so the forward states integrated again are those of the forward run,
    bit for bit, and the working memory is one chunk beside what the arc
    keeps.
    """
    n = arc.grid.size - 1
    lambda_x, lambda_y = _costates(arc.tail[-1:, 0], arc.tail[-1:, 1])
    run = (_ReversedNodes(arc.grid), np.concatenate((lambda_y, lambda_x)), None)
    worst = None
    # (lambda_y, lambda_x)' = [[0, -u], [u, 1/2]] (lambda_y, lambda_x)
    a = _slope_matrices(arc.u_s, 0.5)  # the one A of every chunk
    for _, i, _, _, v in _rk4_chunks(lambda zz: a, [run], _CHECK_BLOCK):
        fwd = arc.states(n - i - len(v) + 1, n - i)[::-1]  # the forward nodes of these rows
        lambda_x, lambda_y = _costates(fwd[:, 0], fwd[:, 1])
        # column by column, so no (n, 2) copy of the closed form is held
        dev = np.abs(v[:, 0] - lambda_y)
        np.maximum(dev, np.abs(v[:, 1] - lambda_x), out=dev)
        worst = _running_max(worst, dev)
    return float(worst)


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
    do not affect the lab-frame fields.  The value is that of
    :func:`piecewise_efficiency_and_grad`, whose forward pass applies the
    segment exponentials of :func:`segment_step` knot by knot.
    """
    return piecewise_efficiency_and_grad(thetas, alpha)[0]


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
    value is the one :func:`piecewise_efficiency` returns.  Knots are clipped
    to [0, pi/2] like there; the gradient is that of the unclipped
    expression, which is the one-sided derivative into the box at a bound.
    ``alpha`` must pass :func:`_check_alpha`, and ``thetas`` be one row of
    at least two knots, none NaN (:class:`NonFinite`).  Clipped knots
    always give a finite value, so a NaN knot is found from the value, once,
    after the forward pass.
    """
    alpha = _check_alpha(alpha)
    th = np.clip(np.asarray(thetas, dtype=float), 0.0, HALF_PI)
    if th.ndim != 1 or th.size < 2:
        raise InvalidSearchSettings("thetas must be one row of at least two knots")
    th = th.tolist()
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
            des = -u * e * dz3 * (
                (((((c6 * q + c5) * q + c4) * q + c3) * q + c2) * q + c1) * q + c0)
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
    if math.isnan(s):
        raise NonFinite("thetas must not be NaN")

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
    row to rounding.  The inputs must pass :func:`_check_sampled_inputs`.
    """
    dz = _check_sampled_inputs(alpha, n_profiles, seed) / (SAMPLED_KNOTS - 1)
    rng = np.random.default_rng(seed)
    out = np.empty(n_profiles)
    for lo in range(0, n_profiles, SAMPLE_CHUNK):
        rows = min(SAMPLE_CHUNK, n_profiles - lo)
        th = rng.uniform(0.0, HALF_PI, size=(rows, SAMPLED_KNOTS)).T
        u = (th[:-1] - th[1:]) / dz  # finite at any alpha _check_sampled_inputs passes
        ec, es = _segment_exponential_array(u, dz)
        # the segment matrices [[a, -b], [b, d]]
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
    """The negated efficiency and its gradient under a hard evaluation budget.

    :meth:`value` and :meth:`grad` are L-BFGS-B's ``func`` and ``fprime`` in
    every start of a search.  One evaluation is one
    :func:`piecewise_efficiency_and_grad` call, which gives both: :meth:`value`
    evaluates, counts, tracks the best point, its value and its ``start`` (set
    by :func:`optimize_piecewise`), and keeps its own copy of the point with
    its gradient; :meth:`grad` returns the kept gradient when asked at the kept
    point, and otherwise evaluates (and counts) through :meth:`value`.
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
        self._x, self._grad = np.array(x, dtype=float), -grad
        if f < self.best_f:
            self.best_f = f
            self.best_x = self._x
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

    Multi-start L-BFGS-B (scipy's ``fmin_l_bfgs_b``) over the knot values,
    boxed to [0, pi/2], fed the exact discrete-adjoint gradient of
    :func:`piecewise_efficiency_and_grad`.  The first start is the linear
    ramp from pi/2 to 0, the others are random decreasing profiles from
    ``default_rng(seed)``, ``seed >= 0``, each drawn when its run begins.
    One :class:`_BudgetedObjective` serves every start; an evaluation
    computes value and gradient together, once, the objective keeping the
    gradient for L-BFGS-B's request at the same point, and ``budget`` caps
    the evaluations over all starts, cutting off a start that would exceed
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
    _check_seed(seed)
    from scipy.optimize import fmin_l_bfgs_b

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
            # ftol = factr * eps = 1e-15 exactly, eps being a power of two
            _, _, info = fmin_l_bfgs_b(
                objective.value, x0, fprime=objective.grad, bounds=bounds,
                factr=1e-15 / np.finfo(float).eps, pgtol=_GTOL,
                maxfun=budget, maxiter=budget)
            converged = converged and info["warnflag"] == 0
        except _BudgetExceeded:
            converged = False

    thetas = np.clip(objective.best_x, 0.0, HALF_PI)
    # near the largest float, linspace overflows its last point, then sets it
    with np.errstate(over="ignore"):
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
