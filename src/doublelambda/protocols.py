"""Mixing-angle profiles for the three spatial control protocols.

The pair of strong control fields is parametrized by a single mixing angle,
``Omega_c = Omega0 sin(theta)``, ``Omega_d = Omega0 cos(theta)``, with the
overall magnitude fixed at ``Omega0``: the reduced propagation depends on
theta only.  A protocol is therefore a profile ``theta(zeta)`` on the
dimensionless interval ``[0, alpha]``, possibly with instantaneous boundary
jumps (which leave the probe/signal fields unchanged).

Protocols provided:

* ``optimal``   -- boundary jump to theta0, linear decrease with the singular
  slope ``u_s = sin(2 theta0)/4``, boundary jump to 0.  ``theta0`` solves the
  transcendental equation ``(alpha/4) sin(2 theta0) = 2 theta0 - pi/2``.
* ``constant``  -- linear decrease from pi/2 to 0 at constant slope
  ``pi/(2 alpha)``, no jumps.
* ``adiabatic`` -- ``theta = arctan(exp(-(zeta - zeta0)/(2 zbar)))``, the
  angle of a smooth sigmoidal control pair with constant total magnitude.
  Its boundary values miss pi/2 and 0 by its ``boundary_defect``; no jumps
  are added to hide it.
* ``custom``    -- piecewise-linear interpolation of a (zeta, theta) table.

All but ``adiabatic`` are knot tables, built by one constructor: optimal is
``[(0, theta0), (alpha, pi/2 - theta0)]``, constant ``[(0, pi/2), (alpha, 0)]``,
each entered by a jump from pi/2 and left by a jump to 0 (of size zero for
constant).
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DoubleLambdaError, InvalidAlpha, InvalidZbar, NonFinite, ProfileDomainMismatch

HALF_PI = math.pi / 2

#: Iteration cap for the bisection solve of the optimal entry angle.  The
#: bracket spans at most a factor of two and hits the float64 limit after
#: about 55 halvings, long before the cap.
_BISECT_MAX_ITER = 200


@dataclass
class ThetaProfile:
    """Mixing angle as a function of position, including boundary jumps.

    ``interior`` evaluates theta on ``[0, alpha]`` (one-sided limits at the
    ends).  ``theta_pre`` and ``theta_post`` are the angles seen by the
    incoming and outgoing fields; when they differ from the interior limits
    the profile carries an instantaneous jump at that boundary.
    ``knots`` is the (zeta, theta) table of a piecewise-linear profile (all
    kinds except ``adiabatic``), which ``interior`` interpolates and which
    downstream code may exploit for closed-form segment propagation.
    """

    kind: str
    alpha: float
    theta_pre: float
    theta_post: float
    interior: Callable[[np.ndarray], np.ndarray]
    interior_slope: Callable[[np.ndarray], np.ndarray]
    knots: tuple[tuple[float, float], ...] | None = None
    params: dict = field(default_factory=dict)

    def theta(self, zeta):
        """Interior mixing angle at ``zeta`` (scalar or array)."""
        self._check_domain(zeta)
        return self.interior(np.asarray(zeta, dtype=float))

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior knot positions, where the slope changes; () without knots."""
        return tuple(z for z, _ in self.knots[1:-1]) if self.knots else ()

    @property
    def boundary_defect(self) -> tuple[float, float]:
        """How far the incoming and outgoing angles miss pi/2 and 0."""
        return (HALF_PI - self.theta_pre, self.theta_post)

    @property
    def entry_jump(self) -> tuple[float, float]:
        """(theta(0-), theta(0+))."""
        return (self.theta_pre, float(self.interior(np.asarray(0.0))))

    @property
    def exit_jump(self) -> tuple[float, float]:
        """(theta(alpha-), theta(alpha+))."""
        return (float(self.interior(np.asarray(self.alpha))), self.theta_post)

    def _check_domain(self, zeta) -> None:
        z = np.asarray(zeta, dtype=float)
        tol = 1e-12 * min(1.0, self.alpha)  # relative below alpha = 1
        if np.any(z < -tol) or np.any(z > self.alpha + tol):
            raise ProfileDomainMismatch(
                f"zeta outside [0, {self.alpha}] for profile '{self.kind}'"
            )


def _check_alpha(alpha: float, name: str = "optical density") -> float:
    """``alpha`` as a float; finite and at least the smallest normal float.

    Below that, ``pi/(2 alpha)`` and the other inverse densities overflow.
    The error calls the value ``name``.
    """
    alpha = float(alpha)
    if not (alpha >= sys.float_info.min) or not math.isfinite(alpha):
        raise InvalidAlpha(
            f"{name} must be finite and at least {sys.float_info.min!r}, got {alpha}"
        )
    return alpha


@functools.lru_cache(maxsize=1024)
def theta0_complement(alpha: float) -> float:
    """``pi/2 - theta0`` of the optimal protocol, to full relative precision.

    In ``e = pi/2 - theta0`` the optimality condition reads
    ``g(e) = (alpha/4) sin(2 e) + 2 e - pi/2 = 0``, with ``g`` increasing on
    [0, pi/4].  Since ``sin(2 e) <= 2 e``, ``g(pi/(alpha + 4)) <= 0``; and
    ``g > 0`` at ``min(pi/4, pi/alpha)``.  This bracket spans at most a
    factor of two for every finite ``alpha > 0`` (the root tends to
    ``pi/alpha`` as ``alpha`` grows), so bisection to adjacent floats takes
    a few dozen halvings and keeps ``e`` accurate where ``theta0`` itself
    rounds to pi/2.  The result is a pure function of ``alpha`` and is
    cached, so the closed-form efficiency and the protocol at one ``alpha``
    share one bisection; errors are not cached.
    """
    alpha = _check_alpha(alpha)
    lo, hi = math.pi / (alpha + 4.0), min(math.pi / 4, math.pi / alpha)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket collapsed to adjacent floats
        g_mid = 0.25 * alpha * math.sin(2.0 * mid) + 2.0 * mid - HALF_PI
        if g_mid < 0:
            lo = mid
        elif g_mid > 0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def solve_theta0(alpha: float) -> float:
    """Entry angle of the optimal protocol, from the transcendental equation.

    The residual ``(alpha/4) sin(2 t) - 2 t + pi/2`` is positive at pi/4 and
    negative at pi/2 and crosses zero exactly once in between; the root is
    ``pi/2 - theta0_complement(alpha)``, whose residual sits at the
    rounding floor, ~(alpha/2) * eps.
    """
    return HALF_PI - theta0_complement(alpha)


def optimal_protocol(alpha: float) -> ThetaProfile:
    """Jump / linear singular arc / jump profile maximizing the conversion.

    The arc runs from theta0 to ``pi/2 - theta0``, and its slope is
    ``sin(2 theta0)/4 = sin(2 e)/4``, all taken from ``e =
    theta0_complement(alpha)`` so the exit angle and the slope keep full
    relative precision where theta0 rounds to pi/2.
    """
    alpha = _check_alpha(alpha)
    eps = theta0_complement(alpha)
    theta0 = HALF_PI - eps
    return _piecewise_linear(
        "optimal", alpha, np.array([0.0, alpha]), np.array([theta0, eps]),
        params={"theta0": theta0, "u_s": math.sin(2.0 * eps) / 4.0},
    )


def constant_protocol(alpha: float) -> ThetaProfile:
    """Linear decrease of the angle from pi/2 to 0 with no boundary jumps."""
    alpha = _check_alpha(alpha)
    return _piecewise_linear(
        "constant", alpha, np.array([0.0, alpha]), np.array([HALF_PI, 0.0]),
        params={"u": HALF_PI / alpha},
    )


def adiabatic_protocol(alpha: float, zeta0: float, zbar: float) -> ThetaProfile:
    """Smooth sigmoidal control pair, theta = arctan(exp(-(z - zeta0)/(2 zbar))).

    The boundary values ``theta(0) < pi/2`` and ``theta(alpha) > 0`` are only
    approximate, and ``boundary_defect`` reports the miss.  ``zbar`` of order
    1/2 or below violates the adiabaticity condition ``|d theta/d zeta| <<
    1/2`` (the maximum slope is ``1/(4 zbar)``) and triggers a warning.  A
    non-finite ``zeta0`` raises :class:`NonFinite`.
    """
    alpha = _check_alpha(alpha)
    zeta0 = float(zeta0)
    if not math.isfinite(zeta0):
        raise NonFinite(f"zeta0 must be finite, got {zeta0}")
    zbar = float(zbar)
    if not (zbar > 0) or not math.isfinite(zbar):
        raise InvalidZbar(f"zbar must be positive, got {zbar}")
    if zbar <= 0.5:
        # name the first caller outside this module, also through
        # build_profile (``skip_file_prefixes`` needs Python 3.12)
        frame, level = sys._getframe(1), 2
        while frame.f_code.co_filename == __file__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "zbar <= 1/2 violates the adiabaticity condition |dtheta/dzeta| << 1/2",
            stacklevel=level,
        )

    def interior(z):
        # far upstream exp overflows to inf, whose arctan is the limit pi/2
        with np.errstate(over="ignore"):
            return np.arctan(np.exp(-(np.asarray(z, dtype=float) - zeta0) / (2.0 * zbar)))

    def slope(z):
        # even in log s, so s = exp(-|z - zeta0|/(2 zbar)) <= 1 cannot overflow
        s = np.exp(-np.abs(np.asarray(z, dtype=float) - zeta0) / (2.0 * zbar))
        return -s / (2.0 * zbar * (1.0 + s * s))

    return ThetaProfile(
        kind="adiabatic",
        alpha=alpha,
        theta_pre=float(interior(0.0)),  # no jumps: the incoming frame is the interior angle
        theta_post=float(interior(alpha)),
        interior=interior,
        interior_slope=slope,
        params={"zeta0": zeta0, "zbar": zbar},
    )


def _piecewise_linear(
    kind: str, alpha: float, z: np.ndarray, t: np.ndarray, params: dict
) -> ThetaProfile:
    """Profile interpolating the knot arrays ``(z, t)``, jumps from pi/2 and to 0.

    The knots are trusted: ``z`` increases strictly and spans ``[0, alpha]``
    to within ``1e-9 * min(1, alpha)``, and ``t`` lies in [0, pi/2].  Their
    slopes are not: one that overflows raises :class:`NonFinite`.
    """
    try:
        with np.errstate(over="raise"):
            slopes = (t[1:] - t[:-1]) / (z[1:] - z[:-1])
    except FloatingPointError:
        raise NonFinite("segment slope overflows; its angle change is lost") from None

    def slope(x):
        idx = np.searchsorted(z, np.asarray(x, dtype=float), side="right") - 1
        return slopes[np.clip(idx, 0, slopes.size - 1)]

    return ThetaProfile(
        kind=kind,
        alpha=alpha,
        theta_pre=HALF_PI,
        theta_post=0.0,
        interior=lambda x: np.interp(x, z, t),
        interior_slope=slope,
        knots=tuple(zip(z.tolist(), t.tolist())),
        params=params,
    )


def tabulated_protocol(
    zeta: Sequence[float],
    theta: Sequence[float],
    alpha: float | None = None,
) -> ThetaProfile:
    """Piecewise-linear profile through the given (zeta, theta) samples.

    The table must start at 0 and span the full interval, to within
    ``1e-9 * min(1, alpha)`` at each end; ``alpha`` defaults to the last
    sample position.  The samples become the profile's knots, and
    the interior ones its integration breakpoints, so the lab-frame
    integrator never straddles a slope change.  A non-finite sample or
    slope raises :class:`NonFinite`.
    """
    z = np.array(zeta, dtype=float)  # copies: the profile keeps these arrays
    t = np.array(theta, dtype=float)
    # every comparison with NaN is false, so the checks below would pass it
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(t))):
        raise NonFinite("profile table holds a non-finite sample")
    if z.ndim != 1 or z.shape != t.shape or z.size < 2:
        raise ProfileDomainMismatch("profile table needs two columns of equal length >= 2")
    if np.any(np.diff(z) <= 0):
        raise ProfileDomainMismatch("profile positions must be strictly increasing")
    if alpha is None:
        alpha = float(z[-1])
    alpha = _check_alpha(alpha)
    tol = 1e-9 * min(1.0, alpha)  # relative below alpha = 1
    if abs(z[0]) > tol or abs(z[-1] - alpha) > tol:
        raise ProfileDomainMismatch(
            f"profile table spans [{z[0]}, {z[-1]}], expected [0, {alpha}]"
        )
    if np.any(t < -1e-12) or np.any(t > HALF_PI + 1e-12):
        raise ProfileDomainMismatch("theta samples must lie in [0, pi/2]")
    return _piecewise_linear("custom", alpha, z, t, {})


def load_profile_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column whitespace-separated (zeta, theta) table; '#' comments."""
    with warnings.catch_warnings():
        # an empty table is refused below, with the reason, instead
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(path, comments="#", ndmin=2)
        except ValueError as exc:  # a non-numeric field or a ragged row
            raise ProfileDomainMismatch(
                f"cannot read a (zeta, theta) table from {path}: {exc}") from exc
    if data.size == 0:
        raise ProfileDomainMismatch(f"no data rows in {path}")
    if data.shape[1] != 2:
        raise ProfileDomainMismatch(f"expected two columns in {path}, got {data.shape[1]}")
    return data[:, 0], data[:, 1]


def build_profile(
    kind: str, alpha: float, zeta0: float | None = None, zbar: float | None = None
) -> ThetaProfile:
    """Profile of the optimal, constant or adiabatic protocol at ``alpha``.

    ``zeta0`` and ``zbar`` apply to the adiabatic protocol only and default
    to ``alpha/2`` and 5.  A tabulated profile is built by
    :func:`tabulated_protocol`; any other ``kind`` raises ``DoubleLambdaError``.
    """
    if kind == "optimal":
        return optimal_protocol(alpha)
    if kind == "constant":
        return constant_protocol(alpha)
    if kind == "adiabatic":
        zeta0 = alpha / 2.0 if zeta0 is None else zeta0
        zbar = 5.0 if zbar is None else zbar
        return adiabatic_protocol(alpha, zeta0, zbar)
    raise DoubleLambdaError(f"unknown protocol kind '{kind}'")


def theta_to_controls(profile: ThetaProfile, zeta):
    """Control envelopes (Omega_c, Omega_d) in units of Omega0 at ``zeta``.

    The total control magnitude is held at Omega0, so the envelopes are
    simply (sin(theta), cos(theta)) of the interior angle.
    """
    th = profile.theta(zeta)
    return np.sin(th), np.cos(th)
