"""Closed-form and numerical conversion efficiencies.

Conversion efficiency is the fraction of input probe intensity leaving the
medium as signal, ``|Omega_s(alpha)|^2 / |Omega_0|^2``.  Closed forms exist
for the optimal protocol,

    eta = exp(-2 gamma alpha) sin^2(u_s alpha),
    gamma = cos^2(theta0)/2,  u_s = sin(2 theta0)/4,

and for the constant-slope protocol,

    eta = exp(-alpha/2) [cosh(k alpha) + sinh(k alpha)/(4 k)]^2,
    k = sqrt(1/16 - (pi/(2 alpha))^2),

where the bracket continues to cos/sin below the branch point at
``alpha = 2 pi`` and to its ``k -> 0`` limit there.  The adiabatic protocol
has no closed form; only the numerical route applies.
"""

from __future__ import annotations

import math

from .errors import DoubleLambdaError
from .propagation import IntegratorOptions, DEFAULT_OPTIONS, propagate_reduced
from .protocols import HALF_PI, _check_alpha, build_profile, theta0_complement


def optimal_efficiency_closed(alpha: float) -> float:
    """Conversion efficiency of the jump/singular-arc/jump protocol.

    Evaluated in ``e = pi/2 - theta0``, where ``cos(theta0) = sin(e)`` and
    ``sin(2 theta0) = sin(2 e)``: ``eta = exp(-alpha sin^2 e) sin^2(u_s alpha)``
    stays accurate where ``theta0`` rounds to pi/2 and tends to
    ``1 - pi^2/alpha``.  By the optimality condition ``u_s alpha = pi/2 - 2 e``,
    so ``sin(u_s alpha) = cos(2 e)``; the sine of the small product is kept
    because ``cos(2 e)`` cancels where ``e`` nears pi/4, at small ``alpha``.
    """
    e = theta0_complement(alpha)
    return math.exp(-alpha * math.sin(e) ** 2) * math.sin(0.25 * alpha * math.sin(2.0 * e)) ** 2


def constant_efficiency_closed(alpha: float) -> float:
    """Conversion efficiency of the constant-slope protocol.

    The hyperbolic branch is evaluated in log space so it does not overflow
    for large optical densities.  Its damping ``-alpha/2 + 2 k alpha``, two
    terms of size ``alpha/2`` whose sum tends to ``-pi^2/alpha``, is written
    ``-2 alpha u^2 / (1/4 + k)`` (since ``(1/4 - k)(1/4 + k) = u^2``), which
    does not cancel; the constant protocol then no longer rounds above the
    optimal one at large ``alpha``.  Below the branch point the bracket is
    ``cos(phi) + (alpha/4) sin(phi)/phi`` with ``phi = w alpha =
    sqrt((pi/2 - alpha/4)(pi/2 + alpha/4))``; ``phi`` nears pi/2 as
    ``alpha -> 0``, so ``cos(phi)`` is taken as
    ``sin((alpha/4)^2 / (pi/2 + phi))``, which neither cancels nor squares
    the slope ``pi/(2 alpha)``.  The result stays accurate down to the
    smallest normal ``alpha``, where ``eta -> alpha^2/(4 pi^2)``.
    """
    alpha = _check_alpha(alpha)
    u = math.pi / (2.0 * alpha)
    k2 = 0.0625 - u * u  # -inf, never nan, where u * u overflows
    if k2 > 1e-14:
        k = math.sqrt(k2)
        ka = k * alpha
        a = 0.25 / k
        # cosh(ka) + a sinh(ka) = 0.5 e^{ka} (1+a) (1 + r e^{-2ka}), r=(1-a)/(1+a);
        # the e^{ka} factor joins the damping
        log_bracket = math.log(0.5 * (1.0 + a)) + math.log1p(
            math.exp(-2.0 * ka) * (1.0 - a) / (1.0 + a)
        )
        return math.exp(-2.0 * alpha * u * u / (0.25 + k) + 2.0 * log_bracket)
    if k2 < -1e-14:
        q = 0.25 * alpha
        phi = math.sqrt((HALF_PI - q) * (HALF_PI + q))
        bracket = math.sin(q * q / (HALF_PI + phi)) + q * math.sin(phi) / phi
    else:
        bracket = 1.0 + 0.25 * alpha
    return math.exp(-0.5 * alpha) * bracket**2


def closed_efficiency(kind: str, alpha: float) -> float | None:
    """Closed-form efficiency of a protocol kind; None for the kinds without
    one (``adiabatic``, ``custom``).  Any other kind raises
    :class:`DoubleLambdaError`, as in :func:`numerical_efficiency`."""
    if kind == "optimal":
        return optimal_efficiency_closed(alpha)
    if kind == "constant":
        return constant_efficiency_closed(alpha)
    if kind in ("adiabatic", "custom"):
        return None
    raise DoubleLambdaError(f"unknown protocol kind '{kind}'")


def numerical_efficiency(
    kind: str,
    alpha: float,
    opts: IntegratorOptions = DEFAULT_OPTIONS,
    zeta0: float | None = None,
    zbar: float | None = None,
) -> float:
    """Efficiency of a protocol kind from the reduced propagation.

    The numeric counterpart of :func:`closed_efficiency`: ``kind``,
    ``zeta0`` and ``zbar`` are those of :func:`build_profile`, and ``opts``
    sets the RK4 resolution.
    """
    return propagate_reduced(build_profile(kind, alpha, zeta0, zbar), opts=opts).efficiency
