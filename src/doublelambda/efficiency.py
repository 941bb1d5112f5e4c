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
from dataclasses import dataclass

from .errors import InvalidAlpha
from .propagation import FieldState, IntegratorOptions, DEFAULT_OPTIONS, propagate_reduced
from .protocols import ProtocolSpec, build_profile, theta0_complement


@dataclass
class EfficiencyReport:
    """Closed-form / numerical efficiency pair with solver metadata."""

    alpha: float
    protocol: str
    eta_closed: float | None
    eta_numeric: float
    step_count: int

    @property
    def discrepancy(self) -> float | None:
        if self.eta_closed is None:
            return None
        return abs(self.eta_closed - self.eta_numeric)


def optimal_efficiency_closed(alpha: float) -> float:
    """Conversion efficiency of the jump/singular-arc/jump protocol.

    Evaluated in ``e = pi/2 - theta0``, where ``cos(theta0) = sin(e)`` and
    ``sin(2 theta0) = sin(2 e)``: ``eta = exp(-alpha sin^2 e) sin^2(u_s alpha)``
    stays accurate where ``theta0`` rounds to pi/2 and tends to
    ``1 - pi^2/alpha``.  By the optimality condition ``u_s alpha = pi/2 - 2 e``,
    so ``sin(u_s alpha) = cos(2 e)``; the sine of the small product is kept
    because ``cos(2 e)`` cancels where ``e`` nears pi/4, at small ``alpha``.
    """
    if alpha < 0:
        raise InvalidAlpha(f"optical density must be non-negative, got {alpha}")
    if alpha == 0:
        return 0.0
    e = theta0_complement(alpha)
    return math.exp(-alpha * math.sin(e) ** 2) * math.sin(0.25 * alpha * math.sin(2.0 * e)) ** 2


def constant_efficiency_closed(alpha: float) -> float:
    """Conversion efficiency of the constant-slope protocol.

    Evaluated in log space so the hyperbolic branch does not overflow for
    large optical densities.
    """
    if alpha <= 0:
        raise InvalidAlpha(f"optical density must be positive, got {alpha}")
    u = math.pi / (2.0 * alpha)
    k2 = 0.0625 - u * u
    if k2 > 1e-14:
        k = math.sqrt(k2)
        ka = k * alpha
        a = 0.25 / k
        # cosh(ka) + a sinh(ka) = 0.5 e^{ka} (1+a) (1 + r e^{-2ka}), r=(1-a)/(1+a)
        log_bracket = ka + math.log(0.5 * (1.0 + a)) + math.log1p(
            math.exp(-2.0 * ka) * (1.0 - a) / (1.0 + a)
        )
        return math.exp(-0.5 * alpha + 2.0 * log_bracket)
    if k2 < -1e-14:
        w = math.sqrt(-k2)
        bracket = math.cos(w * alpha) + 0.25 * math.sin(w * alpha) / w
    else:
        bracket = 1.0 + 0.25 * alpha
    return math.exp(-0.5 * alpha) * bracket**2


def closed_efficiency(kind: str, alpha: float) -> float | None:
    """Closed-form efficiency of a protocol kind; None where none exists."""
    if kind == "optimal":
        return optimal_efficiency_closed(alpha)
    if kind == "constant":
        return constant_efficiency_closed(alpha)
    return None


def numerical_efficiency(
    spec: ProtocolSpec, opts: IntegratorOptions = DEFAULT_OPTIONS
) -> EfficiencyReport:
    """Efficiency from integrating the reduced propagation for a protocol."""
    profile = build_profile(spec)
    traj = propagate_reduced(profile, initial=FieldState(1.0, 0.0), opts=opts)
    return EfficiencyReport(
        alpha=spec.alpha,
        protocol=spec.kind,
        eta_closed=closed_efficiency(spec.kind, spec.alpha),
        eta_numeric=traj.efficiency,
        step_count=opts.resolve_steps(spec.alpha),
    )
