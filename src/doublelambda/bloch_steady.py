"""Steady state of the four-level atomic coherences.

A weak probe and a weak signal field drive the two optical transitions of a
four-level double-lambda medium while a strong control pair (Omega_c,
Omega_d) links the two ground states.  With the population pinned in the
initial ground state, the three coherences rho31, rho41, rho21 obey a linear
system whose steady state closes the field-propagation equations.

:func:`steady_coherences` solves that system in closed form, for general
decay rates ``Gamma31 != Gamma41`` and ground-state dephasing
``Gamma21 >= 0``, at one point or at a whole array of points.  Under the
reduction assumptions (equal decay rates ``gamma``, ``Gamma21 = 0``) the
optical coherences reduce to ``(i/gamma) P(theta) @ (Omega_p, Omega_s)``
with ``P`` the :func:`projector_matrix` of the mixing angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DoubleLambdaError, NonFinite, SingularSystem


@dataclass(frozen=True)
class Rates:
    """Relaxation rates, in units of the common excited-state decay rate."""

    gamma31: float = 1.0
    gamma41: float = 1.0
    gamma21: float = 0.0

    def __post_init__(self):
        if not np.isfinite((self.gamma31, self.gamma41, self.gamma21)).all():
            raise NonFinite("relaxation rates must be finite")
        if not (self.gamma31 > 0 and self.gamma41 > 0):
            raise DoubleLambdaError("excited-state decay rates must be positive")
        if self.gamma21 < 0:
            raise DoubleLambdaError("ground-state dephasing rate must be non-negative")


@dataclass(frozen=True)
class DriveFields:
    """Complex Rabi frequencies of the four driving fields.

    Each entry is a scalar or an array; arrays broadcast against each other
    and describe one point of the medium per element.
    """

    omega_p: complex | np.ndarray
    omega_s: complex | np.ndarray
    omega_c: complex | np.ndarray
    omega_d: complex | np.ndarray

    def __post_init__(self):
        for name in ("omega_p", "omega_s", "omega_c", "omega_d"):
            if not np.isfinite(getattr(self, name)).all():
                raise NonFinite(f"{name} is not finite")


def _unbox(x: np.ndarray):
    """``complex(x)`` for a 0-d result, the array itself otherwise."""
    return complex(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class CoherenceSolution:
    """Steady-state coherences: complex scalars, or arrays shaped like the fields."""

    rho21: complex | np.ndarray
    rho31: complex | np.ndarray
    rho41: complex | np.ndarray


def projector_matrix(theta: float) -> np.ndarray:
    """Symmetric rank-one projector [[cos^2, -sc], [-sc, sin^2]] of the mixing angle."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c * c, -s * c], [-s * c, s * s]])


def steady_coherences(fields: DriveFields, rates: Rates) -> CoherenceSolution:
    """Solve the steady state of the coherence equations exactly.

    Setting the three time derivatives to zero gives the linear system

        Gamma31 rho31 - i Omega_c rho21 = i Omega_p
        Gamma41 rho41 - i Omega_d rho21 = i Omega_s
        -i Omega_c* rho31 - i Omega_d* rho41 + Gamma21 rho21 = 0

    Eliminating rho31 and rho41 with the first two equations leaves

        rho21 = -(Omega_c* Omega_p / Gamma31 + Omega_d* Omega_s / Gamma41)
                / (|Omega_c|^2 / Gamma31 + |Omega_d|^2 / Gamma41 + Gamma21)

    for every ``Gamma21 >= 0``; the denominator is a sum of non-negative
    terms, so it does not cancel, and the solve stays well conditioned down
    to vanishing control amplitude.  rho31 and rho41 then follow from the
    first two equations.  The fields may be arrays: every point of their
    broadcast shape is solved at once by the same elementwise arithmetic,
    so each element of the result equals the scalar solve at that point bit
    for bit.  Scalar fields give complex scalars.

    Raises
    ------
    SingularSystem
        If ``gamma21 == 0`` and both controls vanish at some point: rho21 is
        then undetermined because the preparation assumption fails.
    NonFinite
        If the solution overflows at some point.
    """
    op, os_, oc, od = (
        np.asarray(f, dtype=complex)
        for f in (fields.omega_p, fields.omega_s, fields.omega_c, fields.omega_d)
    )
    g31, g41, g21 = rates.gamma31, rates.gamma41, rates.gamma21

    with np.errstate(all="ignore"):  # overflow surfaces as NonFinite below
        # not np.abs(.)**2: its complex loop rounds 0-d and array input
        # differently, which would break the scalar/array agreement
        oc_sq = oc.real**2 + oc.imag**2
        od_sq = od.real**2 + od.imag**2
        if g21 == 0.0 and (oc_sq + od_sq == 0.0).any():
            raise SingularSystem(
                "gamma21 = 0 with both controls zero leaves rho21 undetermined"
            )
        # reduces to -(Oc* Op + Od* Os)/Omega^2 when gamma31 == gamma41 and
        # gamma21 == 0; adding gamma21 = 0.0 leaves the non-negative sum as it is
        denom = oc_sq / g31 + od_sq / g41 + g21
        rho21 = -(oc.conj() * op / g31 + od.conj() * os_ / g41) / denom
        rho31 = 1j * (op + oc * rho21) / g31
        rho41 = 1j * (os_ + od * rho21) / g41

    if not all(np.isfinite(r).all() for r in (rho21, rho31, rho41)):
        raise NonFinite("steady-state solve overflowed")
    return CoherenceSolution(rho21=_unbox(rho21), rho31=_unbox(rho31), rho41=_unbox(rho41))
