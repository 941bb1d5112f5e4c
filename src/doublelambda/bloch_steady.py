"""Steady state of the four-level atomic coherences.

A weak probe and a weak signal field drive the two optical transitions of a
four-level double-lambda medium while a strong control pair (Omega_c,
Omega_d) links the two ground states.  With the population pinned in the
initial ground state, the three coherences rho31, rho41, rho21 obey a linear
system whose steady state closes the field-propagation equations.

Two routes are provided:

* :func:`steady_coherences` solves the full 3x3 complex linear system
  exactly, for general decay rates ``Gamma31 != Gamma41`` and ground-state
  dephasing ``Gamma21 >= 0``, at one point or at a whole array of points.
* :func:`first_order_coherences` evaluates the weak-field projector formula
  valid when both excited states decay at the same rate and the ground
  coherence is lossless; in that regime the two routes agree to machine
  precision, which the test suite exploits as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, SingularSystem


@dataclass(frozen=True)
class Rates:
    """Relaxation rates, in units of the common excited-state decay rate."""

    gamma31: float = 1.0
    gamma41: float = 1.0
    gamma21: float = 0.0

    def __post_init__(self):
        if not (self.gamma31 > 0 and self.gamma41 > 0):
            raise ValueError("excited-state decay rates must be positive")
        if self.gamma21 < 0:
            raise ValueError("ground-state dephasing rate must be non-negative")


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

    For ``gamma21 == 0`` the system is solved in closed form by eliminating
    rho31 and rho41 first (well conditioned down to vanishing control
    amplitude); otherwise by the generic complex 3x3 solve.  The fields may
    be arrays: every point of their broadcast shape is solved at once, by
    the same elementwise arithmetic (or one batched ``np.linalg.solve``), so
    each element of the result equals the scalar solve at that point bit for
    bit.  Scalar fields give complex scalars.

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
        if g21 == 0.0:
            if (oc_sq + od_sq == 0.0).any():
                raise SingularSystem(
                    "gamma21 = 0 with both controls zero leaves rho21 undetermined"
                )
            # Closed-form elimination; reduces to -(Oc* Op + Od* Os)/Omega^2
            # when gamma31 == gamma41.
            denom = oc_sq / g31 + od_sq / g41
            rho21 = -(oc.conj() * op / g31 + od.conj() * os_ / g41) / denom
            rho31 = 1j * (op + oc * rho21) / g31
            rho41 = 1j * (os_ + od * rho21) / g41
        else:
            shape = np.broadcast_shapes(op.shape, os_.shape, oc.shape, od.shape)
            a = np.zeros(shape + (3, 3), dtype=complex)
            a[..., 0, 0], a[..., 1, 1], a[..., 2, 2] = g31, g41, g21
            a[..., 0, 2], a[..., 1, 2] = -1j * oc, -1j * od
            a[..., 2, 0], a[..., 2, 1] = -1j * oc.conj(), -1j * od.conj()
            b = np.zeros(shape + (3, 1), dtype=complex)
            b[..., 0, 0], b[..., 1, 0] = 1j * op, 1j * os_
            rho31, rho41, rho21 = np.moveaxis(np.linalg.solve(a, b)[..., 0], -1, 0)

    if not all(np.isfinite(r).all() for r in (rho21, rho31, rho41)):
        raise NonFinite("steady-state solve overflowed")
    return CoherenceSolution(rho21=_unbox(rho21), rho31=_unbox(rho31), rho41=_unbox(rho41))


def first_order_coherences(
    omega_p: float, omega_s: float, theta: float, gamma: float = 1.0
) -> tuple[complex, complex]:
    """Weak-field optical coherences (i/Gamma) * P(theta) @ (Omega_p, Omega_s).

    ``P`` is :func:`projector_matrix`.  Valid when both excited states decay
    at the common rate ``gamma`` and the ground coherence is lossless.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not np.all(np.isfinite([omega_p, omega_s, theta])):
        raise NonFinite("non-finite input")
    r31, r41 = (1j / gamma) * projector_matrix(theta) @ (omega_p, omega_s)
    return complex(r31), complex(r41)


def coherence_residuals(
    fields: DriveFields, rates: Rates, sol: CoherenceSolution
) -> tuple[complex, complex, complex]:
    """Residuals of the three steady-state equations for a candidate solution.

    Complex scalars for scalar fields, arrays of the broadcast shape otherwise.
    """
    op, os_, oc, od = (
        np.asarray(f) for f in (fields.omega_p, fields.omega_s, fields.omega_c, fields.omega_d)
    )
    r1 = 1j * (op + oc * sol.rho21) - rates.gamma31 * sol.rho31
    r2 = 1j * (os_ + od * sol.rho21) - rates.gamma41 * sol.rho41
    r3 = 1j * (oc.conj() * sol.rho31 + od.conj() * sol.rho41) - rates.gamma21 * sol.rho21
    return _unbox(r1), _unbox(r2), _unbox(r3)
