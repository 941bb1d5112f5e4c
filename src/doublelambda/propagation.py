"""Spatial propagation of the probe/signal pair through the medium.

Three routes integrate the same physics at different levels of reduction:

* :func:`propagate_reduced` (with :func:`propagate_reduced_chunks`, its
  trajectory handed out chunk by chunk) -- the two-field lab-frame system
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
fourth-order Runge-Kutta driver, :func:`_rk4_chunks`, on one grid per
propagation with a node at every interior knot of the profile;
deterministic output is preferred over adaptivity.  The grid is a
:class:`_GridNodes`, which computes its nodes chunk by chunk and holds
only its pieces' ends.  The driver builds the step matrices of a chunk
(:data:`_BLOCK` steps, or :data:`_CHECK_BLOCK` for the streamed checks) at
once (:func:`_rk4_step_matrices`, every elementwise operation one flat
numpy loop over full ``(n, 2, 2)`` operands; one matrix per distinct step
size where ``A`` is the same throughout the chunk) and applies them in
order on Python scalars (:func:`_apply_steps`, a generator that
``np.fromiter`` drains, reading a real chunk's matrices straight from their
buffer and a complex one's from a list), evaluating the parameters of ``A``
(the angle, or the controls) chunk by chunk, and hands each chunk's grid
nodes, parameters and states to its consumer as soon as it is applied.
:func:`_rk4` collects them into the whole trajectories the routes return;
:func:`propagate_reduced_chunks` passes them on, so that a writer holds one
chunk of the trajectory at a time.  Independent propagations are batched
through the driver, their steps walked in chunks that may span several of
them, with results equal bit for bit to propagating each alone:
:func:`propagate_reduced_finals` and :func:`propagate_exact_finals` keep
only each run's last sample, and the exact batch's chunks make one
steady-state solve each.  The rotated-frame matrix holds the slope, which
jumps at a knot, so that route takes continuous slopes only.
For piecewise-linear profiles the rotated-frame system has a closed-form
matrix exponential, exposed as :func:`segment_step` /
:func:`propagate_piecewise_exact`; exact to rounding, it is an independent
oracle for the Runge-Kutta routes.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bloch_steady import DriveFields, Rates, steady_coherences
from .errors import DoubleLambdaError, NonFinite, ProfileDomainMismatch
from .protocols import ThetaProfile, _check_alpha


class _Finite:
    """Base of the field states: a non-finite amplitude raises :class:`NonFinite`."""

    def __post_init__(self):
        if not np.isfinite(tuple(vars(self).values())).all():
            raise NonFinite(f"field amplitudes must be finite, got {self}")


@dataclass(frozen=True)
class FieldState(_Finite):
    """Probe/signal amplitudes in units of the input amplitude, finite.

    Real on the reduced route; complex on the microscopic route, whose
    controls may carry phases.
    """

    omega_p: complex
    omega_s: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.omega_p) ** 2 + abs(self.omega_s) ** 2


@dataclass(frozen=True)
class AdiabaticState(_Finite):
    """Rotated-frame amplitudes, finite: y rides the lossless mode, x the lossy one."""

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

    ``step_count`` overrides the resolution directly, an integer of at
    least 2; otherwise the step count is ``ceil(alpha * steps_per_unit)``.
    Either way it may not exceed
    :data:`MAX_STEPS`.  ``steps_per_unit`` is finite and at least 1: RK4 on
    the lossy mode (rate 1/2) diverges past a step of about 5.6, where
    ``eta`` can pass 1.  From one step per unit up, ``eta`` stayed at most
    0.9903 and the norm never rose by more than 2.2e-16, over the three
    protocols at 25 ``alpha`` in [1e-3, 1e3] and five resolutions in [1, 10].
    """

    step_count: int | None = None
    steps_per_unit: float = 10.0

    def __post_init__(self):
        n = self.step_count
        if n is not None and not (isinstance(n, numbers.Integral) and n >= 2):
            raise DoubleLambdaError(f"step_count must be an integer of at least 2, got {n!r}")
        if not (math.isfinite(self.steps_per_unit) and self.steps_per_unit >= 1):
            raise DoubleLambdaError("steps_per_unit must be finite and at least 1")

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
    """Slope control ``u(zeta) = -dtheta/dzeta``, continuous, plus boundary rotations."""

    alpha: float
    u: Callable[[np.ndarray], np.ndarray]
    entry_rotation: float = 0.0  # theta(0+) - theta(0-)
    exit_rotation: float = 0.0  # theta(alpha+) - theta(alpha-)

    def __post_init__(self):
        self.alpha = _check_alpha(self.alpha)


def schedule_from_profile(profile: ThetaProfile) -> ControlSchedule:
    """Derive the rotated-frame control schedule of an angle profile.

    The slope jumps at interior knots, which raise :class:`ProfileDomainMismatch`:
    kinked tables take :func:`propagate_reduced` or the closed form.
    """
    if profile.breakpoints:
        raise ProfileDomainMismatch(f"profile '{profile.kind}' has interior knots")
    pre, start = profile.entry_jump
    end, post = profile.exit_jump
    return ControlSchedule(
        alpha=profile.alpha,
        u=lambda z: -profile.interior_slope(np.asarray(z, dtype=float)),
        entry_rotation=start - pre,
        exit_rotation=post - end,
    )


def adiabatic_initial(profile: ThetaProfile, initial: FieldState) -> AdiabaticState:
    """Rotated-frame image of lab-frame input fields, in the incoming frame.

    The incoming frame is ``theta_pre``: pi/2 for profiles with an entry
    jump (where lab ``(1, 0)`` maps to ``(y, x) = (1, 0)``), the interior
    boundary value for jump-free profiles such as the adiabatic protocol.
    """
    return to_adiabatic(profile.theta_pre, initial)


def _grid_pieces(alpha: float, breakpoints: Sequence[float],
                 n_steps: int) -> list[tuple[float, float, int]]:
    """The pieces ``(a, b, n)`` of a grid on [0, alpha], ``n`` steps from ``a``
    to ``b``, between the breakpoints.  Each takes its share ``n_steps * (b -
    a) / alpha`` of the steps; a share whose product overflows raises
    :class:`NonFinite`."""
    cuts = [0.0, *sorted({float(b) for b in breakpoints if 0.0 < b < alpha}), alpha]
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        share = n_steps * (b - a)
        if share == math.inf:
            raise NonFinite(f"{n_steps} steps over a span of {b - a!r} overflow the grid")
        pieces.append((a, b, max(1, round(share / alpha))))
    return pieces


def _piece_nodes(a: float, b: float, n: int, lo: int, hi: int) -> np.ndarray:
    """Nodes ``lo`` to ``hi`` of ``np.linspace(a, b, n + 1)``, by its own arithmetic.

    numpy's argument handling is left out, and so is its branch for a step
    that underflows to 0: the cuts of a grid are distinct, so ``b - a > 0``
    is the step of a one-step piece, and any other piece steps at least
    about ``alpha / MAX_STEPS``, which is far above the smallest subnormal
    since ``alpha`` is at least the smallest normal.  Node ``i`` is
    ``i * ((b - a) / n) + a`` for any ``lo``, and the last one is ``b``.
    """
    nodes = np.arange(lo, hi + 1, dtype=float) * ((b - a) / n) + a
    if hi == n:
        nodes[-1] = b
    return nodes


class _GridNodes:
    """Grid on [0, alpha] with a node at every breakpoint, uniform in between,
    its nodes computed slice by slice.

    The pieces are those of :func:`_grid_pieces`, each numpy's
    ``linspace`` of it bit for bit (:func:`_piece_nodes`); pieces share
    their end nodes, each taken from the piece it ends.  ``grid[lo:hi]`` (a
    forward slice with both ends given) is an array of those nodes, and
    only the pieces' ends are held, so an :func:`_rk4_chunks` run on it
    holds one chunk of its grid at a time.
    """

    def __init__(self, alpha: float, breakpoints: Sequence[float], n_steps: int):
        self.pieces = _grid_pieces(alpha, breakpoints, n_steps)
        self.first = [0, *itertools.accumulate(n for _, _, n in self.pieces)]
        self.size = self.first[-1] + 1

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi = rows.start, rows.stop - 1
        k = max(0, bisect.bisect_left(self.first, lo) - 1)  # the piece node lo ends or lies in
        parts = []
        while lo <= hi:
            a, b, n = self.pieces[k]
            top = min(hi, self.first[k] + n)
            parts.append(_piece_nodes(a, b, n, lo - self.first[k], top - self.first[k]))
            lo, k = top + 1, k + 1
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0)


class _ReversedNodes:
    """A :class:`_GridNodes` grid walked from its end: rows ``[lo:hi]`` are
    its nodes ``size - 1 - lo`` down to ``size - hi``."""

    def __init__(self, grid):
        self.grid, self.size = grid, grid.size

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.grid[self.size - rows.stop : self.size - rows.start][::-1]


#: Steps whose RK4 step matrices are built and applied at once, and handed
#: out together; bounds the driver's working memory independently of the
#: grid length and of the number of propagations in a batch.
_BLOCK = 1024

#: Steps of the chunks a streamed check of ``verify`` takes from
#: :func:`_rk4_chunks`.  In chunks of :data:`_BLOCK` steps, the arc and
#: dissipation checks took 4-10 % longer than on whole arrays at alpha = 40
#: and 150 (a shared 2-core x86-64 host); in chunks of 2048 they took as
#: long, and their temporaries (16 KiB a column) stay below what the sampled
#: dominance check allocates.
_CHECK_BLOCK = 2048

#: The 2x2 identity once for each step of a :data:`_CHECK_BLOCK` chunk,
#: read-only; :func:`_rk4_step_matrices` adds a slice of it.
_EYES = np.tile(np.eye(2), (_CHECK_BLOCK, 1, 1))
_EYES.flags.writeable = False


def _rk4_step_matrices(a0: np.ndarray, a_mid: np.ndarray, a1: np.ndarray,
                       h: np.ndarray) -> np.ndarray:
    """RK4 step matrices of the linear system ``dv/dzeta = A(zeta) v``.

    ``a0``, ``a_mid`` and ``a1`` hold ``A`` at the start, the midpoint and
    the end of each step, as ``(n, 2, 2)`` arrays, and ``h`` the ``n`` step
    sizes.  Linearity folds the four stages of a step into one matrix
    ``R = I + h/6 (K1 + 2 K2 + 2 K3 + K4)`` with ``K1 = A(zeta)``,
    ``K2 = A(zeta + h/2) (I + h/2 K1)``, ``K3 = A(zeta + h/2) (I + h/2 K2)``
    and ``K4 = A(zeta + h) (I + h K3)``.  Each step's matrix depends on its
    own inputs only, so steps of independent propagations may share a call.

    Every elementwise operand has the full ``(n, 2, 2)`` shape: the step
    sizes are expanded once, and the identity is a slice of :data:`_EYES`
    (made afresh past :data:`_CHECK_BLOCK` steps), so each operation runs as
    one flat loop over ``4n`` entries rather than as ``n`` broadcast loops of
    four; one stage buffer is reused through ``out=``.  The operations and
    their operands' values are those of the broadcast form, and so are the
    bits, signs of zeros included (``+ I`` turns an off-diagonal ``-0.0``
    into ``+0.0`` in both).  The three ``@`` products are numpy's matmul,
    whose fused multiply-add an elementwise form would not reproduce.
    """
    n = h.size
    h = np.repeat(h, 4).reshape(n, 2, 2)
    half_h = 0.5 * h
    eye = _EYES[:n] if n <= len(_EYES) else np.tile(_EYES[0], (n, 1, 1))
    r = a0.copy()
    y = np.empty_like(r)
    k = a0
    for a_stage, frac_h, weight in ((a_mid, half_h, 2.0), (a_mid, half_h, 2.0), (a1, h, 1.0)):
        np.multiply(frac_h, k, out=y)
        y += eye
        k = a_stage @ y
        r += np.multiply(weight, k, out=y) if weight != 1.0 else k  # 1.0 * k is k
    h /= 6.0
    r *= h
    r += eye
    return r


def _apply_steps(entries: Iterable, p, q) -> Iterator:
    """Apply step matrices in order to the state ``(p, q)``.

    ``entries`` is any iterable of the matrices' entries, flat, row by row
    (``r00, r01, r10, r11`` of each step in turn).  Runs on Python floats
    (or complex numbers), carrying one state, so rounding accumulates as in
    a stage-by-stage integration; a prefix-product scan would be faster but
    loses accuracy at large ``alpha``.  Yields ``p`` and ``q`` after each
    step, flat, for ``np.fromiter`` to write straight into its array.
    """
    it = iter(entries)
    for a, b, c, d in zip(it, it, it, it):
        p, q = a * p + b * q, c * p + d * q
        yield p
        yield q


class _Run:
    """One propagation in flight through :func:`_rk4_chunks`: its grid, the
    map to the parameters of ``A``, and the state at its last applied node."""

    def __init__(self, grid, v0: np.ndarray, at):
        self.grid = grid
        self.at = at
        self.dtype = np.result_type(v0, float)
        self.v = np.asarray(v0, self.dtype)
        # true while v0 and every chunk so far are real
        self.real = not (np.iscomplexobj(self.v) and self.v.imag.any())


def _rk4_chunks(matrices: Callable[[np.ndarray], np.ndarray], runs: Iterable[tuple],
                block: int | None = None):
    """Classical RK4 for ``dv/dzeta = A v`` over a stream of independent runs,
    handed out chunk by chunk.

    Each run is ``(grid, v0, at)``: a grid (a :class:`_GridNodes`, or
    anything with a ``size`` and forward slices of its nodes, such as an
    array), the initial state, and the map ``at`` from positions to the
    parameters of ``A`` (``None`` when they are the positions themselves),
    as an array whose last axis runs over the positions.  ``matrices(x)``
    returns ``A`` for the parameters ``x`` as an ``(n, 2, 2)`` array and
    serves every run.  Where ``A`` is the same at every point ``x`` holds,
    ``matrices`` may return that one ``(2, 2)`` matrix instead; the chunk
    then builds one step matrix per distinct step size, with the bits of
    the ``(n, 2, 2)`` form, since a step's matrix depends on its ``A``
    values and its step size alone.

    The runs' steps are walked in order, in chunks of up to ``block`` steps
    (:data:`_BLOCK` where ``None``, read at the call) that may span several
    runs.  Each chunk evaluates ``at`` on each run's step nodes and
    midpoints in it, and makes one ``matrices`` call over all of them and
    one :func:`_rk4_step_matrices` call; :func:`_apply_steps` then applies
    the steps in order, restarting from ``v0`` at each run's first step.  A
    step's matrix and its application do not depend on the chunk it falls
    in, so the states are those of each run integrated alone, bit for bit,
    at any ``block``; the streamed checks take :data:`_CHECK_BLOCK`.

    A run's states take the dtype of its ``v0``; a route whose ``A`` can be
    complex passes a complex ``v0``.  A chunk whose ``A`` has no imaginary
    part is built real, and a run is applied in real arithmetic until its
    ``v0`` or a chunk is not real, with the bits of the complex kernel.

    Yields ``(size, lo, zeta, nodes, states)`` for each run a chunk holds,
    in order, as soon as the chunk has applied that run's steps: the states
    at the grid rows from ``lo`` on, ``zeta`` the grid's nodes there, and
    ``nodes`` the parameters of ``A`` at them (``zeta`` itself where ``at``
    is ``None``).  ``size`` is the run's node count.  A run's first piece
    starts at row 0 with ``v0``, and each later one at the row after the
    last one handed out, so a run's pieces are its whole trajectory once,
    and the run has ended when ``lo + len(states) == size``.  No reader
    needs the grid itself.  Runs are pulled only as the chunks reach them,
    and a run that spans chunks ends before the next run's grid is built;
    nothing is held beyond the chunk in flight and the grids of the runs it
    holds.
    """
    block = _BLOCK if block is None else block
    chunk = []  # (run, lo, hi): steps lo..hi of a run
    room = block
    for grid, v0, at in runs:
        run = _Run(grid, v0, at)
        lo, n = 0, grid.size - 1
        while lo < n:
            hi = min(n, lo + room)
            chunk.append((run, lo, hi))
            room -= hi - lo
            lo = hi
            # flush a full chunk, and one that ends a run begun in an earlier chunk
            if room == 0 or (hi == n and chunk[0][1] > 0):
                yield from _rk4_chunk(matrices, chunk)
                chunk, room = [], block
    if chunk:
        yield from _rk4_chunk(matrices, chunk)


def _rk4_chunk(matrices, chunk):
    """Build and apply one chunk of :func:`_rk4_chunks`; yield its pieces."""
    zetas, nodes, mids, steps = [], [], [], []
    for run, lo, hi in chunk:
        z = run.grid[lo : hi + 1]
        z_mid = 0.5 * (z[:-1] + z[1:])
        steps.append(z[1:] - z[:-1])
        zetas.append(z)
        x = None
        if run.at is not None:
            x = run.at(np.concatenate((z, z_mid)))
            z, z_mid = x[..., : z.size], x[..., z.size :]
        nodes.append(z)
        mids.append(z_mid)
    if len(chunk) == 1:  # the run's own steps and nodes-then-midpoints, uncopied
        h = steps[0]
        x = np.concatenate((z, z_mid)) if x is None else x
    else:
        h = np.concatenate(steps)
        x = np.concatenate(nodes + mids, axis=-1)
    n = h.size
    a = matrices(x)
    if np.iscomplexobj(a) and not a.imag.any():
        a = np.ascontiguousarray(a.real)
    if a.ndim == 2:
        # one A for the whole chunk: one step matrix per distinct step size
        h, which = np.unique(h, return_inverse=True)
        a = np.broadcast_to(a, (h.size, 2, 2))
        r = _rk4_step_matrices(a, a, a, h).take(which, axis=0)
    else:
        if len(chunk) == 1:
            a0, a1 = a[:n], a[1 : n + 1]
        else:
            # each piece adds one node more than steps, so step i starts at node i + piece
            start = np.arange(n) + np.repeat(np.arange(len(chunk)), [x.size for x in steps])
            # take, not a[start]: numpy's fancy indexing of (n, 2, 2) is about 5x slower
            a0, a1 = a.take(start, axis=0), a.take(start + 1, axis=0)
        r = _rk4_step_matrices(a0, a[n + len(chunk) :], a1, h)
    complex_r = r.dtype.kind == "c"
    i = 0
    for (run, lo, hi), z, x in zip(chunk, zetas, nodes):
        m = hi - lo
        v = run.v.real if run.real else run.v
        piece = r[i : i + m]
        # a real piece feeds the loop from its buffer, one float at a time; a
        # memoryview cannot yield complex numbers, so a complex one is a list
        entries = piece.ravel().tolist() if complex_r else memoryview(piece).cast("B").cast("d")
        i += m
        run.real = run.real and not complex_r
        # read as floats while real: fromiter converts floats to complex slowly
        rows = np.fromiter(_apply_steps(entries, *v.tolist()),
                           float if run.real else run.dtype, 2 * m)
        if lo == 0:  # a run's first piece also holds v0
            rows = np.concatenate((run.v, rows))
        states = rows.astype(run.dtype, copy=False).reshape(-1, 2)
        run.v = states[-1].copy()
        skip = int(lo > 0)  # node lo ended the run's previous piece
        yield run.grid.size, lo + skip, z[skip:], x[..., skip:], states


def _rk4(matrices: Callable[[np.ndarray], np.ndarray], runs: Iterable[tuple],
         keep_nodes: bool = False):
    """The runs of :func:`_rk4_chunks`, each collected whole.

    Yields ``(zeta, nodes, states)`` for each run, in order, as soon as its
    last chunk is applied: the grid nodes, the ``(len(zeta), 2)`` states,
    starting with ``v0``, and with ``keep_nodes`` the parameters of ``A`` at
    the grid nodes (else ``None``), each in one array allocated at the run's
    first chunk and filled chunk by chunk.  The working memory is one chunk,
    the short runs it holds, and the run being collected.
    """
    for size, lo, z, x, v in _rk4_chunks(matrices, runs):
        if lo == 0:
            zeta = np.empty(size)
            states = np.empty((size, 2), v.dtype)
            nodes = np.empty(x.shape[:-1] + (size,), x.dtype) if keep_nodes else None
        hi = lo + len(v)
        zeta[lo:hi] = z
        states[lo:hi] = v
        if keep_nodes:
            nodes[..., lo:hi] = x
        if hi == size:
            yield zeta, nodes, states


def _last_samples(matrices: Callable[[np.ndarray], np.ndarray],
                  runs: Iterable[tuple]) -> Iterator[Trajectory]:
    """The last sample of each run of :func:`_rk4_chunks`, in order.

    Each is a :class:`Trajectory` of one node, the last row of the run's
    trajectory bit for bit; nothing else of a run is kept, so the working
    memory is one chunk and the grids of the runs it holds.
    """
    for size, lo, z, _, v in _rk4_chunks(matrices, runs):
        if lo + len(v) == size:
            yield Trajectory(zeta=z[-1:].copy(), omega_p=v[-1:, 0].copy(),
                             omega_s=v[-1:, 1].copy())


def _slope_matrices(u: np.ndarray, decay: float) -> np.ndarray:
    """``[[0, -u], [u, decay]]`` for every slope in ``u``, acting on ``(y, x)``."""
    u = np.asarray(u, dtype=float)
    m = np.zeros(u.shape + (2, 2))
    m[..., 0, 1] = -u
    m[..., 1, 0] = u
    m[..., 1, 1] = decay
    return m


def _lab_matrices(theta: np.ndarray) -> np.ndarray:
    """``-1/2 P(theta)`` for every angle in ``theta``, P the rank-one projector.

    The entries are those of :func:`projector_matrix`, written straight into
    the ``(n, 2, 2)`` layout that :func:`_rk4_chunks` takes.
    """
    c, s = np.cos(theta), np.sin(theta)
    m = np.empty(theta.shape + (2, 2))
    m[:, 0, 0] = c * c
    m[:, 0, 1] = m[:, 1, 0] = -s * c
    m[:, 1, 1] = s * s
    m *= -0.5
    return m


def _lab_run(profile: ThetaProfile, opts: IntegratorOptions, initial: FieldState) -> tuple:
    """The :func:`_rk4_chunks` run of a reduced propagation."""
    grid = _GridNodes(profile.alpha, profile.breakpoints, opts.resolve_steps(profile.alpha))
    v0 = np.array([float(initial.omega_p), float(initial.omega_s)])
    return grid, v0, lambda z, f=profile.interior: np.asarray(f(z), dtype=float)


def propagate_reduced_finals(
    runs: Iterable[tuple[ThetaProfile, IntegratorOptions]],
    initial: FieldState = FieldState(1.0, 0.0),
) -> Iterator[Trajectory]:
    """The last sample of :func:`propagate_reduced` of each ``(profile, opts)`` pair, batched.

    The propagations share one RK4 integrator: their steps are built and
    applied in chunks of :data:`_BLOCK` that may span several of them, each
    chunk with one evaluation of ``-1/2 P(theta)`` and one step-matrix
    build.  Each is a one-node :class:`Trajectory` (with no angle), bit for
    bit the last row of the trajectory :func:`propagate_reduced` returns, so
    ``final_state`` and ``efficiency`` read as there.  Pairs are read from
    ``runs`` only as the chunks reach them and no trajectory is collected,
    so the working memory is one chunk at any grid length.
    """
    return _last_samples(_lab_matrices, (_lab_run(profile, opts, initial)
                                         for profile, opts in runs))


def propagate_reduced_chunks(
    profile: ThetaProfile,
    initial: FieldState = FieldState(1.0, 0.0),
    opts: IntegratorOptions = DEFAULT_OPTIONS,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The trajectory of :func:`propagate_reduced`, handed out chunk by chunk.

    The profile, the grid and the step cap are checked at once, with the
    errors of :func:`propagate_reduced`; nothing is integrated until the
    returned iterator is read.  It yields ``(zeta, theta, states)`` for each
    RK4 chunk as soon as the chunk is applied: the grid nodes, the angle
    there and the ``(n, 2)`` probe and signal amplitudes.  The first chunk
    also holds the initial row, so it has up to ``_BLOCK + 1`` rows and the
    others up to :data:`_BLOCK`; together they are the rows of
    :func:`propagate_reduced`, bit for bit.  Nothing is held whole.
    """
    chunks = _rk4_chunks(_lab_matrices, [_lab_run(profile, opts, initial)])
    return ((z, theta, v) for _, _, z, theta, v in chunks)


def propagate_reduced(
    profile: ThetaProfile,
    initial: FieldState = FieldState(1.0, 0.0),
    opts: IntegratorOptions = DEFAULT_OPTIONS,
) -> Trajectory:
    """Integrate the reduced lab-frame system along the angle profile.

    The grid has a node at each of the profile's breakpoints (its interior
    knots), where the slope changes, so kinked tables keep fourth order.
    Boundary jumps leave the fields untouched.  The angle is evaluated
    chunk by chunk at the step nodes and midpoints, and its values at the
    grid nodes are collected into ``Trajectory.theta``.
    """
    ((zeta, theta, v),) = _rk4(_lab_matrices, [_lab_run(profile, opts, initial)],
                               keep_nodes=True)
    return Trajectory(zeta=zeta, omega_p=v[:, 0], omega_s=v[:, 1], theta=theta)


def _rotate(y: float, x: float, delta: float) -> tuple[float, float]:
    """Frame rotation accompanying an angle jump by ``delta``; lab fields fixed."""
    c, s = math.cos(delta), math.sin(delta)
    return c * y + s * x, -s * y + c * x


def _schedule_matrices(schedule: ControlSchedule) -> Callable[[np.ndarray], np.ndarray]:
    """The rotated-frame ``A`` of :func:`propagate_adiabatic` for :func:`_rk4_chunks`."""

    def matrices(z):
        u = np.asarray(schedule.u(z), dtype=float)
        bits = u.view(np.uint64)
        # one matrix for a chunk whose slope is the same, bit for bit, throughout
        return _slope_matrices(u.flat[0] if (bits == bits.flat[0]).all() else u, -0.5)

    return matrices


def propagate_adiabatic(
    schedule: ControlSchedule,
    initial: AdiabaticState = AdiabaticState(x=0.0, y=1.0),
    opts: IntegratorOptions = DEFAULT_OPTIONS,
) -> AdiabaticTrajectory:
    """Integrate the rotated-frame system under a continuous slope control.

    ``initial`` is the state before the entry rotation; the returned
    ``final_state`` is the state after the exit rotation.  With ``u == 0``
    the ``y`` component is exactly conserved and ``x`` decays at rate 1/2.
    """
    grid = _GridNodes(schedule.alpha, (), opts.resolve_steps(schedule.alpha))
    v0 = np.array(_rotate(float(initial.y), float(initial.x), schedule.entry_rotation))
    ((zeta, _, v),) = _rk4(_schedule_matrices(schedule), [(grid, v0, None)])
    y_out, x_out = _rotate(*v[-1].tolist(), schedule.exit_rotation)
    return AdiabaticTrajectory(
        zeta=zeta,
        x=v[:, 1],
        y=v[:, 0],
        final_state=AdiabaticState(x=x_out, y=y_out),
    )


def propagate_exact_finals(
    runs: Iterable[tuple[Callable, float, IntegratorOptions, Sequence[float]]],
    rates: Rates = Rates(),
    initial: FieldState = FieldState(1.0, 0.0),
) -> Iterator[Trajectory]:
    """The last sample of :func:`propagate_exact` of each ``(controls, alpha,
    opts, breakpoints)``, batched.

    As in :func:`propagate_reduced_finals`, the runs share one RK4
    integrator and each yields a one-node :class:`Trajectory`, bit for bit.
    Each chunk evaluates every run's controls at its step nodes and
    midpoints in the chunk and makes one steady-state solve over all of
    them and one step-matrix build.  A real run that shares a chunk with a
    complex one is applied in complex arithmetic from there on, which gives
    the bits of the real kernel.
    """
    return _last_samples(*_exact_batch(runs, rates, initial))


def _exact_batch(runs, rates: Rates, initial: FieldState) -> tuple:
    """``matrices`` and the :func:`_rk4_chunks` runs of an exact-route batch."""
    g31, g41 = rates.gamma31, rates.gamma41
    # unit probe and unit signal, one row each, against the controls' points
    unit_p, unit_s = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])

    def matrices(x):
        sol = steady_coherences(DriveFields(unit_p, unit_s, x[0], x[1]), rates)
        # sol.rho31[j, i]: coherence at point i driven by unit field j (column j)
        return np.moveaxis(np.stack([0.5j * g31 * sol.rho31, 0.5j * g41 * sol.rho41]), -1, 0)

    v0 = np.array([initial.omega_p, initial.omega_s], dtype=complex)

    def controls_at(z, controls):
        """The parameters of ``A``: a row of ``Omega_c`` and one of ``Omega_d`` at ``z``."""
        x = np.empty((2, z.size), complex)
        x[0], x[1] = controls(z)  # broadcasts scalar controls
        return x

    def exact_runs():
        for controls, alpha, opts, breakpoints in runs:
            alpha = _check_alpha(alpha)
            yield (_GridNodes(alpha, breakpoints, opts.resolve_steps(alpha)), v0,
                   lambda z, f=controls: controls_at(z, f))

    return matrices, exact_runs()


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
    ``lambda z: theta_to_controls(profile, z)``.  It is evaluated chunk by
    chunk, so it must act elementwise.  The steady coherences are linear in
    the weak fields, so the columns of the system matrix are
    ``i gamma/2 rho`` from the steady-state solve at unit probe and at unit
    signal, taken at the local controls: one array solve per evaluation of
    ``A`` on a block of points, both unit fields stacked.  Under the
    reduction assumptions (equal decay rates, no dephasing, real controls)
    the matrix is ``-1/2 P(theta)`` and this reproduces
    :func:`propagate_reduced` to rounding.  The trajectory is complex; real
    controls at ``gamma21 = 0`` make ``A`` real, and :func:`_rk4_chunks` then
    integrates in real arithmetic.
    """
    matrices, runs = _exact_batch([(controls, alpha, opts, breakpoints)], rates, initial)
    ((zeta, _, v),) = _rk4(matrices, runs)
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
    ``k <= 1/4``, so long segments cannot overflow.  Where ``u^2``
    overflows, ``w = sqrt(u^2 - 1/16)`` rounds to ``|u|``, which is used
    directly; an infinite ``u`` (a segment shorter than the smallest normal
    float) has lost its angle change and raises :class:`NonFinite`.
    :func:`segment_step` and the adjoint gradient of the profile search both
    build on this form.  Its array twin :func:`_segment_exponential_array`
    writes the same branches once more for the sampled dominance check; the
    property test ``test_array_segment_exponential_matches_scalar`` holds the
    two within 4 ulp.
    """
    k2 = 0.0625 - u * u
    if k2 > 1e-14:
        k = math.sqrt(k2)
        grow = math.exp((k - 0.25) * dzeta)
        m = -math.expm1(-2.0 * k * dzeta)  # 1 - exp(-2 k dz)
        return grow * (1.0 - 0.5 * m), grow * m / (2.0 * k)
    if k2 < -1e-14:
        if k2 > -math.inf:
            w = math.sqrt(-k2)
        elif math.isfinite(u):
            w = abs(u)
        else:
            raise NonFinite("segment slope overflows; its angle change is lost")
        e = math.exp(-0.25 * dzeta)
        return e * math.cos(w * dzeta), e * math.sin(w * dzeta) / w
    ec = math.exp(-0.25 * dzeta)
    return ec, ec * dzeta


def _segment_exponential_array(u: np.ndarray, dzeta) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_segment_exponential` elementwise over an array of slopes ``u``.

    The same three branches, thresholds and ``w = |u|`` rule, each evaluated
    only on the elements that take it, with a scalar step ``dzeta``.
    numpy's ``exp`` and ``expm1`` may differ from :mod:`math`'s in the last
    place, so the pair agrees with the scalar form to within 4 ulp, not bit
    for bit; the profile search and :func:`segment_step` keep the scalar
    form.  An infinite slope raises :class:`NonFinite`.
    """
    u = np.asarray(u, dtype=float)
    if np.isinf(u).any():
        raise NonFinite("segment slope overflows; its angle change is lost")
    # u^2 may overflow, and a trigonometric phase w dz with it
    with np.errstate(over="ignore", invalid="ignore"):
        k2 = 0.0625 - u * u
        hyp, trig = k2 > 1e-14, k2 < -1e-14
        e = np.exp(-0.25 * dzeta)
        # the k = 0 limit everywhere, then each other branch on its own elements
        ec, es = np.full(u.shape, e), np.full(u.shape, e * dzeta)
        k = np.sqrt(k2[hyp])
        grow = np.exp((k - 0.25) * dzeta)
        m = -np.expm1(-2.0 * k * dzeta)
        ec[hyp] = grow * (1.0 - 0.5 * m)
        es[hyp] = grow * m / (2.0 * k)
        k2 = k2[trig]
        w = np.where(np.isinf(k2), np.abs(u[trig]), np.sqrt(-k2))
        ec[trig] = e * np.cos(w * dzeta)
        es[trig] = e * np.sin(w * dzeta) / w
    return ec, es


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

def _five_point_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """Central five-point derivative of samples ``f`` at spacing ``h``.

    Fourth order, like the integrator; defined on ``f[2:-2]``.
    """
    return (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)


def _stencil_window(carry, cols: tuple) -> tuple[tuple, tuple]:
    """A piece of sampled columns behind the samples carried from before it.

    ``cols`` are the columns' samples in one piece of a stream, ``carry``
    (``None`` at the first piece) the last four samples of the pieces
    before it, which the five-point stencil reaches back to.  Returns the
    columns with the carried samples in front, and the last four samples of
    those to carry on.  A stencil over each window yields the values it
    yields over the whole stream, in order, each once.
    """
    if carry is not None:
        cols = tuple(np.concatenate(pair) for pair in zip(carry, cols))
    return cols, tuple(c[-4:].copy() for c in cols)


def _running_max(worst, values: np.ndarray):
    """``worst`` raised to the largest ``|values|``; ``None`` before any value.

    Fed a stream piece by piece, it ends on ``np.max(np.abs(...))`` of the
    whole stream bit for bit, a NaN included: a maximum does not depend on
    the order its values come in.  An empty piece leaves ``worst`` as it is.
    """
    if not values.size:
        return worst
    m = np.max(np.abs(values))
    return m if worst is None else np.maximum(worst, m)


def _check_uniform(z: np.ndarray, h: float) -> None:
    """Raise unless every step of the nodes ``z`` is ``h``, to rounding."""
    # np.allclose(np.diff(z), h, rtol=1e-9, atol=1e-12) written out: the same
    # decision on a finite grid, without the broadcasting and inf handling that
    # make np.allclose cost about three times the comparison itself
    if not np.all(np.abs(np.diff(z) - h) <= 1e-12 + 1e-9 * abs(h)):
        raise DoubleLambdaError("dissipation residual requires a uniform grid")


def _dissipation_terms(omega_p, omega_s, theta) -> tuple[np.ndarray, np.ndarray]:
    """The norm ``Omega_p^2 + Omega_s^2`` and the lossy amplitude at each sample."""
    x = np.real(omega_p) * np.cos(theta) - np.real(omega_s) * np.sin(theta)
    return np.abs(omega_p) ** 2 + np.abs(omega_s) ** 2, x


def _check_stencil_nodes(size: int) -> None:
    """Raise unless a grid of ``size`` nodes leaves the five-point stencil a value."""
    if size < 5:
        raise DoubleLambdaError("dissipation residual needs at least five grid nodes")


def _dissipation_window(norm_sq: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """The residual on the interior of a window of :func:`_dissipation_terms`."""
    return _five_point_derivative(norm_sq, h) + x[2:-2] ** 2


def dissipation_residual(traj: Trajectory) -> np.ndarray:
    """Pointwise residual of d(norm)/dzeta = -(lossy amplitude)^2.

    The derivative of ``Omega_p^2 + Omega_s^2`` is estimated with the
    five-point central stencil (fourth-order accurate, matching the
    integrator order) on the interior of a uniform grid of at least five
    nodes.
    """
    z = traj.zeta
    _check_stencil_nodes(len(z))
    h = z[1] - z[0]
    _check_uniform(z, h)
    if traj.theta is None:
        raise DoubleLambdaError("trajectory carries no mixing angle")
    return _dissipation_window(*_dissipation_terms(traj.omega_p, traj.omega_s, traj.theta), h)


def dissipation_order(
    profile: ThetaProfile, steps_list: Sequence[int]
) -> tuple[float, np.ndarray]:
    """Observed convergence order of the dissipation-identity residual.

    Returns the log-log slope of max residual versus step size over the
    given step counts, integers with at least two distinct, together with
    the residual maxima.  The runs are one batch of :func:`propagate_reduced`'s
    integrator in chunks of :data:`_CHECK_BLOCK` steps, and each run's
    maximum is taken as they are applied (the stencil carries four samples
    and their nodes across a chunk's edge, for the uniform-grid test too):
    the maxima of :func:`dissipation_residual` over the whole trajectories,
    bit for bit, in the working memory of one chunk.
    """
    opts = [IntegratorOptions(step_count=n) for n in steps_list]
    if len(set(steps_list)) < 2:
        raise DoubleLambdaError("dissipation order needs at least two distinct step counts")
    runs = (_lab_run(profile, o, FieldState(1.0, 0.0)) for o in opts)
    res = []
    for size, lo, z, theta, v in _rk4_chunks(_lab_matrices, runs, _CHECK_BLOCK):
        if lo == 0:  # a run's first piece
            _check_stencil_nodes(size)
            h, worst, carry = z[1] - z[0], None, None
        cols = (z, *_dissipation_terms(v[:, 0], v[:, 1], theta))
        (z, *terms), carry = _stencil_window(carry, cols)
        _check_uniform(z, h)
        worst = _running_max(worst, _dissipation_window(*terms, h))
        if lo + len(v) == size:
            res.append(float(worst))
    hs = [profile.alpha / n for n in steps_list]
    slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    return slope, np.asarray(res)
