"""Bit-for-bit oracles for the work-saving paths of the integrators.

* ``frozen_segment_exponential_array`` is the all-branch form of
  ``_segment_exponential_array``, which evaluated all three branches on
  every element and picked with ``np.where``.  The branch-by-branch form
  must give the same bits.
* A ``matrices`` that returns one ``(2, 2)`` matrix makes the RK4 driver
  build one step matrix per distinct step size.  The states must be those
  of the same ``A`` broadcast to ``(n, 2, 2)``, bit for bit.
* ``frozen_rk4_step_matrices`` builds the RK4 step matrices with broadcast
  operands, ``(n, 1, 1)`` step sizes and the ``(2, 2)`` identity, and
  ``frozen_apply_steps`` applies them into a list.  The flat-operand build
  and the generator apply must give the same bits, signs of zeros included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelambda import pmp_search, propagation
from doublelambda.errors import NonFinite
from doublelambda.pmp_search import (
    SAMPLED_KNOTS,
    integrate_adjoint_along_arc,
    sampled_profile_efficiencies,
    verify_singular_arc,
)
from doublelambda.propagation import (
    _BLOCK,
    _CHECK_BLOCK,
    IntegratorOptions,
    _apply_steps,
    _rk4,
    _rk4_step_matrices,
    _segment_exponential_array,
    propagate_adiabatic,
    schedule_from_profile,
)
from doublelambda.protocols import HALF_PI, build_profile
from test_properties import MIXED_SLOPES
from test_rk4_reference import linspace_grid

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: float(10.0**e))


# ---------------------------------------------------------------------------
# Segment exponential, branch by branch
# ---------------------------------------------------------------------------

def frozen_segment_exponential_array(u, dzeta):
    """Every branch on every element, picked with ``np.where``."""
    u = np.asarray(u, dtype=float)
    if np.isinf(u).any():
        raise NonFinite("segment slope overflows; its angle change is lost")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k2 = 0.0625 - u * u
        r = np.where(np.isinf(k2), np.abs(u), np.sqrt(np.abs(k2)))
        grow = np.exp((r - 0.25) * dzeta)
        m = -np.expm1(-2.0 * r * dzeta)
        e = np.exp(-0.25 * dzeta)
        hyp, trig = k2 > 1e-14, k2 < -1e-14
        ec = np.where(hyp, grow * (1.0 - 0.5 * m), np.where(trig, e * np.cos(r * dzeta), e))
        es = np.where(hyp, grow * m / (2.0 * r),
                      np.where(trig, e * np.sin(r * dzeta) / r, e * dzeta))
    return ec, es


def frozen_sampled_profile_efficiencies(alpha, n_profiles, seed, chunk=4096):
    """The sampled dominance check through the all-branch form, in one expression per step."""
    rng = np.random.default_rng(seed)
    dz = alpha / (SAMPLED_KNOTS - 1)
    out = np.empty(n_profiles)
    for lo in range(0, n_profiles, chunk):
        rows = min(chunk, n_profiles - lo)
        th = rng.uniform(0.0, HALF_PI, size=(rows, SAMPLED_KNOTS)).T
        with np.errstate(over="ignore"):
            u = (th[:-1] - th[1:]) / dz
        ec, es = frozen_segment_exponential_array(u, dz)
        a, b, d = ec + 0.25 * es, es * u, ec - 0.25 * es
        y, x = np.sin(th[0]), np.cos(th[0])
        for i in range(SAMPLED_KNOTS - 1):
            y, x = a[i] * y - b[i] * x, b[i] * y + d[i] * x
        s = np.cos(th[-1]) * y - np.sin(th[-1]) * x
        out[lo : lo + rows] = s * s
    return out


SIGNS = st.sampled_from([-1.0, 1.0])
SLOPES = st.one_of(
    st.floats(-1.0, 1.0),
    log_uniform(1e-300, 1e3).flatmap(lambda u: SIGNS.map(lambda s: s * u)),
    # k = 0 from both sides, across the 1e-14 band of the k = 0 limit
    st.tuples(log_uniform(1e-17, 1e-7), SIGNS, SIGNS).map(lambda p: p[2] * (0.25 + p[1] * p[0])),
    # u^2 overflows: w = |u|
    st.tuples(log_uniform(1.3e154, 1e308), SIGNS).map(lambda p: p[0] * p[1]),
)


@PROPERTY
@given(u=st.lists(SLOPES, min_size=1, max_size=40), dz=log_uniform(1e-300, 1e300))
def test_branchwise_segment_exponential_matches_all_branch_form(u, dz):
    u = np.array(MIXED_SLOPES + u)
    for got, want in zip(_segment_exponential_array(u, dz),
                         frozen_segment_exponential_array(u, dz)):
        assert same_bits(got, want)


@PROPERTY
@given(rows=st.integers(1, 40), seed=st.integers(0, 2**31 - 1), dz=log_uniform(1e-6, 1e4))
def test_branchwise_segment_exponential_matches_on_transposed_blocks(rows, seed, dz):
    # the sampled check passes (segments, profiles) blocks of a transposed draw
    th = np.random.default_rng(seed).uniform(0.0, HALF_PI, (rows, SAMPLED_KNOTS)).T
    u = (th[:-1] - th[1:]) / dz
    for got, want in zip(_segment_exponential_array(u, dz),
                         frozen_segment_exponential_array(u, dz)):
        assert same_bits(got, want)


def test_branchwise_segment_exponential_raises_on_infinite_slope():
    for bad in (math.inf, -math.inf):
        with pytest.raises(NonFinite):
            _segment_exponential_array(np.array(MIXED_SLOPES + [bad]), 1.0)


@pytest.mark.parametrize("alpha", [1e-3, 0.05, 2.0, 20.0, 77.7, 150.0, 1e3, 1e5])
def test_sampled_efficiencies_match_all_branch_form(alpha):
    # more rows than one chunk of either form, so both chunkings are crossed
    n = 2 * pmp_search.SAMPLE_CHUNK + 37
    assert same_bits(sampled_profile_efficiencies(alpha, n, seed=11),
                     frozen_sampled_profile_efficiencies(alpha, n, seed=11))


# ---------------------------------------------------------------------------
# Constant A: one step matrix per distinct step size
# ---------------------------------------------------------------------------

def constant(a):
    return lambda x: a


def broadcast(a):
    return lambda x: np.broadcast_to(a, (x.shape[-1], 2, 2)).copy()


def integrate(matrices, runs):
    return [(zeta, states) for zeta, _, states in _rk4(matrices, runs)]


def assert_same_runs(a, runs):
    one = integrate(constant(a), runs)
    full = integrate(broadcast(a), runs)
    assert len(one) == len(full) == len(runs)
    for (g1, v1), (g2, v2), (grid, _, _) in zip(one, full, runs):
        assert same_bits(g1, grid) and same_bits(g2, grid)
        assert same_bits(v1, v2)


MATRICES = st.one_of(
    st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4).map(
        lambda e: np.array(e).reshape(2, 2)),
    st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8).map(
        lambda e: (np.array(e[:4]) + 1j * np.array(e[4:])).reshape(2, 2)),
)


@st.composite
def grids(draw):
    """A grid of up to a few chunks: linspace pieces, a random walk, or either reversed."""
    alpha = draw(log_uniform(1e-3, 1e3))
    n = draw(st.one_of(st.integers(1, 60), st.sampled_from(
        [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 37])))
    kind = draw(st.sampled_from(["linspace", "pieces", "walk"]))
    if kind == "linspace":
        grid = np.linspace(0.0, alpha, n + 1)
    elif kind == "pieces":
        cuts = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4))
        grid = linspace_grid(alpha, [alpha * c for c in cuts], max(n, 2 * len(cuts) + 2))
    else:
        steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
        grid = np.concatenate(([0.0], np.cumsum(steps)))
    return grid[::-1] if draw(st.booleans()) else grid


STATES = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(np.array)


@PROPERTY
@given(a=MATRICES, runs=st.lists(st.tuples(grids(), STATES), min_size=1, max_size=6))
def test_single_matrix_matches_broadcast_matrices(a, runs):
    # a route whose A can be complex passes a complex v0
    assert_same_runs(a, [(grid, v0.astype(a.dtype), None) for grid, v0 in runs])


@pytest.mark.parametrize("counts", [
    [_BLOCK - 24, 24, 5],            # a chunk ends between the first two runs
    [_BLOCK - 24, 50, 2 * _BLOCK],    # chunks end inside the second and third runs
    [2] * (_BLOCK // 2 + 3),         # many runs per chunk, one chunk end between runs
])
def test_single_matrix_matches_broadcast_across_chunk_ends(counts):
    a = np.array([[0.0, -0.3], [0.3, 0.5]])
    runs = [(np.linspace(0.0, 0.5 + i, n + 1)[::1 - 2 * (i % 2)], np.array([0.2, 1.0]), None)
            for i, n in enumerate(counts)]
    assert_same_runs(a, runs)


def test_complex_matrix_without_imaginary_part_runs_real():
    a = np.array([[-0.25, 0.1], [0.1, -0.25]], dtype=complex)
    runs = [(np.linspace(0.0, 3.0, 301), np.array([1.0, 0.0], dtype=complex), None)]
    assert_same_runs(a, runs)
    ((_, v),) = integrate(constant(a), runs)
    assert v.dtype == complex and not v.imag.any()


def recorded_step_counts(monkeypatch):
    counts, build = [], propagation._rk4_step_matrices

    def recording(a0, a_mid, a1, h):
        counts.append(h.size)
        return build(a0, a_mid, a1, h)

    monkeypatch.setattr(propagation, "_rk4_step_matrices", recording)
    return counts


def test_constant_slope_chunks_build_one_matrix_per_step_size(monkeypatch):
    counts = recorded_step_counts(monkeypatch)
    arc = verify_singular_arc(100.0)  # 10,000 steps at one slope
    integrate_adjoint_along_arc(arc)  # the same grid, reversed
    assert len(counts) == 2 * math.ceil(10_000 / _CHECK_BLOCK)
    assert max(counts) <= 15


def test_varying_slope_chunks_build_every_step(monkeypatch):
    counts = recorded_step_counts(monkeypatch)
    profile = build_profile("adiabatic", 30.0)
    propagate_adiabatic(schedule_from_profile(profile), opts=IntegratorOptions(step_count=3000))
    assert counts == [_BLOCK, _BLOCK, 3000 - 2 * _BLOCK]


# ---------------------------------------------------------------------------
# RK4 step matrices on flat operands, applied through a generator
# ---------------------------------------------------------------------------

def frozen_rk4_step_matrices(a0, a_mid, a1, h):
    """The build with broadcast operands: ``(n, 1, 1)`` step sizes, the ``(2, 2)`` identity."""
    eye = np.eye(2)
    h = h[:, None, None]
    half_h = 0.5 * h
    r = a0.copy()
    k = a0
    for a_stage, frac_h, weight in ((a_mid, half_h, 2.0), (a_mid, half_h, 2.0), (a1, h, 1.0)):
        y = frac_h * k
        y += eye
        k = a_stage @ y
        r += weight * k
    r *= h / 6.0
    r += eye
    return r


def frozen_apply_steps(entries, p, q):
    """The apply into a list of ``p`` and ``q`` after each step, flat."""
    out = []
    it = iter(entries)
    for a, b, c, d in zip(it, it, it, it):
        p, q = a * p + b * q, c * p + d * q
        out.append(p)
        out.append(q)
    return out


CACHED_EYES = len(propagation._EYES)
STEP_COUNTS = st.one_of(
    st.integers(1, 2 * _CHECK_BLOCK + 1),
    st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, CACHED_EYES - 1, CACHED_EYES,
                     CACHED_EYES + 1, 2 * _CHECK_BLOCK + 1]),
)


def signed_zero_entries(rng, shape):
    """Entries of either sign over four decades, a fifth of them +0.0 and a fifth -0.0."""
    e = rng.standard_normal(shape) * 10.0 ** rng.uniform(-2.0, 2.0, shape)
    pick = rng.uniform(size=shape)
    e[pick < 0.2] = 0.0
    e[pick > 0.8] = -0.0
    return e


def stage_matrices(rng, n, is_complex, shared):
    """``(a0, a_mid, a1)`` for ``n`` steps; ``shared`` is one ``A`` broadcast to
    all three, as the driver passes it where ``A`` is the same throughout a chunk."""
    shape = (2, 2) if shared else (3, n, 2, 2)
    a = signed_zero_entries(rng, shape)
    if is_complex:
        a = a + 1j * signed_zero_entries(rng, shape)
    if shared:
        a = np.broadcast_to(a, (n, 2, 2))
        return a, a, a
    return tuple(a)


@PROPERTY
@given(n=STEP_COUNTS, seed=st.integers(0, 2**32 - 1), is_complex=st.booleans(),
       shared=st.booleans())
def test_flat_operand_build_matches_broadcast_build(n, seed, is_complex, shared):
    rng = np.random.default_rng(seed)
    a0, a_mid, a1 = stage_matrices(rng, n, is_complex, shared)
    h = 10.0 ** rng.uniform(-300.0, 3.0, n)
    assert same_bits(_rk4_step_matrices(a0, a_mid, a1, h),
                     frozen_rk4_step_matrices(a0, a_mid, a1, h))


def test_flat_operand_build_keeps_signed_zeros():
    # A = 0 with both signs: only + I decides the sign of each entry
    for sign in (1.0, -1.0):
        a = np.full((3, 2, 2, 2), sign * 0.0)
        h = np.array([1e-300, 1e3])
        assert same_bits(_rk4_step_matrices(*a, h), frozen_rk4_step_matrices(*a, h))


def test_cached_identity_is_read_only():
    assert not propagation._EYES.flags.writeable
    with pytest.raises(ValueError):
        propagation._EYES[0, 0, 0] = 2.0


@PROPERTY
@given(n=st.integers(1, 2 * _BLOCK + 1), seed=st.integers(0, 2**32 - 1))
def test_generator_apply_matches_list_apply(n, seed):
    rng = np.random.default_rng(seed)
    a0, a_mid, a1 = stage_matrices(rng, n, True, False)
    piece = _rk4_step_matrices(0.01 * a0, 0.01 * a_mid, 0.01 * a1, rng.uniform(0.0, 0.1, n))
    p, q = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    want = np.fromiter(frozen_apply_steps(piece.ravel().tolist(), p, q), complex, 2 * n)
    got = np.fromiter(_apply_steps(piece.ravel().tolist(), p, q), complex, 2 * n)
    assert same_bits(got, want)
    real = np.ascontiguousarray(piece.real)
    want = np.fromiter(frozen_apply_steps(real.ravel().tolist(), p.real, q.real), float, 2 * n)
    got = np.fromiter(_apply_steps(memoryview(real).cast("B").cast("d"), p.real, q.real),
                      float, 2 * n)
    assert same_bits(got, want)
