"""The profile search against frozen copies of its fused-objective form.

``reference_efficiency_and_grad`` (with ``reference_segment_derivatives``) is
the adjoint objective as it was written with a per-segment derivative helper,
a state list revisited by the backward pass and a Horner loop over
``_DES_SERIES``; ``reference_optimize`` is the former search driver, which
handed ``scipy.optimize.minimize`` one fused value-and-gradient callable
(``jac=True``) and drew every random start up front.  The objective, and the
search that now calls ``fmin_l_bfgs_b`` with separate value and gradient
methods, must reproduce them bit for bit: values with ``==``, gradients with
``np.array_equal``, and the found knots byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelambda.pmp_search import (
    SearchResult,
    optimize_piecewise,
    piecewise_efficiency,
    piecewise_efficiency_and_grad,
)
from doublelambda.propagation import _segment_exponential
from doublelambda.protocols import HALF_PI, _check_alpha

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

REFERENCE_SERIES = tuple((2 * n + 2) / math.factorial(2 * n + 3) for n in range(7))


def reference_segment_derivatives(u, dz, ec, es):
    k2 = 0.0625 - u * u
    q = k2 * dz * dz
    if abs(q) < 0.5:
        series = 0.0
        for c in reversed(REFERENCE_SERIES):
            series = series * q + c
        des = -u * math.exp(-0.25 * dz) * dz**3 * series
    else:
        des = -u * (dz * ec - es) / k2
    return -u * dz * es, des


def reference_efficiency_and_grad(thetas, alpha):
    th = np.clip(np.asarray(thetas, dtype=float), 0.0, HALF_PI).tolist()
    n_seg = len(th) - 1
    dz = alpha / n_seg
    y = math.sin(th[0])
    x = math.cos(th[0])
    states = [(y, x)]
    coeffs = []
    for i in range(n_seg):
        u = (th[i] - th[i + 1]) / dz
        ec, es = _segment_exponential(u, dz)
        dec, des = reference_segment_derivatives(u, dz, ec, es)
        y, x = (ec + 0.25 * es) * y - es * u * x, es * u * y + (ec - 0.25 * es) * x
        states.append((y, x))
        coeffs.append((u, ec, es, dec, des))
    cos_n, sin_n = math.cos(th[-1]), math.sin(th[-1])
    s = cos_n * y - sin_n * x

    grad = np.empty(n_seg + 1)
    grad[-1] = -2.0 * s * (sin_n * y + cos_n * x)
    ly, lx = 2.0 * s * cos_n, -2.0 * s * sin_n
    for i in range(n_seg - 1, -1, -1):
        u, ec, es, dec, des = coeffs[i]
        y, x = states[i]
        dues = es + u * des
        g = (ly * ((dec + 0.25 * des) * y - dues * x)
             + lx * (dues * y + (dec - 0.25 * des) * x)) / dz
        grad[i + 1] -= g
        grad[i] = g
        ly, lx = (ec + 0.25 * es) * ly + es * u * lx, -es * u * ly + (ec - 0.25 * es) * lx
    grad[0] += ly * math.cos(th[0]) - lx * math.sin(th[0])
    return s * s, grad


class _ReferenceBudgetExceeded(Exception):
    pass


class ReferenceBudgetedObjective:
    def __init__(self, fun, budget):
        self.fun = fun
        self.budget = budget
        self.count = 0
        self.best_f = np.inf
        self.best_x = None

    def __call__(self, x):
        if self.count >= self.budget:
            raise _ReferenceBudgetExceeded
        self.count += 1
        f, g = self.fun(x)
        if f < self.best_f:
            self.best_f = f
            self.best_x = np.array(x, dtype=float)
        return f, g


def reference_negated_efficiency(thetas, alpha):
    eta, grad = reference_efficiency_and_grad(thetas, alpha)
    return -eta, -grad


def reference_optimize(alpha, n_segments, seed=0, budget=200_000, n_starts=3):
    from scipy.optimize import minimize

    alpha = _check_alpha(alpha)
    rng = np.random.default_rng(seed)
    n_knots = n_segments + 1

    starts = [np.linspace(HALF_PI, 0.0, n_knots)]
    for _ in range(n_starts - 1):
        starts.append(np.sort(rng.uniform(0.0, HALF_PI, n_knots))[::-1].copy())

    bounds = [(0.0, HALF_PI)] * n_knots
    best_eff = -np.inf
    best_knots = starts[0]
    best_start = 0
    runs = 0
    used = 0
    converged = True
    for idx, x0 in enumerate(starts):
        remaining = budget - used
        if remaining <= 0:
            converged = False
            break
        objective = ReferenceBudgetedObjective(
            lambda th: reference_negated_efficiency(th, alpha), remaining)
        runs += 1
        try:
            res = minimize(
                objective,
                x0,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxfun": remaining, "maxiter": remaining,
                         "ftol": 1e-15, "gtol": 1e-7},
            )
            converged = converged and bool(res.success)
        except _ReferenceBudgetExceeded:
            converged = False
        used += objective.count
        if objective.best_x is not None and -objective.best_f > best_eff:
            best_eff = -objective.best_f
            best_knots = objective.best_x
            best_start = idx

    thetas = np.clip(best_knots, 0.0, HALF_PI)
    zeta = np.linspace(0.0, alpha, n_knots)
    return SearchResult(
        alpha=alpha,
        n_segments=n_segments,
        knots=np.column_stack([zeta, thetas]),
        efficiency=float(piecewise_efficiency(thetas, alpha)),
        evaluations=used,
        restarts=runs,
        converged=converged,
        best_start=best_start,
        seed=seed,
    )


ALPHAS = st.one_of(st.sampled_from([1e-300, 1e300]),
                   st.floats(-3.0, 3.0).map(lambda e: float(10.0**e)))


def assert_objective_matches(thetas, alpha):
    value, grad = piecewise_efficiency_and_grad(thetas, alpha)
    ref_value, ref_grad = reference_efficiency_and_grad(thetas, alpha)
    assert value == ref_value
    assert np.array_equal(grad, ref_grad)


@PROPERTY
@given(alpha=ALPHAS, knots=st.integers(3, 65).flatmap(
    lambda n: st.lists(st.floats(-0.2, 1.8), min_size=n, max_size=n)))
def test_objective_matches_reference(alpha, knots):
    # knots outside [0, pi/2] are clipped; at alpha = 1e-300 every slope's square
    # overflows, at 1e300 the cube of the segment length
    assert_objective_matches(np.array(knots), alpha)


@pytest.mark.parametrize("dz", [0.1, 3.0, 5.0])
def test_objective_matches_reference_at_branch_edges(dz):
    # |u| = 1/4 +- 1e-7 and 1/4 itself (k = 0), then k^2 dz^2 = 1/16 - u^2
    # on both sides of +-1/2, where the derivative series hands over
    slopes = [s * (0.25 + d) for s in (1.0, -1.0) for d in (-1e-7, 0.0, 1e-7)]
    for q in (0.499, 0.501, -0.499, -0.501):
        u2 = 0.0625 - q / (dz * dz)
        if u2 >= 0.0:
            slopes += [math.sqrt(u2), -math.sqrt(u2)]
    for u in slopes:
        start = 0.1 + max(0.0, u * dz)
        assert_objective_matches(np.array([start, start - u * dz, 0.3]), 2.0 * dz)


def assert_search_matches(alpha, n_segments, **options):
    got = optimize_piecewise(alpha, n_segments, **options)
    ref = reference_optimize(alpha, n_segments, **options)
    assert got.knots.tobytes() == ref.knots.tobytes()
    assert got.efficiency == ref.efficiency
    assert (got.evaluations, got.restarts, got.converged, got.best_start) == (
        ref.evaluations, ref.restarts, ref.converged, ref.best_start)


@PROPERTY
@given(alpha=st.sampled_from([0.5, 30.0, 150.0]), n_segments=st.sampled_from([2, 24, 64]),
       budget=st.sampled_from([1, 2, 5, 17, 40, 20_000]), n_starts=st.sampled_from([1, 3, 4]),
       seed=st.integers(0, 2**31 - 1))
def test_search_matches_reference(alpha, n_segments, budget, n_starts, seed):
    assert_search_matches(alpha, n_segments, seed=seed, budget=budget, n_starts=n_starts)


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1])
@pytest.mark.parametrize("alpha", [10.0, 38.7, 150.0])
def test_search_matches_reference_at_bench_settings(alpha, seed):
    # the benchmark's search workload: 24 segments, budget 20000
    assert_search_matches(alpha, 24, seed=seed, budget=20_000)
