"""Property-based checks over optical densities spanning many decades.

Examples are derandomized so that the suite is reproducible; each property
still sees a spread of alphas, segment counts, seeds, rates and fields.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from doublelambda import (
    AdiabaticState,
    ControlSchedule,
    DoubleLambdaError,
    DriveFields,
    FieldState,
    IntegratorOptions,
    InvalidAlpha,
    InvalidSearchSettings,
    NonFinite,
    Rates,
    SingularSystem,
    constant_efficiency_closed,
    constant_protocol,
    load_profile_table,
    optimal_efficiency_closed,
    optimal_protocol,
    optimize_piecewise,
    adiabatic_protocol,
    build_profile,
    piecewise_efficiency,
    propagate_exact,
    propagate_piecewise_exact,
    propagate_reduced,
    sampled_profile_efficiencies,
    segment_step,
    steady_coherences,
    tabulated_protocol,
    theta0_complement,
)
from doublelambda.cli import main
from doublelambda.pmp_search import MAX_SAMPLES, MAX_SEGMENTS
from doublelambda.protocols import HALF_PI
from doublelambda.propagation import _segment_exponential, _segment_exponential_array
from test_bloch_steady import coherence_residuals

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: float(10.0**e))


@PROPERTY
@given(alpha=log_uniform(1e-6, 1e4))
def test_closed_forms_match_segment_propagation(alpha):
    # rounding in the segment exponentials grows in proportion to alpha
    tol = 1e-15 * max(alpha, 1e3)
    for protocol, closed in ((optimal_protocol, optimal_efficiency_closed),
                             (constant_protocol, constant_efficiency_closed)):
        final = propagate_piecewise_exact(protocol(alpha))
        assert abs(final.omega_s) ** 2 == pytest.approx(closed(alpha), abs=tol)


@settings(PROPERTY, max_examples=25)
@given(alpha=log_uniform(0.05, 300.0), n_segments=st.integers(2, 16),
       seed=st.integers(0, 2**31 - 1))
def test_search_never_beats_the_bound_and_reloads(alpha, n_segments, seed):
    res = optimize_piecewise(alpha, n_segments, seed=seed)
    assert res.efficiency <= optimal_efficiency_closed(alpha) + 1e-9
    z, theta = res.knots.T
    reloaded = propagate_piecewise_exact(tabulated_protocol(z, theta)).omega_s
    assert abs(reloaded) ** 2 == pytest.approx(res.efficiency, abs=1e-12)


@PROPERTY
@given(alpha=log_uniform(1e-12, 1e300))
def test_optimal_knots_stay_in_range_at_any_alpha(alpha):
    profile = optimal_protocol(alpha)
    knots = profile.knots
    assert all(0.0 <= theta <= np.pi / 2 for _, theta in knots)
    assert knots[-1][1] == theta0_complement(alpha)
    assert profile.params["u_s"] == math.sin(2 * theta0_complement(alpha)) / 4


@PROPERTY
@given(alpha=log_uniform(1e-300, 1e-3),
       thetas=st.lists(st.floats(0.0, np.pi / 2), min_size=2, max_size=17))
def test_efficiencies_finite_down_to_tiny_alpha(alpha, thetas):
    # slopes up to pi/(2 alpha), whose square overflows below alpha ~ 1e-154
    z = np.linspace(0.0, alpha, len(thetas))
    etas = [optimal_efficiency_closed(alpha), constant_efficiency_closed(alpha),
            piecewise_efficiency(thetas, alpha)]
    for profile in (optimal_protocol(alpha), constant_protocol(alpha),
                    tabulated_protocol(z, thetas)):
        etas.append(abs(propagate_piecewise_exact(profile).omega_s) ** 2)
    assert all(0.0 <= eta <= 1.0 for eta in etas)


@PROPERTY
@given(dz=log_uniform(1e-3, 1e3), e=st.floats(-1e-9, 1e-9),
       y=st.floats(-1.0, 1.0), x=st.floats(-1.0, 1.0))
def test_segment_step_continuous_across_zero_k(dz, e, y, x):
    # u = 1/4 is k^2 = 0, where the hyperbolic and trigonometric branches meet
    at = segment_step(y, x, 0.25, dz)
    near = segment_step(y, x, 0.25 + e, dz)
    for a, b in zip(near, at):
        assert abs(a - b) <= 10.0 * abs(e)


SLOPES = st.one_of(
    st.floats(-1.0, 1.0),
    # both sides of k^2 = 0 and the band |u - 1/4| <= 1e-7 around it
    st.floats(-1e-7, 1e-7).map(lambda e: 0.25 + e),
    st.floats(-1e-7, 1e-7).map(lambda e: -0.25 + e),
    # u^2 overflows: w = |u|
    st.tuples(log_uniform(1.5e154, 1e300), st.sampled_from([-1.0, 1.0])).map(
        lambda p: p[0] * p[1]),
)

#: numpy's exp and expm1 may each differ from math's by 1 ulp; the product
#: and quotient rounded after them carry that into es = grow m / (2 k) as up to
#: 4 ulp, and into ec as up to 3.
SEGMENT_ULPS = 4


#: One slope of each kind, on both signs, ahead of the drawn ones: hyperbolic,
#: trigonometric, the k = 0 limit, within 1e-9 of it on either side, and u^2
#: overflowing.
MIXED_SLOPES = [s * u for s in (1.0, -1.0) for u in (
    0.0, 0.1, 0.9, 0.25, 0.25 + 1e-9, 0.25 - 1e-9, 0.25 + 1e-15, 2e154, 1e300)]


@PROPERTY
@given(u=st.lists(SLOPES, min_size=1, max_size=24), dz=log_uniform(1e-6, 1e4))
def test_array_segment_exponential_matches_scalar(u, dz):
    u = MIXED_SLOPES + u
    ec, es = _segment_exponential_array(np.array(u), dz)
    assert ec.shape == es.shape == (len(u),)
    for i, ui in enumerate(u):
        for got, want in zip((ec[i], es[i]), _segment_exponential(ui, dz)):
            assert abs(got - want) <= SEGMENT_ULPS * np.spacing(max(abs(got), abs(want)))
        # each slope takes its own branch, whatever its neighbours take
        one = _segment_exponential_array(np.array([ui]), dz)
        assert (ec[i], es[i]) == (one[0][0], one[1][0])

    # an infinite slope has lost its angle change, in either form
    bad = float(np.copysign(np.inf, u[-1]))
    with pytest.raises(NonFinite):
        _segment_exponential(bad, dz)
    with pytest.raises(NonFinite):
        _segment_exponential_array(np.array(u + [bad]), dz)


@PROPERTY
@given(alpha=log_uniform(1e-3, 1e3),
       thetas=st.lists(st.floats(0.0, np.pi / 2), min_size=3, max_size=33))
def test_piecewise_efficiency_matches_uniform_knot_table(alpha, thetas):
    eta = piecewise_efficiency(thetas, alpha)
    assert 0.0 <= eta <= 1.0
    z = np.linspace(0.0, alpha, len(thetas))
    final = propagate_piecewise_exact(tabulated_protocol(z, thetas))
    assert eta == pytest.approx(final.omega_s**2, abs=1e-12)


RATES = st.builds(
    Rates,
    gamma31=st.floats(0.1, 10.0),
    gamma41=st.floats(0.1, 10.0),
    gamma21=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)


def complex_arrays(size, min_magnitude, max_magnitude):
    return arrays(complex, size, elements=st.complex_numbers(
        min_magnitude=min_magnitude, max_magnitude=max_magnitude,
        allow_nan=False, allow_infinity=False))


@PROPERTY
@given(rates=RATES, data=st.data())
def test_array_steady_solve_matches_scalar_solves(rates, data):
    # weak probe and signal, controls bounded away from zero
    n = data.draw(st.integers(1, 24))
    op, os_ = data.draw(complex_arrays(n, 0.0, 0.1)), data.draw(complex_arrays(n, 0.0, 0.1))
    oc, od = data.draw(complex_arrays(n, 0.1, 3.0)), data.draw(complex_arrays(n, 0.1, 3.0))
    fields = DriveFields(op, os_, oc, od)
    sol = steady_coherences(fields, rates)
    for r in coherence_residuals(fields, rates, sol):
        assert r.shape == (n,)
        assert np.max(np.abs(r)) <= 1e-12
    for i in range(n):
        one = steady_coherences(DriveFields(op[i], os_[i], oc[i], od[i]), rates)
        assert isinstance(one.rho21, complex)
        assert (one.rho21, one.rho31, one.rho41) == (sol.rho21[i], sol.rho31[i], sol.rho41[i])

    # one bad point spoils the whole array
    i = data.draw(st.integers(0, n - 1))
    bad = oc.copy()
    bad[i] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan, complex(0.0, np.inf)]))
    with pytest.raises(NonFinite):
        steady_coherences(DriveFields(op, os_, bad, od), rates)
    off_c, off_d = oc.copy(), od.copy()
    off_c[i] = off_d[i] = 0.0
    if rates.gamma21 == 0.0:
        with pytest.raises(SingularSystem):
            steady_coherences(DriveFields(op, os_, off_c, off_d), rates)
    else:
        off = steady_coherences(DriveFields(op, os_, off_c, off_d), rates)
        assert off.rho21[i] == 0.0


@PROPERTY
@given(alpha=log_uniform(0.05, 300.0), data=st.data())
def test_reduced_norm_never_grows_on_decreasing_tables(alpha, data):
    n = data.draw(st.integers(2, 17))
    widths = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1)))
    thetas = data.draw(st.lists(st.floats(0.0, np.pi / 2), min_size=n, max_size=n))
    z = np.concatenate([[0.0], np.cumsum(widths)]) * (alpha / widths.sum())
    z[-1] = alpha
    traj = propagate_reduced(tabulated_protocol(z, sorted(thetas, reverse=True)))
    assert np.all(np.diff(traj.norm_sq) <= 1e-12)
    assert 0.0 <= traj.efficiency <= 1.0


@PROPERTY
@given(alpha=log_uniform(0.05, 300.0), n_steps=st.integers(2, 3000), data=st.data())
def test_reduced_grid_has_a_node_at_every_knot(alpha, n_steps, data):
    n = data.draw(st.integers(2, 8))
    widths = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1)))
    z = np.concatenate([[0.0], np.cumsum(widths)]) * (alpha / widths.sum())
    z[-1] = alpha
    thetas = data.draw(st.lists(st.floats(0.0, np.pi / 2), min_size=n, max_size=n))
    traj = propagate_reduced(tabulated_protocol(z, thetas),
                             opts=IntegratorOptions(step_count=n_steps))
    assert set(z.tolist()) <= set(traj.zeta.tolist())
    expected = sum(max(1, round(n_steps * (b - a) / alpha)) for a, b in zip(z[:-1], z[1:]))
    assert traj.zeta.size == expected + 1
    assert np.all(np.diff(traj.zeta) > 0)


@PROPERTY
@given(kind=st.sampled_from(["optimal", "constant", "adiabatic"]),
       alpha=log_uniform(sys.float_info.min, 2e3), spu=st.floats(1.0, 20.0), data=st.data())
def test_simulate_writes_finite_rows_or_exits_two(kind, alpha, spu, data):
    spu = min(spu, 2e4 / alpha)  # at most 2e4 steps per example
    argv = ["simulate", "--protocol", kind, "--alpha", repr(alpha),
            "--steps-per-unit", repr(spu)]
    if kind == "adiabatic":
        # zbar <= 1/2 warns of broken adiabaticity, an error under the test settings
        argv += ["--zeta0", repr(data.draw(st.floats(0.0, alpha))),
                 "--zbar", repr(data.draw(st.floats(0.51, 1e3)))]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "traj.csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", out])
        if code == 2:
            assert err.getvalue().count("\n") == 1
            assert not os.path.exists(out)
            return
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (IntegratorOptions(steps_per_unit=spu).resolve_steps(alpha) + 1, 9)
    assert np.isfinite(rows).all()
    assert rows[0, 0] == 0.0 and rows[-1, 0] == alpha
    assert np.all(np.diff(rows[:, 8]) <= 1e-12)


BOUNDS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-320, sys.float_info.min, 1.0,
                     sys.float_info.max, math.inf, -math.inf, math.nan]),
    st.floats(-1e3, 1e3),
    log_uniform(1e-310, 1e300),
)


@PROPERTY
@given(lo=BOUNDS, hi=BOUNDS, steps=st.integers(1, 5),
       kind=st.sampled_from(["optimal", "constant", "adiabatic"]))
@example(lo=1.0, hi=10.0, steps=1, kind="adiabatic")
@example(lo=1.0, hi=1.0, steps=1, kind="adiabatic")
def test_efficiency_range_writes_valid_alphas_or_exits_two(lo, hi, steps, kind):
    # the adiabatic protocol has no closed form, so only the range check can
    # refuse a density; "--flag=value", as argparse reads "-inf" or "-1e-05"
    # after a space as a flag.  Every written range keeps both bounds, so one
    # step is refused unless they are equal.
    argv = ["efficiency", f"--alpha-min={lo!r}", f"--alpha-max={hi!r}",
            "--alpha-steps", str(steps), "--method", "closed", "--protocol", kind]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "eff.csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", out])
        if code == 2:
            assert err.getvalue().count("\n") == 1
            assert not os.path.exists(out)
            return
        assert code == 0
        with open(out) as fh:
            alphas = [float(line.split(",")[0]) for line in fh.readlines()[1:]]
    assert len(alphas) == steps
    assert alphas[0] == min(lo, hi) and alphas[-1] == max(lo, hi)
    for alpha in alphas:
        assert math.isfinite(alpha) and alpha >= sys.float_info.min
        assert min(lo, hi) <= alpha <= max(lo, hi)


ALPHA_EDGES = st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-310, 3e-308, sys.float_info.min,
                               1e-300, 1e300, sys.float_info.max, math.inf, -math.inf,
                               math.nan])
SEEDS = st.one_of(st.sampled_from([-1, 0, 2**32, 2**64]), st.integers(0, 100))


def run_cli(argv, outputs):
    """Exit code of ``main(argv)``; exit 2 prints one stderr line and writes no ``outputs``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().count("\n") == 1
        assert not any(os.path.exists(path) for path in outputs)
    return code


def load_finite_json(path):
    def refuse(name):
        raise AssertionError(f"{name} in {path}")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


@PROPERTY
@given(alpha=st.one_of(ALPHA_EDGES, log_uniform(1e-6, 1e4)),
       segments=st.one_of(st.sampled_from([-1, 0, 1, MAX_SEGMENTS + 1]), st.integers(2, 64)),
       budget=st.sampled_from([-1, 0, 1, 2, 50, 200]), starts=st.integers(0, 3), seed=SEEDS)
@example(alpha=sys.float_info.max, segments=3, budget=1, starts=1, seed=0)
def test_search_writes_a_result_or_exits_two(alpha, segments, budget, starts, seed):
    argv = ["search", f"--alpha={alpha!r}", f"--segments={segments}", f"--budget={budget}",
            f"--starts={starts}", f"--seed={seed}"]
    with tempfile.TemporaryDirectory() as tmp:
        out, table = os.path.join(tmp, "search.json"), os.path.join(tmp, "profile.txt")
        if run_cli(argv + ["--out", out, "--profile-out", table], [out, table]) == 2:
            return
        report = load_finite_json(out)
        zeta, theta = load_profile_table(table)
    assert 1 <= report["evaluations"] <= budget
    assert 0.0 <= report["efficiency"] <= 1.0 + 1e-12  # a unit input, up to rounding
    assert len(zeta) == len(theta) == segments + 1
    assert zeta[0] == 0.0 and zeta[-1] == alpha


@PROPERTY
@given(alpha=st.one_of(ALPHA_EDGES, log_uniform(1e-6, 300.0)),
       samples=st.one_of(st.sampled_from([-1, 0, MAX_SAMPLES + 1]), st.integers(1, 200)),
       seed=SEEDS)
def test_verify_writes_a_report_or_exits_two(alpha, samples, seed):
    argv = ["verify", f"--alpha={alpha!r}", f"--samples={samples}", f"--seed={seed}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        code = run_cli(argv + ["--out", out], [out])
        if code == 2:
            return
        report = load_finite_json(out)
    assert report["alphas"] == [alpha]
    assert report["passed"] is (code == 0)


SPU_EDGES = st.sampled_from([-1.0, 0.0, 0.5, math.nextafter(1.0, 0.0), 1.0,
                             math.nextafter(10.0, 0.0), 10.0, 1e300, sys.float_info.max,
                             math.inf, -math.inf, math.nan])


@settings(PROPERTY, max_examples=150)  # three edge strategies: most draws exit 2 at once
@given(alpha=st.one_of(ALPHA_EDGES, log_uniform(1e-6, 300.0)),
       samples=st.one_of(st.sampled_from([-1, 0, MAX_SAMPLES + 1]), st.integers(1, 50)),
       data=st.data())
def test_verify_resolution_writes_a_complete_report_or_exits_two(alpha, samples, data):
    # drawn resolutions put at most 2e3 steps on the medium; finer ones come
    # from the edges, which the step cap refuses before any work
    top = min(1e300, 2e3 / alpha) if 0.0 < alpha < math.inf else 1e3
    spu = data.draw(st.one_of(SPU_EDGES, log_uniform(1.0, max(1.0, top))), label="spu")
    argv = ["verify", f"--alpha={alpha!r}", f"--steps-per-unit={spu!r}",
            f"--samples={samples}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        code = run_cli(argv + ["--out", out], [out])
        if code == 2:
            return
        report = load_finite_json(out)
    assert report["alphas"] == [alpha] and report["steps_per_unit"] == spu
    assert report["samples"] == samples
    assert len({c["name"] for c in report["checks"]}) == len(report["checks"]) == 14
    assert all(c["status"] in ("pass", "warning", "fail") for c in report["checks"])
    assert report["passed"] is (code == 0)


ZETA0_EDGES = st.sampled_from([0.0, -0.0, -1.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300,
                               sys.float_info.max, math.inf, -math.inf, math.nan])
ZBAR_EDGES = st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-310, 0.5, 0.51, 1e300,
                              sys.float_info.max, math.inf, -math.inf, math.nan])


@settings(PROPERTY, max_examples=150)  # three edge strategies: many draws exit 2 at once
@given(alpha=st.one_of(ALPHA_EDGES, log_uniform(1e-6, 300.0)),
       zeta0=st.one_of(ZETA0_EDGES, st.floats(-1e3, 1e3)),
       zbar=st.one_of(ZBAR_EDGES, log_uniform(1e-3, 1e3)), data=st.data())
def test_numeric_adiabatic_efficiency_writes_a_row_or_exits_two(alpha, zeta0, zbar, data):
    # drawn resolutions put at most 2e3 steps on the medium, as in the verify property
    top = min(1e300, 2e3 / alpha) if 0.0 < alpha < math.inf else 1e3
    spu = data.draw(st.one_of(SPU_EDGES, log_uniform(1.0, max(1.0, top))), label="spu")
    argv = ["efficiency", "--method", "numeric", "--protocol", "adiabatic",
            f"--alpha={alpha!r}", f"--zeta0={zeta0!r}", f"--zbar={zbar!r}",
            f"--steps-per-unit={spu!r}"]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # the documented warning of a profile too steep to be adiabatic
        warnings.filterwarnings("ignore", "zbar <= 1/2", UserWarning)
        out = os.path.join(tmp, "eff.csv")
        if run_cli(argv + ["--out", out], [out]) == 2:
            return
        with open(out) as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()]
    assert header == ["alpha", "protocol", "eta_closed", "eta_numeric"]
    assert len(rows) == 1
    row_alpha, protocol, eta_closed, eta_numeric = rows[0]
    assert float(row_alpha) == alpha and protocol == "adiabatic" and eta_closed == ""
    assert 0.0 <= float(eta_numeric) <= 1.0


@PROPERTY
@given(alpha=st.one_of(ALPHA_EDGES, log_uniform(1e-6, 1e4)), segments=st.integers(2, 24),
       budget=st.sampled_from([1, 2, 50, 200]),
       starts=st.one_of(st.integers(4, 64), st.sampled_from([1000, 2**63, 10**30])),
       seed=SEEDS)
def test_search_with_many_starts_writes_a_result_or_exits_two(alpha, segments, budget,
                                                              starts, seed):
    argv = ["search", f"--alpha={alpha!r}", f"--segments={segments}", f"--budget={budget}",
            f"--starts={starts}", f"--seed={seed}"]
    with tempfile.TemporaryDirectory() as tmp:
        out, table = os.path.join(tmp, "search.json"), os.path.join(tmp, "profile.txt")
        if run_cli(argv + ["--out", out, "--profile-out", table], [out, table]) == 2:
            return
        report = load_finite_json(out)
        zeta, theta = load_profile_table(table)
    assert 1 <= report["evaluations"] <= budget
    # every start evaluates at least once, so the budget bounds the starts run
    assert 1 <= report["restarts"] <= min(starts, budget)
    assert 0 <= report["best_start"] < report["restarts"]
    assert 0.0 <= report["efficiency"] <= 1.0 + 1e-12
    assert len(zeta) == len(theta) == segments + 1


INVALID_ALPHAS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats(max_value=-5e-324, allow_infinity=False),
    st.floats(5e-324, math.nextafter(sys.float_info.min, 0.0)),  # subnormal
)

#: Every public entry point that takes an optical density, called at ``alpha``.
ALPHA_ENTRY_POINTS = {
    "optimal_protocol": optimal_protocol,
    "constant_protocol": constant_protocol,
    "adiabatic_protocol": lambda a: adiabatic_protocol(a, 1.0, 5.0),
    "tabulated_protocol": lambda a: tabulated_protocol([0.0, 1.0], [HALF_PI, 0.0], alpha=a),
    "theta0_complement": theta0_complement,
    "optimal_efficiency_closed": optimal_efficiency_closed,
    "constant_efficiency_closed": constant_efficiency_closed,
    "ControlSchedule": lambda a: ControlSchedule(alpha=a, u=np.zeros_like),
    "propagate_exact": lambda a: propagate_exact(lambda z: (1.0, 0.0), a),
    "optimize_piecewise": lambda a: optimize_piecewise(a, 2, budget=1, n_starts=1),
    "sampled_profile_efficiencies": lambda a: sampled_profile_efficiencies(a, 1, seed=0),
}


@PROPERTY
@given(alpha=INVALID_ALPHAS)
def test_every_alpha_entry_point_refuses_an_invalid_alpha(alpha):
    for name, call in ALPHA_ENTRY_POINTS.items():
        try:
            call(alpha)
        except InvalidAlpha:
            continue
        raise AssertionError(f"{name} accepted alpha = {alpha!r}")


@PROPERTY
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), good=st.floats(-1e3, 1e3),
       slot=st.integers(0, 1), imag=st.booleans())
def test_field_states_refuse_a_non_finite_component(bad, good, slot, imag):
    components = [good, good]
    components[slot] = complex(good, bad) if imag else bad
    for state in (FieldState, AdiabaticState):
        state(good, good)
        with pytest.raises(NonFinite):
            state(*components)


BELOW_ONE_STEP_PER_UNIT = [0.1, 0.5, math.nextafter(1.0, 0.0)]


@PROPERTY
@given(spu=st.sampled_from(BELOW_ONE_STEP_PER_UNIT))
def test_integrator_options_refuse_less_than_one_step_per_unit(spu):
    with pytest.raises(DoubleLambdaError, match="steps_per_unit"):
        IntegratorOptions(steps_per_unit=spu)


@settings(PROPERTY, max_examples=150)  # about a millisecond per example
@given(kind=st.sampled_from(["optimal", "constant", "adiabatic"]),
       alpha=log_uniform(1e-3, 1e3),
       spu=st.one_of(st.sampled_from([*BELOW_ONE_STEP_PER_UNIT, 1.0, 10.0]),
                     log_uniform(0.01, 20.0)))
@example(kind="constant", alpha=100.0, spu=0.1)  # eta = 4.7e16 if this were accepted
def test_every_accepted_resolution_keeps_the_norm_from_rising(kind, alpha, spu):
    # the dissipation identity: |Omega_p|^2 + |Omega_s|^2 never grows along zeta
    try:
        opts = IntegratorOptions(steps_per_unit=spu)
    except DoubleLambdaError:
        assert spu < 1.0
        return
    trajectory = propagate_reduced(build_profile(kind, alpha), opts=opts)
    assert np.max(np.diff(trajectory.norm_sq)) <= 1e-12
    assert trajectory.efficiency <= 1.0


@PROPERTY
@given(alpha=log_uniform(1e-3, 1e3),
       bad=st.one_of(
           st.tuples(st.sampled_from([-5, 0, MAX_SAMPLES + 1]), st.integers(0, 2**32)),
           st.tuples(st.integers(1, 100), st.integers(max_value=-1))))
@example(alpha=1.0, bad=(10, -1))
def test_sampled_check_refuses_its_settings_before_allocating(alpha, bad):
    n_profiles, seed = bad
    tracemalloc.start()
    try:
        with pytest.raises(InvalidSearchSettings):
            sampled_profile_efficiencies(alpha, n_profiles, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one float per profile would already be 8 * MAX_SAMPLES bytes
    assert peak < 8 * MAX_SAMPLES / 100
