"""Acceptance suite: the exit criteria of the artifact, one test each.

Each criterion prints a single ``ACCEPTANCE n PASS/FAIL`` line (visible with
``pytest -s``) and asserts at its stated tolerance.  Run via::

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np
import pytest

from doublelambda import (
    IntegratorOptions,
    Rates,
    adiabatic_protocol,
    closed_efficiency,
    constant_efficiency_closed,
    constant_protocol,
    dissipation_order,
    numerical_efficiency,
    optimal_efficiency_closed,
    optimal_protocol,
    optimize_piecewise,
    propagate_exact,
    propagate_reduced,
    sampled_profile_efficiencies,
    singular_arc_checks,
    solve_theta0,
    verify_singular_arc,
)
from doublelambda.cli import main


def _report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {status}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_entry_angle_and_slope():
    t0 = time.perf_counter()
    theta0 = solve_theta0(100.0)
    u_s = optimal_protocol(100.0).params["u_s"]
    elapsed = time.perf_counter() - t0
    ok = (
        abs(theta0 - 1.540568) <= 1e-5
        and abs(u_s - 0.015105) <= 1e-5
        and elapsed < 0.1
    )
    _report(1, ok, f"theta0(100)={theta0:.7f} (ref 1.540568 +-1e-5), "
                   f"u_s={u_s:.7f} (ref 0.015105 +-1e-5), {elapsed*1e3:.2f} ms")


def test_criterion_2_efficiency_triple_at_100():
    t0 = time.perf_counter()
    eta = {}
    for kind in ("optimal", "constant", "adiabatic"):
        eta[kind] = numerical_efficiency(kind, 100.0, zeta0=50.0, zbar=5.0)
    gap = {k: abs(closed_efficiency(k, 100.0) - eta[k]) for k in ("optimal", "constant")}
    elapsed = time.perf_counter() - t0
    refs = {"optimal": 0.9094, "constant": 0.9077, "adiabatic": 0.8197}
    ok = all(abs(eta[k] - refs[k]) <= 5e-4 for k in refs)
    ok &= gap["optimal"] < 1e-6
    ok &= gap["constant"] < 1e-6
    ok &= elapsed < 1.0
    _report(2, ok, "numeric eta = " +
            ", ".join(f"{k} {eta[k]:.5f} (ref {refs[k]} +-5e-4)" for k in refs) +
            f"; closed-numeric discrepancies {gap['optimal']:.2e}/"
            f"{gap['constant']:.2e} < 1e-6; {elapsed:.2f} s")


def test_criterion_3_efficiency_curve_structure():
    alphas = np.linspace(0.5, 100.0, 200)
    opt = np.array([optimal_efficiency_closed(a) for a in alphas])
    con = np.array([constant_efficiency_closed(a) for a in alphas])
    ratio = optimal_efficiency_closed(0.01) / constant_efficiency_closed(0.01)
    ok = (
        bool(np.all(opt >= con))
        and bool(np.all(np.diff(opt) > 0))
        and bool(np.all(np.diff(con) > 0))
        and abs(ratio - math.pi**2 / 4) <= 0.02 * (math.pi**2 / 4)
    )
    _report(3, ok, f"200 points on (0, 100]: optimal >= constant rowwise, both "
                   f"strictly increasing; ratio(0.01)={ratio:.4f} "
                   f"(pi^2/4={math.pi**2/4:.4f} +-2%)")


def test_criterion_4_large_alpha_asymptotics():
    alpha = 1e4
    deficit = math.pi**2 / alpha
    d_opt = 1.0 - optimal_efficiency_closed(alpha)
    d_con = 1.0 - constant_efficiency_closed(alpha)
    ok = abs(d_opt - deficit) <= 0.01 * deficit and abs(d_con - deficit) <= 0.01 * deficit
    _report(4, ok, f"alpha=1e4 deficits: optimal {d_opt:.6e}, constant {d_con:.6e} "
                   f"vs pi^2/alpha {deficit:.6e} (+-1% of deficit)")


def test_criterion_5_oracle_equivalence():
    worst = 0.0
    for alpha in (1.0, 10.0, 100.0):
        profiles = [
            optimal_protocol(alpha),
            constant_protocol(alpha),
            adiabatic_protocol(alpha, alpha / 2.0, 5.0),
        ]
        for prof in profiles:
            def ctrl(z, _p=prof):
                th = _p.theta(z)
                return np.sin(th), np.cos(th)

            tr_e = propagate_exact(ctrl, alpha, Rates(1.0, 1.0, 0.0))
            tr_r = propagate_reduced(prof)
            worst = max(
                worst,
                abs(complex(tr_e.omega_p[-1]) - tr_r.omega_p[-1]),
                abs(complex(tr_e.omega_s[-1]) - tr_r.omega_s[-1]),
            )
    ok = worst <= 1e-8
    _report(5, ok, f"exact vs reduced final states, 3 protocols x alpha "
                   f"{{1,10,100}}: max |diff| = {worst:.2e} <= 1e-8")


def test_criterion_6_dissipation_identity_order():
    slopes = []
    for prof in (constant_protocol(10.0), optimal_protocol(10.0)):
        slope, _ = dissipation_order(prof, [50, 100, 200, 400])
        slopes.append(slope)
    ok = all(3.5 <= s <= 4.5 for s in slopes)
    _report(6, ok, "dissipation-residual convergence order (constant, optimal "
                   f"protocols at alpha=10): {slopes[0]:.2f}, {slopes[1]:.2f} "
                   "in [3.5, 4.5]")


def test_criterion_7_pmp_structure_at_100():
    arc = verify_singular_arc(100.0)
    checks = singular_arc_checks(arc)
    ratio_dev = float(np.max(np.abs(arc.y / arc.x - math.tan(arc.theta0))))
    ok = (
        checks["max_abs_phi"] < 1e-8
        and checks["hc_drift"] < 1e-8
        and checks["feedback_residual"] < 1e-8
        and ratio_dev <= 1e-6
    )
    _report(7, ok, f"|phi|={checks['max_abs_phi']:.1e}, "
                   f"|Hc-const|={checks['hc_drift']:.1e}, "
                   f"feedback residual={checks['feedback_residual']:.1e} (all < 1e-8); "
                   f"|y/x - tan(theta0)|={ratio_dev:.1e} <= 1e-6")


def test_criterion_8_optimality_dominance():
    worst_excess = -np.inf
    for alpha in (1.0, 10.0, 100.0):
        bound = optimal_efficiency_closed(alpha)
        effs = sampled_profile_efficiencies(alpha, 1000, seed=20240 + int(alpha))
        worst_excess = max(worst_excess, float(effs.max()) - bound)
    t0 = time.perf_counter()
    res = optimize_piecewise(100.0, 64, seed=7, budget=120_000)
    elapsed = time.perf_counter() - t0
    bound100 = optimal_efficiency_closed(100.0)
    gap = bound100 - res.efficiency
    ok = (
        worst_excess <= 1e-9
        and res.efficiency <= bound100 + 1e-9
        and gap <= 1e-3
        and elapsed < 60.0
    )
    _report(8, ok, f"3000 random profiles: max excess over bound {worst_excess:.2e} "
                   f"<= 1e-9; 64-segment search gap {gap:.2e} <= 1e-3 "
                   f"in {elapsed:.1f} s (< 60 s), efficiency {res.efficiency:.6f}")


def test_criterion_9_cli_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        sim = tmp_path / f"sim_{tag}.csv"
        eff = tmp_path / f"eff_{tag}.csv"
        sea = tmp_path / f"sea_{tag}.json"
        pro = tmp_path / f"pro_{tag}.txt"
        assert main(["simulate", "--protocol", "optimal", "--alpha", "50",
                     "--out", str(sim)]) == 0
        assert main(["efficiency", "--alpha-min", "1", "--alpha-max", "50",
                     "--alpha-steps", "20", "--out", str(eff)]) == 0
        assert main(["search", "--alpha", "20", "--segments", "6", "--budget", "3000",
                     "--seed", "123", "--out", str(sea), "--profile-out", str(pro)]) == 0
        outputs.append((sim.read_bytes(), eff.read_bytes(), pro.read_bytes(),
                        json.loads(sea.read_text())))
    same = (
        outputs[0][0] == outputs[1][0]
        and outputs[0][1] == outputs[1][1]
        and outputs[0][2] == outputs[1][2]
    )
    j0, j1 = outputs[0][3], outputs[1][3]
    j0.pop("profile_file"); j1.pop("profile_file")
    same = same and j0 == j1
    _report(9, same, "simulate/efficiency/search reruns with identical config "
                     "and seed produce bit-identical artifacts")
