"""Planted faults: each defect patched into the program fails ``verify``.

Every test patches one fault, runs ``verify --alpha 10 --samples 50`` in
process and asserts the exact set of checks that fail.  The sets:

=============================================  ================================
fault                                          failing checks
=============================================  ================================
none                                           (none)
lab-frame ``A`` scaled by 1 + 1e-7             oracle_equivalence_{optimal,
                                               constant, adiabatic},
                                               dissipation_order
steady-state rho31 scaled by 1 + 1e-7          oracle_equivalence_{optimal,
                                               constant, adiabatic}
``u_s`` of the optimal profile off by 1e-6     pmp_feedback_law, pmp_adjoint_fd,
                                               pmp_adjoint_integration
RK4 weight of K4 doubled                       closed_vs_numeric_{optimal,
                                               constant}, dissipation_order,
                                               pmp_adjoint_fd
RK4 weight moved from K2 to K3 (sum kept)      closed_vs_numeric_{optimal,
                                               constant}, dissipation_order
one sampled profile 1e-8 above eta_opt         dominance_sampled
=============================================  ================================

No fault here trips ``pmp_switching_function``, ``pmp_hamiltonian_drift``,
``pmp_arc_ratio`` or ``dominance_closed``.
"""

import dataclasses
import json

import numpy as np
import pytest

from doublelambda import cli, pmp_search, propagation
from doublelambda.efficiency import optimal_efficiency_closed

ORACLE = {"oracle_equivalence_optimal", "oracle_equivalence_constant",
          "oracle_equivalence_adiabatic"}
CLOSED = {"closed_vs_numeric_optimal", "closed_vs_numeric_constant"}


def failing_checks(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--alpha", "10", "--samples", "50", "--out", str(out)])
    failed = {c["name"] for c in json.loads(out.read_text())["checks"]
              if c["status"] == "fail"}
    assert code == (1 if failed else 0)
    return failed


def scaled_lab_matrices(lab_matrices):
    return lambda theta: lab_matrices(theta) * (1.0 + 1e-7)


def scaled_rho31(steady_coherences):
    def solve(fields, rates):
        sol = steady_coherences(fields, rates)
        return dataclasses.replace(sol, rho31=sol.rho31 * (1.0 + 1e-7))
    return solve


def shifted_singular_slope(optimal_protocol):
    def build(alpha):
        profile = optimal_protocol(alpha)  # cached: replaced, not mutated
        params = {**profile.params, "u_s": profile.params["u_s"] * (1.0 + 1e-6)}
        return dataclasses.replace(profile, params=params)
    return build


def rk4_with_weights(weights):
    """``_rk4_step_matrices`` with the weights of K2, K3 and K4 replaced."""
    eye = np.eye(2)

    def patch(_):
        def step_matrices(a0, a_mid, a1, h):
            h = h[:, None, None]
            r = a0.copy()
            k = a0
            for a_stage, frac_h, weight in zip((a_mid, a_mid, a1), (0.5 * h, 0.5 * h, h),
                                               weights):
                k = a_stage @ (frac_h * k + eye)
                r += weight * k
            return eye + r * (h / 6.0)
        return step_matrices
    return patch


def test_rk4_copy_with_the_real_weights_is_the_program():
    rng = np.random.default_rng(1)
    a0, a_mid, a1 = rng.standard_normal((3, 50, 2, 2))
    h = rng.uniform(0.0, 1.0, 50)
    copy = rk4_with_weights((2.0, 2.0, 1.0))(None)
    assert np.array_equal(copy(a0, a_mid, a1, h),
                          propagation._rk4_step_matrices(a0, a_mid, a1, h))


def one_sample_above_the_optimum(sampled_profile_efficiencies):
    def sample(alpha, n_profiles, seed):
        eta = sampled_profile_efficiencies(alpha, n_profiles, seed)
        eta[n_profiles // 2] = optimal_efficiency_closed(alpha) + 1e-8
        return eta
    return sample


def test_unpatched_verify_passes(tmp_path):
    assert failing_checks(tmp_path) == set()


@pytest.mark.parametrize("module, name, fault, expected", [
    (propagation, "_lab_matrices", scaled_lab_matrices, ORACLE | {"dissipation_order"}),
    (propagation, "steady_coherences", scaled_rho31, ORACLE),
    (pmp_search, "optimal_protocol", shifted_singular_slope,
     {"pmp_feedback_law", "pmp_adjoint_fd", "pmp_adjoint_integration"}),
    (propagation, "_rk4_step_matrices", rk4_with_weights((2.0, 2.0, 2.0)),
     CLOSED | {"dissipation_order", "pmp_adjoint_fd"}),
    (propagation, "_rk4_step_matrices", rk4_with_weights((1.0, 3.0, 1.0)),
     CLOSED | {"dissipation_order"}),
    (cli, "sampled_profile_efficiencies", one_sample_above_the_optimum,
     {"dominance_sampled"}),
], ids=["lab-matrices", "rho31", "singular-slope", "rk4-k4-weight", "rk4-k2-to-k3",
        "sampled-dominance"])
def test_planted_fault_fails_its_checks(tmp_path, monkeypatch, module, name, fault,
                                        expected):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert failing_checks(tmp_path) == expected
