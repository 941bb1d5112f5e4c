"""Planted faults: each defect patched into the program fails ``verify``.

Every test patches one fault, runs ``verify --alpha A --samples 50`` in
process at A = 2.7, 10 or 100 and asserts the exact set of checks that
fail.  The sets, the same at every A unless a row says otherwise:

=============================================  ================================
fault                                          failing checks
=============================================  ================================
none                                           (none)
lab-frame ``A`` scaled by 1 + 1e-7             oracle_equivalence_{optimal,
                                               constant, adiabatic},
                                               dissipation_order;
                                               at A = 100 dissipation_order
                                               alone
steady-state rho31 scaled by 1 + 1e-7          oracle_equivalence_{optimal,
                                               constant, adiabatic}
``u_s`` of the optimal profile off by 1e-6     pmp_feedback_law, pmp_adjoint_fd,
                                               pmp_adjoint_integration
RK4 weight of K4 doubled                       closed_vs_numeric_{optimal,
                                               constant}, dissipation_order,
                                               pmp_adjoint_fd
RK4 weight moved from K2 to K3 (sum kept)      closed_vs_numeric_{optimal,
                                               constant}, dissipation_order;
                                               at A = 100 dissipation_order
                                               alone
one sampled profile 1e-8 above eta_opt         dominance_sampled
``theta0_complement`` 1e-6 relative high       pmp_arc_ratio, pmp_feedback_law,
                                               pmp_adjoint_fd,
                                               pmp_adjoint_integration, and
                                               pmp_hamiltonian_drift at
                                               A = 2.7 and 10
closed-form eta_opt 1e-5 relative high,        closed_vs_numeric_optimal
and separately 1e-5 low
closed-form constant eta 1 % high              closed_vs_numeric_constant, and
                                               dominance_closed at A = 100
=============================================  ================================

The closed forms and ``theta0_complement`` are patched in every module
that calls them.  No fault here trips ``pmp_switching_function``: with the
closed-form costates it is -1/2 - 1/2 + 1 by algebra, whatever the arc.
"""

import dataclasses
import json

import numpy as np
import pytest

from doublelambda import cli, efficiency, pmp_search, propagation, protocols
from doublelambda.efficiency import optimal_efficiency_closed

ORACLE = {"oracle_equivalence_optimal", "oracle_equivalence_constant",
          "oracle_equivalence_adiabatic"}
CLOSED = {"closed_vs_numeric_optimal", "closed_vs_numeric_constant"}
ALPHAS = (2.7, 10.0, 100.0)


def failing_checks(tmp_path, alpha):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--alpha", repr(alpha), "--samples", "50", "--out", str(out)])
    failed = {c["name"] for c in json.loads(out.read_text())["checks"]
              if c["status"] == "fail"}
    assert code == (1 if failed else 0)
    return failed


def scaled_by(factor):
    """A fault that scales the result of a function of ``alpha`` by ``factor``."""
    def fault(f):
        return lambda alpha: f(alpha) * factor
    return fault


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
    for alpha in ALPHAS:
        assert failing_checks(tmp_path, alpha) == set()


DISSIPATION = {"dissipation_order"}
FEEDBACK = {"pmp_feedback_law", "pmp_adjoint_fd", "pmp_adjoint_integration"}
THETA0 = FEEDBACK | {"pmp_arc_ratio"}

# id: the (module, name) bindings patched, the fault, and the checks that fail
# at each alpha of ALPHAS
FAULTS = {
    "lab-matrices": ([(propagation, "_lab_matrices")], scaled_lab_matrices,
                     (ORACLE | DISSIPATION, ORACLE | DISSIPATION, DISSIPATION)),
    "rho31": ([(propagation, "steady_coherences")], scaled_rho31, (ORACLE,) * 3),
    "singular-slope": ([(pmp_search, "optimal_protocol")], shifted_singular_slope,
                       (FEEDBACK,) * 3),
    "rk4-k4-weight": ([(propagation, "_rk4_step_matrices")],
                      rk4_with_weights((2.0, 2.0, 2.0)),
                      (CLOSED | DISSIPATION | {"pmp_adjoint_fd"},) * 3),
    "rk4-k2-to-k3": ([(propagation, "_rk4_step_matrices")],
                     rk4_with_weights((1.0, 3.0, 1.0)),
                     (CLOSED | DISSIPATION, CLOSED | DISSIPATION, DISSIPATION)),
    "sampled-dominance": ([(cli, "sampled_profile_efficiencies")],
                          one_sample_above_the_optimum, ({"dominance_sampled"},) * 3),
    "theta0-complement": ([(protocols, "theta0_complement"),
                           (efficiency, "theta0_complement")], scaled_by(1.0 + 1e-6),
                          (THETA0 | {"pmp_hamiltonian_drift"},
                           THETA0 | {"pmp_hamiltonian_drift"}, THETA0)),
    "optimal-closed-high": ([(efficiency, "optimal_efficiency_closed"),
                             (cli, "optimal_efficiency_closed")], scaled_by(1.0 + 1e-5),
                            ({"closed_vs_numeric_optimal"},) * 3),
    "optimal-closed-low": ([(efficiency, "optimal_efficiency_closed"),
                            (cli, "optimal_efficiency_closed")], scaled_by(1.0 - 1e-5),
                           ({"closed_vs_numeric_optimal"},) * 3),
    "constant-closed-high": ([(efficiency, "constant_efficiency_closed"),
                              (cli, "constant_efficiency_closed")], scaled_by(1.01),
                             ({"closed_vs_numeric_constant"},
                              {"closed_vs_numeric_constant"},
                              {"closed_vs_numeric_constant", "dominance_closed"})),
}


@pytest.mark.parametrize("fault_id, alpha", [
    # alpha = 10 keeps the bare fault id it had as the only alpha
    pytest.param(fault_id, alpha, id=fault_id if alpha == 10.0 else f"{fault_id}-alpha{alpha:g}")
    for fault_id in FAULTS for alpha in ALPHAS
])
def test_planted_fault_fails_its_checks(tmp_path, monkeypatch, fault_id, alpha):
    bindings, fault, expected = FAULTS[fault_id]
    for module, name in bindings:
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert failing_checks(tmp_path, alpha) == expected[ALPHAS.index(alpha)]
