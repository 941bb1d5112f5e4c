"""Command-line front end: reproducible CSV/JSON artifacts.

Subcommands
-----------
simulate    trajectory of one protocol -> CSV
efficiency  efficiency curves over optical density -> CSV
verify      cross-check suite (oracle equivalence, dissipation order,
            optimality-structure residuals, dominance) -> JSON, exit code
search      direct profile search -> JSON + profile table

All outputs are deterministic functions of the configuration and seed.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .bloch_steady import Rates
from .efficiency import (
    closed_efficiency,
    constant_efficiency_closed,
    numerical_efficiency,
    optimal_efficiency_closed,
)
from .errors import DoubleLambdaError, InvalidAlpha
from .pmp_search import (
    optimize_piecewise,
    sampled_profile_efficiencies,
    singular_arc_checks,
    verify_singular_arc,
)
from .propagation import (
    FieldState,
    IntegratorOptions,
    dissipation_order,
    propagate_exact,
    propagate_reduced,
)
from .protocols import (
    ProtocolSpec,
    _check_alpha,
    build_profile,
    load_profile_table,
    theta_to_controls,
)

PROTOCOLS = ("optimal", "constant", "adiabatic", "custom")


def _fmt(x) -> str:
    """Full-precision decimal field; empty for missing values."""
    if x is None:
        return ""
    return repr(float(x))


def _integrator(args) -> IntegratorOptions:
    if args.steps_per_unit < 1:
        raise DoubleLambdaError("--steps-per-unit must be at least 1")
    return IntegratorOptions(steps_per_unit=args.steps_per_unit)


def cmd_simulate(args) -> int:
    if args.protocol == "custom":
        if args.profile_file is None:
            raise DoubleLambdaError("custom protocol requires --profile-file")
        z, t = load_profile_table(args.profile_file)
        alpha = args.alpha if args.alpha is not None else float(z[-1])
        spec = ProtocolSpec(kind="custom", alpha=float(alpha), knots=tuple(zip(z, t)))
    elif args.alpha is None:
        raise DoubleLambdaError("--alpha is required")
    else:
        spec = ProtocolSpec(kind=args.protocol, alpha=float(args.alpha),
                            zeta0=args.zeta0, zbar=args.zbar)
    profile = build_profile(spec)
    traj = propagate_reduced(profile, initial=FieldState(1.0, 0.0), opts=_integrator(args))
    oc, od = theta_to_controls(profile, traj.zeta)

    columns = [np.real(c).tolist()
               for c in (traj.zeta, traj.theta, oc, od, traj.omega_p, traj.omega_s)]

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["zeta", "theta", "omega_c", "omega_d", "omega_p", "omega_s",
             "intensity_p", "intensity_s", "norm"]
        )
        # Python floats throughout; repr is the full-precision field of _fmt
        writer.writerows(
            [repr(z), repr(t), repr(c), repr(d), repr(p), repr(s),
             repr(p * p), repr(s * s), repr(p * p + s * s)]
            for z, t, c, d, p, s in zip(*columns)
        )
    return 0


def cmd_efficiency(args) -> int:
    if args.alpha:
        alphas = [_check_alpha(a) for a in args.alpha]
    else:
        if args.alpha_min is None or args.alpha_max is None:
            raise DoubleLambdaError("give --alpha or --alpha-min/--alpha-max/--alpha-steps")
        for flag, bound in (("--alpha-min", args.alpha_min), ("--alpha-max", args.alpha_max)):
            if not math.isfinite(bound):
                raise InvalidAlpha(f"{flag} must be finite, got {bound}")
        if args.alpha_min <= 0:
            raise InvalidAlpha("alpha range must start above 0")
        if args.alpha_steps < 1:
            raise DoubleLambdaError("--alpha-steps must be at least 1")
        alphas = list(np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps))
    protocols = args.protocol or ["optimal", "constant"]
    opts = _integrator(args)

    rows = []
    for kind in sorted(protocols):
        for alpha in sorted(alphas):
            eta_closed = None
            if args.method in ("closed", "both"):
                eta_closed = closed_efficiency(kind, alpha)
            eta_numeric = None
            if args.method in ("numeric", "both"):
                spec = ProtocolSpec(kind=kind, alpha=alpha, zeta0=args.zeta0, zbar=args.zbar)
                eta_numeric = numerical_efficiency(spec, opts).eta_numeric
            rows.append([_fmt(alpha), kind, _fmt(eta_closed), _fmt(eta_numeric)])

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha", "protocol", "eta_closed", "eta_numeric"])
        writer.writerows(rows)
    return 0


def _verify_one_alpha(alpha: float, args) -> list[dict]:
    opts = _integrator(args)
    # Below the default resolution the user has asked for a deliberately
    # coarse run: accuracy-bound checks may then only warn.  Structural
    # checks (same-grid oracle equivalence, arc residuals, dominance) keep
    # hard thresholds at any resolution.
    coarse = args.steps_per_unit < 10.0
    checks = []

    def record(name, value, threshold, warn_only=False):
        status = "pass" if value <= threshold else ("warning" if warn_only else "fail")
        checks.append(
            {"name": name, "alpha": alpha, "value": float(value),
             "threshold": float(threshold), "status": status}
        )

    # Reduced vs microscopically closed propagation, all three protocols.
    for kind in ("optimal", "constant", "adiabatic"):
        profile = build_profile(ProtocolSpec(kind, alpha))
        tr_exact = propagate_exact(functools.partial(theta_to_controls, profile), alpha,
                                   Rates(), opts=opts, breakpoints=profile.breakpoints)
        tr_reduced = propagate_reduced(profile, opts=opts)
        diff = max(
            abs(complex(tr_exact.omega_p[-1]) - tr_reduced.omega_p[-1]),
            abs(complex(tr_exact.omega_s[-1]) - tr_reduced.omega_s[-1]),
        )
        record(f"oracle_equivalence_{kind}", diff, 1e-8)

        eta_closed = closed_efficiency(kind, alpha)
        if eta_closed is not None:
            record(f"closed_vs_numeric_{kind}",
                   abs(eta_closed - tr_reduced.efficiency), 1e-6,
                   warn_only=coarse)

    # Dissipation identity: observed convergence order of the residual.
    base = max(5, int(round(alpha * args.steps_per_unit)))
    slope, _ = dissipation_order(build_profile(ProtocolSpec("constant", alpha)),
                                 [base, 2 * base, 4 * base, 8 * base])
    record("dissipation_order", abs(slope - 4.0), 0.5, warn_only=coarse)

    # Optimality structure along the singular arc.
    arc = verify_singular_arc(alpha)
    res = singular_arc_checks(arc)
    record("pmp_switching_function", res["max_abs_phi"], 1e-8)
    record("pmp_hamiltonian_drift", res["hc_drift"], 1e-8)
    record("pmp_feedback_law", res["feedback_residual"], 1e-8)
    record("pmp_arc_ratio", res["ratio_residual"], 1e-6)
    record("pmp_adjoint_fd", res["adjoint_fd_residual"], 1e-8)
    record("pmp_adjoint_integration", res["adjoint_integration_error"], 1e-8)

    # Dominance: closed forms ordered, sampled profiles below the optimum.
    eta_opt = optimal_efficiency_closed(alpha)
    record("dominance_closed", constant_efficiency_closed(alpha) - eta_opt, 0.0)
    sampled = sampled_profile_efficiencies(alpha, args.samples, seed=args.seed)
    record("dominance_sampled", float(sampled.max()) - eta_opt, 1e-9)
    return checks


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise DoubleLambdaError("--samples must be at least 1")
    alphas = [_check_alpha(a) for a in (args.alpha or [1.0, 10.0, 100.0])]
    checks = [c for a in alphas for c in _verify_one_alpha(a, args)]
    passed = all(c["status"] != "fail" for c in checks)
    report = {
        "alphas": alphas,
        "seed": args.seed,
        "samples": args.samples,
        "steps_per_unit": args.steps_per_unit,
        "checks": checks,
        "passed": passed,
    }
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if args.out:
        n_fail = sum(c["status"] == "fail" for c in checks)
        n_warn = sum(c["status"] == "warning" for c in checks)
        print(f"{len(checks)} checks: {len(checks) - n_fail - n_warn} passed, "
              f"{n_warn} warnings, {n_fail} failed -> {args.out}")
    return 0 if passed else 1


def cmd_search(args) -> int:
    if args.alpha is None:
        raise DoubleLambdaError("--alpha is required")
    result = optimize_piecewise(
        float(args.alpha), args.segments, seed=args.seed, budget=args.budget,
        n_starts=args.starts,
    )
    bound = optimal_efficiency_closed(float(args.alpha))
    profile_out = args.profile_out
    if profile_out is None:
        root, _ = os.path.splitext(args.out)
        profile_out = root + "_profile.txt"

    with open(profile_out, "w") as fh:
        fh.write("# piecewise-linear mixing-angle profile (zeta theta)\n")
        fh.write(f"# alpha = {_fmt(result.alpha)}  segments = {result.n_segments}  "
                 f"seed = {result.seed}\n")
        for z, t in result.knots:
            fh.write(f"{_fmt(z)} {_fmt(t)}\n")

    report = {
        "alpha": result.alpha,
        "segments": result.n_segments,
        "seed": result.seed,
        "budget": args.budget,
        "evaluations": result.evaluations,
        "restarts": result.restarts,
        "converged": result.converged,
        "best_start": result.best_start,
        "efficiency": result.efficiency,
        "closed_form_optimum": bound,
        "gap": bound - result.efficiency,
        "profile_file": profile_out,
        "knots": [[float(z), float(t)] for z, t in result.knots],
    }
    with open(args.out, "w") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"best efficiency {result.efficiency!r} "
          f"(closed-form optimum {bound!r}) -> {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="doublelambda",
        description="Probe-to-signal conversion protocols in double-lambda media",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--steps-per-unit", type=float, default=10.0,
                       help="RK4 steps per unit optical density (default 10)")
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="trajectory of one protocol -> CSV")
    p_sim.add_argument("--protocol", choices=PROTOCOLS, default="optimal")
    p_sim.add_argument("--alpha", type=float, default=None, help="optical density")
    p_sim.add_argument("--zeta0", type=float, default=None,
                       help="adiabatic midpoint (default alpha/2)")
    p_sim.add_argument("--zbar", type=float, default=None,
                       help="adiabatic length scale (default 5)")
    p_sim.add_argument("--profile-file", default=None,
                       help="two-column zeta/theta table for --protocol custom")
    p_sim.add_argument("--out", required=True)
    common(p_sim)

    p_eff = sub.add_parser("efficiency", help="efficiency curves -> CSV")
    p_eff.add_argument("--protocol", choices=PROTOCOLS[:3], action="append",
                       help="repeatable; default optimal and constant")
    p_eff.add_argument("--alpha", type=float, action="append",
                       help="explicit optical density (repeatable)")
    p_eff.add_argument("--alpha-min", type=float, default=None)
    p_eff.add_argument("--alpha-max", type=float, default=None)
    p_eff.add_argument("--alpha-steps", type=int, default=200)
    p_eff.add_argument("--method", choices=("closed", "numeric", "both"), default="both")
    p_eff.add_argument("--zeta0", type=float, default=None,
                       help="adiabatic midpoint (default alpha/2)")
    p_eff.add_argument("--zbar", type=float, default=None,
                       help="adiabatic length scale (default 5)")
    p_eff.add_argument("--out", required=True)
    common(p_eff)

    p_ver = sub.add_parser("verify", help="cross-check suite -> JSON, exit code")
    p_ver.add_argument("--alpha", type=float, action="append",
                       help="repeatable; default 1 10 100")
    p_ver.add_argument("--samples", type=int, default=1000,
                       help="random profiles per alpha for the dominance check")
    p_ver.add_argument("--out", default=None, help="JSON report path (default stdout)")
    common(p_ver, seeded=True)

    p_sea = sub.add_parser("search", help="direct profile search -> JSON + table")
    p_sea.add_argument("--alpha", type=float, required=True)
    p_sea.add_argument("--segments", type=int, default=64)
    p_sea.add_argument("--budget", type=int, default=200_000,
                       help="max evaluations, each one fused value and gradient")
    p_sea.add_argument("--starts", type=int, default=3)
    p_sea.add_argument("--out", required=True, help="JSON result path")
    p_sea.add_argument("--profile-out", default=None,
                       help="profile table path (default derived from --out)")
    common(p_sea, seeded=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Look the handler up at call time rather than binding it into the
    # cached parser, so a rebound ``cmd_*`` name (a tracing wrapper, say)
    # takes effect.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except DoubleLambdaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
