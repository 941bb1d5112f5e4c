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

from .efficiency import (
    closed_efficiency,
    constant_efficiency_closed,
    numerical_efficiency,
    optimal_efficiency_closed,
)
from .errors import DoubleLambdaError, InvalidAlpha, NonFinite
from .pmp_search import (
    ARC_OPTIONS,
    SAMPLED_KNOTS,
    optimize_piecewise,
    sampled_profile_efficiencies,
    singular_arc_checks,
    verify_singular_arc,
)
from .propagation import (
    IntegratorOptions,
    dissipation_order,
    propagate_exact_many,
    propagate_reduced,
    propagate_reduced_many,
)
from .protocols import (
    HALF_PI,
    _check_alpha,
    build_profile,
    load_profile_table,
    tabulated_protocol,
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


def _check_adiabatic_flags(args, adiabatic_run: bool) -> None:
    # build_profile ignores them for any other protocol
    if not adiabatic_run and (args.zeta0 is not None or args.zbar is not None):
        raise DoubleLambdaError("--zeta0 and --zbar apply only to a numeric run of "
                                "--protocol adiabatic")


def _check_seed(args) -> None:
    # numpy rejects a negative seed only once it draws, after the propagations
    if args.seed < 0:
        raise DoubleLambdaError("--seed must be non-negative")


#: Rows formatted and written per ``fh.write`` by :func:`cmd_simulate`; at
#: most 512, the rows of nine columns the formatter's workspace holds.
SIMULATE_CHUNK = 512

#: Most optical densities ``efficiency --alpha-steps`` may request; each is a
#: row per protocol, so the cap bounds the rows held before the CSV is written.
MAX_ALPHA_STEPS = 100_000

#: Most random profiles ``verify --samples`` may request per optical density;
#: their efficiencies are held as one float array.
MAX_SAMPLES = 1_000_000


def cmd_simulate(args) -> int:
    """Write one protocol's trajectory as CSV, one row per grid point.

    Rows go out in chunks of :data:`SIMULATE_CHUNK`.  Each chunk's nine
    columns are written straight into the float block of the formatter's
    resident workspace (θ, the fields and ζ copied, the controls,
    intensities and norm computed there) and turned into CSV text in place,
    so beyond the trajectory the writer allocates little more than each
    chunk's text, at any grid length.  Every field is byte for byte ``repr`` of a float64,
    the full-precision form of :func:`_fmt`.
    """
    # imported here: without cached bytecode, compiling the formatter would
    # add to every import of the CLI
    from ._floatrepr import format_rows, value_block

    _check_adiabatic_flags(args, args.protocol == "adiabatic")
    if args.protocol == "custom":
        if args.profile_file is None:
            raise DoubleLambdaError("custom protocol requires --profile-file")
        profile = tabulated_protocol(*load_profile_table(args.profile_file), alpha=args.alpha)
    elif args.alpha is None:
        raise DoubleLambdaError("--alpha is required")
    else:
        profile = build_profile(args.protocol, args.alpha, args.zeta0, args.zbar)
    traj = propagate_reduced(profile, opts=_integrator(args))

    with open(args.out, "wb") as fh:
        fh.write(b"zeta,theta,omega_c,omega_d,omega_p,omega_s,intensity_p,intensity_s,norm\n")
        for lo in range(0, len(traj.zeta), SIMULATE_CHUNK):
            rows = slice(lo, lo + SIMULATE_CHUNK)
            theta, p, s = traj.theta[rows], traj.omega_p[rows], traj.omega_s[rows]
            block = value_block(len(theta), 9)
            block[:, 0] = traj.zeta[rows]
            block[:, 1] = theta
            np.sin(theta, out=block[:, 2])
            np.cos(theta, out=block[:, 3])
            block[:, 4] = p
            block[:, 5] = s
            # elementwise float64 products round as Python floats do: same fields
            np.multiply(p, p, out=block[:, 6])
            np.multiply(s, s, out=block[:, 7])
            np.add(block[:, 6], block[:, 7], out=block[:, 8])
            fh.write(format_rows(block))
    return 0


def cmd_efficiency(args) -> int:
    if args.alpha:
        alphas = [_check_alpha(a) for a in args.alpha]
    else:
        if args.alpha_min is None or args.alpha_max is None:
            raise DoubleLambdaError("give --alpha or --alpha-min/--alpha-max/--alpha-steps")
        for flag, bound in (("--alpha-min", args.alpha_min), ("--alpha-max", args.alpha_max)):
            if not (bound >= sys.float_info.min and math.isfinite(bound)):
                raise InvalidAlpha(
                    f"{flag} must be finite and at least {sys.float_info.min!r}, got {bound}")
        if not 1 <= args.alpha_steps <= MAX_ALPHA_STEPS:
            raise DoubleLambdaError(f"--alpha-steps must be in [1, {MAX_ALPHA_STEPS}]")
        if args.alpha_steps == 1 and args.alpha_min != args.alpha_max:
            raise DoubleLambdaError(
                "--alpha-steps 1 would drop --alpha-max; give it equal to --alpha-min")
        # near the largest float, linspace overflows its last point, then sets it
        with np.errstate(over="ignore"):
            alphas = list(np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps))
    protocols = args.protocol or ["optimal", "constant"]
    _check_adiabatic_flags(args, "adiabatic" in protocols and args.method != "closed")
    opts = _integrator(args)

    rows = []
    for kind in sorted(protocols):
        for alpha in sorted(alphas):
            eta_closed = None
            if args.method in ("closed", "both"):
                eta_closed = closed_efficiency(kind, alpha)
            eta_numeric = None
            if args.method in ("numeric", "both"):
                eta_numeric = numerical_efficiency(kind, alpha, opts, args.zeta0, args.zbar)
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
    # Below this alpha a drop of up to pi/2 over one segment of a sampled
    # dominance profile overflows its slope; fail before any work.
    min_alpha = (SAMPLED_KNOTS - 1) * HALF_PI / sys.float_info.max
    if alpha < min_alpha:
        raise NonFinite(f"alpha {alpha!r} is below {min_alpha!r}, where the slopes of the "
                        f"{SAMPLED_KNOTS}-knot dominance samples may overflow")
    # Resolve the largest grids first, so a run past the step cap fails before any work.
    opts.resolve_steps(alpha)  # also keeps alpha * steps_per_unit finite for ``base``
    ARC_OPTIONS.resolve_steps(alpha)
    base = max(5, int(round(alpha * args.steps_per_unit)))
    orders = [base, 2 * base, 4 * base, 8 * base]
    IntegratorOptions(step_count=orders[-1]).resolve_steps(alpha)
    checks = []

    def record(name, value, threshold, warn_only=False):
        status = "pass" if value <= threshold else ("warning" if warn_only else "fail")
        checks.append(
            {"name": name, "alpha": alpha, "value": float(value),
             "threshold": float(threshold), "status": status}
        )

    # Reduced vs microscopically closed propagation, all three protocols,
    # each route one batch.  The exact batch runs first and keeps only its
    # final states, so no two trajectories are held at once.
    kinds = ("optimal", "constant", "adiabatic")
    profiles = [build_profile(kind, alpha) for kind in kinds]
    exact = [tr.final_state for tr in propagate_exact_many(
        (functools.partial(theta_to_controls, p), alpha, opts, p.breakpoints) for p in profiles)]
    reduced = propagate_reduced_many((p, opts) for p in profiles)
    for kind, final, tr_reduced in zip(kinds, exact, reduced, strict=True):
        diff = max(
            abs(final.omega_p - tr_reduced.omega_p[-1]),
            abs(final.omega_s - tr_reduced.omega_s[-1]),
        )
        record(f"oracle_equivalence_{kind}", diff, 1e-8)

        eta_closed = closed_efficiency(kind, alpha)
        if eta_closed is not None:
            record(f"closed_vs_numeric_{kind}",
                   abs(eta_closed - tr_reduced.efficiency), 1e-6,
                   warn_only=coarse)

    # Dissipation identity: observed convergence order of the residual.
    slope, _ = dissipation_order(build_profile("constant", alpha), orders)
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
    _check_seed(args)
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise DoubleLambdaError(f"--samples must be in [1, {MAX_SAMPLES}]")
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
    _check_seed(args)
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

    p_sim = sub.add_parser("simulate", help="trajectory of one protocol -> CSV")
    p_sim.add_argument("--protocol", choices=PROTOCOLS, default="optimal")
    p_sim.add_argument("--alpha", type=float, default=None, help="optical density")
    p_sim.add_argument("--profile-file", default=None,
                       help="two-column zeta/theta table for --protocol custom")
    p_sim.add_argument("--out", required=True)

    p_eff = sub.add_parser("efficiency", help="efficiency curves -> CSV")
    p_eff.add_argument("--protocol", choices=PROTOCOLS[:3], action="append",
                       help="repeatable; default optimal and constant")
    p_eff.add_argument("--alpha", type=float, action="append",
                       help="explicit optical density (repeatable)")
    p_eff.add_argument("--alpha-min", type=float, default=None)
    p_eff.add_argument("--alpha-max", type=float, default=None)
    p_eff.add_argument("--alpha-steps", type=int, default=200)
    p_eff.add_argument("--method", choices=("closed", "numeric", "both"), default="both")
    p_eff.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="cross-check suite -> JSON, exit code")
    p_ver.add_argument("--alpha", type=float, action="append",
                       help="repeatable; default 1 10 100")
    p_ver.add_argument("--samples", type=int, default=1000,
                       help="random profiles per alpha for the dominance check")
    p_ver.add_argument("--out", default=None, help="JSON report path (default stdout)")

    p_sea = sub.add_parser("search", help="direct profile search -> JSON + table")
    p_sea.add_argument("--alpha", type=float, required=True)
    p_sea.add_argument("--segments", type=int, default=64)
    p_sea.add_argument("--budget", type=int, default=200_000,
                       help="max evaluations, each one fused value and gradient")
    p_sea.add_argument("--starts", type=int, default=3)
    p_sea.add_argument("--out", required=True, help="JSON result path")
    p_sea.add_argument("--profile-out", default=None,
                       help="profile table path (default derived from --out)")

    for p in (p_sim, p_eff):
        p.add_argument("--zeta0", type=float, default=None,
                       help="adiabatic midpoint (default alpha/2)")
        p.add_argument("--zbar", type=float, default=None,
                       help="adiabatic length scale (default 5)")
    for p in (p_sim, p_eff, p_ver):
        p.add_argument("--steps-per-unit", type=float, default=10.0,
                       help="RK4 steps per unit optical density (default 10)")
    for p in (p_ver, p_sea):
        p.add_argument("--seed", type=int, default=0)
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
