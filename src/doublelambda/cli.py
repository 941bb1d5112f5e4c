"""Command-line front end: reproducible CSV/JSON artifacts.

Subcommands
-----------
simulate    trajectory of one protocol -> CSV
efficiency  efficiency curves over optical density -> CSV
verify      cross-check suite (oracle equivalence, dissipation order,
            optimality-structure residuals, dominance) -> JSON, exit code
search      direct profile search -> JSON + profile table

All outputs are deterministic functions of the configuration and seed.
Exit codes: 0 success, 1 verification failure, 2 usage error (also an
arithmetic or linear-algebra error escaping a command, a warning raised as
an error by the interpreter's filters, and an artefact path naming the same
file as another artefact or an input).  ``verify`` checks
every density's bounds and step caps before it verifies any of them.  A
command that completes prints each distinct warning its filters let
through as one ``warning: <message>`` line on stderr; one that fails prints
only its ``error:`` line.

Each writer builds its own bytes: ``simulate`` formats its own float block
with ``_floatrepr.format_rows``, one RK4 chunk at a time as the driver
applies it, ``efficiency`` joins ``repr`` fields and protocol names with
commas, ``verify`` and ``search`` write JSON, and ``search`` also a profile
table.

Each artefact is rewritten in place (:func:`_artefact`): an existing file is
opened without truncation, overwritten, and cut at the end of the new bytes
on close, so its old blocks and cached pages are reused rather than freed
and allocated again.  The bytes equal those of a fresh write, and a command
that raises mid-write leaves only what it wrote.  A process killed
mid-write, though, leaves the new prefix followed by the old tail, where a
truncating open would leave only the prefix.  Writing a temporary file and
``os.replace``-ing it would keep the old file whole, but on ext4 it measured
no faster than the truncating open: about 0.5 ms to rewrite a 300 KB CSV,
against 0.1 ms in place.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
import warnings

import numpy as np

from .efficiency import (
    closed_efficiency,
    constant_efficiency_closed,
    numerical_efficiency,
    optimal_efficiency_closed,
)
from .errors import DoubleLambdaError
from .pmp_search import (
    ARC_OPTIONS,
    _check_sampled_inputs,
    optimize_piecewise,
    sampled_profile_efficiencies,
    singular_arc_checks,
    verify_singular_arc,
)
from .propagation import (
    _BLOCK,
    DEFAULT_OPTIONS,
    IntegratorOptions,
    dissipation_order,
    propagate_exact_finals,
    propagate_reduced_chunks,
    propagate_reduced_finals,
)
from .protocols import (
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


def _check_adiabatic_flags(args, adiabatic_run: bool) -> None:
    # build_profile ignores them for any other protocol
    if not adiabatic_run and (args.zeta0 is not None or args.zbar is not None):
        raise DoubleLambdaError("--zeta0 and --zbar apply only to a numeric run of "
                                "--protocol adiabatic")


def _check_distinct(paths: dict) -> None:
    """Raise unless the given paths (``{flag: path}``, None skipped) name
    different files, before any work.  An existing path is compared by the
    file it names, new ones by their resolved paths.  Existing files that
    are not regular (``/dev/null``, a tty) may be shared."""
    keys, new = [], {}
    for flag, path in paths.items():
        if path is None:
            continue
        try:
            st = os.stat(path)
        except FileNotFoundError:
            new[flag] = path
            continue
        if stat.S_ISREG(st.st_mode):
            keys.append(((st.st_dev, st.st_ino), flag, path))  # what os.path.samefile compares
    # Two new paths can resolve to one file only through the same base name
    # or a dangling link; only then are they resolved, at an lstat per path
    # component.
    names = {os.path.basename(path) for path in new.values()}
    if len(names) < len(new) or any(map(os.path.islink, new.values())):
        keys += [(os.path.realpath(path), flag, path) for flag, path in new.items()]
    seen = {}
    for key, flag, path in keys:
        if key in seen:
            raise DoubleLambdaError(f"{seen[key]} and {flag} name the same file {path!r}")
        seen[key] = flag


@contextlib.contextmanager
def _artefact(path, mode: str):
    """``open(path, mode)`` for writing, but rewriting ``path`` in place.

    The file is opened without ``O_TRUNC``; on exit, normal or by an
    exception, the stream is flushed and a regular file that was longer
    than what was written is cut at the current offset, so it holds exactly
    what was written.  Pipes, ttys and ``/dev/null`` are left uncut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    old = os.fstat(fd)
    with open(fd, mode) as fh:
        try:
            yield fh
        finally:
            # a new file, or one no longer than the new bytes, needs no cut
            if stat.S_ISREG(old.st_mode) and old.st_size > fh.tell():
                fh.truncate()


#: Most optical densities ``efficiency --alpha-steps`` may request; each is a
#: row per protocol, so the cap bounds the rows held before the CSV is written.
MAX_ALPHA_STEPS = 100_000

#: Optical densities of an ``efficiency`` range without ``--alpha-steps``.
DEFAULT_ALPHA_STEPS = 200


def cmd_simulate(args) -> int:
    """Write one protocol's trajectory as CSV, one row per grid point.

    The trajectory is streamed from the RK4 driver
    (:func:`propagate_reduced_chunks`): each chunk it applies, up to
    ``_BLOCK + 1`` rows, has its nine columns written straight into one
    float block the command allocates once (θ, the fields and ζ copied, the
    controls, intensities and norm computed there), is turned into CSV text
    by one formatter call, and is written out before the next chunk is
    integrated.  So beyond the grid the command holds one chunk at any grid
    length.  Every check runs before ``--out`` is opened, so a refused run
    leaves an existing file as it was.  Every field is byte for byte
    ``repr`` of a float64, the full-precision form of :func:`_fmt`.
    """
    # imported here: without cached bytecode, compiling the formatter would
    # add to every import of the CLI
    from ._floatrepr import format_rows

    _check_adiabatic_flags(args, args.protocol == "adiabatic")
    if args.protocol != "custom" and args.profile_file is not None:
        raise DoubleLambdaError("--profile-file applies only to --protocol custom")
    if args.protocol == "custom":
        if args.profile_file is None:
            raise DoubleLambdaError("custom protocol requires --profile-file")
        _check_distinct({"--profile-file": args.profile_file, "--out": args.out})
        profile = tabulated_protocol(*load_profile_table(args.profile_file), alpha=args.alpha)
    elif args.alpha is None:
        raise DoubleLambdaError("--alpha is required")
    else:
        profile = build_profile(args.protocol, args.alpha, args.zeta0, args.zbar)
    chunks = propagate_reduced_chunks(
        profile, opts=IntegratorOptions(steps_per_unit=args.steps_per_unit))

    values = np.empty((_BLOCK + 1, 9))
    with _artefact(args.out, "wb") as fh:
        fh.write(b"zeta,theta,omega_c,omega_d,omega_p,omega_s,intensity_p,intensity_s,norm\n")
        for zeta, theta, fields in chunks:
            block = values[:len(zeta)]
            block[:, 0] = zeta
            block[:, 1] = theta
            np.sin(theta, out=block[:, 2])
            np.cos(theta, out=block[:, 3])
            block[:, 4:6] = fields
            p, s = block[:, 4], block[:, 5]
            # elementwise float64 products round as Python floats do: same fields
            np.multiply(p, p, out=block[:, 6])
            np.multiply(s, s, out=block[:, 7])
            np.add(block[:, 6], block[:, 7], out=block[:, 8])
            fh.write(format_rows(block))
    return 0


def cmd_efficiency(args) -> int:
    range_flags = (args.alpha_min, args.alpha_max, args.alpha_steps)
    if args.alpha and any(flag is not None for flag in range_flags):
        raise DoubleLambdaError("give --alpha or --alpha-min/--alpha-max/--alpha-steps, not both")
    if args.alpha:
        alphas = [_check_alpha(a) for a in args.alpha]
    else:
        if args.alpha_min is None or args.alpha_max is None:
            raise DoubleLambdaError("give --alpha or --alpha-min/--alpha-max/--alpha-steps")
        _check_alpha(args.alpha_min, "--alpha-min")
        _check_alpha(args.alpha_max, "--alpha-max")
        steps = DEFAULT_ALPHA_STEPS if args.alpha_steps is None else args.alpha_steps
        if not 1 <= steps <= MAX_ALPHA_STEPS:
            raise DoubleLambdaError(f"--alpha-steps must be in [1, {MAX_ALPHA_STEPS}]")
        if steps == 1 and args.alpha_min != args.alpha_max:
            raise DoubleLambdaError(
                "--alpha-steps 1 would drop --alpha-max; give it equal to --alpha-min")
        # near the largest float, linspace overflows its last point, then sets it
        with np.errstate(over="ignore"):
            alphas = list(np.linspace(args.alpha_min, args.alpha_max, steps))
    protocols = args.protocol or ["optimal", "constant"]
    _check_adiabatic_flags(args, "adiabatic" in protocols and args.method != "closed")
    opts = IntegratorOptions(steps_per_unit=args.steps_per_unit)

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

    # no field holds a comma, quote or newline, so none needs CSV quoting
    with _artefact(args.out, "w") as fh:
        fh.write("alpha,protocol,eta_closed,eta_numeric\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
    return 0


def _check_stage_steps(stage: str, opts: IntegratorOptions, alpha: float) -> None:
    """Raise unless ``opts`` keeps ``alpha``'s grid under the step cap; the
    error names ``stage``, the ``verify`` stage that takes the grid."""
    try:
        opts.resolve_steps(alpha)
    except DoubleLambdaError as exc:
        raise DoubleLambdaError(f"{stage}: {exc}") from None


def _verify_orders(alpha: float, opts: IntegratorOptions, args) -> list[int]:
    """The dissipation-order step counts at ``alpha``, after checking it,
    ``--samples`` and ``--seed`` by :func:`_check_sampled_inputs` and that
    no stage's grid passes the step cap."""
    _check_sampled_inputs(alpha, args.samples, args.seed)
    # also keeps alpha * steps_per_unit finite for ``base``
    _check_stage_steps("the routes", opts, alpha)
    base = max(5, int(round(alpha * opts.steps_per_unit)))
    orders = [base, 2 * base, 4 * base, 8 * base]
    _check_stage_steps("the dissipation order", IntegratorOptions(step_count=orders[-1]), alpha)
    _check_stage_steps("the singular-arc check", ARC_OPTIONS, alpha)
    return orders


def _verify_one_alpha(alpha: float, orders: list[int], opts: IntegratorOptions, args):
    # Below the default resolution the user has asked for a deliberately
    # coarse run: accuracy-bound checks may then only warn.  Structural
    # checks (same-grid oracle equivalence, arc residuals, dominance) keep
    # hard thresholds at any resolution.
    coarse = opts.steps_per_unit < DEFAULT_OPTIONS.steps_per_unit
    checks = []

    def record(name, value, threshold, warn_only=False):
        status = "pass" if value <= threshold else ("warning" if warn_only else "fail")
        checks.append(
            {"name": name, "alpha": alpha, "value": float(value),
             "threshold": float(threshold), "status": status}
        )

    # Reduced vs microscopically closed propagation, all three protocols,
    # each route one batch that keeps only each run's last sample.
    kinds = ("optimal", "constant", "adiabatic")
    profiles = [build_profile(kind, alpha) for kind in kinds]
    exact = [tr.final_state for tr in propagate_exact_finals(
        (functools.partial(theta_to_controls, p), alpha, opts, p.breakpoints) for p in profiles)]
    reduced = propagate_reduced_finals((p, opts) for p in profiles)
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
    alphas = args.alpha or [1.0, 10.0, 100.0]
    opts = IntegratorOptions(steps_per_unit=args.steps_per_unit)
    orders = [_verify_orders(a, opts, args) for a in alphas]  # every density before any work
    checks = [c for a, o in zip(alphas, orders, strict=True)
              for c in _verify_one_alpha(a, o, opts, args)]
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
        with _artefact(args.out, "w") as fh:
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
    profile_out = args.profile_out
    if profile_out is None:
        root, _ = os.path.splitext(args.out)
        profile_out = root + "_profile.txt"
    _check_distinct({"--out": args.out, "--profile-out": profile_out})
    result = optimize_piecewise(
        float(args.alpha), args.segments, seed=args.seed, budget=args.budget,
        n_starts=args.starts,
    )
    bound = optimal_efficiency_closed(float(args.alpha))

    with _artefact(profile_out, "w") as fh:
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
    with _artefact(args.out, "w") as fh:
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
    p_eff.add_argument("--alpha-steps", type=int, default=None,
                       help=f"densities of a range (default {DEFAULT_ALPHA_STEPS})")
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
                       help="max evaluations over all starts; "
                            "each computes value and gradient once")
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
        p.add_argument("--steps-per-unit", type=float, default=DEFAULT_OPTIONS.steps_per_unit,
                       help="RK4 steps per unit optical density (default %(default)g)")
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
        # the interpreter's filters still decide which warnings are shown
        with warnings.catch_warnings(record=True) as caught:
            code = handler(args)
    except (DoubleLambdaError, ArithmeticError, np.linalg.LinAlgError, Warning) as exc:
        # an overflow, a singular solve or a warning the filters turn into
        # an error escaping a command is a domain error too; exit 1 is
        # reserved for a failed verification
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the default form would name a library frame and quote its source line
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
