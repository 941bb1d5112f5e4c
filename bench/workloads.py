"""Seeded workloads of the doublelambda CLI and their reference checks.

Each workload is an endless, seeded stream of ops.  An op is one call of
``doublelambda.cli.main(argv)``; the benchmark writes any input file an op
needs before timing it and checks its artefacts after.  Optical densities
are drawn one per log-spaced bin of the workload's range, cycling through
the bins, so the work in a run barely depends on the seed.

Every check returns a :class:`Checked`: ``errors`` make the op count as
failed (it raised, returned an unexpected exit code or wrote malformed
output); ``misses`` are results outside their reference tolerance, as
``(alpha, check)`` pairs, out of ``checked`` results.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import count, islice
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from doublelambda.propagation import (
    FieldState,
    IntegratorOptions,
    adiabatic_initial,
    from_adiabatic,
    propagate_adiabatic,
    propagate_piecewise_exact,
    schedule_from_profile,
)
from doublelambda.protocols import adiabatic_protocol, tabulated_protocol

HALF_PI = math.pi / 2

#: Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "curve": "efficiency --method both for three protocols at 8 alphas in [0.05, 300]: "
             "many short and long propagate_reduced calls, no steady solve or search",
    "verify": "verify at one alpha in [0.05, 150]: the only steady_coherences and "
              "propagate_exact load, plus arc checks and sampled dominance",
    "search": "search with 24 segments and a 20000 budget at alpha in [10, 150]: "
              "Nelder-Mead overhead and piecewise_efficiency, no RK4 route",
    "trajectory": "simulate at 20 steps/unit, alpha in [20, 300], four protocols: "
                  "one long propagate_reduced per op and every sample written as CSV",
}

#: Accuracy misses the program shows at the commit that introduced this
#: benchmark: check name -> alpha below which the miss is known.  They are
#: counted and listed like any other miss, but do not make a run incorrect.
#: The constant protocol gets 2-4 RK4 steps for a pi/2 turn at alpha
#: 0.093-0.40 (closed vs numeric misses 1e-6); the dissipation-order slope
#: misses 4 by more than 0.5 below alpha 0.064.
KNOWN_MISSES = {
    "closed_vs_numeric_constant": 0.5,
    "dissipation_order": 0.1,
}

CURVE_PROTOCOLS = ("adiabatic", "constant", "optimal")
TRAJECTORY_PROTOCOLS = ("optimal", "constant", "adiabatic", "custom")
CSV_COLUMNS = ["zeta", "theta", "omega_c", "omega_d", "omega_p", "omega_s",
               "intensity_p", "intensity_s", "norm"]
VERIFY_CHECKS = {
    "oracle_equivalence_optimal", "oracle_equivalence_constant",
    "oracle_equivalence_adiabatic", "closed_vs_numeric_optimal",
    "closed_vs_numeric_constant", "dissipation_order", "pmp_switching_function",
    "pmp_hamiltonian_drift", "pmp_feedback_law", "pmp_arc_ratio", "pmp_adjoint_fd",
    "pmp_adjoint_integration", "dominance_closed", "dominance_sampled",
}
SEARCH_SEGMENTS = 24
SEARCH_BUDGET = 20_000
TRAJECTORY_STEPS_PER_UNIT = 20.0
CUSTOM_KNOTS = 12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Ops in one cycle of each workload's bins; a timed run holds whole cycles.
CYCLE = {"curve": 1, "verify": 12, "search": 2, "trajectory": 20}
#: Ops in one pass of a traced run.
TRACE_PASS = {"curve": 8, "verify": 12, "search": 2, "trajectory": 20}
#: Unit of accuracy_miss_ratio, per workload.
MISS_UNIT = {"curve": "rows", "verify": "checks", "search": "ops", "trajectory": "ops"}


@dataclass(frozen=True)
class Op:
    """One CLI call: the workload's parameters for it, fixed by the seed."""

    workload: str
    alphas: tuple[float, ...]
    seed: int = 0
    protocol: str = ""
    knots: tuple[tuple[float, float], ...] = ()


@dataclass
class Checked:
    errors: list[str] = field(default_factory=list)
    misses: list[tuple[float, str]] = field(default_factory=list)
    checked: int = 0
    gap: float | None = None  # search: closed-form optimum minus found efficiency


# ---------------------------------------------------------------------------
# Independent references: closed forms written apart from the package
# ---------------------------------------------------------------------------

def ref_theta0(alpha: float) -> float:
    """Entry angle of the optimal protocol: root of (a/4) sin 2t = 2t - pi/2."""
    return brentq(lambda t: 0.25 * alpha * math.sin(2 * t) - 2 * t + HALF_PI,
                  math.pi / 4, HALF_PI, xtol=1e-15)


def ref_optimal_eta(alpha: float) -> float:
    t0 = ref_theta0(alpha)
    return math.exp(-alpha * math.cos(t0) ** 2) * math.sin(0.25 * math.sin(2 * t0) * alpha) ** 2


def ref_constant_eta(alpha: float) -> float:
    """exp(-a/2) [cosh(k a) + sinh(k a)/(4k)]^2, k = sqrt(1/16 - (pi/2a)^2), complex k."""
    k = complex(0.0625 - (HALF_PI / alpha) ** 2) ** 0.5
    ratio = alpha if abs(k) < 1e-12 else np.sinh(k * alpha) / k
    bracket = (np.cosh(k * alpha) + 0.25 * ratio).real
    return math.exp(-0.5 * alpha) * bracket * bracket


# ---------------------------------------------------------------------------
# Seeded op streams
# ---------------------------------------------------------------------------

def _binned(rng, lo: float, hi: float, n_bins: int):
    """Endless optical densities, one per log-spaced bin of [lo, hi] in turn.

    The position inside a bin follows a golden-ratio sequence from a seeded
    start, so every run of whole cycles samples each bin evenly and the work
    it holds barely depends on the seed.
    """
    edges = np.log(np.geomspace(lo, hi, n_bins + 1))
    start = rng.uniform(size=n_bins)
    for visit in count():
        for k in range(n_bins):
            u = (start[k] + visit * GOLDEN) % 1.0
            yield float(np.exp(edges[k] + u * (edges[k + 1] - edges[k])))


def _custom_knots(rng, alpha: float) -> tuple[tuple[float, float], ...]:
    n = CUSTOM_KNOTS - 1
    inner = [alpha * (j + rng.uniform(-0.3, 0.3)) / n for j in range(1, n)]
    thetas = np.sort(rng.uniform(0.0, HALF_PI, CUSTOM_KNOTS))[::-1]
    zetas = [0.0, *inner, alpha]
    return tuple((float(z), float(t)) for z, t in zip(zetas, thetas))


def iter_ops(workload: str, seed: int):
    """Endless op stream of a workload; the same seed gives the same ops."""
    rng = np.random.default_rng(seed)
    if workload == "curve":
        alphas = _binned(rng, 0.05, 300.0, 8)
        while True:
            yield Op("curve", tuple(islice(alphas, 8)))
    elif workload == "verify":
        for alpha in _binned(rng, 0.05, 150.0, CYCLE["verify"]):
            yield Op("verify", (alpha,), seed=int(rng.integers(2**31)))
    elif workload == "search":
        for alpha in _binned(rng, 10.0, 150.0, CYCLE["search"]):
            yield Op("search", (alpha,), seed=int(rng.integers(2**31)))
    elif workload == "trajectory":
        # 5 bins against 4 protocols: a cycle of 20 ops meets every pair once
        for i, alpha in enumerate(_binned(rng, 20.0, 300.0, 5)):
            protocol = TRAJECTORY_PROTOCOLS[i % 4]
            knots = _custom_knots(rng, alpha) if protocol == "custom" else ()
            yield Op("trajectory", (alpha,), protocol=protocol, knots=knots)
    else:
        raise ValueError(f"unknown workload '{workload}'")


def make_ops(workload: str, seed: int, n: int) -> list[Op]:
    return list(islice(iter_ops(workload, seed), n))


# ---------------------------------------------------------------------------
# Op arguments and input files
# ---------------------------------------------------------------------------

def prepare(op: Op, workdir: Path) -> None:
    """Write the op's input files; runs before the op is timed."""
    if op.protocol == "custom":
        lines = ["# zeta theta"] + [f"{z!r} {t!r}" for z, t in op.knots]
        (workdir / "profile.txt").write_text("\n".join(lines) + "\n")


def argv(op: Op, workdir: Path) -> list[str]:
    a = repr(op.alphas[0])
    if op.workload == "curve":
        args = ["efficiency", "--method", "both", "--out", str(workdir / "curve.csv")]
        for p in CURVE_PROTOCOLS:
            args += ["--protocol", p]
        for x in op.alphas:
            args += ["--alpha", repr(x)]
        return args
    if op.workload == "verify":
        return ["verify", "--alpha", a, "--seed", str(op.seed),
                "--out", str(workdir / "report.json")]
    if op.workload == "search":
        return ["search", "--alpha", a, "--segments", str(SEARCH_SEGMENTS),
                "--budget", str(SEARCH_BUDGET), "--seed", str(op.seed),
                "--out", str(workdir / "search.json")]
    args = ["simulate", "--protocol", op.protocol,
            "--steps-per-unit", repr(TRAJECTORY_STEPS_PER_UNIT),
            "--out", str(workdir / "traj.csv")]
    if op.protocol == "custom":
        return args + ["--profile-file", str(workdir / "profile.txt")]
    args += ["--alpha", a]
    if op.protocol == "adiabatic":
        args += ["--zeta0", repr(op.alphas[0] / 2.0), "--zbar", "5.0"]
    return args


OUTPUTS = {"curve": ("curve.csv",), "verify": ("report.json",),
           "search": ("search.json", "search_profile.txt"), "trajectory": ("traj.csv",)}


def outputs(op: Op, workdir: Path) -> list[Path]:
    """Files the op writes."""
    return [workdir / name for name in OUTPUTS[op.workload]]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite field {text!r}")
    return value


def check(op: Op, rc, workdir: Path) -> Checked:
    """Check the op's exit code and artefacts against their references."""
    expected_rc = (0, 1) if op.workload == "verify" else (0,)
    if rc not in expected_rc:
        return Checked(errors=[f"exit code {rc!r}"])
    try:
        return CHECKS[op.workload](op, rc, workdir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return Checked(errors=[f"malformed output: {type(exc).__name__}: {exc}"])


def check_curve(op: Op, rc, workdir: Path) -> Checked:
    with open(workdir / "curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    out = Checked()
    if rows[0] != ["alpha", "protocol", "eta_closed", "eta_numeric"]:
        out.errors.append(f"header {rows[0]}")
        return out
    keys = [(r[1], float(r[0])) for r in rows[1:]]
    expected = sorted((p, a) for p in CURVE_PROTOCOLS for a in op.alphas)
    if keys != expected:
        out.errors.append("rows do not match (protocol, alpha) sorted")
        return out
    closed: dict[tuple[str, float], float] = {}
    for alpha_s, kind, ec_s, en_s in rows[1:]:
        alpha = float(alpha_s)
        out.checked += 1
        en = _float(en_s)
        if not 0.0 <= en <= 1.0:
            out.errors.append(f"eta_numeric {en!r} outside [0, 1] at alpha {alpha!r}")
        if kind == "adiabatic":
            if ec_s != "":
                out.errors.append("adiabatic row has a closed form")
            continue
        ec = _float(ec_s)
        ref = ref_optimal_eta(alpha) if kind == "optimal" else ref_constant_eta(alpha)
        if not 0.0 <= ec <= 1.0 or abs(ec - ref) > 1e-9:
            out.errors.append(f"eta_closed {ec!r} vs reference {ref!r} ({kind}, {alpha!r})")
        closed[kind, alpha] = ec
        if abs(ec - en) > 1e-6:
            out.misses.append((alpha, f"closed_vs_numeric_{kind}"))
    for alpha in op.alphas:
        if closed["constant", alpha] > closed["optimal", alpha]:
            out.errors.append(f"constant above optimal at alpha {alpha!r}")
    return out


def check_verify(op: Op, rc, workdir: Path) -> Checked:
    report = json.loads((workdir / "report.json").read_text())
    out = Checked()
    names = [c["name"] for c in report["checks"]]
    if report["alphas"] != [op.alphas[0]] or report["seed"] != op.seed:
        out.errors.append("report alphas or seed differ from the request")
    if sorted(names) != sorted(VERIFY_CHECKS):
        out.errors.append(f"unexpected check set {names}")
    statuses = [c["status"] for c in report["checks"]]
    if not set(statuses) <= {"pass", "warning", "fail"}:
        out.errors.append(f"unknown status in {statuses}")
    passed = all(s != "fail" for s in statuses)
    if report["passed"] is not passed or (rc == 0) is not passed:
        out.errors.append(f"exit code {rc} disagrees with passed={report['passed']}")
    for c in report["checks"]:
        out.checked += 1
        if c["status"] == "fail":
            out.misses.append((op.alphas[0], c["name"]))
    return out


def check_search(op: Op, rc, workdir: Path) -> Checked:
    report = json.loads((workdir / "search.json").read_text())
    out = Checked(checked=1)
    alpha = op.alphas[0]
    if (report["alpha"] != alpha or report["segments"] != SEARCH_SEGMENTS
            or report["seed"] != op.seed or report["evaluations"] > SEARCH_BUDGET):
        out.errors.append("report does not match the request")
    eta = _float(report["efficiency"])
    bound = ref_optimal_eta(alpha)
    out.gap = bound - eta
    z, t = np.loadtxt(workdir / "search_profile.txt", comments="#", ndmin=2).T
    reloaded = propagate_piecewise_exact(tabulated_protocol(z, t)).omega_s ** 2
    if not 0.0 <= eta <= bound + 1e-9:
        out.misses.append((alpha, "search_below_optimum"))
    elif abs(reloaded - eta) > 1e-12:
        out.misses.append((alpha, "search_profile_reload"))
    return out


def expected_steps(op: Op) -> int:
    """RK4 steps of the simulate grid: ceil(alpha * resolution), split at knots."""
    alpha = op.alphas[0]
    n = max(2, math.ceil(alpha * TRAJECTORY_STEPS_PER_UNIT))
    cuts = [0.0, *sorted(z for z, _ in op.knots[1:-1] if 0.0 < z < alpha), alpha]
    return sum(max(1, round(n * (b - a) / alpha)) for a, b in zip(cuts[:-1], cuts[1:]))


def reference_intensity(op: Op) -> float:
    """Final signal intensity by a route independent of propagate_reduced."""
    alpha = op.alphas[0]
    if op.protocol == "optimal":
        return ref_optimal_eta(alpha)
    if op.protocol == "constant":
        return ref_constant_eta(alpha)
    if op.protocol == "custom":
        z, t = zip(*op.knots)
        return propagate_piecewise_exact(tabulated_protocol(z, t)).omega_s ** 2
    profile = adiabatic_protocol(alpha, alpha / 2.0, 5.0)
    traj = propagate_adiabatic(
        schedule_from_profile(profile), initial=adiabatic_initial(profile, FieldState(1.0, 0.0)),
        opts=IntegratorOptions(steps_per_unit=TRAJECTORY_STEPS_PER_UNIT))
    return from_adiabatic(profile.theta_post, traj.final_state).omega_s ** 2


def check_trajectory(op: Op, rc, workdir: Path) -> Checked:
    path = workdir / "traj.csv"
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    out = Checked(checked=1)
    if header != CSV_COLUMNS:
        out.errors.append(f"header {header}")
        return out
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(data)):
        out.errors.append("non-finite field")
        return out
    if data.shape != (expected_steps(op) + 1, len(CSV_COLUMNS)):
        out.errors.append(f"{data.shape[0]} rows, expected {expected_steps(op) + 1}")
        return out
    alpha = op.alphas[0]
    if data[0, 0] != 0.0 or abs(data[-1, 0] - alpha) > 1e-9 * alpha:
        out.errors.append("zeta does not span [0, alpha]")
    if np.any(np.diff(data[:, 8]) > 1e-12):
        out.misses.append((alpha, f"norm_rises_{op.protocol}"))
    elif abs(data[-1, 7] - reference_intensity(op)) > 1e-8:
        out.misses.append((alpha, f"final_intensity_{op.protocol}"))
    return out


CHECKS = {"curve": check_curve, "verify": check_verify,
          "search": check_search, "trajectory": check_trajectory}


def is_known(miss: tuple[float, str]) -> bool:
    alpha, name = miss
    return name in KNOWN_MISSES and alpha < KNOWN_MISSES[name]
