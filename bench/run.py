"""Benchmark of the doublelambda CLI: four seeded workloads, checked outputs.

Usage (from the root of a source checkout)::

    python3 bench/run.py --workload curve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One process runs one workload: a closed loop with one client that calls
``doublelambda.cli.main(argv)`` in-process, each op after the previous one
finished, with the CLI's default thread count.  Inputs are generated from
``--seed``; artefacts go to a temporary directory under ``bench/out`` and
are checked against independent references outside the timed interval.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a fixed
pass of ops alternately untraced and under the span recorder of
``spans.py`` and reports per-layer metrics; its spans are written to
``bench/out``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report (all eight end-to-end metrics where they apply,
accuracy misses, provenance).

The package is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("curve", "verify", "search", "trajectory")

#: On a shared host the CPU speed can drift by a quarter within tens of
#: seconds, and every op slows with it.  The gated time metrics are therefore
#: given at a fixed reference speed: a fixed calibration loop is timed
#: between ops (outside their timed intervals) and after the import in every
#: set-up child, and each time is scaled by CAL_REFERENCE_S / (loop time
#: around it).  The unscaled values are reported beside them under ``raw``.
CAL_LOOP = 3_000
CAL_REFERENCE_S = 0.0007  # the loop on an unloaded 2.1 GHz x86-64 core
CAL_EVERY_S = 0.1

#: Fresh interpreters timed for setup_s (after one untimed one that leaves
#: the byte-code cache as a user's install has it).
SETUP_CHILDREN = 5

#: End-to-end metrics and units; the first four are gated by BENCHMARK.json.
#: accuracy_miss_ratio counts rows, checks or ops (workloads.MISS_UNIT).
END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mib": "MiB",
    "op_p90_s": "s", "failed_ratio": "ops", "accuracy_miss_ratio": None, "search_gap": "eta",
}
GATED = ("setup_s", "ops_per_s", "op_p50_s", "peak_rss_mib")

#: Per-layer metrics of a traced run, with units.
PER_LAYER = {
    "setup.import_doublelambda_s": "s",
    "setup.import_scipy_optimize_s": "s",
    "cli.cmd_efficiency.self_s": "s",
    "cli.cmd_verify.self_s": "s",
    "cli.cmd_search.self_s": "s",
    "cli.cmd_simulate.self_s": "s",
    "cli.bytes_written": "bytes",
    "protocols.build_profile.calls": "count",
    "protocols.build_profile.self_s": "s",
    "protocols.solve_theta0.calls": "count",
    "protocols.solve_theta0.self_s": "s",
    "protocols.load_profile_table.self_s": "s",
    "bloch_steady.steady_coherences.calls": "count",
    "bloch_steady.steady_coherences.self_s": "s",
    "bloch_steady.steady_coherences.us_per_call": "us",
    "propagation.propagate_reduced.calls": "count",
    "propagation.propagate_reduced.self_s": "s",
    "propagation.propagate_reduced.rk4_steps": "count",
    "propagation.propagate_reduced.steps_per_s": "1/s",
    "propagation.propagate_adiabatic.calls": "count",
    "propagation.propagate_adiabatic.self_s": "s",
    "propagation.propagate_adiabatic.rk4_steps": "count",
    "propagation.propagate_exact.calls": "count",
    "propagation.propagate_exact.self_s": "s",
    "propagation.propagate_exact.rk4_steps": "count",
    "propagation.propagate_exact.steps_per_s": "1/s",
    "propagation.dissipation_order.self_s": "s",
    "propagation.segment_step.calls": "count",
    "efficiency.numerical_efficiency.calls": "count",
    "efficiency.numerical_efficiency.self_s": "s",
    "efficiency.optimal_efficiency_closed.calls": "count",
    "efficiency.optimal_efficiency_closed.self_s": "s",
    "efficiency.constant_efficiency_closed.calls": "count",
    "efficiency.constant_efficiency_closed.self_s": "s",
    "pmp_search.piecewise_efficiency.calls": "count",
    "pmp_search.piecewise_efficiency.self_s": "s",
    "pmp_search.piecewise_efficiency.us_per_call": "us",
    "pmp_search.sampled_profile_efficiencies.self_s": "s",
    "pmp_search.optimize_piecewise.calls": "count",
    "pmp_search.optimize_piecewise.self_s": "s",
    "pmp_search.optimize_piecewise.evaluations": "count",
    "pmp_search.optimize_piecewise.restarts": "count",
    "pmp_search.optimize_piecewise.budget_exhausted_share": "share",
    "pmp_search.verify_singular_arc.self_s": "s",
    "pmp_search.singular_arc_checks.self_s": "s",
    "pmp_search.integrate_adjoint_along_arc.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(agg: dict, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its aggregated spans."""
    out = {"cli.bytes_written": bytes_written}
    for name in PER_LAYER:
        if name.startswith(("setup.", "trace.", "cli.bytes")):
            continue
        span, stat = name.rsplit(".", 1)
        if span == "propagation.segment_step":
            out[name] = agg.get("pmp_search.piecewise_efficiency", {}).get("segment_steps", 0)
            continue
        entry = agg.get(span, {})
        calls, self_s = entry.get("calls", 0), entry.get("self_s", 0.0)
        if stat == "us_per_call":
            out[name] = 1e6 * self_s / calls if calls else 0.0
        elif stat == "steps_per_s":
            out[name] = entry.get("rk4_steps", 0) / self_s if self_s else 0.0
        elif stat == "budget_exhausted_share":
            out[name] = entry.get("budget_exhausted", 0) / calls if calls else 0.0
        else:
            out[name] = entry.get(stat, 0)
    return out


# ---------------------------------------------------------------------------
# Speed calibration
# ---------------------------------------------------------------------------

def calibrate() -> float:
    """Wall time of a fixed mix of integer, float and small-array work.

    Median of three repetitions.  Uses numpy, so a set-up child calls it only
    after its timed import.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc, x = 0, 0.1
        for i in range(CAL_LOOP):
            acc += i * i
            x = math.sin(x) * 0.5 + math.cos(i * 1e-3)
        a = np.arange(16.0)
        for _ in range(CAL_LOOP // 20):
            a = np.sqrt(a + 1.0)
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class Scaled:
    """Op times, and the same times scaled to the reference speed.

    The loop is timed at most every CAL_EVERY_S seconds, between ops; the ops
    between two calibrations are scaled by the mean of those two loop times.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.loops = [calibrate()]
        self._pending: list[float] = []
        self._since = time.perf_counter()

    def add(self, wall: float) -> None:
        self.raw.append(wall)
        self._pending.append(wall)
        if time.perf_counter() - self._since >= CAL_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Calibrate and scale the ops recorded since the last calibration."""
        if not self._pending:
            return
        self.loops.append(calibrate())
        factor = CAL_REFERENCE_S / (0.5 * (self.loops[-2] + self.loops[-1]))
        self.scaled += [w * factor for w in self._pending]
        self._pending = []
        self._since = time.perf_counter()

    def speed(self) -> float:
        """Machine speed relative to the reference (1.0 = reference)."""
        return CAL_REFERENCE_S / statistics.median(self.loops)


# ---------------------------------------------------------------------------
# Set-up: fresh interpreters importing the CLI
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


#: A set-up child times ``import doublelambda.cli``, then calibrates, and
#: prints both times.
SETUP_CHILD = f"""import time
t0 = time.perf_counter()
import doublelambda.cli
wall = time.perf_counter() - t0
import math
import numpy as np
CAL_LOOP = {CAL_LOOP}
{inspect.getsource(calibrate)}
print(wall, calibrate())
"""


def _import_child(importtime: bool) -> subprocess.CompletedProcess:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", SETUP_CHILD]
    return subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=120, check=True)


def _import_cumulative(stderr: str) -> dict[str, float]:
    """Module -> cumulative import seconds from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            out[fields[2].strip()] = int(fields[1]) * 1e-6
    return out


def measure_setup(importtime: bool) -> dict[str, float]:
    _import_child(False)
    if not importtime:
        raw, scaled = [], []
        for _ in range(SETUP_CHILDREN):
            wall, loop = map(float, _import_child(False).stdout.split())
            raw.append(wall)
            scaled.append(wall * CAL_REFERENCE_S / loop)
        return {"setup_s": statistics.median(scaled), "raw.setup_s": statistics.median(raw)}
    runs = [_import_cumulative(_import_child(True).stderr) for _ in range(SETUP_CHILDREN)]
    return {
        "setup.import_doublelambda_s": statistics.median(
            max(r.get("doublelambda", 0.0), r.get("doublelambda.cli", 0.0)) for r in runs),
        "setup.import_scipy_optimize_s": statistics.median(
            r.get("scipy.optimize", 0.0) for r in runs),
    }


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

class Runner:
    """Runs ops of one workload in a work directory and tallies the checks."""

    def __init__(self, workload: str, workdir: Path):
        import doublelambda.cli
        import workloads

        self.main = doublelambda.cli.main
        self.wl = workloads
        self.workload = workload
        self.workdir = workdir
        self.reset()

    def reset(self) -> None:
        """Forget the tallies (after the warm-up op)."""
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.misses: list[tuple[float, str]] = []
        self.errors: list[str] = []
        self.gaps: list[float] = []
        self.times = Scaled()

    def run(self, op, recorder=None) -> float:
        """Run one op; returns its wall time.  Checks run after the clock stops."""
        self.wl.prepare(op, self.workdir)
        args = self.wl.argv(op, self.workdir)
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    rc = self.main(args)
                else:
                    with recorder.op():
                        rc = self.main(args)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an op that raises is counted as failed
                rc = f"raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        result = self.wl.check(op, rc, self.workdir)
        self.attempted += 1
        self.checked += result.checked
        self.misses += result.misses
        if result.gap is not None:
            self.gaps.append(result.gap)
        if result.errors:
            self.failed += 1
            self.errors += [f"{op}: {e}" for e in result.errors[:3]]
        self.times.add(wall)
        return wall

    def bytes_written(self, op) -> int:
        return sum(p.stat().st_size for p in self.wl.outputs(op, self.workdir) if p.exists())

    def summary(self) -> dict:
        unknown = [m for m in self.misses if not self.wl.is_known(m)]
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_ratio": self.failed / self.attempted,
            "accuracy_miss_ratio": len(self.misses) / self.checked if self.checked else 0.0,
            "accuracy_miss_unit": self.wl.MISS_UNIT[self.workload],
            "results_checked": self.checked,
            "misses": [[a, c, self.wl.is_known((a, c))] for a, c in sorted(set(self.misses))],
            "unknown_misses": len(unknown),
            "errors": self.errors[:20],
            "correct": self.failed == 0 and not unknown,
        }


def run_untraced(runner: Runner, seconds: float, seed: int) -> dict:
    ops = runner.wl.iter_ops(runner.workload, seed)
    runner.run(runner.wl.make_ops(runner.workload, seed, 1)[0])  # warm-up
    runner.reset()
    cycle = runner.wl.CYCLE[runner.workload]
    n = 0
    while sum(runner.times.raw) < seconds or n % cycle:
        runner.run(next(ops))
        n += 1
    runner.times.flush()
    ok = runner.attempted - runner.failed

    def latency(walls):
        return {
            "ops_per_s": ok / sum(walls),
            "op_p50_s": statistics.median(walls),
            # p90 only with at least ten samples beyond it
            "op_p90_s": statistics.quantiles(walls, n=10)[8] if len(walls) >= 100 else None,
        }

    metrics = latency(runner.times.scaled)
    metrics.update({f"raw.{k}": v for k, v in latency(runner.times.raw).items()})
    metrics["search_gap"] = (statistics.median(max(g, 1e-9) for g in runner.gaps)
                             if runner.gaps else None)
    return {"metrics": metrics, "op_samples": n, "timed_s": sum(runner.times.raw),
            "machine_speed": runner.times.speed()}


def run_traced(runner: Runner, seconds: float, seed: int, spans_path: Path) -> dict:
    from spans import SpanRecorder, aggregate

    ops = runner.wl.make_ops(runner.workload, seed, runner.wl.TRACE_PASS[runner.workload])
    runner.run(ops[0])  # warm-up
    runner.reset()
    untraced, traced, passes = [], [], []
    first_spans = None

    def traced_pass():
        recorder = SpanRecorder()
        wall, written = 0.0, 0
        with recorder.installed():
            for op in ops:
                wall += runner.run(op, recorder)
                written += runner.bytes_written(op)
        traced.append(wall)
        passes.append(layer_metrics(aggregate(recorder.spans), written))
        return recorder.spans

    while sum(untraced) + sum(traced) < seconds or not passes:
        # alternate which side of the pair runs first
        if len(passes) % 2:
            spans = traced_pass()
            untraced.append(sum(runner.run(op) for op in ops))
        else:
            untraced.append(sum(runner.run(op) for op in ops))
            spans = traced_pass()
        if first_spans is None:
            first_spans = spans
    spans_path.write_text(json.dumps(
        {"fields": ["id", "parent_id", "name", "thread_id", "t0", "t1", "work"],
         "spans": first_spans}))
    # counts are exact and repeat in every pass; times are medians over passes
    counts = [k for k, unit in PER_LAYER.items() if unit in ("count", "bytes")]
    metrics = {k: passes[0][k] if k in counts else statistics.median(p[k] for p in passes)
               for k in passes[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return {"metrics": metrics, "passes": len(passes), "ops_per_pass": len(ops),
            "counts_repeat": all(p[k] == passes[0][k] for p in passes for k in counts),
            "spans_file": str(spans_path.relative_to(ROOT))}


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance() -> dict:
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "git_sha": git_sha(), "argv": sys.argv}


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # One CPU for the ops, their pool threads, the calibration loop and the
    # set-up children, so that the loop measures the speed the ops ran at.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = measure_setup(importtime=trace)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import doublelambda

    if Path(doublelambda.__file__).resolve().parent != SRC / "doublelambda":
        raise SystemExit(f"doublelambda imported from {doublelambda.__file__}, not {SRC}")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        runner = Runner(workload, Path(tmp))
        if trace:
            run = run_traced(runner, seconds, seed, OUT / f"spans-{workload}-seed{seed}.json")
        else:
            run = run_untraced(runner, seconds, seed)
            run["metrics"]["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        run["metrics"].update(setup)
    checks = runner.summary()
    if not trace:
        run["metrics"]["failed_ratio"] = checks["failed_ratio"]
        run["metrics"]["accuracy_miss_ratio"] = checks["accuracy_miss_ratio"]
    return {"workload": workload, "why": runner.wl.WHY[workload], "seed": seed,
            "seconds": seconds, "trace": int(trace), **run, "checks": checks,
            "provenance": provenance()}


def print_report(report: dict) -> None:
    checks = report["checks"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}")
    print(f"  why: {report['why']}")
    units = PER_LAYER if report["trace"] else END_TO_END
    for name, unit in units.items():
        if name not in report["metrics"]:
            continue
        if name == "accuracy_miss_ratio":
            unit = checks["accuracy_miss_unit"]
        note = ""
        if name in ("op_p50_s", "op_p90_s"):
            note = f"  (n={report['op_samples']})"
        elif name == "failed_ratio":
            note = f"  ({checks['failed']}/{checks['attempted']})"
        elif name == "accuracy_miss_ratio":
            note = f"  ({len(checks['misses'])} distinct misses / {checks['results_checked']})"
        print(f"  {name:52s} {_fmt(report['metrics'][name]):>14s} {unit}{note}")
        if "raw." + name in report["metrics"]:
            print(f"  {'  unscaled':52s} {_fmt(report['metrics']['raw.' + name]):>14s} {unit}")
    by_check: dict[tuple[str, bool], list[float]] = {}
    for alpha, name, known in checks["misses"]:
        by_check.setdefault((name, known), []).append(alpha)
    for (name, known), alphas in sorted(by_check.items()):
        print(f"  accuracy miss {name}{' (known defect)' if known else ''} at alpha: "
              + " ".join(f"{a:.4g}" for a in alphas))
    for err in checks["errors"]:
        print(f"  error: {err}")


def contract_line(report: dict) -> dict:
    names = PER_LAYER if report["trace"] else GATED
    metrics = {}
    for name in names:
        value = report["metrics"][name]
        unit = PER_LAYER[name] if report["trace"] else END_TO_END[name]
        metrics[name] = {"value": value, "unit": unit}
    checks = report["checks"]
    return {"correct": checks["correct"], "attempted": checks["attempted"],
            "failed": checks["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-2]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited {proc.returncode}: {proc.stderr.strip()}")
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed op wall time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "doublelambda" / "__init__.py").is_file():
        print(f"error: no doublelambda sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(report))
    print(json.dumps(contract_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
