"""Tests of the benchmark itself: op generation, checks and span arithmetic.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import json
import math

import pytest

import run
import spans
import workloads
from doublelambda import cli
from doublelambda import efficiency as efficiency_module


def _rejected(result: workloads.Checked) -> bool:
    return bool(result.errors) or any(not workloads.is_known(m) for m in result.misses)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_ops(workload):
    n = 2 * workloads.TRACE_PASS[workload]
    ops = workloads.make_ops(workload, 11, n)
    assert ops == workloads.make_ops(workload, 11, n)
    assert ops != workloads.make_ops(workload, 12, n)


def test_alphas_cycle_through_log_bins():
    ops = workloads.make_ops("verify", 3, 12)
    edges = [0.05 * (150 / 0.05) ** (k / 12) for k in range(13)]
    for k, op in enumerate(ops):
        assert edges[k] <= op.alphas[0] <= edges[k + 1]
    curve = workloads.make_ops("curve", 3, 1)[0]
    assert sorted(curve.alphas) == list(curve.alphas) and len(curve.alphas) == 8


def _run_op(op, workdir):
    workloads.prepare(op, workdir)
    return cli.main(workloads.argv(op, workdir))


def test_curve_check_rejects_eta_above_one(tmp_path):
    op = workloads.Op("curve", (0.2, 1.0, 3.0, 9.0, 20.0, 40.0, 80.0, 120.0))
    rc = _run_op(op, tmp_path)
    good = workloads.check(op, rc, tmp_path)
    assert not _rejected(good)
    assert (0.2, "closed_vs_numeric_constant") in good.misses  # known defect stays visible
    path = tmp_path / "curve.csv"
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[3] = "1.0000001"
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert _rejected(workloads.check(op, rc, tmp_path))


def test_search_check_rejects_eta_above_bound(tmp_path):
    alpha = 20.0
    rc = cli.main(["search", "--alpha", repr(alpha), "--segments", "24", "--budget", "300",
                   "--seed", "5", "--out", str(tmp_path / "search.json")])
    op = workloads.Op("search", (alpha,), seed=5)
    assert not _rejected(workloads.check(op, rc, tmp_path))
    path = tmp_path / "search.json"
    report = json.loads(path.read_text())
    report["efficiency"] = workloads.ref_optimal_eta(alpha) + 2e-9
    path.write_text(json.dumps(report))
    result = workloads.check(op, rc, tmp_path)
    assert _rejected(result)
    assert result.misses == [(alpha, "search_below_optimum")]


@pytest.mark.parametrize("protocol", workloads.TRAJECTORY_PROTOCOLS)
def test_trajectory_check_rejects_rising_norm(tmp_path, protocol):
    op = next(o for o in workloads.make_ops("trajectory", 2, 4) if o.protocol == protocol)
    rc = _run_op(op, tmp_path)
    assert not _rejected(workloads.check(op, rc, tmp_path))
    path = tmp_path / "traj.csv"
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[8] = repr(float(lines[-2].split(",")[8]) + 1e-9)
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert _rejected(workloads.check(op, rc, tmp_path))


def test_check_counts_raised_op_as_failed(tmp_path):
    op = workloads.Op("verify", (1.0,), seed=1)
    assert workloads.check(op, "raised RuntimeError: x", tmp_path).errors
    assert workloads.check(op, 2, tmp_path).errors


def test_references_match_package_closed_forms():
    for alpha in (0.05, 0.3, 2 * math.pi, 7.0, 100.0, 300.0):
        assert workloads.ref_optimal_eta(alpha) == pytest.approx(
            efficiency_module.optimal_efficiency_closed(alpha), abs=1e-12)
        assert workloads.ref_constant_eta(alpha) == pytest.approx(
            efficiency_module.constant_efficiency_closed(alpha), abs=1e-12)


def test_self_times_on_two_thread_tree():
    # op [0, 10] on thread 1; cmd [1, 9] below it; children of cmd on pool
    # threads 2 and 3 overlap ([2, 5] and [4, 8]); a grandchild [3, 4] on
    # thread 2.
    tree = [
        [0, None, "op", 1, 0.0, 10.0, None],
        [1, 0, "cli.cmd", 1, 1.0, 9.0, None],
        [2, 1, "a", 2, 2.0, 5.0, {"rk4_steps": 4}],
        [3, 1, "a", 3, 4.0, 8.0, {"rk4_steps": 6}],
        [4, 2, "b", 2, 3.0, 4.0, None],
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 2.0, 1: 2.0, 2: 2.0, 3: 4.0, 4: 1.0}
    agg = spans.aggregate(tree)
    assert agg["a"] == {"calls": 2, "self_s": 6.0, "rk4_steps": 10}
    assert agg["cli.cmd"]["self_s"] == 2.0


def test_recorder_wraps_restores_and_parents_pool_spans(tmp_path):
    original = efficiency_module.propagate_reduced
    op = workloads.Op("curve", (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
    recorder = spans.SpanRecorder()
    with recorder.installed():
        assert efficiency_module.propagate_reduced is not original
        with recorder.op():
            assert _run_op(op, tmp_path) == 0
    assert efficiency_module.propagate_reduced is original
    by_id = {s[0]: s for s in recorder.spans}
    cmd = [s for s in recorder.spans if s[2] == "cli.cmd_efficiency"]
    assert len(cmd) == 1 and by_id[cmd[0][1]][2] == spans.OP
    numeric = [s for s in recorder.spans if s[2] == "efficiency.numerical_efficiency"]
    assert len(numeric) == 24
    assert {s[1] for s in numeric} == {cmd[0][0]}
    steps = sum(s[6]["rk4_steps"] for s in recorder.spans
                if s[2] == "propagation.propagate_reduced")
    assert steps == sum(3 * max(2, math.ceil(10 * a)) for a in op.alphas)


def test_benchmark_json_matches_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in spec["end_to_end"])
