"""Command-line interface: schemas, reference rows, determinism, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import doublelambda
from doublelambda import (
    IntegratorOptions,
    build_profile,
    closed_efficiency,
    load_profile_table,
    numerical_efficiency,
    propagate_reduced,
    tabulated_protocol,
)
from doublelambda.cli import MAX_ALPHA_STEPS, build_parser, main
from doublelambda.pmp_search import MAX_SAMPLES, MAX_SEGMENTS

EXPECTED_SIM_HEADER = [
    "zeta", "theta", "omega_c", "omega_d", "omega_p", "omega_s",
    "intensity_p", "intensity_s", "norm",
]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_optimal_reference(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--protocol", "optimal", "--alpha", "100", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == EXPECTED_SIM_HEADER
    assert float(rows[-1][7]) == pytest.approx(0.9094, abs=5e-4)  # intensity_s
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 100.0
    # norm column is consistent and non-increasing
    norms = np.array([float(r[8]) for r in rows])
    assert np.all(np.diff(norms) <= 1e-12)


def test_simulate_constant_first_row_controls(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--protocol", "constant", "--alpha", "100", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-14)  # omega_c(0)
    assert float(rows[0][3]) == pytest.approx(0.0, abs=1e-14)  # omega_d(0)


def test_simulate_adiabatic_symmetry_row(tmp_path):
    out = tmp_path / "traj.csv"
    assert main([
        "simulate", "--protocol", "adiabatic", "--alpha", "100",
        "--zeta0", "50", "--zbar", "5", "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    mid = [r for r in rows if float(r[0]) == 50.0]
    assert len(mid) == 1
    assert float(mid[0][2]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert float(mid[0][3]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_simulate_custom_roundtrip(tmp_path):
    table = tmp_path / "prof.txt"
    table.write_text(
        "# test profile\n0.0 1.5\n5.0 1.0\n10.0 0.2\n"
    )
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--protocol", "custom", "--profile-file", str(table),
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[-1][0]) == 10.0


def reference_simulate_csv(profile, steps_per_unit=10.0):
    """``simulate``'s bytes, written row by row through ``csv.writer``."""
    traj = propagate_reduced(profile, opts=IntegratorOptions(steps_per_unit=steps_per_unit))
    th = traj.theta
    columns = [c.tolist() for c in (traj.zeta, th, np.sin(th), np.cos(th),
                                    traj.omega_p, traj.omega_s)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EXPECTED_SIM_HEADER)
    writer.writerows(  # Python floats: the intensities are squared here, not in numpy
        [repr(z), repr(t), repr(c), repr(d), repr(p), repr(s),
         repr(p * p), repr(s * s), repr(p * p + s * s)]
        for z, t, c, d, p, s in zip(*columns)
    )
    return buf.getvalue().encode()


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` to record the length of its first argument."""
    real, calls = getattr(module, name), []

    def counting(block, *args):
        calls.append(len(block))
        return real(block, *args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("chunk", [None, 7, 700])
def test_simulate_bytes_across_chunk_boundaries(tmp_path, monkeypatch, chunk):
    import doublelambda._floatrepr as floatrepr
    from doublelambda import propagation

    # the driver's chunk of B steps is one CSV piece: B + 1 rows with the
    # initial one, then B rows; at 10 steps per unit, grids one step short
    # of two chunks, on their edge and one step past it
    block = propagation._BLOCK if chunk is None else chunk
    cases = [(rows, (rows - 1) / 10) for rows in (2 * block, 2 * block + 1, 2 * block + 2)]
    expected = [reference_simulate_csv(build_profile("optimal", alpha)) for _, alpha in cases]
    monkeypatch.setattr(propagation, "_BLOCK", block)
    written = count_calls(monkeypatch, floatrepr, "format_rows")
    pieces = count_calls(monkeypatch, floatrepr, "_format")
    for (rows, alpha), reference in zip(cases, expected):
        written.clear()
        pieces.clear()
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--alpha", repr(alpha), "--out", str(out)]) == 0
        data = out.read_bytes()
        assert data.count(b"\n") == 1 + rows
        assert data == reference
        # one formatter call, and one formatter piece, per RK4 chunk
        full, rest = divmod(rows - 1, block)
        assert written == [block + 1] + [block] * (full - 1) + [rest] * (rest > 0)
        assert len(pieces) == len(written)


def test_simulate_bytes_on_kinked_table(tmp_path):
    table = tmp_path / "prof.txt"
    table.write_text("0 1.4\n2.5 1.1\n4 0.3\n7 0.25\n10 0.05\n")
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--protocol", "custom", "--profile-file", str(table),
                 "--out", str(out)]) == 0
    profile = tabulated_protocol(*load_profile_table(table))
    assert len(profile.breakpoints) == 3
    assert out.read_bytes() == reference_simulate_csv(profile)


def test_simulate_bytes_on_kinked_table_with_knots_on_chunk_edges(tmp_path):
    from doublelambda.propagation import _BLOCK

    # at 10 steps per unit each third of the table takes _BLOCK steps, so the
    # two interior knots are the last rows of the first two chunks
    edge = _BLOCK / 10
    table = tmp_path / "prof.txt"
    table.write_text(f"0 1.4\n{edge!r} 1.0\n{2 * edge!r} 0.4\n{3 * edge!r} 0.1\n")
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--protocol", "custom", "--profile-file", str(table),
                 "--out", str(out)]) == 0
    data = out.read_bytes()
    lines = data.splitlines()
    assert [float(lines[1 + k * _BLOCK].split(b",")[0]) for k in (1, 2)] == [edge, 2 * edge]
    assert data == reference_simulate_csv(tabulated_protocol(*load_profile_table(table)))


@pytest.mark.parametrize("table, argv, error", [
    ("0 1.4\n5 0.8\n10 0.1\n", ["--alpha", "20"], "ProfileDomainMismatch"),
    ("0 1.4\n1e-310 0.2\n10 0.1\n", [], "NonFinite"),
    (None, ["--alpha", "1e7"], "RK4 steps requested"),
    # an absolute 1e-9 span tolerance took this table, 500 times short of alpha
    ("0 1.4\n1e-12 0.1\n", ["--alpha", "5e-10"], "ProfileDomainMismatch"),
], ids=["table-domain", "slope-overflow", "step-cap", "table-short-at-small-alpha"])
def test_refused_simulate_leaves_an_existing_out_unchanged(tmp_path, capsys, table, argv,
                                                           error):
    # the trajectory is integrated while it is written, so every check must
    # come before --out is opened
    out = tmp_path / "traj.csv"
    out.write_bytes(b"an earlier artefact\n")
    if table is None:
        argv = ["--protocol", "optimal", *argv]
    else:
        prof = tmp_path / "prof.txt"
        prof.write_text(table)
        argv = ["--protocol", "custom", "--profile-file", str(prof), *argv]
    assert main(["simulate", *argv, "--out", str(out)]) == 2
    assert out.read_bytes() == b"an earlier artefact\n"
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and error in err


def test_simulate_bytes_with_exponent_fields(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--alpha", "1e-6", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert b"e-07," in data and b"e-14," in data
    assert data == reference_simulate_csv(build_profile("optimal", 1e-6))


def test_simulate_memory_is_bounded_per_row(tmp_path):
    # Building every row as Python floats before writing traced about 243
    # bytes per row; streaming chunks of text through fresh numpy temporaries
    # about 101, and through the formatter's resident workspace about 61.
    out = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        assert main(["simulate", "--alpha", "5000", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 50_001 < 150


@pytest.mark.parametrize("table", ["0 1.4\n5 nan\n10 0.1\n", "0 1.4\nnan 0.8\n10 0.1\n"])
def test_simulate_nan_table_exits_two_without_output(tmp_path, capsys, table):
    prof = tmp_path / "prof.txt"
    prof.write_text(table)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--protocol", "custom", "--profile-file", str(prof),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "NonFinite" in capsys.readouterr().err


def test_simulate_overflowing_slope_exits_two_without_output(tmp_path, capsys):
    # knots 1e-310 apart: the slope between them overflows, and the lab-frame
    # route would interpolate infinite angles into NaN rows
    prof = tmp_path / "prof.txt"
    prof.write_text("0 1.4\n1e-310 0.2\n10 0.1\n")
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--protocol", "custom", "--profile-file", str(prof),
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "NonFinite" in err


@pytest.mark.parametrize("table", ["0 1.4\n5 abc\n10 0.1\n",
                                   "0 1.4\n5 0.8 0.3\n10 0.1\n",
                                   "0 1.4\n5\n10 0.1\n",
                                   "",
                                   "# zeta theta\n# no rows\n",
                                   "0 1.4 0\n5 0.8 0\n10 0.1 0\n"],
                         ids=["non-numeric-field", "ragged-extra-column", "ragged-short-row",
                              "empty", "comments-only", "three-columns"])
def test_unparsable_profile_table_exits_two(tmp_path, capsys, table):
    prof = tmp_path / "prof.txt"
    prof.write_text(table)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--protocol", "custom", "--profile-file", str(prof),
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ProfileDomainMismatch")


def test_simulate_bytes_at_chunk_edges_after_a_longer_run(tmp_path):
    # the formatter's workspace is cached: shorter runs after a longer one
    # must not show its stale rows; the first chunk has _BLOCK + 1 rows
    from doublelambda.propagation import _BLOCK

    for rows in (3 * _BLOCK + 5, _BLOCK, _BLOCK + 1, _BLOCK + 2):
        alpha = (rows - 1) / 10
        out = tmp_path / f"traj{rows}.csv"
        assert main(["simulate", "--alpha", repr(alpha), "--out", str(out)]) == 0
        data = out.read_bytes()
        assert data.count(b"\n") == 1 + rows
        assert data == reference_simulate_csv(build_profile("optimal", alpha))


@pytest.mark.parametrize("argv", [
    ["simulate", "--protocol", "optimal", "--alpha", "3", "--zeta0", "1", "--zbar", "2"],
    ["simulate", "--protocol", "constant", "--alpha", "3", "--zbar", "2"],
    ["simulate", "--protocol", "custom", "--profile-file", "unread.txt", "--zeta0", "1"],
    ["efficiency", "--alpha", "3", "--zeta0", "1"],
    ["efficiency", "--alpha", "3", "--protocol", "optimal", "--method", "numeric",
     "--zbar", "2"],
    ["efficiency", "--alpha", "3", "--protocol", "adiabatic", "--method", "closed",
     "--zeta0", "1"],
], ids=["simulate-optimal", "simulate-constant", "simulate-custom", "efficiency-default",
        "efficiency-optimal", "efficiency-closed"])
def test_adiabatic_flags_without_an_adiabatic_run_exit_two(tmp_path, capsys, monkeypatch, argv):
    import doublelambda.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("propagated before the usage check")

    monkeypatch.setattr(cli, "propagate_reduced_chunks", refuse)
    monkeypatch.setattr(cli, "numerical_efficiency", refuse)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "--zeta0 and --zbar" in err


@pytest.mark.parametrize("protocol", ["optimal", "constant", "adiabatic"])
def test_profile_file_without_the_custom_protocol_exits_two(tmp_path, capsys, protocol):
    # refused before --out is opened: an existing file keeps its bytes
    table = tmp_path / "p.txt"
    table.write_text("0 1.5\n5 0.1\n")
    out = tmp_path / "traj.csv"
    out.write_bytes(b"earlier artefact\n")
    assert main(["simulate", "--protocol", protocol, "--alpha", "5",
                 "--profile-file", str(table), "--out", str(out)]) == 2
    assert out.read_bytes() == b"earlier artefact\n"
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "--profile-file" in err


ADIABATICITY_WARNING = ("warning: zbar <= 1/2 violates the adiabaticity condition "
                        "|dtheta/dzeta| << 1/2\n")


@pytest.mark.filterwarnings("default")  # the interpreter's default, not an error
@pytest.mark.parametrize("argv", [
    ["simulate", "--protocol", "adiabatic", "--alpha", "3"],
    ["efficiency", "--protocol", "adiabatic", "--method", "numeric", "--alpha", "3",
     "--alpha", "4"],
], ids=["simulate", "efficiency"])
def test_a_warning_prints_one_line_and_exits_zero(tmp_path, capsys, argv):
    # the efficiency run warns once per density; each distinct message is one line
    out = tmp_path / "out.csv"
    assert main(argv + ["--zbar", "0.3", "--out", str(out)]) == 0
    assert out.exists()
    assert capsys.readouterr().err == ADIABATICITY_WARNING


def test_adiabatic_flags_with_an_adiabatic_run_are_used(tmp_path):
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--alpha", "30", "--protocol", "adiabatic", "--protocol",
                 "optimal", "--method", "numeric", "--zeta0", "10", "--zbar", "2",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    eta = {r[1]: float(r[3]) for r in rows}
    assert eta["adiabatic"] == numerical_efficiency("adiabatic", 30.0, zeta0=10.0, zbar=2.0)
    assert eta["adiabatic"] != numerical_efficiency("adiabatic", 30.0)


# ---------------------------------------------------------------------------
# efficiency
# ---------------------------------------------------------------------------

def test_efficiency_curve_ordering_and_sorting(tmp_path):
    out = tmp_path / "eff.csv"
    assert main([
        "efficiency", "--alpha-min", "0.5", "--alpha-max", "100",
        "--alpha-steps", "200", "--method", "closed", "--out", str(out),
    ]) == 0
    header, rows = read_csv(out)
    assert header == ["alpha", "protocol", "eta_closed", "eta_numeric"]
    assert len(rows) == 400
    keys = [(r[1], float(r[0])) for r in rows]
    assert keys == sorted(keys)
    by_protocol = {"constant": [], "optimal": []}
    for r in rows:
        by_protocol[r[1]].append(float(r[2]))
    con, opt = np.array(by_protocol["constant"]), np.array(by_protocol["optimal"])
    assert np.all(opt >= con)
    assert np.all(np.diff(opt) > 0)
    assert np.all(np.diff(con) > 0)
    # numeric column empty in closed mode
    assert all(r[3] == "" for r in rows)


def test_efficiency_reference_rows(tmp_path):
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--alpha", "100", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    vals = {r[1]: (float(r[2]), float(r[3])) for r in rows}
    assert vals["optimal"][0] == pytest.approx(0.9094, abs=5e-4)
    assert vals["constant"][0] == pytest.approx(0.9077, abs=5e-4)
    for closed, numeric in vals.values():
        assert abs(closed - numeric) < 1e-6


@pytest.mark.parametrize("method", ["closed", "numeric", "both"])
def test_efficiency_bytes_match_csv_writer(tmp_path, method):
    alphas = [150.0, 0.05, 3.0]
    kinds = ["optimal", "adiabatic", "constant"]
    out = tmp_path / "curve.csv"
    argv = ["efficiency", "--method", method, "--out", str(out)]
    argv += [f for k in kinds for f in ("--protocol", k)]
    argv += [f for a in alphas for f in ("--alpha", repr(a))]
    assert main(argv) == 0

    def field(x):
        return None if x is None else repr(float(x))  # csv.writer writes None as ""

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha", "protocol", "eta_closed", "eta_numeric"])
    for kind in sorted(kinds):
        for alpha in sorted(alphas):
            closed = closed_efficiency(kind, alpha) if method != "numeric" else None
            numeric = numerical_efficiency(kind, alpha) if method != "closed" else None
            writer.writerow([repr(alpha), kind, field(closed), field(numeric)])
    assert out.read_bytes() == buf.getvalue().encode()


def test_efficiency_small_alpha_ratio(tmp_path):
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--alpha", "0.01", "--method", "closed",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    vals = {r[1]: float(r[2]) for r in rows}
    assert vals["optimal"] / vals["constant"] == pytest.approx(math.pi**2 / 4, rel=0.02)


def test_efficiency_adiabatic_has_no_closed_form(tmp_path):
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--protocol", "adiabatic", "--alpha", "100",
                 "--zbar", "5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[0][2] == ""
    assert float(rows[0][3]) == pytest.approx(0.8197, abs=5e-4)


def test_efficiency_usage_errors(tmp_path):
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--out", str(out)]) == 2  # no alphas given
    assert main(["efficiency", "--alpha-min", "0", "--alpha-max", "10",
                 "--out", str(out)]) == 2


@pytest.mark.parametrize("bounds", [
    ["--alpha-min", "2"], ["--alpha-max", "3"], ["--alpha-min", "2", "--alpha-max", "3"],
], ids=["min", "max", "both"])
def test_efficiency_alpha_with_a_range_exits_two(tmp_path, capsys, monkeypatch, bounds):
    # the range is refused, not silently dropped, before any efficiency is computed
    import doublelambda.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("computed before the usage check")

    monkeypatch.setattr(cli, "closed_efficiency", refuse)
    monkeypatch.setattr(cli, "numerical_efficiency", refuse)
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--alpha", "1", *bounds, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "--alpha" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag", ["--alpha-min", "--alpha-max"])
def test_efficiency_non_finite_range_exits_two(tmp_path, capsys, flag, value):
    # checked before the grid is built, so numpy warns about nothing
    bounds = {"--alpha-min": "1", "--alpha-max": "10", flag: value}
    out = tmp_path / "eff.csv"
    argv = ["efficiency", "--out", str(out)]
    for name, bound in bounds.items():
        argv += [name, bound]
    assert main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "InvalidAlpha" in err and flag in err


@pytest.mark.parametrize("bounds, flag", [
    (["--alpha-min", "0.5", "--alpha-max", "0", "--alpha-steps", "2"], "--alpha-max"),
    (["--alpha-min", "1", "--alpha-max", "-1", "--alpha-steps", "3"], "--alpha-max"),
    (["--alpha-min", "1e-320", "--alpha-max", "1", "--alpha-steps", "3"], "--alpha-min"),
    (["--alpha-min", "1", "--alpha-max", "1e-320", "--alpha-steps", "3"], "--alpha-max"),
])
@pytest.mark.parametrize("protocol", ["optimal", "adiabatic"])
def test_efficiency_invalid_range_bound_exits_two(tmp_path, capsys, bounds, flag, protocol):
    # each bound is checked like an explicit --alpha, so no density of the
    # grid between them is zero, negative or subnormal
    out = tmp_path / "eff.csv"
    assert main(["efficiency", *bounds, "--method", "closed", "--protocol", protocol,
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "InvalidAlpha" in err and flag in err


@pytest.mark.parametrize("steps", ["5", "0"])
def test_efficiency_alpha_steps_beside_explicit_alpha_exits_two(tmp_path, capsys, steps):
    # --alpha-steps sizes a range only: beside --alpha it is refused, not
    # ignored, whether or not it is in range
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--alpha", "1", "--alpha-steps", steps, "--method", "closed",
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--alpha-steps" in err and "not both" in err


def test_efficiency_range_defaults_to_two_hundred_densities(tmp_path):
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--alpha-min", "1", "--alpha-max", "2", "--method", "closed",
                 "--protocol", "constant", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 200 and (rows[0][0], rows[-1][0]) == ("1.0", "2.0")


def test_efficiency_range_up_to_the_largest_float(tmp_path, capsys):
    # linspace's last product overflows here before it is set to the bound;
    # that must not reach stderr as a numpy warning
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--alpha-min", repr(sys.float_info.max), "--alpha-max", "1",
                 "--alpha-steps", "4", "--method", "closed", "--protocol", "adiabatic",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    alphas = [float(r[0]) for r in rows]
    assert len(alphas) == 4 and alphas[0] == 1.0 and alphas[-1] == sys.float_info.max
    assert all(math.isfinite(a) for a in alphas)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["inf", "nan", "0", "1e-320"])
@pytest.mark.parametrize("protocol", ["constant", "adiabatic"])
def test_efficiency_invalid_explicit_alpha_exits_two(tmp_path, capsys, protocol, value):
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--alpha", value, "--method", "closed",
                 "--protocol", protocol, "--out", str(out)]) == 2
    assert not out.exists()
    assert "InvalidAlpha" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cap", [
    (["efficiency", "--alpha-min", "1", "--alpha-max", "2",
      "--alpha-steps", str(MAX_ALPHA_STEPS + 1)], MAX_ALPHA_STEPS),
    (["verify", "--alpha", "1", "--samples", str(MAX_SAMPLES + 1)], MAX_SAMPLES),
    (["search", "--alpha", "10", "--segments", str(MAX_SEGMENTS + 1)], MAX_SEGMENTS),
])
def test_size_caps_exit_two_before_allocating(tmp_path, capsys, argv, cap):
    # one float per unit of the size would already be 8 * cap bytes
    out = tmp_path / "out.json"
    build_parser()
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cap) in err
    assert peak < 8 * cap / 4


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_alpha_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--alpha", "1", "--alpha", "10", "--samples", "200",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "oracle_equivalence_optimal" in names
    assert "pmp_switching_function" in names
    assert "dominance_sampled" in names
    assert all(c["status"] != "fail" for c in report["checks"])


def test_verify_default_alphas_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--samples", "200", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["alphas"] == [1.0, 10.0, 100.0]
    assert report["passed"] is True


def test_verify_solves_its_three_exact_runs_once_per_chunk(tmp_path, monkeypatch):
    # at alpha = 2 the three exact runs take 20 steps each, one chunk: one
    # steady-state solve over their 3 x 21 nodes and 3 x 20 midpoints
    from doublelambda import propagation

    points = []
    solve = propagation.steady_coherences

    def counting(fields, rates):
        points.append(np.shape(fields.omega_c))
        return solve(fields, rates)

    monkeypatch.setattr(propagation, "steady_coherences", counting)
    out = tmp_path / "report.json"
    assert main(["verify", "--alpha", "2", "--samples", "2", "--out", str(out)]) == 0
    assert points == [(123,)]


def test_verify_rejects_zero_alpha(tmp_path, capsys):
    for value in ("0", "-1", "inf", "nan", "1e-320"):
        assert main(["verify", "--alpha", value]) == 2
        assert "InvalidAlpha" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1e-5", "1e-3", "0.01", "0.03"])
def test_verify_tiny_alpha_writes_full_report(tmp_path, alpha):
    # the arc keeps enough steps for the five-point costate stencil
    out = tmp_path / "report.json"
    assert main(["verify", "--alpha", alpha, "--samples", "20", "--out", str(out)]) in (0, 1)
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert len(checks) == 14
    assert all(math.isfinite(c["value"]) for c in checks.values())
    assert checks["pmp_adjoint_fd"]["status"] == "pass"


def test_verify_step_cap_exits_two_before_any_propagation(monkeypatch, capsys):
    # the dissipation-order run and the arc would exceed the cap at this alpha
    import doublelambda.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("propagated before checking the step cap")

    monkeypatch.setattr(cli, "propagate_exact_finals", unreachable)
    assert main(["verify", "--alpha", "1.3e5", "--samples", "2"]) == 2
    assert "RK4 steps requested" in capsys.readouterr().err


@pytest.mark.parametrize("alpha, resolution, stage", [
    ("1.01e5", "10", "the singular-arc check"),  # 1.01e7 arc steps
    ("2000", "1000", "the dissipation order"),   # 1.6e7 steps in its finest run
    ("2000", "1e4", "the routes"),               # 2e7 steps per route
])
def test_verify_step_cap_names_the_stage(monkeypatch, capsys, alpha, resolution, stage):
    import doublelambda.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("propagated before checking the step cap")

    monkeypatch.setattr(cli, "propagate_exact_finals", unreachable)
    assert main(["verify", "--alpha", alpha, "--steps-per-unit", resolution]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: DoubleLambdaError: {stage}: ") and "RK4 steps requested" in err


@pytest.mark.parametrize("command", [["verify", "--alpha", "1"],
                                     ["search", "--alpha", "10", "--out", "x.json"]],
                         ids=["verify", "search"])
def test_negative_seed_exits_two_before_any_work(monkeypatch, capsys, command):
    import doublelambda.cli as cli
    import doublelambda.pmp_search as pmp_search

    def unreachable(*args, **kwargs):
        raise AssertionError("worked before checking the seed")

    monkeypatch.setattr(cli, "propagate_exact_finals", unreachable)
    # the search's objective: the seed is checked inside optimize_piecewise
    monkeypatch.setattr(pmp_search, "piecewise_efficiency_and_grad", unreachable)
    assert main([*command, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "InvalidSearchSettings: seed must be non-negative" in err


@pytest.mark.parametrize("alpha", ["1e-307", "1.3e-307"])
def test_verify_overflowing_samples_exit_two_before_any_work(monkeypatch, capsys, alpha):
    # segments of alpha/16 under 16 (pi/2)/max_float: a sampled slope may overflow
    import doublelambda.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("worked before checking the sample bound")

    for name in ("propagate_exact_finals", "propagate_reduced_finals", "dissipation_order",
                 "verify_singular_arc", "sampled_profile_efficiencies"):
        monkeypatch.setattr(cli, name, unreachable)
    assert main(["verify", "--alpha", alpha, "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "NonFinite" in err
    assert repr(16 * (math.pi / 2) / sys.float_info.max) in err


@pytest.mark.parametrize("second, message", [
    ("1e7", "RK4 steps requested"),
    ("1e-307", repr(16 * (math.pi / 2) / sys.float_info.max)),
], ids=["step-cap", "sampled-slope"])
def test_verify_checks_every_alpha_before_any_work(monkeypatch, capsys, second, message):
    # the second density fails its pre-flight: the first must not be verified first
    import doublelambda.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("verified a density before checking them all")

    monkeypatch.setattr(cli, "propagate_exact_finals", unreachable)
    assert main(["verify", "--alpha", "1", "--alpha", second, "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("command", [
    ["search", "--alpha", "3e-308", "--segments", "64"],
    ["verify", "--alpha", "1e-307"],
])
def test_subnormal_segments_exit_two_with_one_line(tmp_path, capsys, command):
    # segments shorter than the smallest normal float: a slope overflows to
    # inf and the angle change it stood for cannot be recovered
    out = tmp_path / "out.json"
    assert main(command + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "NonFinite" in err


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_rejects_samples_below_one(tmp_path, capsys, samples):
    out = tmp_path / "report.json"
    assert main(["verify", "--alpha", "1", "--samples", samples, "--out", str(out)]) == 2
    assert not out.exists()
    assert "InvalidSearchSettings: n_profiles must be in [1, " in capsys.readouterr().err


def test_verify_coarse_steps_warn_not_fail(tmp_path):
    # deliberately coarse integration: any out-of-band convergence estimate
    # may only warn, never fail the run
    out = tmp_path / "report.json"
    code = main(["verify", "--alpha", "5", "--samples", "50",
                 "--steps-per-unit", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    accuracy_checks = ("dissipation_order", "closed_vs_numeric_optimal",
                       "closed_vs_numeric_constant")
    seen = 0
    for c in report["checks"]:
        if c["name"] in accuracy_checks:
            assert c["status"] in ("pass", "warning")
            seen += 1
    assert seen == 3


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_outputs_and_reload(tmp_path):
    out = tmp_path / "search.json"
    prof_out = tmp_path / "best_profile.txt"
    code = main([
        "search", "--alpha", "100", "--segments", "8", "--budget", "20000",
        "--seed", "1", "--out", str(out), "--profile-out", str(prof_out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["efficiency"] <= report["closed_form_optimum"] + 1e-9
    assert len(report["knots"]) == 9

    # reload the emitted table as a custom protocol; efficiencies agree
    sim_out = tmp_path / "sim.csv"
    assert main(["simulate", "--protocol", "custom", "--profile-file", str(prof_out),
                 "--alpha", "100", "--out", str(sim_out)]) == 0
    with open(sim_out, newline="") as fh:
        rows = list(csv.reader(fh))
    eff_reloaded = float(rows[-1][7])
    assert abs(eff_reloaded - report["efficiency"]) < 1e-4


def test_search_bit_identical_reruns(tmp_path):
    args = ["search", "--alpha", "20", "--segments", "6", "--budget", "4000",
            "--seed", "9"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--out", str(out1), "--profile-out", str(p1)]) == 0
    assert main(args + ["--out", str(out2), "--profile-out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    j1 = json.loads(out1.read_text())
    j2 = json.loads(out2.read_text())
    j1.pop("profile_file")
    j2.pop("profile_file")
    assert j1 == j2


def test_search_long_segments_exit_zero(tmp_path):
    # two segments of length 3000 each go through the overflow-safe
    # segment propagator
    out = tmp_path / "s.json"
    assert main(["search", "--alpha", "6000", "--segments", "2", "--budget", "500",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert 0.0 <= rep["efficiency"] <= rep["closed_form_optimum"] + 1e-9


def test_search_at_huge_alpha_exit_zero(tmp_path):
    # the closed-form optimum stays defined where theta0 rounds to pi/2
    out = tmp_path / "s.json"
    assert main(["search", "--alpha", "1e300", "--segments", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert 0.0 <= rep["efficiency"] <= rep["closed_form_optimum"] <= 1.0


def test_search_at_tiny_alpha_exit_zero(tmp_path):
    # slopes of order 1/alpha, whose squares overflow in the segment exponential
    out = tmp_path / "s.json"
    assert main(["search", "--alpha", "1e-300", "--segments", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert 0.0 <= rep["efficiency"] <= rep["closed_form_optimum"] + 1e-12


@pytest.mark.parametrize("bad", [
    ["--segments", "1"],
    ["--budget", "0"],
    ["--alpha", "0"],
    ["--alpha", "-5"],
    ["--starts", "0"],
])
def test_search_invalid_inputs_exit_two_before_work(tmp_path, capsys, bad):
    out = tmp_path / "s.json"
    args = ["search", "--alpha", "10", "--segments", "4", "--budget", "100",
            "--out", str(out)]
    # argparse keeps the last occurrence of a repeated scalar option
    assert main(args + bad) == 2
    assert not out.exists()
    assert not (tmp_path / "s_profile.txt").exists()
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism of file outputs
# ---------------------------------------------------------------------------

def test_simulate_and_efficiency_bit_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["simulate", "--protocol", "optimal", "--alpha", "30",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for out in (c, d):
        assert main(["efficiency", "--alpha-min", "1", "--alpha-max", "20",
                     "--alpha-steps", "10", "--out", str(out)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_verify_report_identical_across_reruns(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"rep_{tag}.json"
        assert main(["verify", "--alpha", "2", "--alpha", "8", "--samples", "100",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_without_alpha_exits_two(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--protocol", "constant", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--alpha is required" in err


def test_output_in_missing_directory_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "eff.csv"
    assert main(["efficiency", "--alpha", "1", "--method", "closed", "--out", str(out)]) == 2
    assert not out.parent.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out) in err


def test_verify_without_out_prints_the_report(capsys):
    assert main(["verify", "--alpha", "1", "--samples", "10"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["alphas"] == [1.0] and report["passed"] is True
    assert captured.err == ""


def run_python(*argv):
    """``python argv`` in a fresh interpreter, on this package."""
    src = Path(doublelambda.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *argv],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=60)


def run_module(*argv):
    """``python -m doublelambda argv`` in a fresh interpreter, on this package."""
    return run_python("-m", "doublelambda", *argv)


def test_simulate_peak_memory_does_not_follow_the_trajectory(tmp_path):
    # Streamed chunk by chunk, simulate holds only the grid whole (8 bytes a
    # row, 2.4 MB at alpha = 3e4).  Holding the trajectory before writing it
    # took 32 bytes a row, about 9 MiB more at 3e4 than at 100.  Linux keeps
    # a process's peak RSS across exec, so a child started from this test
    # process would report at least its peak; a small launcher reads the
    # ru_maxrss of its own simulate child instead.
    launcher = ("import resource, subprocess, sys\n"
                "subprocess.run([sys.executable, '-m', 'doublelambda', *sys.argv[1:]],"
                " check=True)\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")

    def peak_kib(alpha):
        result = run_python("-c", launcher, "simulate", "--alpha", alpha,
                            "--out", str(tmp_path / "traj.csv"))
        assert result.returncode == 0, result.stderr
        return int(result.stdout)

    assert peak_kib("3e4") - peak_kib("100") < 4 * 1024


def test_verify_peak_memory_does_not_follow_alpha(tmp_path):
    # Each verify stage streams its runs and keeps at most
    # pmp_search.ARC_RETAINED_STEPS forward arc states (1 MiB); at 3e3 the
    # arc's 3e5 steps pass that, so its backward run integrates the chunks
    # before them again.  Holding whole trajectories, the 3e3 run peaked
    # about 31 MiB above the run at 100.  The launcher is that of
    # test_simulate_peak_memory_does_not_follow_the_trajectory.
    # The verify child may exit 1 (dissipation_order fails from alpha = 1e3).
    launcher = ("import resource, subprocess, sys\n"
                "child = subprocess.run([sys.executable, '-m', 'doublelambda', *sys.argv[1:]],"
                " stdout=subprocess.DEVNULL)\n"
                "print(child.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")

    def peak_kib(alpha):
        result = run_python("-c", launcher, "verify", "--alpha", alpha, "--samples", "10",
                            "--out", str(tmp_path / "report.json"))
        code, peak = map(int, result.stdout.split())
        assert code in (0, 1) and result.stderr == "", result.stderr
        return peak

    assert peak_kib("3e3") - peak_kib("100") < 4 * 1024


def test_a_warning_raised_as_an_error_exits_two(tmp_path):
    out = tmp_path / "t.csv"
    result = run_python("-W", "error", "-m", "doublelambda", "simulate", "--protocol",
                        "adiabatic", "--alpha", "10", "--zbar", "0.3", "--out", str(out))
    assert result.returncode == 2 and not out.exists()
    assert result.stderr == "error: UserWarning: " + ADIABATICITY_WARNING[len("warning: "):]


def test_module_entry_point_writes_a_curve(tmp_path):
    out = tmp_path / "eff.csv"
    result = run_module("efficiency", "--alpha", "1", "--method", "closed", "--out", str(out))
    assert result.returncode == 0 and result.stderr == ""
    header, rows = read_csv(out)
    assert header == ["alpha", "protocol", "eta_closed", "eta_numeric"]
    assert [r[:2] for r in rows] == [["1.0", "constant"], ["1.0", "optimal"]]


def test_module_entry_point_exits_two_on_a_usage_error(tmp_path):
    out = tmp_path / "eff.csv"
    result = run_module("efficiency", "--alpha-min", "1", "--alpha-max", "10",
                        "--alpha-steps", "1", "--out", str(out))
    assert result.returncode == 2 and not out.exists()
    assert result.stderr.count("\n") == 1 and "--alpha-steps" in result.stderr


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--protocol", "bogus", "--alpha", "1", "--out", "x.csv"])
    assert exc.value.code == 2
    assert main(["simulate", "--protocol", "custom", "--out", "/tmp/x.csv"]) == 2
    with pytest.raises(SystemExit) as exc:  # search has no RK4 resolution
        main(["search", "--alpha", "10", "--segments", "4", "--steps-per-unit", "3",
              "--out", "x.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["simulate", "efficiency"])
def test_non_finite_zeta0_exits_two(tmp_path, capsys, command, value):
    out = tmp_path / "out.csv"
    assert main([command, "--protocol", "adiabatic", "--alpha", "10", "--zeta0", value,
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "NonFinite" in capsys.readouterr().err


@pytest.mark.parametrize("spu", ["inf", "nan"])
@pytest.mark.parametrize("command", [
    ["simulate", "--alpha", "10"],
    ["efficiency", "--alpha", "10"],
    ["verify", "--alpha", "10", "--samples", "10"],
])
def test_non_finite_resolution_exits_two(tmp_path, capsys, command, spu):
    out = tmp_path / "out"
    assert main(command + ["--steps-per-unit", spu, "--out", str(out)]) == 2
    assert not out.exists()
    assert "steps_per_unit" in capsys.readouterr().err


def test_simulate_step_cap_exits_two_before_allocating(tmp_path, capsys):
    # the default 10 steps per unit would need 1e8 steps at alpha = 1e7
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--alpha", "1e7", "--out", str(out)]) == 2
    assert not out.exists()
    assert "RK4 steps requested" in capsys.readouterr().err


def test_parser_built_once_without_leaking_appended_values(tmp_path):
    assert build_parser() is build_parser()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["efficiency", "--alpha", "1", "--alpha", "2", "--protocol", "optimal",
                 "--protocol", "constant", "--method", "closed", "--out", str(a)]) == 0
    assert main(["efficiency", "--alpha", "3", "--protocol", "constant",
                 "--method", "closed", "--out", str(b)]) == 0
    _, rows_a = read_csv(a)
    _, rows_b = read_csv(b)
    assert [(r[0], r[1]) for r in rows_a] == [
        ("1.0", "constant"), ("2.0", "constant"), ("1.0", "optimal"), ("2.0", "optimal"),
    ]
    assert [(r[0], r[1]) for r in rows_b] == [("3.0", "constant")]


def test_cached_parser_dispatches_to_rebound_handler(monkeypatch):
    import doublelambda.cli as cli

    build_parser()
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: 7)
    assert main(["simulate", "--alpha", "1", "--out", "unused.csv"]) == 7


# ---------------------------------------------------------------------------
# rewriting existing artefacts in place
# ---------------------------------------------------------------------------

REWRITE_COMMANDS = {
    "simulate": ["simulate", "--alpha", "3", "--out", "a.out"],
    "efficiency": ["efficiency", "--alpha", "1", "--alpha", "5", "--method", "both",
                   "--out", "a.out"],
    "verify": ["verify", "--alpha", "2", "--samples", "20", "--out", "a.out"],
    # relative paths: the JSON names its profile table as given
    "search": ["search", "--alpha", "10", "--segments", "4", "--budget", "50",
               "--out", "a.out", "--profile-out", "a_profile.out"],
}


def run_in(directory, argv, monkeypatch):
    """``main(argv)`` with ``directory`` as the working directory; the
    artefacts' bytes by name."""
    directory.mkdir(exist_ok=True)
    monkeypatch.chdir(directory)
    assert main(argv) == 0
    return {p.name: p.read_bytes() for p in directory.glob("*.out")}


@pytest.mark.parametrize("junk", ["longer", "shorter"])
@pytest.mark.parametrize("command", sorted(REWRITE_COMMANDS))
def test_rewrite_over_an_existing_artefact_equals_a_fresh_write(tmp_path, monkeypatch,
                                                                capsys, command, junk):
    argv = REWRITE_COMMANDS[command]
    fresh = run_in(tmp_path / "fresh", argv, monkeypatch)
    assert fresh and all(fresh.values())
    stale = tmp_path / "stale"
    stale.mkdir()
    for name, data in fresh.items():
        size = len(data) + 4097 if junk == "longer" else len(data) // 2
        (stale / name).write_bytes(b"#" * size)
    assert run_in(stale, argv, monkeypatch) == fresh


def test_simulate_that_raises_mid_write_leaves_only_what_it_wrote(tmp_path, monkeypatch,
                                                                  capsys):
    import doublelambda._floatrepr as floatrepr
    from doublelambda.errors import NonFinite
    from doublelambda.propagation import _BLOCK

    argv = ["simulate", "--alpha", "200"]  # 2001 rows: two chunks
    full = tmp_path / "full.csv"
    assert main(argv + ["--out", str(full)]) == 0
    lines = full.read_bytes().splitlines(keepends=True)
    out = tmp_path / "traj.csv"
    out.write_bytes(full.read_bytes() + b"stale tail\n")

    real, calls = floatrepr.format_rows, []

    def failing(block):
        calls.append(len(block))
        if len(calls) == 2:
            raise NonFinite("second chunk")
        return real(block)

    monkeypatch.setattr(floatrepr, "format_rows", failing)
    assert main(argv + ["--out", str(out)]) == 2
    assert "NonFinite: second chunk" in capsys.readouterr().err
    assert calls == [_BLOCK + 1, 2000 - _BLOCK]
    assert out.read_bytes() == b"".join(lines[:1 + _BLOCK + 1])


def test_artefacts_to_dev_null_exit_zero(capsys):
    assert main(["simulate", "--alpha", "3", "--out", os.devnull]) == 0
    # two artefacts on one non-regular file are not a clash
    assert main(["search", "--alpha", "10", "--segments", "4", "--budget", "50",
                 "--out", os.devnull, "--profile-out", os.devnull]) == 0


def test_simulate_into_a_pipe(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--alpha", "3", "--out", str(out)]) == 0
    result = run_module("simulate", "--alpha", "3", "--out", "/dev/stdout")
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout == out.read_text()


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_new_artefact_gets_the_permissions_of_a_plain_open(tmp_path, umask):
    out, ref = tmp_path / "eff.csv", tmp_path / "ref.csv"
    old = os.umask(umask)
    try:
        assert main(["efficiency", "--alpha", "1", "--method", "closed",
                     "--out", str(out)]) == 0
        open(ref, "w").close()
    finally:
        os.umask(old)
    assert out.stat().st_mode == ref.stat().st_mode == 0o100666 & ~umask


def test_search_with_one_path_for_both_artefacts_exits_two_before_work(tmp_path, capsys,
                                                                        monkeypatch):
    import doublelambda.cli as cli

    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(cli, "optimize_piecewise", no_search)
    out = tmp_path / "P"
    argv = ["search", "--alpha", "10", "--segments", "4", "--budget", "50", "--out", str(out)]
    assert main(argv + ["--profile-out", str(out)]) == 2
    assert not out.exists()
    # the same new file spelt two ways
    assert main(argv + ["--profile-out", str(tmp_path / "." / "P")]) == 2
    assert not out.exists()
    # an existing profile path hard-linked to the JSON's
    out.write_text("old\n")
    os.link(out, tmp_path / "Q")
    assert main(argv + ["--profile-out", str(tmp_path / "Q")]) == 2
    assert out.read_text() == "old\n"
    err = capsys.readouterr().err
    assert err.count("\n") == 3
    assert all(line.startswith("error: DoubleLambdaError: --out and --profile-out name "
                               "the same file") for line in err.splitlines())


def test_distinct_new_paths_are_not_resolved(tmp_path, monkeypatch):
    # resolving a path costs an lstat per component; two new paths with
    # different base names, neither a link, cannot name one file
    import doublelambda.cli as cli

    real, resolved = os.path.realpath, []

    def counting(path, *args, **kwargs):
        resolved.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(os.path, "realpath", counting)
    cli._check_distinct({"--out": str(tmp_path / "a.json"),
                         "--profile-out": str(tmp_path / "a_profile.txt")})
    assert resolved == []
    # the same base name in two directories, one a link to the other
    (tmp_path / "d").mkdir()
    (tmp_path / "e").symlink_to(tmp_path / "d")
    with pytest.raises(cli.DoubleLambdaError, match="name the same file"):
        cli._check_distinct({"--out": str(tmp_path / "d" / "P"),
                             "--profile-out": str(tmp_path / "e" / "P")})
    assert len(resolved) == 2
    # a dangling link to the other new path
    (tmp_path / "L").symlink_to(tmp_path / "Q")
    with pytest.raises(cli.DoubleLambdaError, match="name the same file"):
        cli._check_distinct({"--out": str(tmp_path / "Q"), "--profile-out": str(tmp_path / "L")})
    assert not (tmp_path / "Q").exists()


@pytest.mark.parametrize("alias", ["same", "symlink"])
def test_simulate_over_its_own_profile_table_exits_two(tmp_path, capsys, alias):
    table = tmp_path / "T"
    table.write_text("0 1.4\n10 0.1\n")
    out = table
    if alias == "symlink":
        out = tmp_path / "L"
        out.symlink_to(table)
    assert main(["simulate", "--protocol", "custom", "--profile-file", str(table),
                 "--out", str(out)]) == 2
    assert table.read_text() == "0 1.4\n10 0.1\n"
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: DoubleLambdaError: --profile-file and --out name the same")


@pytest.mark.parametrize("exc", [OverflowError("x"), FloatingPointError("x"),
                                 ZeroDivisionError("x"), np.linalg.LinAlgError("x")],
                         ids=lambda e: type(e).__name__)
def test_arithmetic_and_linalg_errors_exit_two_with_one_line(monkeypatch, capsys, exc):
    import doublelambda.cli as cli

    def handler(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_efficiency", handler)
    assert main(["efficiency", "--alpha", "1", "--out", "unused.csv"]) == 2
    assert capsys.readouterr().err == f"error: {type(exc).__name__}: x\n"
