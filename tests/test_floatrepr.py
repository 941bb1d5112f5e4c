"""The vectorised float formatter writes exactly the bytes of ``repr``."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import doublelambda
from doublelambda._floatrepr import format_rows
from doublelambda.errors import NonFinite


def reference(block):
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


def assert_repr_bytes(values, cols=9):
    """Format ``values`` in rows of ``cols`` (the last row padded with 1.0)."""
    values = np.asarray(values, dtype=np.float64).ravel()
    block = np.concatenate([values, np.ones(-len(values) % cols)]).reshape(-1, cols)
    got = bytes(format_rows(block))
    want = reference(block)
    if got != want:
        bad = [(g, w) for g, w in zip(got.replace(b"\n", b",").split(b","),
                                      want.replace(b"\n", b",").split(b",")) if g != w]
        pytest.fail(f"{len(bad)} fields differ from repr, first {bad[:5]}")


def with_neighbours(values):
    values = [float(v) for v in values]
    return [w for v in values
            for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


def test_random_bit_patterns():
    bits = np.random.default_rng(20201212).integers(0, 2**64, 120_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert len(values) >= 100_000 and (values < 0).any() and (values > 0).any()
    assert_repr_bytes(values)


def test_random_values_of_fixed_and_nearby_magnitudes():
    rng = np.random.default_rng(7)
    magnitudes = 10.0 ** rng.uniform(-7, 19, 100_000)
    assert_repr_bytes(rng.choice([-1.0, 1.0], 100_000) * rng.random(100_000) * magnitudes)


def test_powers_of_two_and_neighbours():
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    values = with_neighbours(powers)
    assert_repr_bytes(values + [-v for v in values])


def test_extremes():
    tiny = 5e-324
    assert_repr_bytes([0.0, -0.0, tiny, -tiny, 2.225073858507201e-308,    # subnormal ends
                       2.2250738585072014e-308, -2.2250738585072014e-308,  # smallest normal
                       sys.float_info.max, -sys.float_info.max, 1.0, -1.0])


def test_integers():
    around = [2.0**53 + i for i in range(-2000, 2001)] + [2.0**54 + 2 * i for i in range(-99, 100)]
    assert_repr_bytes(around + [float(i) for i in range(-1000, 10_001)])


def test_switches_between_fixed_and_exponent_notation():
    assert_repr_bytes(with_neighbours([1e-4, 1e-5, 9999999999999998.0, 1e16, 1e17,
                                       1234567890123456.7, 0.00012345678901234567]))


def test_two_and_three_digit_exponents():
    assert_repr_bytes(with_neighbours([1e99, 1e100, 1e-99, 1e-100, 1e22, 1e23,
                                       -1e99, -1e100, -1e-99, -1e-100, 1.5e-300, 1.7e308]))


def test_thousandths():
    assert_repr_bytes(0.001 * np.arange(100_000))


@pytest.mark.parametrize("cols", [1, 2, 9])
def test_row_layout(cols):
    values = np.linspace(-3.0, 7.0, 6 * cols).reshape(6, cols)
    assert bytes(format_rows(values)) == reference(values)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_entry_raises(bad):
    block = np.ones((4, 9))
    block[2, 5] = bad
    with pytest.raises(NonFinite):
        format_rows(block)


def test_cli_import_leaves_formatter_unloaded():
    src = Path(doublelambda.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, doublelambda.cli; print('doublelambda._floatrepr' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"
