"""The formatter's cached workspace: no stale bytes, no per-piece allocations."""

import math
import tracemalloc

import numpy as np
import pytest

from doublelambda._floatrepr import CAPACITY, _workspace, format_rows, value_block
from doublelambda.errors import NonFinite


def reference(block):
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


def assert_formats(block):
    assert bytes(format_rows(block)) == reference(block)


def test_one_workspace_per_process():
    assert _workspace() is _workspace()
    assert np.shares_memory(value_block(512, 9), _workspace().values)


def test_blocks_back_to_back_through_the_cached_workspace():
    rng = np.random.default_rng(11)
    # a full piece, then shorter ones over its leftovers
    for rows in (512, 37, 1):
        assert_formats(rng.uniform(-1e3, 1e3, (rows, 9)))
    # exponent fields, signed zeros and subnormals right after fixed notation
    assert_formats(np.round(rng.uniform(0.0, 1e3, (512, 9)), 2))
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1e-300, -1.5e300, 1e16, 1.7976931348623157e308])
    assert_formats(np.tile(special, (40, 1)) * rng.choice([1.0, -1.0], (40, 9)))
    # one and two columns: every field ends a row, or every other one
    for cols in (1, 2, 9, 1):
        assert_formats(rng.uniform(-1.0, 1.0, (300, cols)))


@pytest.mark.parametrize("cols", [1, 5, 7, 9, 13])
def test_blocks_larger_than_the_workspace(cols):
    # pieces of CAPACITY values split the rows of most widths mid-row
    rng = np.random.default_rng(cols)
    rows = 2 * CAPACITY // cols + 3
    values = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-20, 20, (rows, cols))
    assert_formats(values)


def test_value_block_is_formatted_in_place():
    block = value_block(3, 9)
    block[:] = np.arange(27.0).reshape(3, 9) / 8
    assert bytes(format_rows(block)) == reference(np.arange(27.0).reshape(3, 9) / 8)
    with pytest.raises(ValueError):
        value_block(CAPACITY // 9 + 1, 9)


def test_non_finite_entry_after_a_good_block_raises():
    assert_formats(np.ones((4, 9)))
    block = np.ones((4, 9))
    block[3, 8] = math.nan
    with pytest.raises(NonFinite):
        format_rows(block)
    assert_formats(np.full((2, 9), 0.5))


@pytest.mark.parametrize("block", [
    np.random.default_rng(3).integers(0, 2**62, CAPACITY, dtype=np.uint64).view(np.float64),
    0.001 * np.arange(CAPACITY),
], ids=["random-bits", "thousandths"])
def test_warm_piece_allocates_little_beyond_its_text(block):
    # Measured on a warm workspace: 2.6-2.8 KiB beyond the returned text for
    # a full piece, against 760-840 KiB when every intermediate was a fresh
    # numpy temporary.
    block = block.reshape(-1, 9)
    format_rows(block)
    tracemalloc.start()
    try:
        text = format_rows(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bytes(text) == reference(block)
    assert peak - len(text) < 8 * 1024
