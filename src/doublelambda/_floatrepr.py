"""Shortest round-trip text of a float64 block, byte for byte ``repr``.

:func:`format_rows` turns a ``(rows, cols)`` block of finite float64 values
into exactly the bytes of ``"".join(",".join(map(repr, row)) + "\\n" for row
in block)``, with the whole block handled by numpy at once instead of one
``repr`` call per value.  A NaN or infinite entry raises
:class:`~doublelambda.errors.NonFinite`.

Digits come from the Schubfach algorithm (R. Giulietti, "The Schubfach way
to render doubles", 2020), vectorised in ``uint64``: each value's shortest
decimal significand is chosen from three round-to-odd products of its binary
significand with a 128-bit multiplier ⌊10^e·2^-r⌋ + 1, summed in 32-bit
limbs, and trailing zeros are stripped.  No separate integer path is
needed: below 2^53 the rounding interval is at most ±½ wide, so an integral
value is its own shortest decimal, which the general path returns.  The
digits are laid out by CPython's ``repr`` rules: fixed notation while the
decimal point sits at position -3 … 16
(``0.001``, ``1234.5``, ``9999999999999998.0``), otherwise ``d.ddde±XX``
with at least two exponent digits; ``.0`` on integral values, a leading
``-``, and ``0.0``/``-0.0``.  Each field is built in a 32-byte slot whose
unused bytes hold 0, and one mask over the block drops those bytes.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonFinite

_U64 = np.uint64

#: Decimal exponents of the Schubfach multipliers: every finite float64 has
#: its binary exponent q in [-1074, 971], which needs 10^e for e = -⌊q·log10 2⌋
#: (or ⌊log10 ¾·2^q⌋) in this range.
_E_MIN, _E_MAX = -292, 324

#: Digit cells of a field: up to 17 significant digits behind the leading
#: zeros of ``0.000ddd``, right-aligned in slot bytes 3..23; the cells after
#: the decimal point move one byte right to make room for it.
_CELLS = 21

#: Exponent table rows: 10^-324 … 10^308, then one row for fixed notation.
_EXPONENTS = 308 + 324 + 2

_POW10 = np.array([10 ** i for i in range(20)], dtype=_U64)


@functools.cache
def _tables():
    """Digit-search rows, slot masks and exponent words, built on first use."""
    # Schubfach multipliers g = ⌊10^e·2^-r⌋ + 1, with r chosen so that
    # 2^127 <= 10^e·2^-r < 2^128, as two 64-bit words; ⌊log2 10^e⌋
    mult, flog2 = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        if e >= 0:
            fl = (10 ** e).bit_length() - 1
            g = (10 ** e << max(127 - fl, 0) >> max(fl - 127, 0)) + 1
        else:
            fl = -(10 ** -e).bit_length()
            g = (1 << (127 - fl)) // 10 ** -e + 1
        mult.append([g >> 64, g & (2 ** 64 - 1)])
        flog2.append(fl)
    mult, flog2 = np.array(mult, dtype=_U64), np.array(flog2)
    # What the digit search needs of a value depends only on its exponent
    # field and on whether its significand field is zero (then, above the
    # subnormals, the lower neighbour is at half the gap): a row each of g's
    # words, of the shifts t for which g·2^t is the distance from g·4c·2^h to
    # the upper and to the lower interval end (t = h + 1, one less below a
    # closer lower neighbour), and of k.
    biased = np.arange(4096) % 2048
    half = (np.arange(4096) >= 2048) & (biased > 1)
    q = np.maximum(biased, 1) - 1075
    k = (q * 1262611 - half * 524031) >> 22             # ⌊log10 2^q⌋ or ⌊log10 ¾·2^q⌋
    h = q + flog2[-k - _E_MIN] + 1
    search = np.concatenate([mult[-k - _E_MIN].T, np.array([h + 1, h + 1 - half, k]).astype(_U64)])

    # Slot masks by (visible cells, fraction cells, sign): bytes of the digit
    # string to keep in place, bytes to take from the string moved one byte
    # right (the fraction), and bytes to set (point and sign).
    masks = np.zeros((_CELLS + 1, _CELLS, 2, 3, 32), dtype=np.uint8)
    for visible in range(1, _CELLS + 1):
        for frac in range(visible):
            first, point = _CELLS - visible, _CELLS - frac
            keep, moved, put = masks[visible, frac].transpose(1, 0, 2)
            keep[:, 3 + first:3 + point] = 255
            moved[:, 4 + point:4 + _CELLS] = 255
            if frac:
                put[:, 3 + point] = ord(".")
            put[1, 2 + first] = ord("-")
    masks = masks.view(_U64).reshape(-1, 3, 4).transpose(1, 2, 0).copy()

    # exponent and separator from byte 25 on: "e-05," or "e+100\n"; a
    # fixed-notation field gets the separator alone
    exps = np.zeros((2, _EXPONENTS, 8), dtype=np.uint8)
    for e in range(-324, 309):
        text = f"e{e:+03d}"
        exps[:, e + 324, 1:1 + len(text)] = list(text.encode())
        exps[0, e + 324, 1 + len(text)] = ord(",")
        exps[1, e + 324, 1 + len(text)] = ord("\n")
    exps[0, -1, 1] = ord(",")
    exps[1, -1, 1] = ord("\n")
    return search, masks, exps.view(_U64).reshape(-1)


def _product(high, low, cp):
    """``g·cp`` for ``g`` = high·2^64 + low and ``cp`` < 2^60.

    Returns the words of ``⌊g·cp / 2^64⌋`` (above and below 2^128) and
    ``g·cp mod 2^64``; the product is summed in 32-bit columns.
    """
    g0, g1, g2, g3 = low & 0xFFFFFFFF, low >> 32, high & 0xFFFFFFFF, high >> 32
    c0, c1 = cp & 0xFFFFFFFF, cp >> 32
    p = g0 * c0
    low = p & 0xFFFFFFFF
    col = p >> 32                           # column 2^32
    p = g1 * c0
    col += p & 0xFFFFFFFF
    hi = p >> 32
    p = g0 * c1
    col += p & 0xFFFFFFFF
    hi += p >> 32
    low |= col << 32
    col = hi + (col >> 32)                  # column 2^64
    p = g2 * c0
    col += p & 0xFFFFFFFF
    hi = p >> 32
    p = g1 * c1
    col += p & 0xFFFFFFFF
    hi += p >> 32
    mid = col & 0xFFFFFFFF
    col = hi + (col >> 32)                  # column 2^96
    p = g3 * c0
    col += p & 0xFFFFFFFF
    hi = p >> 32
    p = g2 * c1
    col += p & 0xFFFFFFFF
    hi += p >> 32
    mid |= col << 32
    return hi + (col >> 32) + g3 * c1, mid, low


def _shifted(high, low, t):
    """Words of ``g·2^t`` above 2^128, at 2^64 and below, for 0 < ``t`` < 64."""
    back = 64 - t
    return high >> back, (high << t) | (low >> back), low << t


def _interval(bits):
    """Schubfach's scaled value and rounding interval of nonzero finite bits.

    Returns ``vb``, ``lower`` and ``upper``: the value and the ends of the
    interval that rounds to it, times 4·10^-k and rounded to odd, with the
    ends moved inward by one where they are excluded (odd significands); and
    ``k``.  Figures 4 and 6 of the paper.
    """
    search, _, _ = _tables()
    biased = (bits >> 52) & 0x7FF
    frac = bits & 0xFFFFFFFFFFFFF
    row = (biased + ((frac == 0).astype(_U64) << 11)).view(np.int64)
    high, low, t_upper, t_lower = (np.take(search[i], row) for i in range(4))
    c = frac | (np.minimum(biased, 1) << 52)

    # vb = rop(g·4c·2^h); the interval ends rop(g·(4c ± 2)·2^h) differ from
    # it by g·2^(h+1), or by g·2^h below a power of two, where the lower
    # neighbour is closer.
    vb, mid, low_word = _product(high, low, c << (t_upper + 1))
    odd = c & 1
    d2, d1, d0 = _shifted(high, low, t_upper)
    lo = low_word + d0
    m = mid + d1
    carry = (m < d1) | ((m + (lo < d0)) < m)
    m += lo < d0
    upper = ((vb + d2 + carry) | (m > 1)) - odd
    if (t_lower != t_upper).any():
        d2, d1, d0 = _shifted(high, low, t_lower)
    m = mid - d1
    borrow = (mid < d1) | (m < (low_word < d0))
    m -= low_word < d0
    lower = ((vb - d2 - borrow) | (m > 1)) + odd
    return vb | (mid > 1), lower, upper, np.take(search[4], row).view(np.int64)


def _shortest(bits):
    """Shortest round-trip decimal ``s·10^k`` of nonzero finite float64 bits."""
    vb, lower, upper, k = _interval(bits)
    s = vb >> 2
    sp = s // 10
    up_in = lower <= sp * 40
    wp_in = sp * 40 + 40 <= upper
    s4 = s << 2
    u_in = lower <= s4
    w_in = s4 + 4 <= upper
    # vb - 4s is vb & 3: above the midpoint, or on it with s odd
    round_up = (vb & 3) + (s & 1) > 2
    s += np.where(u_in != w_in, w_in, round_up)
    one_less = (sp != 0) & (up_in != wp_in)          # one digit fewer: sp or sp + 1
    s = np.where(one_less, sp + wp_in, s)
    k += one_less

    # Strip trailing zeros: at most 15, since s < 10^17 and a multiple of
    # 10^16 is the one-digit-shorter candidate sp found above.
    at = np.flatnonzero(s == s // 10 * 10)
    if at.size:
        sa, ka = s[at], k[at]
        for step in (8, 4, 2, 1):
            quot = sa // _POW10[step]
            drop = quot * _POW10[step] == sa
            sa = np.where(drop, quot, sa)
            ka += drop * step
        s[at], k[at] = sa, ka
    return s, k


def _ascii8(x):
    """Eight decimal digits of each ``x`` < 10^8 as ASCII bytes of one uint64."""
    hi = x // 10_000
    x = hi | ((x - hi * 10_000) << 32)                       # two 4-digit lanes
    hi = ((x * 5243) >> 19) & 0x0000007F0000007F             # lane // 100
    x = hi | ((x - hi * 100) << 16)                          # four 2-digit lanes
    hi = ((x * 103) >> 10) & 0x000F000F000F000F             # lane // 10
    return (hi | ((x - hi * 10) << 8)) + 0x3030303030303030  # little-endian order


def _notation(s, k, neg):
    """Digit string, slot-mask row and exponent row of each field ``s·10^k``.

    Fixed notation shows the digits with the zeros of ``0.000ddd`` in front
    and those up to ``ddd0`` (``.0`` on integral values) behind, so ``s`` is
    padded on the right; scientific notation shows the digits with the point
    after the first of them.
    """
    n = np.maximum(np.searchsorted(_POW10, s, side="right"), 1)
    point = k + n                                    # digits before the point
    sci = (point < -3) | (point > 16)
    pad = np.maximum(point + 1 - n, 0)
    visible = n + pad + np.maximum(1 - point, 0)
    fraction = visible - np.maximum(point, 1)
    pad[sci] = 0
    visible[sci] = n[sci]
    fraction[sci] = n[sci] - 1
    code = (visible * _CELLS + fraction) * 2 + neg
    exponent = np.where(sci, point + 323, _EXPONENTS - 1)   # the row of 10^(point - 1)
    return s * np.take(_POW10, pad), code, exponent


def format_rows(block) -> memoryview:
    """Bytes of ``",".join(map(repr, row)) + "\\n"`` for each row of ``block``.

    ``block`` is a 2-D float64 array of finite values; a NaN or infinity
    raises :class:`NonFinite`.
    """
    x = np.ascontiguousarray(block, dtype=np.float64)
    rows, cols = x.shape
    if not np.isfinite(x).all():
        raise NonFinite("cannot format a non-finite value")
    _, masks, exps = _tables()
    bits = x.view(_U64).ravel()
    zero = (bits << 1) == 0
    s, k = _shortest(bits | zero)                    # ±0.0 as the smallest subnormal
    s[zero] = 0
    k[zero] = 0
    s, code, e = _notation(s, k, (bits >> 63).astype(np.int64))
    e.reshape(rows, cols)[:, -1] += _EXPONENTS       # newline after the last column

    # The digit string in bytes 3..23 of a 32-byte slot ("0000", the leading
    # digit, then 16 more), kept in place up to the point and moved one byte
    # right after it; then the point, the sign, the exponent and separator.
    head = s // 10 ** 16
    s -= head * 10 ** 16
    upper = s // 10 ** 8
    words = [(head << 56) + 0x3030303030000000, _ascii8(upper), _ascii8(s - upper * 10 ** 8), 0]
    keep, moved, put = masks
    slot = np.empty((rows * cols, 4), dtype=_U64)
    before = 0
    for i, word in enumerate(words):
        moved_word = (word << 8) | (before >> 56)
        slot[:, i] = ((word & np.take(keep[i], code)) | (moved_word & np.take(moved[i], code))
                      | np.take(put[i], code))
        before = word
    slot[:, 3] |= np.take(exps, e)
    out = slot.view(np.uint8)
    return memoryview(out[out != 0])
