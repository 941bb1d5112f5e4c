"""Shortest round-trip text of a float64 block, byte for byte ``repr``.

:func:`format_rows` turns a ``(rows, cols)`` block of finite float64 values
into exactly the bytes of ``"".join(",".join(map(repr, row)) + "\\n" for row
in block)``, with numpy handling :data:`CAPACITY` values at once instead of
one ``repr`` call per value.  A NaN or infinite entry raises
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

Every intermediate lives in one resident workspace, word and flag rows for
:data:`CAPACITY` values (about 1.23 MB), built on first use and kept, like
the tables, for the life of the process; a larger block is formatted in
pieces of that size.  A piece holds one RK4 chunk of ``simulate``'s nine
columns, the driver's 1024 steps and the initial row, so each chunk is
formatted by one pass of numpy calls.  The caller's block is only read.
Reusing the buffers spares each piece the page faults of fresh
temporaries, which the C allocator would otherwise hand back to the system
after every piece.
Only the compacted text of a piece and the index of the values whose
digits end in zeros are new arrays: numpy compacts into an existing buffer
only through an index array eight times the text's size
(``np.compress(..., out=)``).  The workspace is shared, so the formatter
is single-threaded, as the CLI is.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonFinite

_U64 = np.uint64
_M32 = 0xFFFFFFFF

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

#: Values formatted at once; a larger block goes in pieces of this size.
#: ``simulate``'s first chunk, its largest, is 1024 steps and the initial
#: row, of nine columns.
CAPACITY = (1024 + 1) * 9

#: Scratch rows of CAPACITY words and flags in the workspace.
_WORDS, _FLAGS = 16, 5


@functools.cache
def _tables():
    """Digit-search rows, digit-count rows, slot masks and exponent words."""
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

    # Digit count of an integer s < 2^57 by the exponent field of float(s):
    # 2^j <= s < 2^(j+1) has d or d + 1 digits, d + 1 from 10^d on.  Where
    # float(s) rounds up to 2^(j+1), both rows still give the count, as no
    # power of ten lies that close below a power of two.  Field 0 is s = 0.
    digits = np.zeros((2, 2048), dtype=_U64)
    digits[:, 0] = 1, 2 ** 64 - 1
    for j in range(58):
        d = len(str(2 ** j))
        digits[:, 1023 + j] = d, 10 ** d

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
    # by slot word: rows keep, moved and put
    masks = masks.view(_U64).reshape(-1, 3, 4).transpose(2, 1, 0).copy()

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
    return search, digits, masks, exps.view(_U64).reshape(-1)


@functools.cache
def _workspace():
    """The word and flag rows of one piece of up to :data:`CAPACITY` values."""
    return np.empty(_WORDS * CAPACITY, dtype=_U64), np.empty(_FLAGS * CAPACITY, dtype=bool)


def _column(word, upper, c, col, hi, p, q, first=False):
    """Add a 32-bit half of ``word`` times ``c`` to a column of a product.

    ``col`` gets the low half of the partial product added, ``hi`` gets
    (``first``) or adds its high half.
    """
    if upper:
        np.right_shift(word, 32, out=p)
    else:
        np.bitwise_and(word, _M32, out=p)
    p *= c
    np.bitwise_and(p, _M32, out=q)
    col += q
    if first:
        np.right_shift(p, 32, out=hi)
    else:
        np.right_shift(p, 32, out=q)
        hi += q


def _product(high, low, cp, out, scratch):
    """``g·cp`` for ``g`` = high·2^64 + low and ``cp`` < 2^60.

    Writes the words of ``⌊g·cp / 2^64⌋`` (above and below 2^128) and
    ``g·cp mod 2^64`` to the three rows ``out``; the product is summed in
    32-bit columns in the four ``scratch`` rows, and ``cp`` is overwritten.
    """
    top, mid, bottom = out
    c1, p, q, col = scratch
    np.right_shift(cp, 32, out=c1)
    c0 = np.bitwise_and(cp, _M32, out=cp)
    np.bitwise_and(low, _M32, out=p)
    p *= c0
    np.bitwise_and(p, _M32, out=bottom)
    np.right_shift(p, 32, out=col)                   # column 2^32
    _column(low, True, c0, col, top, p, q, first=True)
    _column(low, False, c1, col, top, p, q)
    np.left_shift(col, 32, out=q)
    bottom |= q
    col >>= 32
    col += top                                       # column 2^64
    _column(high, False, c0, col, top, p, q, first=True)
    _column(low, True, c1, col, top, p, q)
    np.bitwise_and(col, _M32, out=mid)
    col >>= 32
    col += top                                       # column 2^96
    _column(high, True, c0, col, top, p, q, first=True)
    _column(high, False, c1, col, top, p, q)
    np.left_shift(col, 32, out=q)
    mid |= q
    col >>= 32
    top += col
    np.right_shift(high, 32, out=p)
    p *= c1
    top += p


def _shifted(high, low, t, out):
    """Words of ``g·2^t`` above 2^128, at 2^64 and below, for 0 < ``t`` < 64."""
    d2, d1, d0 = out
    back = np.subtract(64, t, out=d0)
    np.right_shift(high, back, out=d2)
    np.left_shift(high, t, out=d1)
    np.right_shift(low, back, out=d0)
    d1 |= d0
    np.left_shift(low, t, out=d0)


def _interval(bits, g, out, scratch, flags):
    """Schubfach's scaled value and rounding interval of finite bits.

    Writes to the rows ``out`` ``vb``, ``lower`` and ``upper``: the value and
    the ends of the interval that rounds to it, times 4·10^-k and rounded to
    odd, with the ends moved inward by one where they are excluded (odd
    significands).  ``k`` is the last of the five table rows gathered into
    ``g``.  Figures 4 and 6 of the paper.  ±0.0 go through as the smallest
    subnormal, up to the parity of its significand: their digits are
    discarded.  The seven ``scratch`` rows are overwritten.
    """
    search = _tables()[0]
    vb, lower, upper = out
    c, mid, bottom, d2, d1, d0, m = scratch
    high, low, t_upper, t_lower, _ = g
    f0, f1, f2 = flags[:3]
    zero = np.bitwise_and(bits, 0x7FFFFFFFFFFFFFFF, out=d0)
    zero -= 1
    zero >>= 63
    np.bitwise_and(bits, 0xFFFFFFFFFFFFF, out=c)
    c |= zero
    biased = np.right_shift(bits, 52, out=d1)
    biased &= 0x7FF
    row = np.subtract(c, 1, out=d2)                  # 2048 where the significand field is 0
    row >>= 63
    row <<= 11
    row += biased
    np.take(search, row.view(np.int64), axis=1, out=g, mode="clip")
    np.minimum(biased, 1, out=biased)
    biased <<= 52
    c |= biased                                      # the significand c

    # vb = rop(g·4c·2^h); the interval ends rop(g·(4c ± 2)·2^h) differ from
    # it by g·2^(h+1), or by g·2^h below a power of two, where the lower
    # neighbour is closer.
    cp = c
    cp <<= t_upper
    cp <<= 1
    _product(high, low, cp, (vb, mid, bottom), (lower, upper, m, d2))
    tmp = c
    _shifted(high, low, t_upper, (d2, d1, d0))
    np.add(bottom, d0, out=tmp)
    np.less(tmp, d0, out=f0)                         # carry out of the low word
    np.add(mid, d1, out=m)
    np.less(m, d1, out=f1)
    np.copyto(tmp, f0)
    tmp += m
    np.less(tmp, m, out=f2)
    np.logical_or(f1, f2, out=f1)                    # carry out of the middle word
    np.add(vb, d2, out=upper)
    np.copyto(m, f1)
    upper += m
    np.greater(tmp, 1, out=f0)
    np.copyto(m, f0)
    upper |= m
    np.bitwise_and(bits, 1, out=m)                   # odd
    upper -= m

    if np.not_equal(t_lower, t_upper, out=f0).any():
        _shifted(high, low, t_lower, (d2, d1, d0))
    np.less(bottom, d0, out=f0)                      # borrow from the low word
    np.copyto(tmp, f0)
    np.subtract(mid, d1, out=m)
    np.less(mid, d1, out=f1)
    np.less(m, tmp, out=f2)
    np.logical_or(f1, f2, out=f1)                    # borrow from the middle word
    m -= tmp
    np.subtract(vb, d2, out=lower)
    np.copyto(tmp, f1)
    lower -= tmp
    np.greater(m, 1, out=f0)
    np.copyto(tmp, f0)
    lower |= tmp
    np.bitwise_and(bits, 1, out=tmp)
    lower += tmp
    np.greater(mid, 1, out=f0)
    np.copyto(tmp, f0)
    vb |= tmp


def _shortest(vb, lower, upper, k, scratch, flags):
    """Shortest round-trip decimal ``s·10^k`` from the interval of :func:`_interval`.

    Returns ``s`` in the first of the ``scratch`` rows; ``k`` (int64) is
    updated in place.
    """
    s, sp, x, y, *rest = scratch
    up_in, wp_in, u_in, w_in, round_up = flags[:5]
    np.right_shift(vb, 2, out=s)
    np.floor_divide(s, 10, out=sp)
    np.multiply(sp, 40, out=x)
    np.less_equal(lower, x, out=up_in)
    x += 40
    np.less_equal(x, upper, out=wp_in)
    np.left_shift(s, 2, out=x)
    np.less_equal(lower, x, out=u_in)
    x += 4
    np.less_equal(x, upper, out=w_in)
    # vb - 4s is vb & 3: above the midpoint, or on it with s odd
    np.bitwise_and(vb, 3, out=x)
    np.bitwise_and(s, 1, out=y)
    x += y
    np.greater(x, 2, out=round_up)
    # s + 1 where only w is in the interval, s where only u is, else rounded
    np.not_equal(u_in, w_in, out=u_in)
    np.logical_and(u_in, w_in, out=w_in)
    np.logical_not(u_in, out=u_in)
    np.logical_and(u_in, round_up, out=round_up)
    np.logical_or(w_in, round_up, out=w_in)
    np.copyto(x, w_in)
    s += x
    # one digit fewer: sp or sp + 1
    one_less = np.not_equal(up_in, wp_in, out=up_in)
    np.not_equal(sp, 0, out=u_in)
    np.logical_and(one_less, u_in, out=one_less)
    np.copyto(x, wp_in)
    x += sp
    x -= s
    np.copyto(y, one_less)
    x *= y
    s += x
    k += y.view(np.int64)

    # Strip trailing zeros: at most 15, since s < 10^17 and a multiple of
    # 10^16 is the one-digit-shorter candidate sp found above.
    np.floor_divide(s, 10, out=x)
    x *= 10
    at = np.flatnonzero(np.equal(x, s, out=u_in))
    if at.size:
        sa, ka, quot, z = (r[:at.size] for r in (x, y, *rest[:2]))
        ka = ka.view(np.int64)
        np.take(s, at, out=sa, mode="clip")
        np.take(k, at, out=ka, mode="clip")
        drop = w_in[:at.size]
        for step in (8, 4, 2, 1):
            np.floor_divide(sa, _POW10[step], out=quot)
            np.multiply(quot, _POW10[step], out=z)
            np.equal(z, sa, out=drop)
            np.subtract(sa, quot, out=z)
            np.copyto(quot, drop)
            z *= quot
            sa -= z
            quot *= step
            ka += quot.view(np.int64)
        s[at] = sa
        k[at] = ka
    return s


def _notation(s, k, bits, code, e, scratch, flags):
    """Slot-mask row ``code`` and exponent row ``e`` of each field ``s·10^k``.

    Fixed notation shows the digits with the zeros of ``0.000ddd`` in front
    and those up to ``ddd0`` (``.0`` on integral values) behind, so ``s`` is
    padded on the right, in place; scientific notation shows the digits with
    the point after the first of them.  ``k``, ``code`` and ``e`` are int64
    rows, the sign comes from the float64 ``bits``, and the seven ``scratch``
    rows are overwritten.
    """
    digits = _tables()[1]
    scratch = scratch.view(np.int64)
    n, bound, point, sci, fixed, pad, t = scratch
    below, above = flags[:2]
    as_float = t.view(np.float64)
    np.copyto(as_float, s, casting="unsafe")
    field = np.right_shift(as_float.view(_U64), 52, out=t.view(_U64)).view(np.int64)
    np.take(digits.view(np.int64), field, axis=1, out=scratch[:2], mode="clip")
    np.greater_equal(s, bound.view(_U64), out=below)
    np.copyto(bound, below)
    n += bound                                       # digits of s

    np.add(k, n, out=point)                          # digits before the point
    np.less(point, -3, out=below)
    np.greater(point, 16, out=above)
    np.logical_or(below, above, out=below)
    np.copyto(sci, below)
    np.subtract(1, sci, out=fixed)
    np.add(k, 1, out=pad)                            # zeros up to ddd0
    np.maximum(pad, 0, out=pad)
    pad *= fixed
    np.subtract(1, point, out=t)                     # zeros of 0.000ddd
    np.maximum(t, 0, out=t)
    t *= fixed
    np.add(n, pad, out=code)                         # visible cells
    code += t
    np.multiply(point, fixed, out=t)
    np.maximum(t, 1, out=t)
    np.subtract(code, t, out=t)                      # fraction cells
    code *= _CELLS
    code += t
    code *= 2
    np.right_shift(bits, 63, out=t.view(_U64))       # the sign
    code += t
    np.subtract(point, 310, out=e)                   # the row of 10^(point - 1),
    e *= sci
    e += _EXPONENTS - 1                              # or that of fixed notation
    np.take(_POW10, pad, out=t.view(_U64), mode="clip")
    s *= t.view(_U64)


def _ascii8(x, hi, t):
    """Eight decimal digits of each ``x`` < 10^8 as ASCII bytes of one uint64, in place."""
    np.floor_divide(x, 10_000, out=hi)
    np.multiply(hi, 10_000, out=t)
    x -= t
    x <<= 32
    x |= hi                                          # two 4-digit lanes
    np.multiply(x, 5243, out=hi)
    hi >>= 19
    hi &= 0x0000007F0000007F                         # lane // 100
    np.multiply(hi, 100, out=t)
    x -= t
    x <<= 16
    x |= hi                                          # four 2-digit lanes
    np.multiply(x, 103, out=hi)
    hi >>= 10
    hi &= 0x000F000F000F000F                         # lane // 10
    np.multiply(hi, 10, out=t)
    x -= t
    x <<= 8
    x |= hi
    x += 0x3030303030303030                          # little-endian order


def _layout(s, code, e, words, slots, selected):
    """Build each field in a 32-byte slot, one of the ``(n, 4)`` words ``slots``.

    The digit string sits in bytes 3..23 ("0000", the leading digit, then
    16 more), kept in place up to the point and moved one byte right after
    it; then come the point, the sign, the exponent and the separator.
    ``s`` and the four ``words`` rows are overwritten, and the three
    ``selected`` rows receive each slot word's masks.
    """
    _, _, masks, exps = _tables()
    upper, lower, head, t = words
    keep, moved, put = selected
    np.floor_divide(s, 10 ** 16, out=head)
    np.multiply(head, 10 ** 16, out=t)
    s -= t
    np.floor_divide(s, 10 ** 8, out=upper)
    np.multiply(upper, 10 ** 8, out=t)
    np.subtract(s, t, out=lower)
    _ascii8(words[:2].reshape(-1), *slots.reshape(2, -1))
    head <<= 56
    head += 0x3030303030000000
    digits = (head, upper, lower)
    for i in range(4):
        np.take(masks[i], code, axis=1, out=selected, mode="clip")
        # the string moved one byte right: this word's bytes after the last of the one before
        if i < 3:
            np.left_shift(digits[i], 8, out=t)
            if i:
                np.right_shift(digits[i - 1], 56, out=s)
                t |= s
            keep &= digits[i]
        else:
            np.right_shift(lower, 56, out=t)
            np.take(exps, e, out=keep, mode="clip")
        moved &= t
        put |= keep
        put |= moved
        slots[:, i] = put


def _format(x, cols, start):
    """Text of the flat float64 values ``x``, which start at flat position
    ``start`` of a row-major block of ``cols`` columns."""
    # The rows of u, stage by stage: the table rows (0-4, k last), the
    # interval (5-7) and its scratch (8-14); s (8), the notation's code and
    # exponent (5, 6) and its scratch (9-15); the layout's digit words
    # (0-3), slots (9-12) and masks (13-15); the compaction mask (0-3).
    n = x.size
    words, flags = _workspace()
    u = words[:_WORDS * n].reshape(_WORDS, n)
    f = flags[:_FLAGS * n].reshape(_FLAGS, n)
    if not np.isfinite(x, out=f[0]).all():
        raise NonFinite("cannot format a non-finite value")
    bits = x.view(_U64)
    g = u[0:5]
    k = g[4].view(np.int64)
    vb, lower, upper = u[5:8]
    _interval(bits, g, (vb, lower, upper), u[8:15], f)
    s = _shortest(vb, lower, upper, k, u[8:14], f)
    zero = np.bitwise_and(bits, 0x7FFFFFFFFFFFFFFF, out=u[5])
    zero -= 1
    zero >>= 63
    zero -= 1                                        # 0 where the value is ±0.0
    s &= zero
    k &= zero.view(np.int64)
    code, e = u[5:7].view(np.int64)
    _notation(s, k, bits, code, e, u[9:16], f)
    e[(cols - 1 - start) % cols::cols] += _EXPONENTS    # newline after the last column
    slots = u[9:13].reshape(n, 4)
    _layout(s, code, e, u[0:4], slots, u[13:16])
    text = slots.view(np.uint8).reshape(-1)
    return text[np.not_equal(text, 0, out=u[0:4].reshape(-1).view(bool))]


def format_rows(block):
    """Bytes of ``",".join(map(repr, row)) + "\\n"`` for each row of ``block``.

    ``block`` is a 2-D float64 array of finite values; a NaN or infinity
    raises :class:`NonFinite`.  It is formatted in pieces of
    :data:`CAPACITY` values through the workspace.
    """
    x = np.ascontiguousarray(block, dtype=np.float64)
    _, cols = x.shape
    flat = x.reshape(-1)
    pieces = [_format(flat[lo:lo + CAPACITY], cols, lo)
              for lo in range(0, max(flat.size, 1), CAPACITY)]
    return memoryview(pieces[0]) if len(pieces) == 1 else b"".join(pieces)
