"""Python's float `repr` for a whole float64 array at once, in NumPy
integer arithmetic.

`render` writes each value's bytes into a fixed-width slot of `WIDTH`
bytes and marks which of them belong to it: the value's `repr` is its
slot's kept bytes, in order. So a block of values becomes text with one
boolean index and no Python call per value.

The digits are the shortest that read back to the same float, and of
those the closest to it (ties to an even last digit), found by Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020) in `uint64`:
its 64 x 64 -> 128-bit products are made of 32-bit limbs, and its 617
126-bit powers of ten are computed with Python ints at import. The
layout is `repr`'s: exponent form below 1e-4 and from 1e16, with a sign
and at least two exponent digits (`1e-05`, `1e+16`); `.0` on an integral
value; `0.0` and `-0.0`. Infinities, NaN and subnormals, which the
arithmetic does not cover, get `repr`'s own bytes in their slots.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_M32 = 0xFFFF_FFFF
_M63 = (1 << 63) - 1

# One value's slot. Each column is a byte `repr` may use, in the order it
# would use it; the digit and exponent columns are rewritten for every
# value, the others hold these bytes for good.
#   0        "-"
#   1-5      "0.000", the lead of a value below 1 (0.0001 to 0.999...)
#   6-22     the 17 digits (A): the integer part, or every digit
#   23       "."
#   24-39    digits 2 to 17 again (B): the fraction part
#   40       "e"
#   41-44    the exponent's sign and three digits
TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"e+000", np.uint8)
WIDTH = len(TEMPLATE)
_A, _POINT, _B, _EXP = 6, 23, 24, 41
_DIGITS = np.r_[_A:_A + 17, _B:_B + 16]   # rewritten by every call: room for a whole repr

# Schubfach's table: for each decimal exponent k, g = floor(10^-k / 2^r) + 1
# with 2^125 <= 10^-k / 2^r < 2^126, as 32-bit limbs of g1 = g >> 63 and
# g0 = g mod 2^63, high first, and g1 whole.
_K_MIN, _K_MAX = -324, 292


def _g(k: int) -> int:
    if k <= 0:
        p = 10 ** -k
        r = p.bit_length() - 126
        return (p >> r if r >= 0 else p << -r) + 1
    p = 10 ** k
    return (1 << (125 + p.bit_length())) // p + 1


_G = np.array([_g(k) for k in range(_K_MIN, _K_MAX + 1)], dtype=object)
_G_LIMBS = np.array([(_G >> 63) >> 32, (_G >> 63) & _M32, (_G & _M63) >> 32, _G & _M63 & _M32,
                     _G >> 63], dtype=_U64)
del _G

# the 4-digit groups "0000" to "9999" as uint32, whose bytes are the digits
_n = np.arange(10_000)
_FOUR = (np.stack([_n // 1000, _n // 100 % 10, _n // 10 % 10, _n % 10], axis=1)
         .astype(np.uint8) + ord("0")).view(np.uint32)[:, 0]
# row j: the place among the 17 digits of the last non-zero digit of group
# j (digits 2 + 4j to 5 + 4j), or 1 for a group of zeros
_LAST = np.where(_n == 0, 1, np.arange(1, 14, 4)[:, None] + 4
                 - np.select([_n % 1000 == 0, _n % 100 == 0, _n % 10 == 0], [3, 2, 1], 0))
_LAST = _LAST.astype(np.uint8)
del _n

# The layout of a value: 24 forms of its scientific exponent E (fixed form
# for E = -4..15, then exponent form with E >= 16 below 100 and above,
# E <= -5 above -100 and below), times its sign, times its digit count 1 to
# 17; the row of `_KEEP` at (sign * 24 + form) * 17 + count - 1 is its mask.
_E_MIN, _E_MAX = -308, 308          # of the normal floats
_e = np.arange(_E_MIN, _E_MAX + 1)
_FORM = (np.where((_e >= -4) & (_e <= 15), _e + 4,
                  20 + (_e >= 100) + 2 * (_e < 0) + (_e <= -100)) * 17).astype(np.int64)
# the exponent's sign and three digits, as one uint32
_EXP_BYTES = _FOUR[np.abs(_e)].view(np.uint8).reshape(-1, 4).copy()
_EXP_BYTES[:, 0] = np.where(_e < 0, ord("-"), ord("+"))
_EXP_BYTES = _EXP_BYTES.view(np.uint32)[:, 0]
del _e


def _masks():
    sign = np.arange(2)[:, None, None, None]
    form = np.arange(24)[None, :, None, None]
    n = np.arange(1, 18)[None, None, :, None]
    col = np.arange(WIDTH)[None, None, None, :]
    e = form - 4
    below = form < 4                     # 0.000d...
    fixed = (form >= 4) & (form < 20)    # d...d.d...
    expo = form >= 20
    a, b = col - _A + 1, col - _B + 2    # digit places in A and B
    keep = ((col == 0) & (sign == 1)
            | (col >= 1) & (col <= 2) & below
            | (col >= 3) & (col <= 5) & below & (col - 2 <= -e - 1)
            | (a >= 1) & (a <= 17) & (below & (a <= n) | fixed & (a <= e + 1) | expo & (a == 1))
            | (col == _POINT) & (fixed | expo & (n > 1))
            | (b >= 2) & (b <= 17) & (fixed & (b >= e + 2) & (b <= np.maximum(n, e + 2))
                                      | expo & (b >= 2) & (b <= n))
            | (col >= _EXP - 1) & (col != _EXP + 1) & expo
            | (col == _EXP + 1) & ((form == 21) | (form == 23)))
    return keep.reshape(-1, WIDTH)


_KEEP = _masks()
_NEGATIVE = 24 * 17                     # key offset of the negative values


def _mulhi(ah, al, bh, bl):
    """High 64 bits of the product of a < 2^63 and b < 2^59, given as
    32-bit limbs: no partial sum below can overflow."""
    return ah * bh + ((ah * bl + al * bh + ((al * bl) >> 32)) >> 32)


def _rop(g, cp):
    """Schubfach's floor(g cp / 2^127), rounded to odd, for the 126-bit g
    (as `_G_LIMBS` columns) and cp < 2^59."""
    g1h, g1l, g0h, g0l, g1 = g
    ch, cl = cp >> 32, cp & _M32
    x1 = _mulhi(g0h, g0l, ch, cl)
    z = ((g1 * cp) >> 1) + x1
    return (_mulhi(g1h, g1l, ch, cl) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits):
    """The shortest digits of the normal floats with these bits (1-D), as
    17-digit integers (trailing zeros pad the shorter ones), and their
    scientific exponents."""
    exp2 = (bits >> 52).view(np.int64) & 0x7FF
    frac = bits & ((1 << 52) - 1)
    q = exp2 - 1075
    c = frac | (1 << 52)
    irregular = (frac == 0) & (exp2 > 1)   # a power of 2: the gap below is half
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).view(_U64)
    cb = c << 2
    # the value and its interval's ends, times 4 10^-k, as one stack
    cp = np.empty((3, len(k)), _U64)
    np.left_shift(cb, h, out=cp[0])
    np.left_shift(cb - 2 + irregular, h, out=cp[1])
    np.left_shift(cb + 2, h, out=cp[2])
    g = np.empty((len(_G_LIMBS),) + cp.shape, _U64)
    g[...] = _G_LIMBS.take(k - _K_MIN, axis=1)[:, None]
    vb, vbl, vbr = _rop(g, cp)
    out = c & 1                              # an odd c excludes the interval's ends
    s = vb >> 2
    t = s + 1
    # one digit fewer: at most one multiple of 10^(k+1) lies in the interval
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = (sp10 << 2) + 40 + out <= vbr
    uin = vbl + out <= s << 2
    win = (t << 2) + out <= vbr
    # both s and t read back: the closer one, the even one on a tie
    twice = (s + t) << 1
    closer = (vb < twice) | (vb == twice) & ((s & 1) == 0)
    lower = uin & ~win | (uin == win) & closer
    f = np.where(upin != wpin, sp10 + wpin * _U64(10), s + ~lower)
    short = f < 10 ** 16                     # 16 digits: scale to 17
    return np.where(short, f * 10, f), k + 16 - short


def render(values, chars, keep):
    """Write `repr(float(v))` of each v of the 1-D float64 array `values`
    into its row of `chars` (uint8, shape (len(values), WIDTH), rows
    contiguous) and mark the row's bytes that make it in `keep` (bool, the
    same shape): the repr of `values[i]` is `chars[i][keep[i]]`. Only the
    digit and exponent columns are written, so every row of `chars` must
    hold `TEMPLATE` beforehand; a buffer filled with it once serves any
    number of calls."""
    bits = values.view(_U64)
    normal = ((bits >> 52) & 0x7FF) - 1 < 0x7FE
    # 1.0 stands in for what the arithmetic does not cover
    f, e = _shortest(np.where(normal, bits, 0x3FF0_0000_0000_0000))
    f *= normal                                # zero: "0.0"
    e *= normal
    # the digits: a lead digit and four groups of four
    high = f // 10 ** 8
    low = f - high * 10 ** 8
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    groups = np.empty((4, len(f)), np.intp)
    for j, half in ((0, high), (2, low)):
        groups[j] = part = half // 10_000
        groups[j + 1] = half - part * 10_000
    chars[:, _A] = lead + ord("0")
    digits = _FOUR.take(groups).T
    chars[:, _A + 1:_A + 17].view(np.uint32)[...] = digits
    chars[:, _B:_B + 16].view(np.uint32)[...] = digits
    at = e - _E_MIN
    chars[:, _EXP:].view(np.uint32)[:, 0] = _EXP_BYTES.take(at)
    count = np.maximum(np.maximum(_LAST[0].take(groups[0]), _LAST[1].take(groups[1])),
                       np.maximum(_LAST[2].take(groups[2]), _LAST[3].take(groups[3])))
    keep[...] = _KEEP.take(_FORM.take(at) + (bits >> 63).view(np.int64) * _NEGATIVE + count - 1,
                           axis=0)
    for i in np.flatnonzero(~normal & (bits << 1 != 0)):     # neither normal nor zero
        text = np.frombuffer(repr(float(values[i])).encode(), np.uint8)
        chars[i, _DIGITS[:len(text)]] = text
        keep[i] = False
        keep[i, _DIGITS[:len(text)]] = True
