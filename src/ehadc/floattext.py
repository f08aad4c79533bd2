"""repr of float64 arrays without a Python call per value.

text(x) lays out repr(float(v)) for every element v of a float64 array in
a NUL-padded uint8 canvas, one fixed-width row of slots per element, so a
caller can place whole columns of text with numpy and drop the padding with
bytes.translate(None, b"\\0").

Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020) on uint64 lanes. For v = c * 2**q it takes the decimal exponent k of
the width of v's rounding interval and scales v and the interval's ends by
10**-k with a 128-bit table entry g(k) = ceil(10**-k / 2**e), rounding to
odd. The shortest decimals in the interval are then its one multiple of
10**(k+1) if it has one, else the multiple of 10**k inside it nearest to v
(the even one on a tie). That is repr's choice: the shortest string that
reads back as v, the nearest to v if several. The products are exact
3-word integers, and the rounding to odd is exact for every double (see
_round_to_odd).

Layout: Python's 'r' rules. Exponent form (1e-05, 1.5e+16, 5e-324) when
the decimal point falls 4 or more places left of the first digit or 17 or
more right of it, else positional (0.0001, 1234.5, 100.0, -0.0). Only inf,
-inf and nan are left to repr. The point goes after digit p of the 17-digit
field, through per-p byte masks.
"""

from __future__ import annotations

import functools

import numpy as np

# Bytes per value, four little-endian words: the sign and the "0.000" of a
# value below 1; 17 digits with the decimal point among them; the exponent.
WIDTH = 32

_U64 = np.uint64
_ZERO, _ONE, _TWO, _TEN = _U64(0), _U64(1), _U64(2), _U64(10)
_S32, _S63, _S64 = _U64(32), _U64(63), _U64(64)
_M32 = _U64(0xFFFF_FFFF)
_M52 = _U64((1 << 52) - 1)
_M63 = _U64((1 << 63) - 1)

# Table rows are k = _K_MIN .. _K_MAX (617 rows), the decimal exponents of
# every finite double's rounding interval.
_K_MIN, _K_MAX = -324, 292

_POW10 = np.array([10**j for j in range(17)], dtype=np.uint64)


def decimal_exponent(q, closer_lower):
    """k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) where closer_lower,
    exact for every double's q: 10**k is at most the width of the rounding
    interval of c * 2**q."""
    log10_of_4_3 = closer_lower * np.int64(274_743_187_321)
    return (q * np.int64(661_971_961_083) - log10_of_4_3) >> np.int64(41)


def floor_log2_pow10(k):
    """floor(log2(10**k)), exact for the table's k."""
    return (k * np.int64(913_124_641_741)) >> np.int64(38)


@functools.cache
def g_table() -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 words of g(k) = ceil(10**-k * 2**(127 - f)),
    f = floor(log2(10**-k)), for k = _K_MIN .. _K_MAX; 2**127 <= g < 2**128."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 127 - int(floor_log2_pow10(np.int64(-k)))
        num = 10 ** max(-k, 0) << max(shift, 0)
        den = 10 ** max(k, 0) << max(-shift, 0)
        g = -(-num // den)
        hi.append(g >> 64)
        lo.append(g & ((1 << 64) - 1))
    return np.array(hi, dtype=np.uint64), np.array(lo, dtype=np.uint64)


def _product(cp, g_hi, g_lo):
    """The 192-bit products cp * (g_hi*2**64 + g_lo) as three words, high
    first, from 32-bit halves."""
    a0, a1 = cp & _M32, cp >> _S32

    def high(b):
        b0, b1 = b & _M32, b >> _S32
        p01, p10 = a0 * b1, a1 * b0
        mid = ((a0 * b0) >> _S32) + (p01 & _M32) + (p10 & _M32)
        return a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)

    low_of_high = cp * g_hi
    mid = low_of_high + high(g_lo)
    return high(g_hi) + (mid < low_of_high).astype(np.uint64), mid, cp * g_lo


def _add3(x, y):
    """x + y for 3-word numbers, high word first, modulo 2**192."""
    lo = x[2] + y[2]
    mid = x[1] + y[1]
    carry = (mid < y[1]).astype(np.uint64)
    mid += (lo < y[2]).astype(np.uint64)
    carry |= (mid == _ZERO) & (lo < y[2])
    return x[0] + y[0] + carry, mid, lo


def _sub3(x, y):
    """x - y for 3-word numbers, high word first, x >= y."""
    lo = x[2] - y[2]
    mid = x[1] - y[1]
    borrow = (x[1] < y[1]).astype(np.uint64)
    low_borrow = x[2] < y[2]
    borrow |= (mid == _ZERO) & low_borrow
    mid -= low_borrow.astype(np.uint64)
    return x[0] - y[0] - borrow, mid, lo


def _shl3(g_hi, g_lo, s):
    """The 3-word number (g_hi, g_lo) << s, for 0 < s < 64 (a shift by 64
    is not defined for every numpy)."""
    r = _S64 - s
    return g_hi >> r, (g_hi << s) | (g_lo >> r), g_lo << s


def _round_to_odd(p):
    """floor(p / 2**127), its lowest bit set when the fraction is 2**-69 or more.

    p = cp * g(k) with cp < 2**58, so p / 2**127 exceeds the exact quotient by
    less than 2**-69. Over every double, an exact quotient that is not an
    integer lies at least 2**-65.4 above and 2**-60.5 below an integer
    (test_floattext checks both with exact arithmetic), so this is the exact
    quotient rounded to odd.
    """
    frac = (p[1] & _M63) | (p[2] >> _U64(58))
    return (p[0] << _ONE) | (p[1] >> _S63) | (frac != _ZERO).astype(np.uint64)


def _shortest(bits):
    """Shortest decimal significand d (trailing zeros kept) and exponent k
    with d * 10**k == repr's value, for finite nonzero doubles."""
    field = (bits >> _U64(52)) & _U64(0x7FF)
    frac = bits & _M52
    c = frac | ((field != _ZERO).astype(np.uint64) << _U64(52))
    q = np.maximum(field.astype(np.int64), np.int64(1)) - np.int64(1075)
    # At a power of two the interval below v is half as wide as above it.
    closer_lower = (frac == _ZERO) & (field > _ONE)
    k = decimal_exponent(q, closer_lower)
    h = (q + floor_log2_pow10(-k)).astype(np.uint64)  # 0 <= h <= 3
    g_hi, g_lo = (w[k - _K_MIN] for w in g_table())

    # 4*v * 10**-k == center / 2**127, and the interval's ends lie half a
    # step of c, 2 * 2**h * g, either side.
    center = _product((c << _TWO) << h, g_hi, g_lo)
    half = _shl3(g_hi, g_lo, h + _ONE)
    vb = _round_to_odd(center)
    vbl = _round_to_odd(_sub3(center, half))
    vbr = _round_to_odd(_add3(center, half))
    lower = np.flatnonzero(closer_lower)
    if lower.size:
        hi, mid, lo = (w[lower] for w in half)
        quarter = hi >> _ONE, (mid >> _ONE) | (hi << _S63), (lo >> _ONE) | (mid << _S63)
        vbl[lower] = _round_to_odd(_sub3([w[lower] for w in center], quarter))

    # The multiples m of 10**k in the interval: an odd c excludes its ends.
    odd = c & _ONE
    m_lo = (vbl + odd + _U64(3)) >> _TWO
    m_hi = (vbr - odd) >> _TWO
    # Of these, the one multiple of 10 if any, else the one nearest v (the
    # even one on a tie).
    m10 = (m_lo + _U64(9)) // _TEN * _TEN
    nearest = ((vb + _TWO) >> _TWO) - ((vb & _U64(7)) == _TWO)
    return np.where(m10 <= m_hi, m10, np.clip(nearest, m_lo, m_hi)), k


def _swar8(x):
    """The 8 decimal digits of each x < 10**8 as byte values, first in the
    lowest byte: split into 4-digit, 2-digit and 1-digit lanes."""
    hi = x // _U64(10_000)
    v = hi | ((x - hi * _U64(10_000)) << _S32)
    hi = ((v * _U64(10_486)) >> _U64(20)) & _U64(0x0000_007F_0000_007F)
    v = hi | ((v - hi * _U64(100)) << _U64(16))
    hi = ((v * _U64(103)) >> _U64(10)) & _U64(0x000F_000F_000F_000F)
    return hi | ((v - hi * _TEN) << _U64(8))


def _through_last_nonzero(z):
    """0xFF in each byte of z up to its last nonzero byte, 0 above it."""
    z = z | (z >> _U64(8))
    z = z | (z >> _U64(16))
    z = z | (z >> _S32)
    top_bits = (z + _U64(0x7F7F_7F7F_7F7F_7F7F)) & _U64(0x8080_8080_8080_8080)
    return (top_bits >> _U64(7)) * _U64(0xFF)


def _byte_tables():
    """Per point position p (1..16), for each of the three words of the digit
    field: the bytes before p, the bytes after p, and the text at p by kind
    (none, ".", ".0") at 17 * kind + p."""
    low = [[0] * 17 for _ in range(3)]
    high = [[0] * 17 for _ in range(3)]
    dot = [[0] * (3 * 17) for _ in range(3)]
    for p in range(1, 17):
        for j in range(24):
            w, b = divmod(j, 8)
            if j < p:
                low[w][p] |= 0xFF << (8 * b)
            elif j > p:
                high[w][p] |= 0xFF << (8 * b)
        for kind, mark in enumerate((b"", b".", b".0")):
            for i, ch in enumerate(mark):
                w, b = divmod(p + i, 8)
                dot[w][17 * kind + p] |= ch << (8 * b)
    return tuple(np.array(t, dtype=np.uint64) for t in (low, high, dot))


_LOW, _HIGH, _DOT_TEXT = _byte_tables()
_ASCII0 = _U64(0x3030_3030_3030_3030)
_ALL = _U64(0xFFFF_FFFF_FFFF_FFFF)


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


# Sign and the "0.000" before the digits of a value below 1: index
# 5*negative + (1 - decpt), or 5*negative for none.
_LEAD_TEXT = np.array(
    [_word(sign + b"0.000"[:n]) for sign in (b"", b"-") for n in (0, 2, 3, 4, 5)],
    dtype=np.uint64,
)
# "e-324" .. "e+308" at e + 324, then an empty word.
_EXP_TEXT = np.array(
    [_word(b"e%+03d" % e) for e in range(-324, 309)] + [0], dtype=np.uint64
)


def _fill(x, out):
    """Write the text of each finite x into the four little-endian words of
    its row of out; rows of inf and nan are left for repr."""
    zero = x == 0.0
    # Zeros, inf and nan go through as 1.0; a zero's digit is then set to 0.
    bits = np.where(np.isfinite(x) & ~zero, x.view(np.uint64), _U64(0x3FF0_0000_0000_0000))
    d, k = _shortest(bits)

    ndig = np.searchsorted(_POW10, d, side="right")  # digits of d
    d = d * _POW10[17 - ndig]  # 17 digits, the first nonzero
    decpt = ndig + k  # value = 0.<digits> * 10**decpt
    lead = d // _U64(10**9)
    rest = d - lead * _U64(10**9)
    mid = rest // _TEN
    last = rest - mid * _TEN
    z0 = _swar8(np.where(zero, _ZERO, lead))  # a zero shows as 0.0
    z1 = _swar8(mid)
    u0, u1 = z0 | _ASCII0, z1 | _ASCII0
    # Trailing zero digits become NUL (a), except before the point (u).
    last_shown = last != _ZERO
    some1 = last_shown | (z1 != _ZERO)
    a0 = u0 & np.where(some1, _ALL, _through_last_nonzero(z0))
    a1 = u1 & np.where(last_shown, _ALL, _through_last_nonzero(z1))
    a2 = (last | _U64(0x30)) * last_shown

    expo = (decpt <= -4) | (decpt > 16)
    positional = ~expo & (decpt > 0)
    below_one = ~expo & (decpt <= 0)
    # The point goes after digit p: decpt in positional form (with a 0 after
    # it for an integral value), else after the first digit, where it is
    # shown only in exponent form with more digits to follow.
    several = expo & (some1 | ((z0 >> _U64(8)) != _ZERO))
    p = np.where(positional, decpt, 1)
    finite = bits.view(np.float64)
    integral = (np.abs(finite) < 1e16) & (np.trunc(finite) == finite)
    dot = np.where(positional, decpt + 17 + 17 * integral, 1 + 17 * several)

    out[:, 0] = _LEAD_TEXT[5 * np.signbit(x) + np.where(below_one, 1 - decpt, 0)]
    out[:, 1] = (u0 & _LOW[0][p]) | _DOT_TEXT[0][dot] | ((a0 << _U64(8)) & _HIGH[0][p])
    out[:, 2] = (
        (u1 & _LOW[1][p])
        | _DOT_TEXT[1][dot]
        | (((a1 << _U64(8)) | (a0 >> _U64(56))) & _HIGH[1][p])
    )
    exp_text = _EXP_TEXT[np.where(expo, decpt + 323, len(_EXP_TEXT) - 1)]
    out[:, 3] = (
        _DOT_TEXT[2][dot]
        | (((a2 << _U64(8)) | (a1 >> _U64(56))) & _HIGH[2][p])
        | (exp_text << _U64(16))
    )


# Values per _fill call. Each numpy call has a fixed cost, and the
# temporaries of a much larger call outgrow the CPU cache; 8k to 16k values
# per call measured fastest in the trace writer. The temporaries are
# allocated per call and grow with it, so the smaller end keeps the memory
# peak low: a trace writer block, about 21,000 values, makes three chunks.
_CHUNK = 8192


def text(x, out=None) -> np.ndarray:
    """(len(x), WIDTH) uint8 canvas, row i repr(float(x[i])) with NUL slots.

    The bytes of a row, NULs removed, are exactly repr(float(x[i])). The
    canvas is out, a C-contiguous (len(x), WIDTH) uint8 array, when given.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if out is None:
        out = np.empty((len(x), WIDTH), dtype=np.uint8)
    words = out.view("<u8")
    chunks = max(1, -(-len(x) // _CHUNK))
    step = max(1, -(-len(x) // chunks))  # even chunks of at most _CHUNK
    for lo in range(0, len(x), step):
        _fill(x[lo : lo + step], words[lo : lo + step])
    canvas = words.view(np.uint8)
    for i in np.flatnonzero(~np.isfinite(x)).tolist():
        r = repr(float(x[i])).encode()
        canvas[i] = 0
        canvas[i, : len(r)] = np.frombuffer(r, dtype=np.uint8)
    return canvas
