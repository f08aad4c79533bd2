"""floattext.text against repr, value by value.

The kernel must write exactly repr(float(x)) for every float64: trace.csv
is compared byte for byte with a writer that calls repr. Random bit
patterns cover every exponent, subnormals and both signs; the hand-picked
sets cover the cases Schubfach treats apart (powers of two, whose rounding
interval is narrower below than above), the places where repr switches
notation, three-digit exponents, exact ties between two shortest
candidates, and the values the kernel formats without digits from Schubfach.
A chunk whose every point falls after the first digit is tested with and
without a value that has digits before its point.
"""

import math

import numpy as np
import pytest

from ehadc import floattext


def texts(values) -> list[bytes]:
    canvas = floattext.text(np.asarray(values, dtype=np.float64))
    assert canvas.shape == (len(values), floattext.WIDTH) and canvas.dtype == np.uint8
    rows = np.concatenate((canvas, np.full((len(values), 1), ord("\n"), np.uint8)), axis=1)
    return rows.tobytes().translate(None, b"\0").split(b"\n")[:-1]


def assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got = texts(values)
    want = [repr(v).encode() for v in values.tolist()]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, [(want[i], got[i], hex(values[i : i + 1].view(np.uint64)[0])) for i in bad[:5]]


def neighbours(values, ulps=1):
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return np.concatenate([bits + d for d in range(-ulps, ulps + 1)]).view(np.float64)


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(2020).integers(0, 2**64, size=300_000, dtype=np.uint64)
    values = bits.view(np.float64)
    # Every biased exponent, the subnormal one (0) and inf/nan (2047)
    # included, appears with both signs.
    fields = (bits >> np.uint64(52)).astype(np.int64)
    assert len(np.unique(fields)) == 4096
    assert_matches_repr(values)


def test_random_subnormals_match_repr():
    fractions = np.random.default_rng(5).integers(1, 2**52, size=20_000, dtype=np.uint64)
    assert_matches_repr(fractions.view(np.float64))
    assert_matches_repr(-fractions.view(np.float64))


def test_every_power_of_two_matches_repr():
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    assert_matches_repr(powers)
    assert_matches_repr([-p for p in powers])
    assert_matches_repr(neighbours(powers))


def test_neighbours_of_notation_switches_match_repr():
    values = [1e-5, 1e-4, 1e15, 1e16, 9999999999999998.0, 0.001, 1.0, 10.0]
    assert_matches_repr(neighbours(values, ulps=3))
    assert_matches_repr(-neighbours(values, ulps=3))


@pytest.mark.parametrize(
    "value, text",
    [(1e-05, b"1e-05"), (0.0001, b"0.0001"), (1e16, b"1e+16"), (1e15, b"1000000000000000.0"),
     (9999999999999998.0, b"9999999999999998.0"), (5e-324, b"5e-324"), (-1e-310, b"-1e-310"),
     (1.7976931348623157e308, b"1.7976931348623157e+308"), (0.1, b"0.1"), (-1.5, b"-1.5")],
)
def test_known_texts(value, text):
    assert texts([value]) == [text]


def test_three_digit_exponents_match_repr():
    rng = np.random.default_rng(7)
    mantissas = rng.random(20_000) + 1.0
    exponents = rng.integers(-324, 309, size=20_000)
    with np.errstate(over="ignore", under="ignore"):
        values = mantissas * np.power(10.0, exponents.astype(np.float64))
    values = values[np.isfinite(values)]
    assert np.mean(np.abs(values) >= 1e100) > 0.3
    assert_matches_repr(values)
    assert_matches_repr([10.0**e for e in range(-323, 309)])


def test_values_formatted_without_schubfach_digits_match_repr():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -3.0, 100.0, 123456.0,
              2.0**52, 2.0**53, 4503599627370495.5, 1e15 + 2, -9007199254740992.0]
    assert_matches_repr(values)
    integers = np.random.default_rng(3).integers(-(2**53), 2**53, size=20_000)
    assert_matches_repr(integers.astype(np.float64))
    assert_matches_repr(np.round(np.random.default_rng(4).standard_normal(20_000) * 1e4))


def test_ties_pick_the_even_candidate_as_repr_does():
    # v = m * 2**z * 2**q, m odd, exactly halfway between two multiples of
    # 10**k whose digits are as short as any in v's rounding interval.
    rng = np.random.default_rng(11)
    ties = []
    for q in range(-1074, 0):
        k = int(floattext.decimal_exponent(np.int64(q), False))
        z = -q + k - 1
        if 0 <= z <= 52:
            for m in rng.integers(2 ** (52 - z), 2 ** (53 - z), size=4).tolist():
                ties.append(math.ldexp((m | 1) << z, q))
    assert len(ties) > 200
    assert_matches_repr(ties)


def test_interval_ends_on_a_shorter_decimal_match_repr():
    # v = c * 2**q with an end of its rounding interval, (2c -+ 1) * 2**(q-1),
    # exactly on a multiple of 10**(k+1): repr takes that shorter decimal
    # when c is even (the ends round to v) and not when c is odd.
    rng = np.random.default_rng(13)
    values = []
    for q in range(4, 972):
        step = 5 ** (int(floattext.decimal_exponent(np.int64(q), False)) + 1)
        if step > 2**50:
            break
        for sign in (-1, 1):
            for j in rng.integers(2**53 // step, 2**54 // step, size=12).tolist():
                j |= 1  # 2c + sign = j * step, j odd
                c = (j * step - sign) // 2
                if 2**52 <= c < 2**53:
                    values.append(math.ldexp(c, q))
    assert len(values) > 1200
    assert_matches_repr(values)


def test_typical_trace_values_match_repr():
    rng = np.random.default_rng(1)
    values = np.concatenate((
        np.cumsum(rng.random(50_000)) * 1e-7,  # time grids
        0.4 * np.sin(np.linspace(0.0, 200.0, 50_000)),  # inputs
        np.round(rng.random(10_000) * 4096) / 4096,  # DAC levels
    ))
    assert_matches_repr(values)


def no_digits_before_the_point():
    """Values whose text has its point after the first digit: 0.0... values
    of both signs from 1e-4 to 1, and exponent form, subnormals and values
    from 1e16 up included; none is a zero."""
    rng = np.random.default_rng(19)
    below_one = 10.0 ** rng.uniform(-4.0, 0.0, 1_500)
    exponents = rng.integers(-324, 309, size=1_500)
    with np.errstate(over="ignore", under="ignore"):
        exponent_form = (rng.random(1_500) + 1.0) * np.power(10.0, exponents.astype(np.float64))
    exponent_form = exponent_form[(exponent_form != 0.0) & np.isfinite(exponent_form)]
    exponent_form = exponent_form[(exponent_form < 1e-4) | (exponent_form >= 1e16)]
    subnormals = rng.integers(1, 2**52, size=300, dtype=np.uint64).view(np.float64)
    one, big = np.array([1.0, 1e16]).view(np.int64)
    edges = np.concatenate((
        neighbours([1e-4], ulps=3),
        (big + np.arange(4)).view(np.float64),  # 1e16 and up
        (one - np.arange(1, 6)).view(np.float64),  # the largest below 1
        [5e-324, 1.7976931348623157e308, 1e-05, 0.0001, 0.1, 0.5],
    ))
    values = np.concatenate((below_one, exponent_form, subnormals, edges))
    values = np.concatenate((values, -values))
    assert np.all(values != 0.0) and np.all((np.abs(values) < 1.0) | (np.abs(values) >= 1e16))
    assert len(values) < floattext._CHUNK  # one chunk
    return values


def test_chunks_with_every_point_after_the_first_digit_match_repr():
    assert_matches_repr(no_digits_before_the_point())


@pytest.mark.parametrize("inserted", [1.5, 0.0, -0.0, 9999999999999998.0])
def test_one_value_with_digits_before_the_point_takes_the_general_layout(inserted):
    values = no_digits_before_the_point()
    assert_matches_repr(np.insert(values, len(values) // 2, inserted))


def test_table_rows_are_the_ceiling_of_a_power_of_ten_in_128_bits():
    g_hi, g_lo = floattext.g_table()
    assert len(g_hi) == len(g_lo) == 617
    for row, k in enumerate(range(-324, 293)):
        g = (int(g_hi[row]) << 64) | int(g_lo[row])
        # 10**-k = g_exact * 2**(f - 127) with f = floor(log2(10**-k)).
        num, den = 10 ** max(-k, 0), 10 ** max(k, 0)
        f = int(floattext.floor_log2_pow10(np.int64(-k)))
        # 2**f <= 10**-k < 2**(f+1)
        assert den * 2 ** max(f, 0) <= num * 2 ** max(-f, 0) < 2 * den * 2 ** max(f, 0)
        # (g - 1) * 2**(f - 127) < 10**-k <= g * 2**(f - 127)
        lhs, rhs = num * 2 ** max(127 - f, 0), den * 2 ** max(f - 127, 0)
        assert (g - 1) * rhs < lhs <= g * rhs
        assert 2**127 <= g < 2**128


def test_decimal_exponent_is_exact_over_every_double_exponent():
    for q in range(-1074, 972):
        for closer_lower in (False, True):
            k = int(floattext.decimal_exponent(np.int64(q), closer_lower))
            # 10**k <= s * 2**q < 10**(k+1), s = 1 or 3/4, in integers.
            s_num, s_den = (3, 4) if closer_lower else (1, 1)
            a = s_num * 2 ** max(q, 0) * 10 ** max(-k, 0)
            b = s_den * 2 ** max(-q, 0) * 10 ** max(k, 0)
            assert b <= a < 10 * b, (q, closer_lower, k)


def min_of_linear_mod(n, m, a, b):
    """min over 0 <= x < n of (a*x + b) % m, in O(log m) steps.

    Either the sequence climbs by a <= m/2, and its minima are the values
    just after each wrap, (b - j*m) % a; or it falls by m - a < m/2, and its
    minima are the values just before each wrap, (b + j*m) % (m - a), and
    the last one. Both are the same problem with a modulus at most m/2.
    """
    best = m
    while n > 0:
        a, b = a % m, b % m
        best = min(best, b)
        if a == 0:
            break
        if 2 * a <= m:
            r = m % a
            n, m, a, b = (a * (n - 1) + b) // m, a, (a - r) % a, (b - r) % a
        else:
            c = m - a
            best = min(best, (a * (n - 1) + b) % m)
            n = (n * c - b - 1) // m + 1 if n * c > b else 0
            m, a, b = c, m % c, b % c
    return best


def test_min_of_linear_mod_against_brute_force():
    rng = np.random.default_rng(17)
    for n, m, a, b in rng.integers(1, 200, size=(5_000, 4)).tolist():
        assert min_of_linear_mod(n, m, a, b) == min((a * x + b) % m for x in range(n))


def test_rounding_margins_hold_for_every_double():
    # _round_to_odd reads p / 2**127 = X + e, 0 <= e < 2**-69, for
    # X = (4c + off) * 2**q / 10**k: v's scaled value (off 0) and the ends of
    # its rounding interval (off -2 or, at a closer lower end, -1, and +2).
    # That is X rounded to odd if a fractional part of X is never below
    # 2**-69 nor above 1 - 2**-69. Fractional parts are r / M with
    # r = (A * (4c + off)) % M, linear in c, so their extremes over a whole
    # binade of c are exact minima of a linear function modulo M.
    smallest, gap_below_one = 1.0, 1.0
    for field in range(0, 2047):
        q = max(field, 1) - 1075
        c0, n = (1, 2**52 - 1) if field == 0 else (2**52, 2**52)
        cases = [(False, c0, n, off) for off in (-2, 0, 2)]
        if field > 1:
            cases += [(True, 2**52, 1, off) for off in (-1, 0, 2)]
        for closer_lower, c0, n, off in cases:
            k = int(floattext.decimal_exponent(np.int64(q), closer_lower))
            h = q + int(floattext.floor_log2_pow10(np.int64(-k)))
            assert 0 <= h <= 3  # so cp = (4c + off) << h < 2**58
            if k >= 0:  # X = (4c + off) * 2**(q - k) / 5**k
                m, mult = 5**k, pow(2, q - k, 5**k)
            elif q - k < 0:  # X = (4c + off) * 5**-k / 2**(k - q)
                m, mult = 2 ** (k - q), 5**-k % 2 ** (k - q)
            else:
                continue  # X is an integer
            a, b = 4 * mult % m, mult * (4 * c0 + off) % m
            low = 1 + min_of_linear_mod(n, m, a, b - 1)  # m when every r is 0
            high = m - 1 - min_of_linear_mod(n, m, -a % m, -b - 1)
            if low < m:
                assert low * 2**69 > m, (field, closer_lower, off)
                smallest = min(smallest, low / m)
            assert (m - high) * 2**69 > m, (field, closer_lower, off)
            gap_below_one = min(gap_below_one, (m - high) / m)
    # The bounds the _round_to_odd docstring states.
    assert smallest >= 2**-65.5 and gap_below_one >= 2**-60.6
