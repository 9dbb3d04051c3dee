"""CSV bytes of float arrays, byte for byte what Python ``repr`` writes.

``csv_bytes(rows)`` formats a 2-D float array as CSV lines: every value as
``repr(float(v))`` would spell it, fields joined by ``,`` and each row ended
by ``\\r\\n`` -- the csv module's output for the same rows -- without a
Python string per value.

Digits.  ``repr`` writes the shortest decimal that reads back to the same
double, and of two such decimals the one nearer to the value (ties to the
even digit).  Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) finds it with integer arithmetic alone, so it vectorizes:
for x = c 2^q it picks k from q, multiplies 4c, 4c - 2 (or 4c - 1 at a
power of two) and 4c + 2 by a 126-bit approximation g of 10^-k, and reads
the shortest digits off the three rounded-to-odd products.  ``_rop`` is
Java's ``DoubleToDecimal.rop`` on 32-bit limbs held in uint64, and the
selection is Java's ``toDecimal`` without its two-digit minimum, so that
5e-324 stays ``5e-324``.  k, the shift of 4c and the limbs of g depend on
the exponent bits alone, so each is read from a table indexed by them.

Layout.  CPython's rules: positional when -4 < decpt <= 16 (the value is
0.d1d2... x 10^decpt), else ``d[.ddd]e±XX[X]``; whole numbers end in
``.0``; ``-0.0``, ``inf``, ``-inf`` and ``nan`` as such.  The 17 digits
are made eight to a uint64 word (SWAR), and the count of significant ones
is read off the same words: flag the nonzero bytes, smear each flag down
to the bytes below it and add the flags up with one multiply.  Each field
is laid out in a slot of its own, prefilled with ``0``: the sign, the
first digit, and the other 16 in one 16-byte item after the place of the
point.  Only a field with more than one digit before the point writes them
once more a byte earlier and moves those after the point on with one
gather and scatter.  Then the point, and the exponent with the separator
as one 8-byte item of a table.  The length of every field follows from its
digit count and decimal point, so each slot is written once into the
output at its exact offset, in index order, and the spare tail of each is
written over by the next.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_SLOT = 34  # bytes per slot: "-", 16 digits before the point, ".", a moved 16-byte run
_FIELD = 26  # the longest field, "-1.2345678901234567e-308", and "\r\n"
_FRAC = (1 << 52) - 1
_SIGN = 1 << 63
_INF = 0x7FF << 52  # the bits of inf; above it, nan
_ONE = 0x3FF << 52  # the bits of 1.0, a stand-in for 0 and non-finite values
_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1
_E_MIN, _E_MAX = -292, 324  # 10^e for every e = -k a double needs
_EXP_LO, _EXP_HI = -324, 308  # exponents of repr's e-form
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_DIGIT_BLOCK = 4096  # values per Schubfach pass: its temporaries (near 0.5 MB) stay in cache
_BYTES = 0x0101010101010101  # one in every byte
_INF_NAN = np.frombuffer(b"infnan", "V3")


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| <= 400."""
    return (e * 1741647) >> 19


@cache
def _g_table():
    """The 32-bit limbs (g1 high, g1 low, g0 high, g0 low) of g = g1 2^63 + g0,
    floor(10^e 2^-r) + 1 with 2^125 <= 10^e 2^-r < 2^126, for e in
    [_E_MIN, _E_MAX].  Built on first use, from Python ints."""
    g_limbs = np.empty((4, _E_MAX - _E_MIN + 1), np.uint64)
    for i, e in enumerate(range(_E_MIN, _E_MAX + 1)):
        r = _flog2pow10(e) - 125
        num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        if r >= 0:
            den <<= r
        else:
            num <<= -r
        g = num // den + 1
        g1, g0 = g >> 63, g & _M63
        g_limbs[:, i] = (g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32)
    g_limbs.flags.writeable = False
    return g_limbs


@cache
def _exponent_tables():
    """What Schubfach needs of the exponent bits, indexed by 2 be + (c == 0)
    for the biased exponent be and the fraction bits c: k, the shift h of
    4c and the column of g in ``_g_table``.  Built on first use."""
    index = np.arange(4096, dtype=np.int32)
    be = index >> 1
    irregular = index & 1
    irregular &= be > 1  # c = 0 at be <= 1 is a subnormal, not 2^52
    q = np.maximum(be, 1) - 1075
    k = q * 1262611
    k -= irregular * 524031
    k >>= 22  # floor(log10(2^q)), or of 3/4 2^q
    h = q + _flog2pow10(-k) + 2  # in 1..4
    tables = k.astype(np.int16), h.astype(np.uint8), (-k - _E_MIN).astype(np.int16)
    for t in tables:
        t.flags.writeable = False
    return tables


def _rop(g, cp, t1, t2, t3, t4):
    """floor(g cp / 2^127) rounded to odd, as Java's ``rop`` forms it:
    floor(g1 cp / 2) + floor(g0 cp / 2^64), then its bits from 63 up, with
    bit 0 set when any lower bit is.  ``cp`` < 2^60 is overwritten; the
    result is returned in t1; t2..t4 are scratch."""
    a1, a0, c1, c0 = g
    b1 = np.right_shift(cp, 32, out=t1)
    b0 = np.bitwise_and(cp, _M32, out=cp)
    x1 = np.multiply(c0, b0, out=t2)  # floor(g0 cp / 2^64)
    x1 >>= 32
    x1 += np.multiply(c1, b0, out=t3)
    x1 += np.multiply(c0, b1, out=t3)
    x1 >>= 32
    x1 += np.multiply(c1, b1, out=t3)
    mid = np.multiply(a1, b0, out=t3)  # g1 cp = hi 2^64 + lo
    mid += np.multiply(a0, b1, out=t4)
    lo = np.multiply(a0, b0, out=t4)
    hi = np.multiply(a1, b1, out=b1)
    low_mid = np.left_shift(mid, 32, out=cp)
    lo += low_mid
    hi += lo < low_mid
    mid >>= 32
    hi += mid
    lo >>= 1
    lo += x1
    hi += np.right_shift(lo, 63, out=x1)
    lo &= _M63
    hi |= lo != 0
    return hi


def _shortest(bits):
    """(s, k) with s 10^k the shortest decimal that reads back to each
    positive finite double, given as its bits (which are overwritten); s
    may end in zeros."""
    n = len(bits)
    ks, hs, gs = _exponent_tables()
    row = np.right_shift(bits, 52).view(np.int64)
    c = np.bitwise_and(bits, _FRAC, out=bits)
    irregular = c == 0
    row <<= 1
    row += irregular
    k = ks.take(row)
    h = hs.take(row).astype(np.uint64)
    g = _g_table().take(gs.take(row), axis=1)
    np.bitwise_or(c, 1 << 52, out=c, where=row > 1)  # the hidden bit of a normal double
    irregular &= row > 3  # c = 2^52: the gap below is half the gap above
    del row
    odd = np.bitwise_and(c, 1, out=np.empty(n, np.uint8), casting="unsafe")
    c <<= 2
    t = [np.empty(n, np.uint64) for _ in range(6)]
    vb = _rop(g, np.left_shift(c, h, out=t[5]), *t[:4])
    c -= 2
    c += irregular  # 4c - 2, or 4c - 1
    lower = _rop(g, np.left_shift(c, h, out=t[5]), *t[1:5])
    c += 4
    c -= irregular  # 4c + 2
    upper = _rop(g, np.left_shift(c, h, out=c), *t[2:])
    del g, h, irregular, c
    lower += odd  # an odd c's interval leaves out its ends
    upper -= odd
    s = np.right_shift(vb, 2, out=t[3])
    sp = np.floor_divide(s, 10, out=t[4])
    w = np.multiply(sp, 40, out=t[5])
    u_in = lower <= w  # one digit fewer: u' = 10 sp, w' = 10 sp + 10
    w += 40
    w_in = w <= upper
    shorter = u_in != w_in
    shorter &= s >= 10
    np.left_shift(s, 2, out=w)
    u_in = lower <= w  # as many digits: u = s, w = s + 1
    w += 4
    w_in_long = w <= upper
    vb &= 7  # the two bits below s and the last bit of s
    up = np.right_shift(0b11001000, vb, out=w)  # vb - 4s > 2, or = 2 and s odd
    up &= 1
    s += np.where(u_in != w_in_long, w_in_long, up)  # exactly one in: that one
    sp += w_in
    sp *= 10
    return np.where(shorter, sp, s), k


def _digit_words(m):
    """The first of the 17 digits of each m < 10^17, and the other 16 as an
    (n, 2) array of little-endian uint64 words with one digit value (not yet
    ASCII) per byte, first digits lowest; ``m`` is overwritten.

    The words are made eight digits at a time inside a uint64 (SWAR): split
    into 4-digit lanes, then 2-digit, then 1-digit ones, by multiply-shift
    division within each lane."""
    n = len(m)
    lead = m // _POW10[16]
    m -= lead * _POW10[16]
    words = np.empty((n, 2), "<u8")
    words[:, 0] = hi = m // _POW10[8]
    hi *= _POW10[8]
    np.subtract(m, hi, out=words[:, 1])
    v = words.reshape(-1)
    hi = v // 10000
    t = hi * 10000
    v -= t
    v <<= 32
    v |= hi  # [abcd, efgh] in 32-bit lanes, first digits lowest
    np.multiply(v, 5243, out=hi)
    hi >>= 19
    hi &= 0x0000007F0000007F  # /100 in each lane
    v <<= 16
    v -= np.multiply(hi, 100 * 65536 - 1, out=t)  # [ab, cd, ef, gh] in 16-bit lanes
    np.multiply(v, 103, out=hi)
    hi >>= 10
    hi &= 0x000F000F000F000F  # /10 in each lane
    v <<= 8
    v -= np.multiply(hi, 10 * 256 - 1, out=t)  # one digit per byte
    return lead.astype(np.uint8), words


def _significant(words):
    """1 + the index of the last nonzero digit among the 16 of ``words``
    (0 past the lead digit when all are zero), as int16: flag each nonzero
    byte in its top bit, smear every flag down to the bytes below it, let
    the second word's flags reach the first word, then count the flags of
    both words with one multiply by 0x0101...01."""
    f = words + 0x7F * _BYTES  # a byte of 1..9 reaches 0x80; no carry between bytes
    f &= 0x80 * _BYTES
    t = np.empty_like(f)
    for bits in (8, 16, 32):
        f |= np.right_shift(f, bits, out=t)
    f >>= 7
    first, second = f[:, 0], f[:, 1]
    first |= (second & 1) * _BYTES  # any digit of the second word counts all of the first
    first += second
    first *= _BYTES
    first >>= 56
    count = first.astype(np.int16)
    count += 1
    return count


@cache
def _tail_text():
    """What follows a field's digits, as 8-byte items, and its length: at
    index 2 i + last, the exponent _EXP_LO + i ("e-324" to "e+308"; i =
    _EXP_HI - _EXP_LO + 1 for none) and then "," or, for the last field
    of a row, "\\r\\n".  Built on first use."""
    text = [b"e%+03d" % e for e in range(_EXP_LO, _EXP_HI + 1)] + [b""]
    tails = [t + sep for t in text for sep in (b",", b"\r\n")]
    length = np.array([len(t) for t in tails], np.int16)
    length.flags.writeable = False
    return np.frombuffer(b"".join(t.ljust(8) for t in tails), np.uint64), length


def _items(buf, itemsize):
    """A view of the uint8 array ``buf`` with an item of ``itemsize`` bytes
    starting at every byte."""
    return np.ndarray((len(buf) - itemsize + 1,), f"V{itemsize}", buf, strides=(1,))


def csv_bytes(rows):
    """The CSV lines of the 2-D float array ``rows`` (at least one column)
    as a uint8 array: each value spelled as ``repr(float(v))``, fields
    joined by ``,``, every row ended by ``\\r\\n``."""
    n_rows, n_cols = rows.shape
    if n_rows == 0:
        return np.empty(0, np.uint8)
    x = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1)
    n = len(x)
    bits = x.view(np.uint64)
    neg = bits >= _SIGN
    mag = bits & ~np.uint64(_SIGN)
    zero = mag == 0
    nonfinite = mag >= _INF
    neg &= mag <= _INF  # nan has no sign in repr
    np.copyto(mag, _ONE, where=zero | nonfinite)  # digits of 1.0: decpt 1, as 0.0 needs
    m = np.empty(n, np.uint64)
    decpt = np.empty(n, np.int16)
    for lo in range(0, n, _DIGIT_BLOCK):
        hi = lo + _DIGIT_BLOCK
        m[lo:hi], decpt[lo:hi] = _shortest(mag[lo:hi])
    del mag
    # A normal double's s has 16 or 17 digits; only subnormals have fewer.
    short = m < _POW10[16]
    decpt += 17
    decpt -= short
    np.multiply(m, 10, out=m, where=short)  # left-aligned: 17 digits, trailing zeros last
    few = np.flatnonzero(m < _POW10[16])
    if len(few):
        missing = 17 - np.searchsorted(_POW10, m[few], side="right")
        m[few] *= _POW10[missing]
        decpt[few] -= missing
    del short, few
    np.copyto(m, 0, where=zero)
    lead, words = _digit_words(m)
    del m
    nd = _significant(words)  # significant digits
    words |= 0x30 * _BYTES
    lead += 48

    expo = decpt < -3
    expo |= decpt > 16
    ip = decpt - expo * (decpt - 1)  # digits before the point: 1 in the e-form
    frac = ip <= 0  # "0.", then -ip zeros
    first = (2 - ip) * frac  # where digit 0 goes
    first += neg
    dot = first + ip
    dot -= frac
    end = nd - ip  # digits after the point: at least one, but for "de±XX"
    np.maximum(end, 1, out=end)
    end += dot
    end += 1
    end -= np.multiply(expo & (nd == 1), 2, dtype=np.int16)
    del nd
    out = np.full((n, _SLOT), 48, np.uint8)  # "0": the zeros of "0.000ddd"
    out[:, 0] -= neg.view(np.uint8) * np.uint8(3)  # "-", or "0" before the point
    base = np.arange(0, n * _SLOT, _SLOT, dtype=np.int64)
    flat = out.reshape(-1)
    at = base + first
    flat[at] = lead
    at += 2
    at -= frac  # "d.ddd": the other digits after the point; "0.00ddd": after the first
    digits = _items(flat, 16)
    digits[at] = words.view("V16").reshape(n)
    idx = np.flatnonzero(ip > 1)  # "dd.ddd": the digits before the point but the first
    if len(idx):
        at = base[idx] + first[idx]
        at += 1
        digits[at] = words.view("V16")[idx, 0]  # all of them, after the first
        at += ip[idx]  # then those after the point once more, a byte on
        digits[at] = digits[at - 1]
    del lead, words, first, ip, frac, digits
    flat[base + dot] = 46  # "."
    del dot
    idx = np.flatnonzero(nonfinite)
    if len(idx):
        at = neg[idx].astype(np.int16)
        _items(flat, 3)[base[idx] + at] = _INF_NAN[np.isnan(x[idx]).view(np.int8)]
        end[idx] = at + 3
    text, length = _tail_text()
    tail = decpt - (_EXP_HI + 2)  # the exponent's index (decpt - 1 - _EXP_LO) less none's
    tail *= expo
    tail += _EXP_HI - _EXP_LO + 1
    tail *= 2
    tail[n_cols - 1::n_cols] += 1
    base += end
    _items(flat, 8)[base] = text.take(tail).view("V8")  # exponent and separator
    del base, expo, decpt
    end += length.take(tail)
    offset = np.cumsum(end, dtype=np.int64)
    total = int(offset[-1])
    offset -= end
    csv = np.empty(total + _FIELD, np.uint8)
    _items(csv, _FIELD)[offset] = np.ndarray((n,), f"V{_FIELD}", out, strides=(_SLOT,))
    return csv[:total]
