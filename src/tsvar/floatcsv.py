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
5e-324 stays ``5e-324``.

Layout.  CPython's rules: positional when -4 < decpt <= 16 (the value is
0.d1d2... x 10^decpt), else ``d[.ddd]e±XX[X]``; whole numbers end in
``.0``; ``-0.0``, ``inf``, ``-inf`` and ``nan`` as such.  Every field gets a
fixed slot of 26 bytes, prefilled with ``0``, into which the sign,
point, digits, exponent and separator are scattered; a length mask then
keeps each slot's field, in order.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_SLOT = 26  # the longest field, "-1.2345678901234567e-308", and "\r\n"
_FRAC = (1 << 52) - 1
_SIGN = 1 << 63
_INF = 0x7FF << 52  # the bits of inf; above it, nan
_ONE = 0x3FF << 52  # the bits of 1.0, a stand-in for 0 and non-finite values
_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1
_E_MIN, _E_MAX = -292, 324  # 10^e for every e = -k a double needs
_EXP_LO, _EXP_HI = -324, 308  # exponents of repr's e-form
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_DIGIT_BLOCK = 4096  # values per Schubfach pass: its temporaries stay near 0.5 MB
_KEEP = np.arange(_SLOT) < np.arange(_SLOT + 1)[:, None]  # row L: the first L bytes
_INF_NAN = np.frombuffer(b"infnan", "V3")
_CRLF = np.frombuffer(b"\r\n", "V2")


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


def _rop(g, cp, t1, t2, t3, t4):
    """floor(g cp / 2^127) rounded to odd, as Java's ``rop`` forms it:
    floor(g1 cp / 2) + floor(g0 cp / 2^64), then its bits from 63 up, with
    bit 0 set when any lower bit is.  ``cp`` < 2^60 is overwritten and
    returned; t1..t4 are scratch."""
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
    hi = np.multiply(a1, b1, out=cp)
    low_mid = np.left_shift(mid, 32, out=t1)
    lo += low_mid
    hi += lo < low_mid
    mid >>= 32
    hi += mid
    lo >>= 1
    lo += x1
    hi += np.right_shift(lo, 63, out=t3)
    lo &= _M63
    hi |= lo != 0
    return hi


def _shortest(bits):
    """(s, k) with s 10^k the shortest decimal that reads back to each
    positive finite double, given as its bits (which are overwritten); s
    may end in zeros."""
    n = len(bits)
    be = bits >> 52
    c = np.bitwise_and(bits, _FRAC, out=bits)
    irregular = c == 0  # c = 2^52: the gap below is half the gap above
    irregular &= be > 1
    np.bitwise_or(c, 1 << 52, out=c, where=be != 0)
    q = np.maximum(be, 1, out=be).view(np.int64)
    q -= 1075
    k = q * 1262611  # floor(log10(2^q)), or of 3/4 2^q when irregular
    t = np.multiply(irregular, 524031, out=np.empty(n, np.int64))
    k -= t
    k >>= 22
    np.negative(k, out=t)
    q += _flog2pow10(t)
    q += 2
    h = q.astype(np.uint8)  # q + floor(log2(10^-k)) + 2, in 1..4
    del q, be
    t -= _E_MIN
    g = [col.take(t) for col in _g_table()]
    odd = (c & 1).astype(bool)
    cb = np.left_shift(c, 2, out=c)
    scratch = (t.view(np.uint64),) + tuple(np.empty(n, np.uint64) for _ in range(3))
    vb = _rop(g, np.left_shift(cb, h), *scratch)
    cb -= 2
    cb += irregular  # 4c - 2, or 4c - 1
    lower = _rop(g, np.left_shift(cb, h), *scratch)
    cb += 4
    cb -= irregular  # 4c + 2
    upper = _rop(g, np.left_shift(cb, h, out=cb), *scratch)
    t3, t4 = scratch[2:]
    del g, t, scratch, cb
    lower += odd  # an odd c's interval leaves out its ends
    upper -= odd
    s = np.right_shift(vb, 2, out=t3)
    sp = np.floor_divide(s, 10, out=t4)
    w = sp * 40
    u_in = lower <= w  # one digit fewer: u' = 10 sp, w' = 10 sp + 10
    w += 40
    w_in = w <= upper
    shorter = u_in != w_in
    shorter &= s >= 10
    np.left_shift(s, 2, out=w)
    u_in = lower <= w  # as many digits: u = s, w = s + 1
    w += 4
    w_in_long = w <= upper
    w -= 2
    up = vb > w  # both in: the nearer, ties to even
    up |= (vb == w) & (s & 1 == 1)
    np.copyto(up, w_in_long, where=u_in != w_in_long)
    s += up
    sp += w_in
    sp *= 10
    np.copyto(s, sp, where=shorter)
    return s, k


def _ascii_digits(m):
    """The 17 ASCII digits of each m < 10^17, as an (n, 17) uint8 array;
    ``m`` is overwritten.

    Sixteen of them are made eight at a time inside a little-endian uint64
    (SWAR): split into 4-digit lanes, then 2-digit, then 1-digit ones, by
    multiply-shift division within each lane."""
    n = len(m)
    out = np.empty((n, 17), np.uint8)
    lead = m // _POW10[16]
    m -= lead * _POW10[16]
    lead += 48
    out[:, 0] = lead
    del lead
    eights = np.empty((n, 2), "<u8")
    np.floor_divide(m, _POW10[8], out=eights[:, 0])
    np.subtract(m, eights[:, 0] * _POW10[8], out=eights[:, 1])
    v = eights.reshape(-1)
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
    v |= 0x3030303030303030
    out[:, 1:] = v.view(np.uint8).reshape(n, 16)
    return out


@cache
def _exponent_text():
    """"e-05", "e+16", "e-308", ... as 5-byte items, and their lengths, for
    the exponents _EXP_LO to _EXP_HI."""
    text = [b"e%+03d" % e for e in range(_EXP_LO, _EXP_HI + 1)]
    length = np.array([len(t) for t in text], np.int16)
    length.flags.writeable = False
    return np.frombuffer(b"".join(t.ljust(5) for t in text), "V5"), length


def _put(out, at, items):
    """Write the byte strings ``items`` (a void array) into the uint8 array
    ``out`` at the byte offsets ``at``, through a view of ``out`` that has
    an item starting at every byte."""
    view = np.ndarray((len(out) - items.itemsize + 1,), items.dtype, out, strides=(1,))
    view[at] = items


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
    mag[zero | nonfinite] = _ONE  # digits of 1.0: decpt 1, one digit, as 0.0 needs
    m = np.empty(n, np.uint64)
    decpt = np.empty(n, np.int16)
    for lo in range(0, n, _DIGIT_BLOCK):
        hi = lo + _DIGIT_BLOCK
        m[lo:hi], decpt[lo:hi] = _shortest(mag[lo:hi])
    del mag
    count = np.searchsorted(_POW10, m, side="right")  # digits of m
    decpt += count
    m *= _POW10[17 - count]  # left-aligned: 17 digits, trailing zeros last
    nd = np.full(n, 17, np.int16)  # significant digits: 17 less the trailing zeros
    t = m
    for p in (16, 8, 4, 2, 1):
        q = t // _POW10[p]
        z = q * _POW10[p] == t
        t = np.where(z, q, t)
        nd -= z * p
    del t, q, z, count
    m[zero] = 0
    digits = _ascii_digits(m)
    del m

    expo = decpt < -3
    expo |= decpt > 16
    ip = np.where(expo, np.int16(1), decpt)  # digits before the point; <= 0: "0."
    pt = np.maximum(ip, 0)  # digit j goes after the point when j >= pt
    dot = np.maximum(ip, 1)
    dot += neg
    out = np.full(n * _SLOT, 48, np.uint8)
    base = np.arange(0, n * _SLOT, _SLOT, dtype=np.int64)
    out[base[neg]] = 45  # "-"
    first = base + dot
    first -= ip  # digit 0, were it before the point
    out[first + 1] = digits[:, 0]  # all 17 digits as if after the point ...
    _put(out, first + 2, digits[:, 1:].view("V16").reshape(n))
    for j in range(int(pt.max(initial=0))):  # ... then those before it; j >= pt land on it
        out[first + np.minimum(ip, j)] = digits[:, j]
    first += ip
    out[first] = 46  # "."
    del digits, first
    mend = dot - ip  # one past the last significant digit
    mend += nd
    mend += nd > pt
    dot += 2
    end = np.maximum(mend, dot)  # positional: at least "d.0"
    del ip, pt, dot, nd
    idx = np.flatnonzero(expo)
    if len(idx):
        text, length = _exponent_text()
        e = decpt[idx] - (_EXP_LO + 1)
        at = mend[idx]
        end[idx] = at + length[e]
        _put(out, base[idx] + at, text[e])  # a spare fifth byte lands on the separator's
    idx = np.flatnonzero(nonfinite)
    if len(idx):
        _put(out, base[idx] + neg[idx], _INF_NAN[np.isnan(x[idx]).view(np.int8)])
        end[idx] = neg[idx] + 3
    base += end
    seps = base.reshape(n_rows, n_cols)
    out[seps[:, :-1]] = 44  # ","
    _put(out, seps[:, -1], _CRLF)
    del base, seps
    lengths = end.reshape(n_rows, n_cols)
    lengths += 1
    lengths[:, -1] += 1
    return out.reshape(n, _SLOT)[_KEEP.take(end, axis=0)]
