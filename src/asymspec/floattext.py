"""Text of many doubles at once, byte for byte what ``float.__repr__`` writes.

``serialize.dumps`` hands the floats of a large document here (see
``serialize._float_list_bodies``).  They are formatted in steps of
``_CHUNK`` values, each step a fixed sequence of numpy operations:

- digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
  2020; the JDK's ``DoubleToDecimal``) on uint64 arrays gives the shortest
  decimal that rounds to each double, the closest one where that length has
  several, ties to an even digit: the digits ``float.__repr__`` picks;
- layout: repr's rules (``0.000ddd`` for 1e-4 <= |x| < 1, ``ddd.ddd`` or
  ``ddd.0`` below 1e16, otherwise ``d.ddde+XX``) built as bytes in four
  words per value, whose zero bytes are deleted.

Zeros skip digit generation; subnormal and non-finite values, which are
rare, go through ``serialize._float_text``.  Each value's text ends with ','
(';' for the last value of a list), so the batch's text splits into lists
at ';' and each list's separator replaces its commas: no per-float string is
made.  The tables are built on first use.
"""

from __future__ import annotations

from functools import cache
from types import SimpleNamespace

import numpy as np

from .serialize import _float_text

# Values per step.  Larger steps spread numpy's per-call cost over more
# values until the temporaries page-fault: on the benchmark's n = 100 and 200
# kernel ASEs (in process) 4096 took 0.75-0.97 of 2048's time, 16384 more.
_CHUNK = 4096

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_SIGNIFICAND = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_COMMA, _SEMICOLON = _U(ord(",") << 56), _U(ord(";") << 56)


def list_bodies(values, sizes, seps) -> list:
    """Per list, its values' text joined by its separator; ``values`` holds
    the lists' float64 values one list after another, ``sizes`` their
    lengths (each at least 1)."""
    term = np.full(len(values), _COMMA)
    term[np.cumsum(sizes) - 1] = _SEMICOLON
    bodies = b"".join(
        chunk_text(values[s:s + _CHUNK], term[s:s + _CHUNK])
        for s in range(0, len(values), _CHUNK)
    ).decode("ascii").split(";")
    for k, sep in enumerate(seps):  # in place: one copy of the text at a time
        bodies[k] = bodies[k].replace(",", sep)
    return bodies[:-1]


@cache
def _tables():
    """Lookup tables of the formatter, built on first use.

    ``schubfach`` (6 x 4096, uint64) and ``k`` (4096, int64) are indexed by
    the biased exponent, plus 2048 for a significand of exactly 2^52 (whose
    lower neighbour is half as far): the 63-bit halves of g (also split into
    32-bit halves), the shift h and the decimal exponent k of Schubfach.
    ``ascii4`` holds the four ASCII digits of 0..9999 as a little-endian
    word and ``zeros4`` their trailing zeros (4 for 0).  ``layout``
    (10 x 378) is indexed by 18 * (0 for scientific notation, else the
    decimal point position + 4) + the number of significant digits.
    ``exponent`` holds the "e+XX" bytes at bytes 2..6 of a word, indexed by
    the decimal point position + 400.
    """
    g_hi, g_lo = [], []
    for k in range(-324, 293):
        e = (-k * 913124641741) >> 38  # floor(-k log2(10))
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        if e <= 125:
            num <<= 125 - e
        else:
            den <<= e - 125
        g = num // den + 1
        g_hi.append(g >> 63)
        g_lo.append(g & ((1 << 63) - 1))
    g_hi = np.array(g_hi, dtype=np.uint64)
    g_lo = np.array(g_lo, dtype=np.uint64)
    idx = np.arange(4096)
    q = (idx & 2047) - 1075
    k = (q * 661971961083 - (idx >> 11) * 274743187321) >> 41
    h = q + ((-k * 913124641741) >> 38) + 2
    g1, g0 = g_hi[k + 324], g_lo[k + 324]
    schubfach = np.stack([g1, g1 & _M32, g1 >> _U(32), g0 & _M32, g0 >> _U(32),
                          h.astype(np.uint64)])
    quad = np.arange(10000)
    ascii4 = sum((quad // 10 ** (3 - j) % 10 + 48) << (8 * j) for j in range(4))
    zeros4 = sum((quad % 10 ** j == 0).astype(np.int64) for j in range(1, 4)) + (quad == 0)
    ones = [(1 << (8 * b)) - 1 for b in range(9)]
    layout = np.zeros((10, 21, 18), dtype=np.uint64)
    for cls in range(21):
        decpt = cls - 4
        for nd in range(1, 18):
            if cls == 0:  # d.ddde+XX
                prefix, point, width = 0, 1 if nd > 1 else 24, nd + (nd > 1)
            elif decpt <= 0:  # 0.000ddd
                prefix, point, width = 2 - decpt, 24, nd
            else:  # ddd.ddd or ddd.0
                prefix, point, width = 0, decpt, max(nd, decpt + 1) + 1
            col = [sum(b"0.000"[j] << (8 * j + 8) for j in range(prefix))]
            col += [ones[min(max(point - 8 * w, 0), 8)] for w in range(3)]
            col += [46 << (8 * (point - 8 * w)) if 0 <= point - 8 * w < 8 else 0
                    for w in range(3)]
            col += [ones[min(max(width - 8 * w, 0), 8)] for w in range(3)]
            layout[:, cls, nd] = col
    exponent = [0] * 800
    for decpt in range(-330, 330):
        text = b"e%+03d" % (decpt - 1)
        exponent[decpt + 400] = int.from_bytes(text, "little") << 16
    zero = np.array([0, int.from_bytes(b"0.0", "little"), 0, 0], dtype=np.uint64)
    return SimpleNamespace(schubfach=schubfach, k=k, ascii4=ascii4.astype(np.uint64),
                           zeros4=zeros4, layout=layout.reshape(10, -1),
                           exponent=np.array(exponent, dtype=np.uint64), zero=zero)


def _mul_high(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of a * b for uint64 arrays given as 32-bit halves,
    a < 2^63 and b < 2^60: then a_hi * b_lo + a_lo * b_hi plus the carry of
    a_lo * b_lo stays below 2^64."""
    return a_hi * b_hi + ((((a_lo * b_lo) >> _U(32)) + a_hi * b_lo + a_lo * b_hi) >> _U(32))


def _round_to_odd(g, cp):
    """Schubfach's rop(g, cp): g * cp / 2^127 rounded to odd (g in 63-bit
    halves; cp = (4c + 2 at most) << h < 2^60, h being 2..5 for normal doubles)."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    cp_lo, cp_hi = cp & _M32, cp >> _U(32)
    z = ((g1 * cp) >> _U(1)) + _mul_high(g0_lo, g0_hi, cp_lo, cp_hi)
    return (_mul_high(g1_lo, g1_hi, cp_lo, cp_hi) + (z >> _U(63))) | ((z & _M63) != 0)


def _shortest_decimal(bits):
    """(d, decpt) for positive normal doubles given as uint64 bit patterns.

    Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020;
    as in the JDK's ``DoubleToDecimal``): the shortest decimal that rounds
    to each double, the one closest to it where that length has several
    (ties to an even last digit), which is also ``float.__repr__``'s
    choice.  ``d`` holds its digits padded with zeros to exactly 17, and
    the value is 0.d * 10**decpt.
    """
    tables = _tables()
    t = bits & _SIGNIFICAND
    bq = bits >> _U(52)
    irregular = (t == 0) & (bq > _U(1))
    row = bq | (irregular * _U(2048))
    g1, g1_lo, g1_hi, g0_lo, g0_hi, h = np.take(tables.schubfach, row, axis=1)
    k = tables.k[row]
    g = (g1, g1_lo, g1_hi, g0_lo, g0_hi)
    c = t | _HIDDEN
    cb = c << _U(2)
    out = c & _U(1)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - _U(2) + irregular) << h) + out
    vbr = _round_to_odd(g, (cb + _U(2)) << h) - out
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    closer = vb + (s & _U(1)) <= (s << _U(2)) + _U(2)  # s is nearer, or as near and even
    d = np.where(upin != wpin, sp10 + wpin * _U(10), s + ~np.where(uin != win, uin, closer))
    short = d < _U(10 ** 16)
    return np.where(short, d * _U(10), d), k + 17 - short


def chunk_text(x, term) -> bytes:
    """ASCII text of the float64 array ``x``, each value as ``float.__repr__``
    writes it (JSON's NaN and Infinity for non-finite values) followed by
    the byte at the top of its ``term`` word.

    Each value gets four words (see ``_digit_words``) whose bytes, read
    little-endian, are its text padded with zero bytes; those are deleted
    at the end.  Zeros skip digit generation; subnormal and non-finite
    values are written by ``serialize._float_text``.
    """
    bits = x.view(np.uint64)
    mag = bits & _M63
    normal = ((mag >> _U(52)) - _U(1)) < _U(2046)  # 0 < biased exponent < 2047
    if normal.all():  # no zero, subnormal or non-finite value
        words = _digit_words(mag)
    else:
        words = np.tile(_tables().zero, (len(x), 1))
        words[normal] = _digit_words(mag[normal])
    words[:, 0] |= (bits >> _U(63)) * _U(ord("-"))
    words[:, 3] |= term
    text = words.astype("<u8", copy=False).view(np.uint8)  # a copy on big-endian hosts only
    for i in np.flatnonzero(~normal & (mag != 0)).tolist():
        special = _float_text(float(x[i])).encode("ascii")
        text[i, :31] = 0
        text[i, :len(special)] = np.frombuffer(special, np.uint8)
    return text.tobytes().translate(None, b"\0")


def _digit_words(bits):
    """Text of positive normal doubles as (len(bits), 4) little-endian words.

    Word 0 holds the "0.000" prefix at bytes 1..5 (byte 0 is left for the
    sign), words 1..3 the 17 digits with the decimal point moved in and
    unused digits cleared, word 3 the exponent at bytes 2..6 (byte 7 is left
    for the terminator).  Zero bytes are not text.
    """
    tables = _tables()
    digits, decpt = _shortest_decimal(bits)
    top = digits // _U(10 ** 16)
    rest = digits - top * _U(10 ** 16)
    r1 = rest // _U(10 ** 8)
    r2 = rest - r1 * _U(10 ** 8)
    q0 = r1 // _U(10 ** 4)
    q1 = r1 - q0 * _U(10 ** 4)
    q2 = r2 // _U(10 ** 4)
    q3 = r2 - q2 * _U(10 ** 4)
    z = tables.zeros4
    significant = 17 - (z[q3] + (q3 == 0) * (z[q2] + (q2 == 0) * (z[q1] + (q1 == 0) * z[q0])))
    a = tables.ascii4
    a1, a3 = a[q1], a[q3]
    x0 = (top + _U(48)) | (a[q0] << _U(8)) | (a1 << _U(40))
    x1 = (a1 >> _U(24)) | (a[q2] << _U(8)) | (a3 << _U(40))
    x2 = a3 >> _U(24)
    scientific = (decpt + 3).astype(np.uint64) > _U(19)  # decpt outside -3..16
    key = (~scientific * (decpt + 4)) * 18 + significant
    prefix, lm0, lm1, lm2, dot0, dot1, dot2, vm0, vm1, vm2 = np.take(tables.layout, key, axis=1)
    lo0, lo1, lo2 = x0 & lm0, x1 & lm1, x2 & lm2
    hi0, hi1, hi2 = x0 ^ lo0, x1 ^ lo1, x2 ^ lo2
    words = np.empty((len(bits), 4), np.uint64)
    words[:, 0] = prefix
    words[:, 1] = (lo0 | (hi0 << _U(8)) | dot0) & vm0
    words[:, 2] = (lo1 | (hi1 << _U(8)) | (hi0 >> _U(56)) | dot1) & vm1
    words[:, 3] = (((lo2 | (hi2 << _U(8)) | (hi1 >> _U(56)) | dot2) & vm2)
                   | tables.exponent[scientific * (decpt + 400)])
    return words
