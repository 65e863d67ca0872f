"""Whole-array float64 formatting, byte for byte as C's "%.17g".

`format_g17(x)` returns, for each value, its "%.17g" text in a 32-byte row of
ASCII padded with NUL, so a caller can join rows and drop every NUL at once.
The last byte of a row is always NUL, free for a delimiter.  The steps:

1. e = floor(log10|x|); s = |x| * 10**(16 - e) as a double-double p + q: an
   exact Dekker product of |x| (split by clearing its low 27 bits) with the
   split high part of a (hi, lo) pair for the power of ten, plus |x| * lo.
2. N = s rounded to an integer (17 digits).  |q| < 64, so where p lies 64
   units inside [1e16, 1e17), e is proved and N has no carry to 10**17;
   the log10 only splits such values from the rest.
3. Word 0 of the row is one lookup: sign, "0.000" lead, first digit, and the
   point when it follows that digit.  Words 1-2 are the other 16 digits, one
   byte each, from a table of four ASCII digits per 0..9999; XOR with "0" and
   frexp count the digits %g keeps before its trailing zeros.  A point after
   digit e > 0 (fixed form, -4 <= e < 17) is put into words 1-2 by shift and
   mask, pushing their last byte into word 3; the exponent form puts "e+XX[X]" there.

The error of s is below 1e-14 of a unit of N, far under the 1e-6 margin
around a rounding tie.  Values the fast path cannot prove -- non-finite,
+-0, |x| outside [1e-280, 1e280], where the split or the table could under-
or overflow, those whose p is not 64 units inside [1e16, 1e17) (decade
edges, where floor(log10) can be one off), and those within 1e-6 of a tie
-- are formatted one at a time by Python's "%.17g", which rounds correctly,
half to even.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 32  # four 8-byte words: sign, lead, first digit and point; 16 digits; exponent

_E_MIN, _E_MAX = -281, 280   # decimal exponents of the fast range, one spare below
_HIGH = np.uint64(2**64 - 2**27)  # keeps the top 26 bits of a double's significand
_TIE_MARGIN = 1e-6
_ZEROS = np.uint64(0x3030303030303030)  # "0" in every byte


@functools.cache
def _powers():
    """(hi_hi, hi_lo, lo) of 10**k for k = 16 - e, e in [_E_MIN, _E_MAX]: hi + lo is
    10**k to about 2**-106 relative, and hi = hi_hi + hi_lo is split for the Dekker product."""
    hi, lo = [], []
    for k in range(16 - _E_MAX, 16 - _E_MIN + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi.append(num / den)  # int true division rounds correctly, here and below
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    hi, lo = np.array(hi), np.array(lo)
    c = 134217729.0 * hi  # 2**27 + 1: Veltkamp's split into halves of 26 bits
    hi_hi = c - (c - hi)
    return hi_hi, hi - hi_hi, lo


def _text_rows(texts, width):
    """ASCII rows of `width` bytes, NUL-padded."""
    return np.array([t.encode("ascii") for t in texts], dtype=f"S{width}").view(np.uint8).reshape(-1, width)


@functools.cache
def _tables():
    """Text as uint64 words, so that a lookup is one gather.

    - head: sign, lead, first digit and point, right-aligned, at 120 * negative +
      20 * form + 10 * point + digit; forms 2..5 lead with "0." .. "0.000", form 1
      never takes the point
    - quads: 0..9999 as four ASCII digits, in the low and in the high half of a word
    - below, dot: words 1-2 with their first j bytes set, and with "." at byte j
    - by e in [_E_MIN, _E_MAX]: 20 * form; e where a fixed-form point can follow digit
      e > 0, else 0; the exponent text, none in the fixed form
    """
    head = [f"{sign}{lead}{d}{'.' * (point and not form)}".rjust(8, "\0") for sign in ("", "-")
            for form, lead in enumerate(["", "", "0.", "0.0", "0.00", "0.000"])
            for point in (0, 1) for d in range(10)]
    quads = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    quads = quads.view(np.uint32).astype(np.uint64)
    j = np.arange(17)[:, None] - np.arange(16)  # position j less byte index
    below, dot = (np.where(c, byte, 0).astype(np.uint8).view(np.uint64).T
                  for c, byte in ((j > 0, 0xFF), (j == 0, ord("."))))
    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (e >= -4) & (e < 17)
    form = np.select([~fixed, e >= 0], [0, np.minimum(e, 1)], 1 - e)
    tail = [f"e{k:+03d}" if not f else "" for k, f in zip(e, fixed)]
    return (_text_rows(head, 8).view(np.uint64).ravel(), np.stack([quads, quads << np.uint64(32)])[..., 0],
            below, dot, (20 * form).astype(np.int32), np.where(fixed & (e > 0), e, 0).astype(np.int32),
            _text_rows(tail, 8).view(np.uint64).ravel())


def _scaled(a, e):
    """|x| * 10**(16 - e) as an unevaluated sum p + q, p an integer-valued double."""
    bh, bl, lo = (t.take(_E_MAX - e) for t in _powers())
    ah = (a.view(np.uint64) & _HIGH).view(np.float64)
    al = a - ah
    p = (bh + bl) * a
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo


def _decimal(x):
    """(N, e, fast): |x| = N 10**(e - 16), N a 17-digit integer, correctly rounded where fast."""
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, q = _scaled(a, e)
    r = np.rint(q)
    # e and N are proved only 64 units inside [1e16, 1e17), since |q| < 64; the rest go slow
    fast &= (p >= 1e16 + 64) & (p < 1e17 - 64) & (np.abs(q - r) < 0.5 - _TIE_MARGIN)
    n = p.astype(np.int64) + r.astype(np.int64)
    return np.where(fast, n, 10**16), e, fast  # slow rows get a lead the tables can index


def format_g17(x: np.ndarray) -> np.ndarray:
    """"%.17g" of every value of the float64 array `x`, as `x.shape + (WIDTH,)` uint8."""
    shape = np.shape(x)
    x = np.asarray(x, dtype=np.float64).ravel()
    n, e, fast = _decimal(x)
    head, quads, below, dot, form, whole, tail = _tables()
    n = n.view(np.uint64)  # unsigned division is the cheaper
    lead = n // 10**16
    n -= lead * 10**16
    high = n // 10**8
    eights = np.stack([high, n - high * 10**8])  # digits 1-8 and 9-16
    fours = eights // 10**4
    digits = quads[0].take(fours) | quads[1].take(eights - fours * 10**4)
    # %g drops trailing zeros: digits 1..last are shown
    values = (digits ^ _ZEROS).view(np.int64)
    last = (np.frexp(values[1] * 2.0**64 + values[0])[1] + 7) >> 3
    i = e - _E_MIN
    w = whole.take(i)
    keep = np.maximum(last, w)
    index = lead.view(np.int64)
    index += form.take(i)
    index += (last > 0).astype(np.int64) * 10 + (x < 0).astype(np.int64) * 120
    words = np.empty((x.size, WIDTH // 8), dtype=np.uint64)
    words[:, 0] = head.take(index)
    np.bitwise_and(digits[0], below[0].take(keep), out=words[:, 1])
    np.bitwise_and(digits[1], below[1].take(keep), out=words[:, 2])
    words[:, 3] = tail.take(i)
    # a point after digit w > 0 goes to byte w of words 1-2, and their last byte to word 3
    # on those rows alone: branch-free on every row, it took spectra-long's ensemble table 2.8 -> 5.4 ms
    rows = np.flatnonzero((last > w) & (w > 0))
    at = w.take(rows)
    inner = digits.take(rows, axis=1) & below.take(last.take(rows), axis=1)
    moving = inner & ~below.take(at, axis=1)
    inner = inner ^ moving | dot.take(at, axis=1) | moving << np.uint64(8)
    inner[1] |= moving[0] >> np.uint64(56)
    words[rows, 1] = inner[0]
    words[rows, 2] = inner[1]
    words[rows, 3] = moving[1] >> np.uint64(56)
    out = words.view(np.uint8)

    slow = np.flatnonzero(~fast)
    out[slow] = _text_rows(["%.17g" % v for v in x[slow].tolist()], WIDTH)
    return out.reshape(shape + (WIDTH,))
