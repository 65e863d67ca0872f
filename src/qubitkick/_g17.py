"""Whole-array float64 formatting, byte for byte as C's "%.17g".

`format_g17(x)` returns, for each value, its "%.17g" text in a fixed-width
row of ASCII bytes padded with NUL, so a caller can join rows and drop every
NUL at once.  The last byte of a row is always NUL, free for a delimiter.
The steps:

1. e = floor(log10|x|); s = |x| * 10**(16 - e) as a double-double p + q: an
   exact Dekker product of |x| with the high part of a (hi, lo) pair for the
   power of ten, plus |x| * lo.  numpy has no fused multiply-add, so the
   product is split by Veltkamp's method.  Where s lands outside
   [1e16, 1e17), e moves by one and s is taken again.
2. N = s rounded to an integer (17 digits); a carry to 10**17 bumps e.
3. The text is six 8-byte words, each one table lookup: sign, "0.000" lead
   and leading digit; four groups of four digits; "e+XX[X]".  Every digit is
   followed by a NUL slot, one of which takes the point.  %g takes the fixed
   form when -4 <= e < 17 and drops trailing zeros and a bare point; those
   digits are masked to NUL.

The error of s is below 1e-14 of a unit of N, far under the 1e-6 margin
around a rounding tie.  Values the fast path cannot prove -- non-finite,
+-0, |x| outside [1e-280, 1e280], where the split or the table could under-
or overflow, and those within 1e-6 of a tie -- are formatted one at a time
by Python's "%.17g", which rounds correctly, half to even.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 48  # six 8-byte words: sign, lead and first digit; 16 digits; exponent

_E_MIN, _E_MAX = -281, 280   # decimal exponents of the fast range, one spare below
_SPLIT = 134217729.0         # 2**27 + 1, Veltkamp's splitter for 53-bit doubles
_TIE_MARGIN = 1e-6
_POINT = ord(".")


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers():
    """(hi, hi_hi, hi_lo, lo) of 10**k for k = 16 - e, e in [_E_MIN, _E_MAX]: hi + lo is
    10**k to about 2**-106 relative, and hi is pre-split for the Dekker product."""
    hi, lo = [], []
    for k in range(16 - _E_MAX, 16 - _E_MIN + 1):
        if k >= 0:
            exact = 10**k
            h = float(exact)
            hi.append(h)
            lo.append(float(exact - int(h)))
        else:
            den = 10**-k
            h = 1 / den  # int true division rounds correctly
            num, pow2 = h.as_integer_ratio()
            hi.append(h)
            lo.append((pow2 - num * den) / (pow2 * den))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _text_rows(texts, width):
    """ASCII rows of `width` bytes, NUL-padded."""
    return np.array([t.encode("ascii") for t in texts], dtype=f"S{width}"
                    ).view(np.uint8).reshape(len(texts), width)


@functools.cache
def _tables():
    """8-byte words of text, each read as one uint64 so that a lookup is one gather.
    A digit is followed by a NUL slot where a point can go.

    - head: sign, "0.000" lead for e = 0, -1, ..., -4 and the leading digit, at
      index (10 * lead_length + digit) + 50 * negative
    - digits: 0..9999, four digits with their slots
    - masks: the first 0..4 digits of a digits word kept
    - tail: the exponent of each e in [_E_MIN, _E_MAX], then none for the fixed form

    and, as integers, the trailing zeros of each of 0..9999 written with four digits.
    """
    leads = ["", "0.", "0.0", "0.00", "0.000"]
    head = [f"{sign}{lead}{d}".rjust(7, "\0") for sign in ("", "-") for lead in leads for d in range(10)]
    n = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    digits = np.zeros((10_000, 8), dtype=np.uint8)
    digits[:, ::2] = n + ord("0")
    nonzero = n[:, ::-1] != 0
    trailing_zeros = np.where(nonzero.any(axis=1), np.argmax(nonzero, axis=1), 4)
    masks = np.zeros((5, 8), dtype=np.uint8)
    for m in range(5):
        masks[m, :2 * m] = 0xFF
    tail = [f"e{e:+03d}" for e in range(_E_MIN, _E_MAX + 1)] + [""]
    words = (t.view(np.uint64).ravel() for t in (_text_rows(head, 8), digits, masks, _text_rows(tail, 8)))
    return (*words, trailing_zeros)


def _scaled(a, e):
    """|x| * 10**(16 - e) as an unevaluated sum p + q, p an integer-valued double."""
    p_hi, p_hh, p_hl, p_lo = _powers()
    row = _E_MAX - e
    bh, bl = p_hh[row], p_hl[row]
    ah, al = _split(a)
    p = a * p_hi[row]
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err + a * p_lo[row]


def format_g17(x: np.ndarray) -> np.ndarray:
    """"%.17g" of every value of the float64 array `x`, as `x.shape + (WIDTH,)` uint8."""
    shape = np.shape(x)
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)

    e = np.floor(np.log10(a)).astype(np.int64)
    p, q = _scaled(a, e)
    # p - 10**m is exact where the sum is near 0, so these signs are those of s - 10**m
    low = (p - 1e16) + q < 0
    high = (p - 1e17) + q >= 0
    if low.any() or high.any():
        e += high.astype(np.int64) - low
        p, q = _scaled(a, e)
    r = np.rint(q)
    fast &= np.abs(np.abs(q - r) - 0.5) > _TIE_MARGIN
    n = p.astype(np.int64) + r.astype(np.int64)
    carry = n >= 10**17
    n = np.where(carry, 10**16, n)
    e += carry

    head, digit_words, masks, tail, trailing_zeros = _tables()
    lead, rest = np.divmod(n, 10**16)
    groups = [rest // 10**12, rest // 10**8 % 10**4, rest // 10**4 % 10**4, rest % 10**4]
    # index of the last nonzero digit: %g drops the zeros after it
    zeros, run = np.zeros_like(n), np.ones(n.shape, dtype=bool)
    for g in reversed(groups):
        zeros += run * trailing_zeros[g]
        run &= g == 0
    last = 16 - zeros

    fixed = (e >= -4) & (e < 17)
    small = fixed & (e < 0)
    # digits 0..keep are shown; the point follows digit `whole` where more are shown
    whole = np.where(fixed & ~small, e, 0)
    keep = np.maximum(last, whole)

    words = np.empty((x.size, WIDTH // 8), dtype=np.uint64)
    words[:, 0] = head[10 * np.where(small, -e, 0) + lead + 50 * (x < 0)]
    for k, g in enumerate(groups):
        words[:, 1 + k] = digit_words[g] & masks[np.clip(keep - 4 * k, 0, 4)]
    words[:, 5] = tail[np.where(fixed, -1, e - _E_MIN)]
    out = words.view(np.uint8)
    dotted = np.flatnonzero(~small & (last > whole))
    out[dotted, 7 + 2 * whole[dotted]] = _POINT

    slow = np.flatnonzero(~fast)
    out[slow] = _text_rows(["%.17g" % v for v in x[slow].tolist()], WIDTH)
    return out.reshape(shape + (WIDTH,))
