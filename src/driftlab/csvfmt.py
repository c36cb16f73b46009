"""The text of ``trajectory.csv``: each float as the shortest decimal that
reads back to it, byte for byte as ``repr`` writes it, and each integer or
flag as an integer, formatted a whole table at a time in numpy.

Digits.  Each finite nonzero float v = c * 2**q gets the shortest decimal
f * 10**e in its rounding interval, the one nearest v where there are two,
and the even one of an exact tie: ``repr``'s digits.  They come from
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020; the
algorithm of Java's ``Double.toString``, less its two-digit minimum),
written for ``uint64`` arrays.  Its 126-bit multipliers g ~ 10**-k are
exact Python integers split into two 63-bit halves, and each 64 x 128-bit
product is carried through 32-bit limbs.  The products at the interval's
ends are the product at v plus a shifted g, added with its carry.

Layout.  Each cell is laid out in a 32-byte slot: byte 1 is the sign, bytes
2-6 the "0.000" of a value below 1 (``repr`` writes 1e-05 and 1e+16 in
exponent form and 0.0001 and 1000000000000000.0 in full), bytes 7-24 the
digits with the decimal point put in by shifting the digits after it one
byte on, bytes 25-29 the exponent and byte 30 the comma or newline.  The
pieces a cell does not use stay NUL, and the table's text is its slots with
every NUL taken out.  An integer column takes the same slot with no point,
and nan, inf and -inf are written as words.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M52 = _U(2**52 - 1)
_TOP = _U(0x7FEF_FFFF_FFFF_FFFF)  # the largest finite magnitude


def _flog10pow2(q):
    """floor(log10(2**q)) for |q| <= 5456."""
    return (q * 661_971_961_083) >> 41


def _flog10threequarterspow2(q):
    """floor(log10(3/4 * 2**q)) for |q| <= 5456."""
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _multiplier(k: int) -> int:
    """g = floor(10**-k * 2**-r) + 1, where r puts it in [2**125, 2**126)."""
    r = _flog2pow10(-k) - 125
    if k <= 0:
        return (10**-k >> r if r >= 0 else 10**-k << -r) + 1
    return (1 << -r) // 10**k + 1


def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Per biased exponent, at index ``be`` for a regular rounding interval
    and ``be + 2048`` for the narrower one below a power of two: the
    decimal scale k, h + 2 (the shift that puts c in g's scale), g's high
    and low 63 bits, and the implicit leading bit."""
    be = np.arange(4096) % 2048
    q = np.clip(be, 1, 2046) - 1075
    k = np.where(np.arange(4096) >= 2048, _flog10threequarterspow2(q), _flog10pow2(q))
    ks = range(int(k.min()), int(k.max()) + 1)
    g = [_multiplier(j) for j in ks]
    g_hi = np.array([v >> 63 for v in g], dtype=_U)[k - ks.start]
    g_lo = np.array([v & (2**63 - 1) for v in g], dtype=_U)[k - ks.start]
    shift = (q + _flog2pow10(-k) + 4).astype(_U)
    return k, shift, g_hi, g_lo, np.where(be > 0, 1 << 52, 0).astype(_U)


_K, _SHIFT, _G_HI, _G_LO, _HIDDEN = _exponent_tables()


def _mulhi(al, ah, b0, b1):
    """The high 64 bits of a * b, for a = ah * 2**32 + al and b = b1 * 2**32 + b0."""
    t = al * b0
    t >>= _U(32)
    u = ah * b0
    u += t
    v = al * b1
    v += u & _M32
    v >>= _U(32)
    u >>= _U(32)
    hi = ah * b1
    hi += u
    hi += v
    return hi


def _rop(y1, y0, x1):
    """Schubfach's rop: g * cp in units of 2**127, rounded to odd, for
    g = g_hi * 2**63 + g_lo, given g_hi * cp = y1 * 2**64 + y0 and the high
    word x1 of g_lo * cp (its low word, as in Schubfach, left out)."""
    z = y0 >> _U(1)
    z += x1
    r = z >> _U(63)
    r += y1
    z <<= _U(1)
    r |= z != 0
    return r


def _plus(hi, lo, g, sh):
    """(hi, lo) + (g << sh), as 128 bits."""
    dlo = g << sh
    rlo = lo + dlo
    rhi = g >> (_U(64) - sh)
    rhi += hi
    rhi += rlo < lo
    return rhi, rlo


def _minus(hi, lo, g, sh):
    """(hi, lo) - (g << sh), as 128 bits."""
    dlo = g << sh
    rhi = hi - (g >> (_U(64) - sh))
    rhi -= lo < dlo
    return rhi, lo - dlo


def _shortest(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f, k)`` with f * 10**k the shortest decimal that reads back to
    each float whose bits, sign cleared, are ``mag``: f < 10**17.  Zeros,
    infinities and NaNs give numbers that mean nothing."""
    be = mag >> _U(52)
    t = mag & _M52
    irregular = t == 0
    irregular &= be > 1
    row = be | irregular.astype(_U) << _U(11)
    k = _K.take(row)
    g_hi = _G_HI.take(row)
    g_lo = _G_LO.take(row)
    shift = _SHIFT.take(row)
    c = _HIDDEN.take(row)
    c |= t
    del be, t, row
    cp = c << shift
    b0 = cp & _M32
    b1 = cp >> _U(32)
    p1lo = g_hi * cp
    p1hi = _mulhi(g_hi & _M32, g_hi >> _U(32), b0, b1)
    p0lo = g_lo * cp
    p0hi = _mulhi(g_lo & _M32, g_lo >> _U(32), b0, b1)
    del cp, b0, b1
    vb = _rop(p1hi, p1lo, p0hi)
    # the interval's ends, (4c +/- 2) << h, or (4c - 1) << h below a power of two
    shift -= _U(1)
    vbr = _rop(*_plus(p1hi, p1lo, g_hi, shift), _plus(p0hi, p0lo, g_lo, shift)[0])
    shift -= irregular
    vbl = _rop(*_minus(p1hi, p1lo, g_hi, shift), _minus(p0hi, p0lo, g_lo, shift)[0])
    del p1hi, p1lo, p0hi, p0lo, g_hi, g_lo, shift
    # an end is in the interval when c is even
    odd = c & _U(1)
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    # one digit fewer: 10 * (s // 10) or the next multiple of 10, if just one is in
    sp10 = s // _U(10)
    sp10 *= _U(10)
    s4 = sp10 << _U(2)
    upin = vbl <= s4
    s4 += _U(40)
    wpin = s4 <= vbr
    coarse = upin ^ wpin
    # else s or s + 1: the one inside, or the nearer, ties to even
    s4 = s << _U(2)
    uin = vbl <= s4
    s4 += _U(4)
    up = s4 <= vbr
    vb &= _U(3)
    vb += s & _U(1)
    nearer = vb > _U(2)
    nearer |= ~uin
    up &= nearer
    s += up
    sp10 += wpin * _U(10)
    return np.where(coarse, sp10, s), k


_POW10 = np.array([10**i for i in range(18)], dtype=_U)


def _digit_words() -> np.ndarray:
    """Four ASCII digits as one little-endian ``uint32``: at index g < 10,000
    those of g; at 10,000 + g the same with trailing zeros NUL; at 20,000 + d
    the digit d after three NULs."""
    digit = np.arange(10, dtype=np.uint8) + ord("0")
    full = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1).reshape(-1, 4)
    trailing = np.logical_and.accumulate(full[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    lead = np.zeros((10, 4), np.uint8)
    lead[:, 3] = digit
    return np.concatenate([full, np.where(trailing, 0, full), lead]).view(np.uint32).ravel()


_DIGITS = _digit_words()

# A cell's layout is 4 * kind + 2 * (its sign bit) + (more than one digit).
# A float's kind is its decimal point position clipped to [-4, 17], the
# clipped ends being the exponent form; then come inf, nan, and an integer's
# digit count, 1..17.
_DECPT_LO, _DECPT_HI = -4, 17
_INF = _DECPT_HI - _DECPT_LO + 1
_NAN = _INF + 1
_WHOLE = _NAN  # + the digit count


def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per layout, over a slot: the bytes kept of the digits as they are,
    those kept of the digits shifted one byte on, and the fixed bytes (the
    sign, the point, "0.", the zeros of an integral value, "inf", "nan")."""
    rows = 4 * (_WHOLE + 18)
    kept, shifted, fixed = bytearray(32 * rows), bytearray(32 * rows), bytearray(32 * rows)
    for i in range(rows):
        kind, negative, more = i // 4, i // 2 % 2, i % 2
        at = 32 * i + 7  # digit j is at byte at + j, or at + 1 + j past the point
        point = None
        if kind > _WHOLE:
            fixed[at:at + kind - _WHOLE] = b"0" * (kind - _WHOLE)
        elif kind >= _INF:
            fixed[at:at + 3] = b"inf" if kind == _INF else b"nan"
            negative = negative and kind == _INF
        elif kind in (0, _INF - 1):
            point = 1 if more else None
        elif kind + _DECPT_LO <= 0:
            fixed[at - 2 + kind + _DECPT_LO:at] = b"0." + b"0" * -(kind + _DECPT_LO)
        else:
            point = kind + _DECPT_LO
            fixed[at:at + point] = b"0" * point
            fixed[at + point + 1] = ord("0")
        if kind < _INF or kind > _WHOLE:
            end = 17 if point is None else point
            kept[at:at + end] = b"\xff" * end
            if point is not None:
                fixed[at + point] = ord(".")
                shifted[at + point + 1:at + 18] = b"\xff" * (17 - point)
        if negative:
            fixed[at - 6] = ord("-")
    return tuple(np.frombuffer(table, _U).reshape(rows, 4) for table in (kept, shifted, fixed))


_KEPT, _SHIFTED, _FIXED = _layout_tables()


def _exponent_words() -> np.ndarray:
    """At decpt + 400: "e", the sign and at least two digits of decpt - 1,
    where decpt is outside [-3, 16], at bytes 25-29 of a slot's last word;
    0 inside."""
    decpt = np.arange(-400, 401)
    e = np.abs(decpt - 1)
    three = e >= 100
    text = np.zeros((len(decpt), 8), np.uint8)
    text[:, 1] = ord("e")
    text[:, 2] = np.where(decpt > 0, ord("+"), ord("-"))
    text[:, 3] = np.where(three, e // 100, e // 10) + ord("0")
    text[:, 4] = np.where(three, e // 10, e) % 10 + ord("0")
    text[:, 5] = np.where(three, e % 10 + ord("0"), 0)
    text[(decpt > -4) & (decpt < 17)] = 0
    return text.view(_U).ravel()


_EXPONENTS = _exponent_words()


def _slots(f17: np.ndarray, layout: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Cells as 32-byte slots (four ``uint64`` words each), given their
    digits as 17-digit integers, their layouts less the digit-count bit, and
    the words OR-ed into their last words."""
    n = len(f17)
    groups = np.empty((5, n), np.uint32)
    hi = f17 // _U(10**8)
    lo = (f17 - hi * _U(10**8)).astype(np.uint32)
    hi = hi.astype(np.uint32)
    np.floor_divide(hi, np.uint32(10**8), out=groups[0])
    hi -= groups[0] * np.uint32(10**8)
    np.floor_divide(hi, np.uint32(10**4), out=groups[1])
    np.subtract(hi, groups[1] * np.uint32(10**4), out=groups[2])
    np.floor_divide(lo, np.uint32(10**4), out=groups[3])
    np.subtract(lo, groups[3] * np.uint32(10**4), out=groups[4])
    # a group drops its trailing zeros when every group after it is zero
    zero = groups[4] == 0
    groups[4] += np.uint32(10_000)
    for j in (3, 2, 1):
        zero_j = groups[j] == 0
        groups[j] += zero * np.uint32(10_000)
        zero &= zero_j
    groups[0] += np.uint32(20_000)
    del hi, lo
    slots = np.zeros((n, 4), _U)
    for j, group in enumerate(groups):
        _DIGITS.take(group, out=slots.view(np.uint32)[:, 1 + j], mode="clip")
    del groups
    layout += ~zero
    words = slots.ravel()
    moved = words << _U(8)
    moved[1:] |= words[:-1] >> _U(56)
    moved = moved.reshape(n, 4)
    mask = _KEPT.take(layout, axis=0)
    slots &= mask
    _SHIFTED.take(layout, axis=0, out=mask, mode="clip")
    moved &= mask
    slots |= moved
    del moved
    _FIXED.take(layout, axis=0, out=mask, mode="clip")
    slots |= mask
    slots[:, 3] |= tail
    return slots


def csv_lines(cols: Sequence[np.ndarray]) -> bytes:
    """The CSV lines of a table given as its columns: floats as ``repr``
    writes them, integers (below 10**17 in magnitude) and flags as integers."""
    table = np.column_stack(cols).astype(np.float64, copy=False)
    shape = table.shape
    floats = [j for j, col in enumerate(cols) if col.dtype.kind == "f"]
    whole = [j for j, col in enumerate(cols) if col.dtype.kind != "f"]
    negative = np.signbit(table).ravel()
    mag = table.view(_U) & _U(2**63 - 1)
    # an integer's digits are its own, and its decimal point follows them
    f = np.empty(shape, _U)
    if whole:
        f[:, whole] = np.abs(np.column_stack([cols[j] for j in whole]).astype(np.int64))
    k = np.zeros(shape, np.int64)
    del table
    if floats:
        f_floats, k_floats = _shortest(mag[:, floats].ravel())
        f[:, floats] = f_floats.reshape(len(f), len(floats))
        k[:, floats] = k_floats.reshape(len(f), len(floats))
        del f_floats, k_floats
    f, k, mag = f.ravel(), k.ravel(), mag.ravel()
    decpt = np.searchsorted(_POW10, f, side="right")
    f *= _POW10.take(17 - decpt)
    decpt += k
    del k
    kind = np.clip(decpt, _DECPT_LO, _DECPT_HI)
    kind -= _DECPT_LO
    odd = mag - _U(1) >= _TOP  # zeros (whose magnitude less one wraps), infinities and NaNs
    if odd.any():
        np.putmask(f, odd, 0)
        np.putmask(decpt, odd, 1)
        np.putmask(kind, odd, 1 - _DECPT_LO)
        np.putmask(kind, mag > _TOP, _INF)
        np.putmask(kind, mag > _U(0x7FF0_0000_0000_0000), _NAN)
    del mag, odd
    by_row = decpt.reshape(shape)
    kind.reshape(shape)[:, whole] = _WHOLE + by_row[:, whole]
    by_row[:, whole] = 1
    kind *= 4
    kind += 2 * negative
    del negative
    decpt += 400
    tail = _EXPONENTS.take(decpt)
    del decpt, by_row
    ends = np.full(len(cols), ord(","), _U)
    ends[-1] = ord("\n")
    tail.reshape(shape)[:] |= ends << _U(48)
    text = _slots(f, kind, tail).view(np.uint8).ravel()
    return text[text != 0].tobytes()
