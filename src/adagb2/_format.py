"""The CSV text of whole columns in numpy, byte for byte that of ``%``.

``csv_lines`` turns equal-length 1-D columns into the lines that
``",".join(...) % row`` gives with ``%.17g`` for each float column and
``%d`` for each integer one, with no Python object per value.

A finite normal double x = m 2^e (2^52 <= m < 2^53) has E = floor(log10|x|)
and the 17 significant digits D = round(|x| 10^(16 - E)) in [10^16, 10^17)
that ``%.17g`` prints.  With a table of T_q = floor(10^q 2^-B_q) in
[2^63, 2^64), m T_q is one 128-bit product, and D is its top bits after a
shift of s = -(B_q + e) bits, with 59 <= s <= 63 whenever E is right
(fixed-precision printf by precomputed powers of ten: U. Adams, "Ryu
revisited: printf floating point conversion", OOPSLA 2019).  T_q is below
the true power by less than 1, so the s fraction bits are below the true
fraction by less than m 2^-s < 2^-6 of a unit of D; for q = 0 to 27, where
E is -11 to 16, T_q is exact and so is the fraction.  The digits round up
when the fraction is above 1/2 and down when it is below 1/2 by more than
that bound.  Otherwise the value is left to ``'%.17g' %``: CPython's exact
conversion (D. Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", 1990) decides it.  So do zeros, subnormals, NaN, +-inf, any
value whose estimate of E (by ``np.log10``) misses, and one whose digits
would round up to 10^17: 0.5% of random bit patterns, and none of the
values of a typical trace, each of them a different way to the same bytes.

The 128-bit product is ``_philox.mul_hi``, the helper of ``PhiloxBlocks``.

A chunk of rows is laid out as a (rows, slots) byte matrix over a zeroed
buffer, each column a field of fixed width, and every slot a row does not
use holds NUL; the text is the buffer with its NUL bytes deleted
(``bytearray.translate``).  A float's 17 digits start at a fixed slot, right
after its sign, "0." and leading zeros (one NUL-padded item from a
table); the digits after its point move on by one slot; ``%g`` strips
trailing zeros and a bare point, so the digits past the kept count are
zeroed; the exponent and the separator sit at fixed slots after them.  An
integer's digits end at its separator, and its leading zeros are zeroed.
A column whose values are bit-equal is formatted once.
"""

import functools

import numpy as np

from ._philox import mul_hi

CHUNK_ROWS = 8192  # rows formatted at once: bounds the byte matrix

_U = np.uint64
_P16, _P17 = _U(10**16), _U(10**17)
_HALF = _U(1 << 63)  # 1/2, as a fraction of D left-aligned in 64 bits
# q = 16 - E, for E of -309 to 309: a normal double's E is -308 to 308.
_Q_MIN, _Q_MAX = 16 - 309, 16 + 309
_POW10 = np.array([10**i for i in range(1, 20)], dtype=np.uint64)

# A float's field: the sign, "0." and up to three zeros in _PREFIX slots,
# 17 digits and a point, "e-308" and a separator.  Its notation is fixed
# with E + 4 in 0 to 20, or exponential with 2 (21) or 3 (22) exponent
# digits.
_PREFIX = 6
_FLOAT_WIDTH = _PREFIX + 18 + 5 + 1
_NOTATIONS = 23
_EXPONENTIAL = 21


@functools.cache
def _powers():
    """T_q as uint64, its low and high 32 bits, 1075 - B_q (so that s is
    that minus the biased exponent), and 1 where T_q is below 10^q 2^-B_q
    (0 where they are equal: q = 0 to 27), for q = _Q_MIN to _Q_MAX."""
    t, c, below = [], [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q >= 0:
            b = (10**q).bit_length() - 64
            t.append(10**q >> b if b >= 0 else 10**q << -b)
            below.append(b > q)  # 2^b divides 10^q iff b <= q
        else:
            b = -63 - (10**-q).bit_length()
            t.append((1 << -b) // 10**-q)
            below.append(True)
        c.append(1075 - b)
    t = np.array(t, dtype=np.uint64)
    return (t, t & _U(0xFFFFFFFF), t >> _U(32), np.array(c, dtype=np.int64),
            np.array(below, dtype=np.uint64))


@functools.cache
def _digits4():
    """The ASCII digits of 0 to 9999 as 4-byte items, and their trailing
    zeros (four for 0)."""
    text = "".join(f"{i:04d}" for i in range(10000))
    zeros = [len(t) - len(t.rstrip("0")) for t in map(str, range(1, 10000))]
    return (np.frombuffer(text.encode(), dtype=np.uint8).view(np.uint32),
            np.array([4] + zeros))


@functools.cache
def _float_tables():
    """For a float field: by (notation, sign), the sign, "0." and zeros
    right-aligned in _PREFIX NUL-padded slots as one item; by notation,
    the digit the point follows (17 for none); by (notation, last nonzero
    digit), the count of digit slots (the point among them) the number
    keeps; by a count c of 0 to 18, the mask of the first c of 18 slots
    as one item; the exponent text "e-05" to "e+308" of E = -999 to
    999, NUL-padded, as rows of 5 bytes."""
    prefixes, points, kept = [], [], []
    for notation in range(_NOTATIONS):
        e = notation - 4
        lead = "0." + "0" * (-e - 1) if e < 0 else ""
        for sign in "", "-":
            prefixes.append((sign + lead).rjust(_PREFIX, "\0").encode())
        point = 17 if e < 0 else 0 if notation >= _EXPONENTIAL else e
        points.append(point)
        for last in range(17):
            kept.append(last + 1 if e < 0
                        else max(last, point) + 1 + (last > point))
    prefixes = np.frombuffer(b"".join(prefixes),
                             dtype=np.dtype((np.void, _PREFIX)))
    first = np.arange(18) < np.arange(19)[:, None]
    exponents = np.frombuffer("".join(
        f"e{e:+03d}".ljust(5, "\0") for e in range(-999, 1000)).encode(),
        dtype=np.uint8).reshape(-1, 5)
    return (prefixes, np.array(points),
            np.array(kept), first.view(np.dtype((np.void, 18)))[:, 0],
            exponents)


def _groups(values, count):
    """The last ``count`` groups of four decimal digits of uint64
    ``values``, most significant first: (len(values), count) int64."""
    parts = np.empty((len(values), count), dtype=np.uint64)
    for i in range(count - 1, -1, -1):
        rest = values // _U(10000)
        parts[:, i] = values - rest * _U(10000)
        values = rest
    return parts.view(np.int64)


def _digits17(x):
    """D, E and whether they are certified, for each double of ``x``.

    D and E are those of ``'%.17g' % x`` where certified.  Elsewhere they
    are arbitrary, but D < 2^64 and |E| < 1000.
    """
    bits = x.view(np.uint64)
    biased = (bits >> _U(52)).view(np.int64) & 0x7FF
    normal = (biased - 1).view(np.uint64) < _U(0x7FE)  # not 0 or 0x7FF
    e10 = np.floor(np.log10(np.abs(x, where=normal, out=np.ones_like(x))))
    e10 = e10.astype(np.int64)
    t, t_low, t_high, c, below = _powers()
    q = (16 - _Q_MIN) - e10  # in range: |E| <= 308, and E = 0 if not normal
    s = c.take(q) - biased  # 59 to 63 if E is right
    ok = normal & ((s - 59).view(np.uint64) <= _U(4))
    s = np.where(ok, s, 63).view(np.uint64)
    m = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    hi = mul_hi(m, t_low.take(q), t_high.take(q),
                np.empty((6, len(x)), np.uint64))
    lo = m * t.take(q)
    up_shift = _U(64) - s
    d = (hi << up_shift) | (lo >> s)
    fraction = lo << up_shift  # its s bits, left-aligned: 1/2 is 2^63
    up = fraction > _HALF
    # The true fraction is above this one by less than m 2^-s (< 2^-6) of
    # a unit of D where T_q is below its power, and by 0 elsewhere.
    margin = (m * below.take(q)) << up_shift
    ok &= up | (fraction < _HALF - margin)
    d += up
    # 10^16 <= D < 10^17 before and after rounding up.
    ok &= (d - up - _P16) < (_P17 - _P16 - up)
    return d, e10, ok


def _float_field(x, chars, separator):
    """Write ``'%.17g' % v`` and ``separator`` for each v of ``x`` into the
    rows of ``chars``, NUL in the slots a row does not use.

    The digits start at slot _PREFIX, the sign, "0." and leading zeros
    right before them and the point among them; the exponent and the
    separator end the field.
    """
    digits4, zeros4 = _digits4()
    prefixes, points, kept, first, exponents = _float_tables()
    d, e10, ok = _digits17(x)
    parts = _groups(d, 5)
    digits = digits4.take(parts).view(np.uint8)  # d_i is byte 3 + i
    # The last nonzero digit is 16 - the trailing zeros (d >= 10^16).
    trailing = zeros4.take(parts[:, 4])
    four_zeros = (parts[:, 4] == 0).nonzero()[0]
    if four_zeros.size:
        z, zero = zeros4.take(parts[four_zeros]), parts[four_zeros] == 0
        trailing[four_zeros] += z[:, 3] + zero[:, 3] * (
            z[:, 2] + zero[:, 2] * z[:, 1])
    fixed = (e10 >= -4) & (e10 < 17)
    notation = np.where(fixed, e10 + 4, _EXPONENTIAL + (np.abs(e10) >= 100))
    key = notation * 2 + (x.view(np.uint64) >> _U(63)).view(np.int64)
    chars[:, :_PREFIX].view(prefixes.dtype)[:, 0] = prefixes.take(key)
    number = chars[:, _PREFIX:_PREFIX + 18]
    number[:, :17] = digits[:, 3:]
    point = points.take(notation)
    pointed = (point < 17).nonzero()[0]
    if pointed.size:  # the digits after the point move on by one slot
        point, shifted = point[pointed], digits[pointed, 2:]
        text = shifted.copy()  # digit j - 1 in slot j
        np.copyto(text[:, :17], shifted[:, 1:], where=first.take(
            point + 1).view(bool).reshape(-1, 18)[:, :17])
        text[np.arange(len(pointed)), point + 1] = ord(".")
        number[pointed] = text
    # The digits %g strips, to NUL.
    count = kept.take(notation * 17 + 16 - trailing)
    np.multiply(number, first.take(count).view(bool).reshape(-1, 18),
                out=number)
    exponential = (~fixed).nonzero()[0]
    if exponential.size:
        chars[exponential, _PREFIX + 18:-1] = exponents[e10[exponential] + 999]
    left = (~ok).nonzero()[0]
    if left.size:  # to %, the whole text from slot 0
        chars[left, :-1] = np.frombuffer("".join(
            ("%.17g" % v).ljust(_FLOAT_WIDTH - 1, "\0")
            for v in x[left].tolist()).encode(), dtype=np.uint8).reshape(
                -1, _FLOAT_WIDTH - 1)
    chars[:, -1] = separator


def _magnitudes(v):
    """|v| as uint64 and whether v < 0, for an integer or bool column."""
    if v.dtype.kind == "i":
        u = v.astype(np.int64).view(np.uint64)
        negative = v < 0
        return np.where(negative, -u, u), negative  # -u: |int64 min| too
    return v.astype(np.uint64), np.zeros(v.shape, bool)


def _int_width(magnitude):
    """The field width of ``magnitude``'s column: a sign, the digits of its
    largest value in whole groups of four, and a separator."""
    return 2 + 4 * -(-len(str(magnitude.max())) // 4)


def _int_field(magnitude, negative, chars, separator):
    """Write ``'%d' % v`` and ``separator`` for each v of ``magnitude`` and
    ``negative``, right-aligned, into the rows of ``chars``, NUL in the
    slots a row does not use."""
    width = chars.shape[1]
    chars[:, 1:-1] = _digits4()[0].take(
        _groups(magnitude, (width - 2) // 4)).view(np.uint8)
    chars[:, -1] = separator
    count = np.searchsorted(_POW10, magnitude, side="right") + 1
    start = width - 1 - count  # the slot of the first digit
    np.multiply(chars, np.arange(width) >= start[:, None], out=chars)
    rows = negative.nonzero()[0]
    chars[rows, start[rows] - 1] = ord("-")


def csv_lines(columns):
    """The CSV lines of the rows of ``columns`` as a uint8 array of text.

    ``columns`` are equal-length 1-D arrays; float ones print as
    ``%.17g``, the others (integers or bools) as ``%d``.  The bytes are
    those of ``"".join(template % row for row in zip(*columns))``.
    """
    fields = []  # (writer, its value arrays, width, bit-equal values)
    for col in columns:
        if col.dtype.kind == "f":
            col = col.astype(np.float64, copy=False)
            bits = col.view(np.uint64)
            fields.append((_float_field, (col,), _FLOAT_WIDTH,
                           (bits == bits[0]).all()))
        else:
            magnitude, negative = _magnitudes(col)
            fields.append((_int_field, (magnitude, negative),
                           _int_width(magnitude), (col == col[0]).all()))
    rows = len(columns[0])
    buf = bytearray(rows * sum(f[2] for f in fields))
    chars = np.frombuffer(buf, np.uint8).reshape(rows, -1)
    at = 0
    for i, (write, values, width, repeated) in enumerate(fields):
        some = slice(0, 1) if repeated else slice(None)
        write(*(v[some] for v in values), chars[some, at:at + width],
              ord("\n") if i == len(fields) - 1 else ord(","))
        if repeated:  # the first row's text for all
            chars[1:, at:at + width] = chars[0, at:at + width]
        at += width
    return np.frombuffer(buf.translate(None, b"\0"), np.uint8)


def chunks(blocks, size=CHUNK_ROWS):
    """The rows of ``blocks`` (lists of equal-length columns, all with the
    same column count) regrouped into lists of columns of at most ``size``
    rows, in order."""
    pending, count = [], 0
    for columns in blocks:
        n, start = len(columns[0]), 0
        while start < n:
            take = min(size - count, n - start)
            pending.append([c[start:start + take] for c in columns])
            count += take
            start += take
            if count == size:
                yield _joined(pending)
                pending, count = [], 0
    if pending:
        yield _joined(pending)


def _joined(pieces):
    if len(pieces) == 1:
        return pieces[0]
    return [np.concatenate(cols) for cols in zip(*pieces)]
