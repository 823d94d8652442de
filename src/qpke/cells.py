"""CSV text of numeric array chunks: the ``%d`` and ``%.12g`` bytes, computed in numpy.

``csv_rows(columns)`` returns the CSV lines of a chunk whose columns are
all int, uint or float arrays: each cell is ``'%d' % v`` (integer) or
``'%.12g' % v`` (float), cells are joined by ``,`` and rows ended by
``\\n``.  Each row is laid out as little-endian 8-byte words, a fixed
number per cell, whose unused bytes are NUL; one ``bytes.translate``
deletes them.  Every cell starts with a word that holds the comma before it
and its sign.

An integer is its decimal digits, four at a time from ``FULL`` and
``LEAD``.  A float x with decimal exponent e = floor(log10 |x|) is its
12-digit mantissa m = rint(y), y = |x| 10^(11-e), laid out in ``%g`` form:
the digits of m from ``SPREAD``, each followed by a byte that holds the
"." after it, if any, cut after the last digit that prints, between the
prefix ("0.000" and shorter) and suffix ("e-300" and shorter) of its
printed exponent.

y is |x| times the correctly rounded 10^min(11-e, 300), times the exact
10^max(11-e-300, 0): at most three roundings, so y lies within
3.0001 * 2^-53 * 1e12 < 3.4e-4 of the exact |x| 10^(11-e).  Where y is more
than ``SLACK`` away from every half-integer and from the decade edges 1e11
and 1e12, rint(y) is the correctly rounded mantissa that ``%.12g`` prints
and e its exponent, save a carry from 1e12 - 1/2 up to 1e12.  Every other
cell is ``'%.12g' % x`` itself: nan, ±inf, ±0, |x| outside [1e-300, 1e300),
and y within ``SLACK`` of such a point (0.2 % of cells whose digits are spread
evenly).
"""

import numpy as np

#: distance from a rounding half-way point or a decade edge within which a
#: float cell is ``'%.12g' % x``; it exceeds the 3.4e-4 error bound of y
SLACK = 2.0 ** -10

#: decimal exponents the tables cover: [-300, 300] and log10's off-by-one
#: neighbours at the ends, whose cells lie at a decade edge and fall back
EXPONENTS = range(-301, 302)

#: |x| * SCALE[e + 301] * SCALE_EXACT[e + 301] = y, the first factor the
#: correctly rounded 10^min(11-e, 300) and the second the exact rest
SCALE = np.array([float(f"1e{min(11 - e, 300)}") for e in EXPONENTS])
SCALE_EXACT = np.array([10.0 ** max(11 - e - 300, 0) for e in EXPONENTS])


def _words(texts: list, width: int) -> np.ndarray:
    """Each of ``texts``, NUL-padded to ``width`` bytes, as one little-endian unsigned integer."""
    return np.frombuffer(b"".join(text.ljust(width, b"\0") for text in texts), f"<u{width}")


_GROUPS = np.arange(10000, dtype=np.int16)[:, None]
_DIGITS = (_GROUPS // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")).astype(np.uint8)
#: the four digits of each of 0..9999 in the low half of a word; ``LEAD``
#: turns its leading zeros, but a units digit, into NUL
FULL = _DIGITS.view("<u4").ravel().astype("<u8")
LEAD = (_DIGITS * (_GROUPS >= np.array([1000, 100, 10, 0], np.int16))).view("<u4").ravel().astype("<u8")
_SPREAD = np.zeros((10000, 8), np.uint8)
_SPREAD[:, ::2] = _DIGITS
#: the four digits of each of 0..9999, each followed by a NUL byte, as one word
SPREAD = _SPREAD.view("<u8").ravel()
#: digits of each of 0..9999 up to its last nonzero one (0 for 0)
SIGNIFICANT = 4 - (_GROUPS % np.array([10, 100, 1000, 10000], np.int16) == 0).sum(axis=1)
# the mantissa's 12 digit positions as three spread words j of four
_POSITIONS = np.arange(12).reshape(3, 1, 4)
_MASKS = np.zeros((3, 13, 8), np.uint8)
_MASKS[:, :, ::2] = 255 * (_POSITIONS < np.arange(13)[:, None])
#: KEEP[j][k] keeps the digits of word j among the first k of the mantissa
KEEP = _MASKS.view("<u8")[:, :, 0]
_MASKS = np.zeros((3, 13, 8), np.uint8)
_MASKS[:, :, 1::2] = ord(".") * (_POSITIONS == np.arange(13)[:, None])
#: DOTS[j][d] puts the "." after mantissa digit d (none at d = 12) into word j
DOTS = _MASKS.view("<u8")[:, :, 0]

#: per printed exponent X (index X + 301): the word that holds the comma,
#: the sign and the prefix, without and with a "-"; the suffix word; the
#: mantissa digit the "." follows (12: none); the digits that always print
PREFIX = _words([b"\0\0" + (b"0." + b"0" * (-X - 1) if -4 <= X < 0 else b"") for X in EXPONENTS], 8)
SIGNED_PREFIX = np.stack([PREFIX, PREFIX | ord("-") << 8], axis=1).ravel()
SUFFIX = _words([b"" if -4 <= X < 12 else b"e%+03d" % X for X in EXPONENTS], 8)
DOT = np.array([X if 0 <= X < 12 else 12 if -4 <= X < 0 else 0 for X in EXPONENTS])
INTEGRAL = np.array([X + 1 if 0 <= X < 12 else 0 for X in EXPONENTS])


def _int_words(column) -> list:
    """The ``%d`` cells of an int or uint array as word columns: sign word, digit groups two a word."""
    magnitude = column.astype(np.uint64)
    negative = column < 0
    np.negative(magnitude, out=magnitude, where=negative)  # modulo 2^64, so |int64 min| too
    groups = -(-len(str(int(magnitude.max()))) // 4)
    words = [np.where(negative, np.uint64(ord("-") << 8), 0)] + [0] * (groups // 2)
    for g in range(groups):
        place = 10 ** (4 * (groups - 1 - g))
        group = magnitude // place if place > 1 else magnitude
        if g:
            group = group % 10000
        # a group is NUL above the number's first digit, and whole below it
        word = LEAD[group] if place == 1 else np.where(magnitude >= place, LEAD[group], 0)
        if g:
            word = np.where(magnitude >= place * 10000, FULL[group], word)
        words[(g + 1) // 2] |= word << 32 * ((g + 1) % 2)
    return words


def _float_words(column) -> list:
    """The ``%.12g`` cells of a float array as five word columns: prefix, mantissa (three), suffix."""
    column = column.astype(np.float64, copy=False)
    magnitude = np.abs(column)
    magnitude[~((magnitude >= 1e-300) & (magnitude < 1e300))] = 1.0  # y = 1e11, a decade edge
    exponent = np.floor(np.log10(magnitude)).astype(np.intp) + 301
    y = magnitude * SCALE[exponent] * SCALE_EXACT[exponent]
    mantissa = np.rint(y)
    fast = (np.abs(y - mantissa) < 0.5 - SLACK) & (y > 1e11 + SLACK) & (y < 1e12 - SLACK)
    mantissa[~fast] = 1e11
    carry = mantissa == 1e12
    mantissa[carry] = 1e11
    row = np.where(fast, exponent + carry, 301)
    # the three 4-digit groups of the mantissa, exact in float64 below 2^53
    high = np.floor(mantissa / 1e8)
    mantissa -= high * 1e8
    middle = np.floor(mantissa / 1e4)
    groups = high.astype(np.intp), middle.astype(np.intp), (mantissa - middle * 1e4).astype(np.intp)
    printed = 8 + SIGNIFICANT[groups[2]]
    short = np.flatnonzero(groups[2] == 0)
    printed[short] = np.where(groups[1][short] > 0, 4 + SIGNIFICANT[groups[1][short]], SIGNIFICANT[groups[0][short]])
    np.maximum(printed, INTEGRAL[row], out=printed)
    dot = DOT[row]
    dot[dot >= printed - 1] = 12  # no fraction digit follows it
    words = [SIGNED_PREFIX[2 * row + (column < 0)]]
    words += [SPREAD[group] & KEEP[j][printed] | DOTS[j][dot] for j, group in enumerate(groups)]
    words.append(SUFFIX[row])
    slow = np.flatnonzero(~fast)
    texts = b"".join(b"\0" + (b"%.12g" % x).ljust(39, b"\0") for x in column[slow].tolist())
    for word, text in zip(words, np.frombuffer(texts, "<u8").reshape(len(slow), 5).T):
        word[slow] = text
    return words


def csv_rows(columns: list) -> str:
    """The CSV lines of equal-length, non-empty int, uint and float arrays, one ``%d`` or ``%.12g`` cell each."""
    cells = [_float_words(column) if column.dtype.kind == "f" else _int_words(column) for column in columns]
    text = bytearray(8 * len(columns[0]) * (sum(map(len, cells)) + 1))
    lines = np.frombuffer(text, "<u8").reshape(len(columns[0]), -1)
    at = 0
    for words in cells:
        if at:
            words[0] |= ord(",")
        for word in words:
            lines[:, at] = word
            at += 1
    lines[:, at] = ord("\n")
    del cells  # the word columns go before the text is copied twice
    return text.translate(None, b"\0").decode("ascii")
