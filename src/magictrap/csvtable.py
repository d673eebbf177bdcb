"""The numpy table writer behind ``cli.emit_csv`` for a table of
``cli._BULK_ROWS`` rows or more.  The ``cli`` docstring states the cell
format and why the float cells are exact.

A row is a run of 4-byte words.  Each column takes a fixed number of
them and ends in its separator, "," or LF in the last column.  Cells are
written as whole words, looked up in tables of formatted pieces, and a
NUL byte, which no cell holds, fills the places a cell leaves empty:

- a float, ±0 included, is six words, ``"___d" ".ddd" "dddd" "dddd"``
  (``"__-d"`` if its sign bit is set) and ``"e-12" "3,__"``, its exponent
  and separator left-aligned (``_`` a NUL), looked up by its first four
  digits, the next four, the last four and its exponent;
- an int column within [-99, 999] is one word per cell, ``"%3d,"``;
- a text cell, an int cell of a column reaching outside [-99, 999], and
  a float cell that the numpy pass cannot round beyond doubt are written
  by the per-cell formatter, each filling as many words as its column
  needs, a NUL wherever it has no byte, and its separator last.

The table is filled as (words, rows), one word of every row at a time,
then read out by rows, and its NUL bytes come out in one step.

``emit_csv`` imports this module only for such a table.  A process that
writes only short tables, as a one-row search does, never compiles it:
without a bytecode cache, the compile leaves the peak RSS after
``import magictrap.cli`` 0.5 MB higher (CPython 3.11).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

# 10**k correctly rounded, k = -_P0.._P0, indexed by k + _P0
_P0 = 300
_POW10 = np.array([float(f"1e{k}") for k in range(-_P0, _P0 + 1)])
# the floats formatted in bulk: |x| in (1 / _BULK_MAX, _BULK_MAX)
_BULK_MAX = 1e280
# the widest distance from .5 of a scaled value's fractional part that the
# bulk path leaves to the per-cell formatter; over 4x the error bound 2.3e-4
_HALF_MARGIN = 1e-3


def _words(text: str) -> np.ndarray:
    """``text``, a whole number of 4-byte words with blanks for NUL, as
    uint32 words: those of cells ending in ",", then of their twins
    ending in LF."""
    comma = text.replace(" ", "\0").encode()
    return np.frombuffer(comma + comma.replace(b",", b"\n"), dtype=np.uint32).reshape(2, -1)


# the words of a float cell, for each 0 <= i < 10**4: its digits "dddd",
# then from 10**4 the same with "." for the first, then from _LEAD the
# first digit alone, "___d", and from _LEAD + 10**4 with its sign, "__-d";
# then from _EXPONENT the first exponent word of each exponent + _P0 and
# 2 * _P0 + 1 further the second, ending in ",", and _LF further the same
# ending in LF
_DIGITS2 = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
_DIGITS4 = np.stack(np.broadcast_arrays(_DIGITS2[:, None], _DIGITS2), axis=-1) \
    .view(np.uint32).ravel()
_LEAD, _EXPONENT, _LF = 2 * 10**4, 4 * 10**4 + _P0, 2 * (2 * _P0 + 1)
_FLOAT_WORDS = np.concatenate([
    _DIGITS4, _DIGITS4,
    _words("%4d" * 10 % tuple(range(10)) + "  -%d" * 10 % tuple(range(10)))[0].repeat(1000),
    _words("e%-7s" * (2 * _P0 + 1) % tuple(f"{k}," for k in range(-_P0, _P0 + 1)))
    .reshape(2, -1, 2).transpose(0, 2, 1).ravel()])
_FLOAT_WORDS[10**4:_LEAD].view(np.uint8)[::4] = ord(".")
# the cells "%3d," of the ints -_SMALL .. 999 by value + _SMALL, ending in
# "," and in LF
_SMALL = 99
_SMALL_INTS = _words("%3d," * (1000 + _SMALL) % tuple(range(-_SMALL, 1000)))


def _text_words(cells: list[str], end, words: int = 0) -> np.ndarray:
    """The (k, n) words of ``cells`` in UTF-8, each NUL-padded to k >=
    ``words`` words that end in its byte of ``end``."""
    text = cells if "".join(cells).isascii() else [cell.encode() for cell in cells]
    k = max(words, max(map(len, text), default=0) // 4 + 1)
    out = np.array(text, dtype=f"S{4 * k}")
    out.view(np.uint8).reshape(len(text), 4 * k)[:, -1] = end
    return out.view(np.uint32).reshape(len(text), k).T


def _float_cells(x: np.ndarray, column_cells, words: np.ndarray, at: list[int],
                 end: str) -> None:
    """Write the (columns, rows) float64 cells ``x`` as six words each
    into ``words``, column ``c`` from word ``at[c]``, the cells of the last
    column ending in ``end`` and the others in ",".

    A bulk cell is its sign, first digit, ".", eleven digits, "e",
    exponent sign and digits; ±0 is ``"0.00000000000e0"`` with the sign
    of its sign bit.  Any other cell is written by ``column_cells``.
    """
    a = np.abs(x)
    zero = a == 0.0
    bulk = (a > 1 / _BULK_MAX) & (a < _BULK_MAX)
    a[~bulk] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a * _POW10[_P0 + 11 - e]
    # log10 rounds up to k just below 10**k: step those down once; a cell
    # still outside [1e11, 1e12] goes to the fallback
    down = s < 1e11
    if down.any():
        e -= down
        s = a * _POW10[_P0 + 11 - e]
    m = np.rint(s)
    # s = 1e12 is 1.00000000000e(e + 1) whichever side of 1e12 |x| 10**(11 - e) is
    bulk &= (s >= 1e11) & (s <= 1e12) & (np.abs(s - m) < 0.5 - _HALF_MARGIN)
    carry = m == 1e12  # rounded up to 13 digits
    m[carry] = 1e11
    e += carry
    # a zero took a = 1, so e = 0: its digits are all 0
    m[zero] = 0.0
    bulk |= zero
    # each cell's six indices in _FLOAT_WORDS, from its 12 digits, 4 by 4
    index = np.empty((len(x), 6, x.shape[1]), dtype=np.intp)
    low = m.astype(np.intp)
    high = low // 10**8
    low -= high * 10**8
    np.floor_divide(low, 10**4, out=index[:, 2])
    np.subtract(low, index[:, 2] * 10**4, out=index[:, 3])
    np.add(high, 10**4, out=index[:, 1])
    np.add(high, _LEAD, out=index[:, 0])
    np.add(index[:, 0], 10**4, out=index[:, 0], where=np.signbit(x))
    np.add(e, _EXPONENT, out=index[:, 4])
    if end == "\n":
        index[-1, 4] += _LF
    np.add(index[:, 4], 2 * _P0 + 1, out=index[:, 5])
    # "clip" lets take write into out without a buffer; only the fallback
    # cells, written over below, can hold an index out of range
    for c, first in enumerate(at):
        _FLOAT_WORDS.take(index[c], out=words[first:first + 6], mode="clip")
    if not bulk.all():
        column, row = np.nonzero(~bulk)
        words[np.array(at)[column] + np.arange(6)[:, None], row] = _text_words(
            column_cells(x[column, row]), np.where(column == len(x) - 1, ord(end), ord(",")), 6)


def _int_cells(v: np.ndarray, column_cells, end: str) -> np.ndarray:
    """The (k, n) words of the int or bool cells ``v``, each ending in
    ``end``: one looked-up word each if all lie in [-_SMALL, 999], else
    the cells of ``column_cells``."""
    if -_SMALL <= v.min() and v.max() <= 999:
        index = np.add(v, _SMALL, dtype=np.intp, casting="unsafe")
        return _SMALL_INTS[int(end == "\n")].take(index)[None]
    return _text_words(column_cells(v), ord(end))


def table_bytes(columns: list, rows: int, column_cells) -> bytes:
    """The CSV rows of ``columns``, ``rows`` cells each, LF-terminated.

    Every column is written as whole words into one (words, rows) array,
    all float cells of the table rounded at once; the array is read out
    by rows, and its NUL bytes come out in one step.
    ``column_cells`` formats a column cell by cell: it writes the text
    columns, the int columns reaching outside [-99, 999], and the float
    cells that the numpy pass cannot round beyond doubt.
    """
    arrays = [np.asarray(col) for col in columns]
    ends = [","] * (len(arrays) - 1) + ["\n"]
    floats = [i for i, v in enumerate(arrays) if v.dtype.kind == "f"]
    blocks = {i: _int_cells(v, column_cells, ends[i]) if v.dtype.kind in "biu"
              else _text_words(column_cells(col), ord(ends[i]))
              for i, (v, col) in enumerate(zip(arrays, columns)) if i not in floats}
    at = [0, *accumulate(len(blocks[i]) if i in blocks else 6 for i in range(len(arrays)))]
    words = np.empty((at[-1], rows), dtype=np.uint32)
    for i, block in blocks.items():
        words[at[i]:at[i + 1]] = block
    if floats:
        _float_cells(np.array([arrays[i] for i in floats], dtype=np.float64), column_cells,
                     words, [at[i] for i in floats], ends[floats[-1]])
    return words.T.tobytes().translate(None, b"\0")
