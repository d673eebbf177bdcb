"""The numpy table writer behind ``cli.emit_csv`` for a table of
``cli._BULK_ROWS`` rows or more.  The ``cli`` docstring states the cell
format and why the float cells are exact.

``emit_csv`` imports this module only for such a table.  A process that
writes only short tables, as a one-row search does, never compiles it:
without a bytecode cache, the compile leaves the peak RSS after
``import magictrap.cli`` 0.5 MB higher (CPython 3.11).
"""

from __future__ import annotations

import numpy as np

# 10**k correctly rounded, k = -_P0.._P0, indexed by k + _P0
_P0 = 300
_POW10 = np.array([float(f"1e{k}") for k in range(-_P0, _P0 + 1)])
# the floats formatted in bulk: |x| in (1 / _BULK_MAX, _BULK_MAX)
_BULK_MAX = 1e280
# the widest distance from .5 of a scaled value's fractional part that the
# bulk path leaves to the per-cell formatter; over 4x the error bound 2.3e-4
_HALF_MARGIN = 1e-3
# "dd" of each 0 <= i < 100, then "dddd" of each 0 <= i < 10**4, as ASCII
# bytes, one uint16 or uint32 per entry
_DIGITS2 = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
_DIGITS4 = np.stack(np.broadcast_arrays(_DIGITS2[:, None], _DIGITS2), axis=-1) \
    .view(np.uint32).ravel()
# the bytes of a bulk float cell that are the same in every cell
_FLOAT_LAYOUT = np.frombuffer(b"-0.00000000000e-000", dtype=np.uint8)
# 10**1 .. 10**19, the bounds of int64 magnitudes of 2 .. 20 digits
_POW10_U64 = 10 ** np.arange(1, 20, dtype=np.uint64)


def _digit_groups(groups: np.ndarray) -> np.ndarray:
    """ASCII digits of an (n, g) array of integers below 10**4, as (n, 4g) bytes."""
    return _DIGITS4.take(groups.astype(np.intp)).view(np.uint8).reshape(len(groups), -1)


def _float_cells(x: np.ndarray, column_cells) -> tuple[np.ndarray, np.ndarray]:
    """Bytes and kept-byte mask, (n, 19) each, of the float64 cells ``x``.

    A bulk cell is laid out as sign, first digit, ".", eleven digits, "e",
    exponent sign and three exponent digits; the mask drops a positive
    sign and unused exponent places.  Any other cell is written
    left-aligned by ``column_cells`` and masked by its length.
    """
    a = np.abs(x)
    bulk = (a > 1 / _BULK_MAX) & (a < _BULK_MAX)
    a[~bulk] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    # log10 rounds up to k just below 10**k: step those down once; a cell
    # still outside [1e11, 1e12] goes to the fallback
    e -= a * _POW10[_P0 + 11 - e] < 1e11
    s = a * _POW10[_P0 + 11 - e]
    m = np.rint(s)
    # s = 1e12 is 1.00000000000e(e + 1) whichever side of 1e12 |x| 10**(11 - e) is
    bulk &= (s >= 1e11) & (s <= 1e12) & (np.abs(s - m) < 0.5 - _HALF_MARGIN)
    carry = m == 1e12  # rounded up to 13 digits
    m[carry] = 1e11
    e += carry
    hi = np.floor(m / 1e8)
    m -= hi * 1e8
    mid = np.floor(m / 1e4)
    digits = _digit_groups(np.stack((hi, mid, m - mid * 1e4), axis=1))
    e_abs = np.abs(e)
    n = len(x)
    cells = np.empty((n, 19), dtype=np.uint8)
    cells[:] = _FLOAT_LAYOUT
    cells[:, 1] = digits[:, 0]
    cells[:, 3:14] = digits[:, 1:]
    cells[:, 16:] = _digit_groups(e_abs[:, None])[:, 1:]
    keep = np.ones((n, 19), dtype=bool)
    keep[:, 0] = x < 0
    keep[:, 15] = e < 0
    keep[:, 16] = e_abs >= 100
    keep[:, 17] = e_abs >= 10
    if not bulk.all():
        rest = np.flatnonzero(~bulk)
        text = [cell.encode() for cell in column_cells(x[rest])]
        cells[rest] = np.array(text, dtype="S19").view(np.uint8).reshape(-1, 19)
        keep[rest] = np.arange(19) < np.array(list(map(len, text)))[:, None]
    return cells, keep


def _int_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bytes and kept-byte mask, (n, 1 + digits) each, of the int64 cells
    ``v``: a sign, then the digits right-aligned; the mask drops a positive
    sign and the leading places a cell does not fill."""
    u = v.view(np.uint64)
    magnitude = np.where(v < 0, -u, u)  # -u wraps, so int64 min maps to 2**63
    count = 1 + np.searchsorted(_POW10_U64, magnitude, side="right")
    width = int(count.max())
    groups = np.empty((len(v), -(-width // 4)), dtype=np.uint64)
    for g in range(groups.shape[1] - 1, -1, -1):
        magnitude, groups[:, g] = np.divmod(magnitude, 10**4)
    cells = np.empty((len(v), 1 + width), dtype=np.uint8)
    cells[:, 0] = ord("-")
    cells[:, 1:] = _digit_groups(groups)[:, -width:]
    keep = np.empty(cells.shape, dtype=bool)
    keep[:, 0] = v < 0
    keep[:, 1:] = np.arange(width) >= (width - count)[:, None]
    return cells, keep


def _text_cells(column, column_cells) -> tuple[np.ndarray, np.ndarray]:
    """Bytes and kept-byte mask of one column's cells as ``column_cells``
    writes them, in UTF-8, left-aligned and masked by length."""
    text = [cell.encode() for cell in column_cells(column)]
    lengths = np.array(list(map(len, text)))
    width = max(int(lengths.max()), 1)
    table = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(len(text), width)
    return table, np.arange(width) < lengths[:, None]


def _kind_cells(arrays: list[np.ndarray], dtype, cells_of) -> list[tuple]:
    """``cells_of`` over the cells of all ``arrays`` at once, cast to
    ``dtype``, split back into one (bytes, mask) pair per array."""
    if not arrays:
        return []
    cells, keep = cells_of(np.concatenate(arrays, dtype=dtype, casting="unsafe"))
    shape = (len(arrays), len(arrays[0]), -1)
    return list(zip(cells.reshape(shape), keep.reshape(shape)))


def table_bytes(columns: list, rows: int, column_cells) -> bytes:
    """The CSV rows of ``columns``, ``rows`` cells each, LF-terminated.

    Each column becomes a fixed-width block of bytes with a mask of the
    bytes each cell keeps, all float cells and all int cells of the table
    formatted at once; the separators go in and the masked-out padding
    comes out in one step.  ``column_cells`` formats a column cell by
    cell: it writes the text columns, and the float cells that the numpy
    pass cannot round beyond doubt.
    """
    arrays = [np.asarray(col) for col in columns]
    floats = [i for i, v in enumerate(arrays) if v.dtype.kind == "f"]
    ints = [i for i, v in enumerate(arrays) if v.dtype.kind in "biu"]
    blocks = dict(zip(floats, _kind_cells([arrays[i] for i in floats], np.float64,
                                          lambda x: _float_cells(x, column_cells))))
    blocks.update(zip(ints, _kind_cells([arrays[i] for i in ints], np.int64, _int_cells)))
    blocks = [blocks[i] if i in blocks else _text_cells(col, column_cells)
              for i, col in enumerate(columns)]
    # each column's block and the separator after it
    table = np.empty((rows, sum(cells.shape[1] + 1 for cells, _ in blocks)),
                     dtype=np.uint8)
    keep = np.ones(table.shape, dtype=bool)
    at = 0
    for cells, kept in blocks:
        stop = at + cells.shape[1]
        table[:, at:stop] = cells
        keep[:, at:stop] = kept
        table[:, stop] = ord(",")
        at = stop + 1
    table[:, -1] = ord("\n")
    return table[keep].tobytes()
