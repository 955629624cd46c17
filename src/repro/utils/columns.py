"""Columnar encoding of row batches: raw columns instead of pickle.

A batch of rows travels as parallel 1-D columns (keys, hash indexes,
values).  :func:`encode_column` appends one column's encoding to a list of
byte pieces (the caller joins them once); :class:`ColumnReader` reads the
columns, and the small fixed fields a caller puts in front of them, back
out of a buffer.  Each column is a ``!BI`` head — kind tag, row count —
followed by the payload its kind fixes:

============  ==============================================================
kind          payload
============  ==============================================================
``NONE``      nothing: the field is ``None`` rather than a column (0 rows)
``NATIVE``    ``!B`` dtype-string length, the dtype string, the raw bytes
              (bool, integer, float, complex, ``S`` and ``U`` arrays)
``BOXED``     as ``NATIVE``; an ``object`` column whose values are all
              python ``int`` (within int64 or uint64), all ``float`` or
              all ``bool``, decoded back to those python objects
``FIXED``     ``!I`` width, then ``rows × width`` bytes: ``bytes`` values
              of one non-zero length, or a field-less ``V{width}`` column;
              decoded to an owned ``V{width}`` column
``VARIABLE``  ``rows`` ``!I`` lengths, then the concatenated ``bytes``
``TEXT``      ``rows`` ``!I`` lengths in code points, a ``!Q`` byte count,
              then the UTF-8 of the concatenated ``str`` values
``PICKLED``   a ``!Q`` byte count, then a pickled ndarray — every column
              no kind above covers (mixed or other object types)
============  ==============================================================

``PICKLED`` is the only kind that runs :func:`pickle.loads`; a column of
ints, floats, bools, ``bytes`` or ``str`` never does.  Fixed-width values
stay native both ways: a ``V{width}`` column is written straight from its
buffer, and read back as one, whose ``item`` / ``tolist`` / assignment into
an ``object`` array yield ``bytes`` (an ``S`` dtype would strip trailing
NULs).  Decoded columns are
copies: none of them keeps the source buffer exported, so a caller may
resize it (a receive ``bytearray``) as soon as decoding returns.  Every
length is checked against the bytes left before anything is allocated;
malformed input raises :class:`ColumnError`, or whatever ``pickle`` raises
inside a ``PICKLED`` payload.
"""

from __future__ import annotations

import pickle
import re
import struct
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.utils.arrays import as_object_column, is_plain_void

NONE, NATIVE, BOXED, FIXED, VARIABLE, TEXT, PICKLED = range(7)

_HEAD = struct.Struct("!BI")
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_LENGTHS = np.dtype(">u4")

#: Dtype strings a ``NATIVE`` / ``BOXED`` column may carry: fixed-size,
#: pointer-free, non-empty (``dtype.str`` of exactly those arrays).
_NATIVE_DTYPE = re.compile(r"[<>|][biufcSU][1-9][0-9]{0,8}\Z")

#: ``python type -> dtypes tried in turn`` for a ``BOXED`` column.
_BOXED_DTYPES = {
    int: (np.dtype(np.int64), np.dtype(np.uint64)),
    float: (np.dtype(np.float64),),
    bool: (np.dtype(np.bool_),),
}


class ColumnError(ValueError):
    """Encoded columns are truncated or malformed."""


def encode_text(out: List[bytes], text: str) -> None:
    """Append ``text`` as ``!H`` byte length + UTF-8."""
    data = text.encode("utf-8")
    out += (_U16.pack(len(data)), data)


def encode_column(out: List[bytes], column: Any) -> None:
    """Append the encoding of ``column`` — ``None`` or a 1-D sequence — to ``out``.

    A sequence that is not an ndarray travels as an ``object`` column
    (:func:`~repro.utils.arrays.as_object_column`).
    """
    if column is None:
        out.append(_HEAD.pack(NONE, 0))
        return
    if not isinstance(column, np.ndarray):
        column = as_object_column(column)
    n = len(column)
    if column.ndim == 1:
        if _NATIVE_DTYPE.match(column.dtype.str):
            _encode_native(out, NATIVE, column)
            return
        if is_plain_void(column.dtype):
            width = column.dtype.itemsize
            out += (_HEAD.pack(FIXED, n), _U32.pack(width), column.tobytes())
            return
        if column.dtype == object and _encode_objects(out, column, n):
            return
    blob = pickle.dumps(column, protocol=pickle.HIGHEST_PROTOCOL)
    out += (_HEAD.pack(PICKLED, n), _U64.pack(len(blob)), blob)


def _encode_native(out: List[bytes], kind: int, column: np.ndarray) -> None:
    dtype = column.dtype.str.encode("ascii")
    out += (_HEAD.pack(kind, len(column)), _U8.pack(len(dtype)), dtype, column.tobytes())


def _encode_objects(out: List[bytes], column: np.ndarray, n: int) -> bool:
    """Encode an ``object`` column under a typed kind; False if none fits."""
    items = column.tolist()
    # list.count compares by identity first: the cheapest per-row checks.
    types = list(map(type, items))
    if types.count(bytes) == n:
        lengths = list(map(len, items))
        width = lengths[0] if n else 0
        if width and lengths.count(width) == n:
            # No value is shorter than ``width``, so ``S`` pads none of them.
            data = column.astype(f"S{width}").tobytes()
            out += (_HEAD.pack(FIXED, n), _U32.pack(width), data)
        else:
            lengths = np.array(lengths, dtype=_LENGTHS).tobytes()
            out += (_HEAD.pack(VARIABLE, n), lengths, b"".join(items))
        return True
    if types.count(str) == n:
        try:
            data = "".join(items).encode("utf-8")
        except UnicodeEncodeError:  # lone surrogates
            return False
        lengths = np.array(list(map(len, items)), dtype=_LENGTHS).tobytes()
        out += (_HEAD.pack(TEXT, n), lengths, _U64.pack(len(data)), data)
        return True
    if types.count(types[0]) == n:
        for dtype in _BOXED_DTYPES.get(types[0], ()):
            try:
                native = np.array(items, dtype=dtype)
            except OverflowError:
                continue
            _encode_native(out, BOXED, native)
            return True
    return False


class ColumnReader:
    """Reads fields and columns sequentially out of a bytes-like buffer."""

    __slots__ = ("data", "pos")

    def __init__(self, data, pos: int = 0):
        self.data = data
        self.pos = pos

    def _advance(self, size: int) -> int:
        """Claim the next ``size`` bytes; returns where they start."""
        start = self.pos
        if size < 0 or start + size > len(self.data):
            raise ColumnError(
                f"truncated: {size} bytes wanted at offset {start} of {len(self.data)}"
            )
        self.pos = start + size
        return start

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack_from(self.data, self._advance(layout.size))

    def take(self, size: int) -> bytes:
        start = self._advance(size)
        return bytes(self.data[start : start + size])

    def text(self) -> str:
        """A string written by :func:`encode_text`."""
        (size,) = self.unpack(_U16)
        return str(self.take(size), "utf-8")

    def finish(self) -> None:
        """Refuse bytes left over after the last field."""
        if self.pos != len(self.data):
            raise ColumnError(f"{len(self.data) - self.pos} trailing bytes")

    def column(self) -> Optional[np.ndarray]:
        """The next column written by :func:`encode_column`."""
        kind, n = self.unpack(_HEAD)
        if kind == NONE:
            if n:
                raise ColumnError(f"a missing column cannot have {n} rows")
            return None
        if kind == NATIVE:
            return self._native(n)
        if kind == BOXED:
            return as_object_column(self._native(n).tolist())
        if kind == FIXED:
            (width,) = self.unpack(_U32)
            if not width:
                raise ColumnError("fixed-width column of width 0")
            try:
                dtype = np.dtype(f"V{width}")
            except TypeError:
                raise ColumnError(f"fixed-width column of width {width}") from None
            start = self._advance(n * width)
            return np.frombuffer(self.data, dtype, n, start).copy()
        if kind == VARIABLE:
            ends = self._ends(n)
            blob = self.take(int(ends[-1]) if n else 0)
            starts = [0, *ends[:-1].tolist()]
            return as_object_column([blob[a:b] for a, b in zip(starts, ends.tolist())])
        if kind == TEXT:
            ends = self._ends(n)
            (size,) = self.unpack(_U64)
            text = str(self.take(size), "utf-8")
            if (int(ends[-1]) if n else 0) != len(text):
                raise ColumnError("text column lengths disagree with its text")
            starts = [0, *ends[:-1].tolist()]
            return as_object_column([text[a:b] for a, b in zip(starts, ends.tolist())])
        if kind == PICKLED:
            (size,) = self.unpack(_U64)
            column = pickle.loads(self.take(size))
            if not isinstance(column, np.ndarray) or column.ndim < 1 or len(column) != n:
                raise ColumnError(f"pickled column is not an array of {n} rows")
            return column
        raise ColumnError(f"unknown column kind {kind}")

    def _native(self, n: int) -> np.ndarray:
        (size,) = self.unpack(_U8)
        name = str(self.take(size), "ascii")
        if not _NATIVE_DTYPE.match(name):
            raise ColumnError(f"dtype {name!r} cannot travel as a raw column")
        dtype = np.dtype(name)
        start = self._advance(n * dtype.itemsize)
        return np.frombuffer(self.data, dtype, n, start).copy()

    def _ends(self, n: int) -> np.ndarray:
        """Cumulative end offsets of ``n`` length-prefixed values."""
        start = self._advance(n * _LENGTHS.itemsize)
        lengths = np.frombuffer(self.data, _LENGTHS, n, start)
        return np.cumsum(lengths, dtype=np.int64)


def row_group(
    keys: Any, indexes: Any, values: Any, values_optional: bool = False
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """``(keys, indexes, values)`` as read by :meth:`ColumnReader.column`,
    checked to be one group of rows: keys and indexes present, values too
    unless ``values_optional``, and every present column of one length."""
    if keys is None or indexes is None or (values is None and not values_optional):
        raise ColumnError("a row group is missing a column")
    lengths = {len(column) for column in (keys, indexes, values) if column is not None}
    if len(lengths) > 1:
        raise ColumnError(f"columns of one row group disagree in length: {sorted(lengths)}")
    return keys, indexes, values


__all__ = ["ColumnError", "ColumnReader", "encode_column", "encode_text", "row_group"]
