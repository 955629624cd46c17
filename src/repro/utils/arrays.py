"""Small numpy helpers shared by the batch paths."""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np


def as_object_column(seq: Union[Sequence, np.ndarray]) -> np.ndarray:
    """A 1-D object array holding exactly the elements of ``seq``.

    ``np.asarray(seq, dtype=object)`` is NOT safe here: when every element
    is a sequence of equal length (tuples, lists, arrays) numpy builds a
    2-D array, and the elements later come back as nested lists instead of
    the original objects.  Pre-allocating a 1-D object array and assigning
    into it preserves each element untouched.
    """
    if isinstance(seq, np.ndarray):
        if seq.ndim != 1:
            raise ValueError(f"expected a 1-D column, got shape {seq.shape}")
        return seq
    arr = np.empty(len(seq), dtype=object)
    arr[:] = seq
    return arr


def is_plain_void(dtype: np.dtype) -> bool:
    """Whether ``dtype`` is a non-empty ``V{width}`` without fields or subarray:
    fixed-width ``bytes`` values held natively."""
    return (
        dtype.kind == "V" and dtype.names is None and dtype.subdtype is None and dtype.itemsize > 0
    )


def locate_ranges(
    indexes: np.ndarray, starts: np.ndarray, lasts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Bucket unsorted hash indexes into disjoint, sorted ``[start, last]`` ranges.

    Returns ``(pos, inside)``: for every index, the candidate range position
    (``searchsorted`` on the range starts) and a boolean mask telling whether
    the index actually falls inside that range.  Works for ``uint64`` arrays
    (``bh <= 64``) and object arrays of python ints (wider spaces) alike.
    An empty range set matches nothing (every index is outside).
    """
    if len(starts) == 0:
        return (
            np.full(len(indexes), -1, dtype=np.int64),
            np.zeros(len(indexes), dtype=bool),
        )
    pos = np.searchsorted(starts, indexes, side="right") - 1
    safe = np.where(pos < 0, 0, pos)
    inside = np.asarray((pos >= 0) & (indexes <= lasts[safe]), dtype=bool)
    return pos, inside


def concat_columns(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate 1-D columns without letting numpy invent a common dtype.

    Columns of one dtype concatenate natively.  A native integer column next
    to object columns of plain python ints (what WAL replay hands back for
    the same keys) stays native — widening it would turn every later WAL
    record of the store into pickled objects.  Any other mix becomes an
    object column holding the original elements: numpy's own promotion would
    make ``int64`` + ``uint64`` a float column and ints + strings a string one.
    """
    dtypes = {column.dtype for column in columns}
    if len(dtypes) == 1:
        return np.concatenate(columns)
    native = dtypes - {np.dtype(object)}
    if len(native) == 1 and next(iter(native)).kind in "iu":
        dtype = next(iter(native))
        try:
            return np.concatenate(
                [c if c.dtype == dtype else _narrow_ints(c, dtype) for c in columns]
            )
        except (TypeError, OverflowError):
            pass
    return np.concatenate([column.astype(object) for column in columns])


def _narrow_ints(column: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """An object column of plain python ints as ``dtype``; raises otherwise."""
    elements = column.tolist()
    if not all(type(element) is int for element in elements):
        raise TypeError("not a column of plain ints")
    return np.array(elements, dtype=dtype)
