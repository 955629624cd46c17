"""Hash space and partition algebra.

The hash space is ``R_h = {i in N0 : 0 <= i < 2**Bh}`` (section 2.2).  Every
partition of the model results from repeated *binary splits* of ``R_h``
(section 3.4): a partition at splitlevel ``l`` covers a contiguous,
power-of-two aligned sub-range of size ``2**Bh / 2**l``.

A partition is therefore fully described by the pair ``(level, index)``
with ``0 <= index < 2**level`` — independent of ``Bh``.  The absolute range
is obtained by scaling with a :class:`HashSpace`.  This representation makes
the split/merge algebra exact integer arithmetic and keeps partitions
hashable and orderable (they sort by position in the ring).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import PartitionError
from repro.utils.rng import RngLike, ensure_rng

KeyLike = Union[bytes, str, int]

#: SplitMix64 constants (Steele, Lea & Flood 2014) — the finalizer used to
#: hash integer keys into the ring.  The same arithmetic runs scalar (python
#: ints) and vectorized (numpy uint64), so batch and per-key hashing agree
#: bit for bit.
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

#: Widest hash space, in bits (``Bh``), a :class:`HashSpace` accepts.
_MAX_BH = 128


def _splitmix64(v: int) -> int:
    """The SplitMix64 finalizer over one 64-bit value (scalar reference)."""
    v = (v + _SM64_GAMMA) & _MASK64
    v = ((v ^ (v >> 30)) * _SM64_MIX1) & _MASK64
    v = ((v ^ (v >> 27)) * _SM64_MIX2) & _MASK64
    return (v ^ (v >> 31)) & _MASK64


def _splitmix64_vec(values: np.ndarray) -> np.ndarray:
    """SplitMix64 over a uint64 array — identical output to :func:`_splitmix64`."""
    with np.errstate(over="ignore"):
        v = values.astype(np.uint64, copy=False) + np.uint64(_SM64_GAMMA)
        v = (v ^ (v >> np.uint64(30))) * np.uint64(_SM64_MIX1)
        v = (v ^ (v >> np.uint64(27))) * np.uint64(_SM64_MIX2)
        return v ^ (v >> np.uint64(31))


#: Modular inverses of the SplitMix64 multipliers (the finalizer is a
#: bijection on 64-bit integers, so it can be run backwards).
_SM64_INV_MIX1 = pow(_SM64_MIX1, -1, 1 << 64)
_SM64_INV_MIX2 = pow(_SM64_MIX2, -1, 1 << 64)


def splitmix64_inverse(values: np.ndarray) -> np.ndarray:
    """Invert :func:`_splitmix64_vec` over a uint64 array.

    For every 64-bit value ``h``, ``_splitmix64_vec(splitmix64_inverse(h))
    == h``.  Each xorshift inverts by re-applying until the shift exhausts
    the word, each multiplication by the modular inverse of its constant.
    Used by the skewed workload generators
    (:func:`repro.workloads.keys.zipf_id_keys`) to construct integer keys
    whose *hash indexes* follow a chosen distribution — the only way to
    place stored load deliberately when the hash function is uniform.
    """
    with np.errstate(over="ignore"):
        v = values.astype(np.uint64, copy=False)
        v = v ^ (v >> np.uint64(31)) ^ (v >> np.uint64(62))
        v = v * np.uint64(_SM64_INV_MIX2)
        v = v ^ (v >> np.uint64(27)) ^ (v >> np.uint64(54))
        v = v * np.uint64(_SM64_INV_MIX1)
        v = v ^ (v >> np.uint64(30)) ^ (v >> np.uint64(60))
        return v - np.uint64(_SM64_GAMMA)


@dataclass(frozen=True, order=True)
class Partition:
    """A contiguous, binary-aligned sub-range of the hash space.

    Attributes
    ----------
    level:
        Splitlevel (number of binary splits from the whole hash space).
    index:
        Position among the ``2**level`` partitions of that level,
        in ring order (partition ``index`` covers
        ``[index * 2**(Bh-level), (index+1) * 2**(Bh-level))``).
    """

    # NOTE: ``order=True`` compares by field order, i.e. ``(level, index)``:
    # partitions sort by splitlevel first (coarse before fine) and only then
    # by ring position.  That total order is what keeps partitions usable in
    # sorted containers, but it is NOT ring order — two partitions of
    # different levels compare by level, not by position.  Call sites that
    # need ring order (routing tables, drains, coverage checks) must sort
    # with :meth:`ring_sort_key` instead of the default comparison.
    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise PartitionError(f"splitlevel must be non-negative, got {self.level}")
        if not (0 <= self.index < (1 << self.level)):
            raise PartitionError(
                f"partition index {self.index} out of range for level {self.level}"
            )

    # -- geometry -----------------------------------------------------------

    @property
    def fraction(self) -> Fraction:
        """Fraction of the hash space covered by this partition (``2**-level``)."""
        return Fraction(1, 1 << self.level)

    def ring_sort_key(self) -> Tuple[int, int]:
        """Sort key placing partitions in ring order (by start, then size).

        The dataclass' own ordering compares ``(level, index)`` — useful as a
        stable total order, wrong for walking the ring.  Sorting a disjoint
        set of partitions with this key yields them in increasing hash-index
        order regardless of their splitlevels.  The start is the partition's
        first index in a 128-bit space — the widest any :class:`HashSpace`
        allows — so the key is integer arithmetic, not a ``Fraction``.
        """
        if self.level > _MAX_BH:
            raise PartitionError(f"splitlevel {self.level} exceeds {_MAX_BH} bits")
        return (self.index << (_MAX_BH - self.level), self.level)

    def size(self, bh: int) -> int:
        """Absolute size in hash indices for a ``bh``-bit hash space."""
        self._check_level(bh)
        return 1 << (bh - self.level)

    def start(self, bh: int) -> int:
        """Absolute first hash index covered (inclusive)."""
        self._check_level(bh)
        return self.index << (bh - self.level)

    def end(self, bh: int) -> int:
        """Absolute last hash index covered plus one (exclusive)."""
        return self.start(bh) + self.size(bh)

    def contains_index(self, i: int, bh: int) -> bool:
        """True if hash index ``i`` falls inside this partition."""
        return self.start(bh) <= i < self.end(bh)

    def _check_level(self, bh: int) -> None:
        if self.level > bh:
            raise PartitionError(
                f"partition at splitlevel {self.level} is finer than a {bh}-bit hash space"
            )

    # -- split / merge algebra ----------------------------------------------

    def split(self) -> Tuple["Partition", "Partition"]:
        """Binary-split into two equal halves (splitlevel + 1)."""
        return (
            Partition(self.level + 1, self.index * 2),
            Partition(self.level + 1, self.index * 2 + 1),
        )

    @property
    def parent(self) -> "Partition":
        """The partition this one was split from (one splitlevel up)."""
        if self.level == 0:
            raise PartitionError("the whole hash space has no parent partition")
        return Partition(self.level - 1, self.index // 2)

    @property
    def sibling(self) -> "Partition":
        """The other half of this partition's parent."""
        if self.level == 0:
            raise PartitionError("the whole hash space has no sibling partition")
        return Partition(self.level, self.index ^ 1)

    def is_ancestor_of(self, other: "Partition") -> bool:
        """True if ``other`` lies strictly inside this partition."""
        if other.level <= self.level:
            return False
        return (other.index >> (other.level - self.level)) == self.index

    def overlaps(self, other: "Partition") -> bool:
        """True if the two partitions share at least one hash index."""
        if self == other:
            return True
        return self.is_ancestor_of(other) or other.is_ancestor_of(self)

    def at_level(self, level: int) -> List["Partition"]:
        """Decompose this partition into its descendants at a deeper ``level``."""
        if level < self.level:
            raise PartitionError(
                f"cannot decompose level-{self.level} partition at coarser level {level}"
            )
        shift = level - self.level
        base = self.index << shift
        return [Partition(level, base + k) for k in range(1 << shift)]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"P(l={self.level}, i={self.index})"


#: The partition covering the whole hash space (splitlevel 0).
WHOLE_SPACE = Partition(0, 0)


class HashSpace:
    """The range ``R_h = [0, 2**Bh)`` of a ``Bh``-bit hash function.

    Provides key hashing, random index generation and conversion of
    :class:`Partition` objects to absolute index ranges.
    """

    __slots__ = ("bh", "size")

    def __init__(self, bh: int):
        if not (1 <= bh <= _MAX_BH):
            raise PartitionError(f"bh must be in [1, {_MAX_BH}], got {bh}")
        self.bh = int(bh)
        self.size = 1 << self.bh

    # -- hashing -------------------------------------------------------------

    def hash_key(self, key: KeyLike) -> int:
        """Hash an application key into a hash index in ``R_h``.

        Keys may be ``bytes``, ``str`` (UTF-8 encoded) or ``int``, mirroring
        what a real DHT front end would do; a numpy integer scalar (what
        indexing an id array yields) hashes like the equal ``int``.  Two hash
        functions are used:

        * ``str`` / ``bytes`` keys go through BLAKE2b — fast, stable across
          processes (unlike the builtin :func:`hash`) and uniform for
          arbitrary byte strings;
        * ``int`` keys (the id-style keys bulk workloads use) go through the
          SplitMix64 finalizer of their value mod ``2**64`` — an avalanche
          mixer that is an order of magnitude cheaper than a cryptographic
          hash and, crucially, vectorizes exactly in :meth:`hash_keys`.

        For hash spaces wider than 64 bits every key type falls back to
        BLAKE2b (SplitMix64 only yields 64 bits of output).

        Scalar and batch hashing are guaranteed to agree: for any key,
        ``hash_keys([key])[0] == hash_key(key)``.
        """
        if isinstance(key, str):
            data = key.encode("utf-8")
        elif isinstance(key, bytes):
            data = key
        elif isinstance(key, bool):
            raise TypeError("bool keys are ambiguous; use int, str or bytes")
        elif isinstance(key, int):
            if self.bh <= 64:
                return _splitmix64(key & _MASK64) & (self.size - 1)
            data = key.to_bytes((key.bit_length() + 8) // 8 or 1, "little", signed=True)
        elif isinstance(key, np.integer):
            return self.hash_key(int(key))
        else:
            raise TypeError(f"unsupported key type {type(key).__name__}")
        digest = hashlib.blake2b(data, digest_size=16).digest()
        return int.from_bytes(digest, "big") % self.size

    def hash_keys(
        self,
        keys: Union[Sequence[KeyLike], np.ndarray],
        parallel=None,
    ) -> np.ndarray:
        """Hash a batch of keys into an array of hash indices.

        The batch counterpart of :meth:`hash_key` — same hash functions, same
        results, but amortized over the whole batch:

        * a numpy integer array is hashed entirely in numpy (vectorized
          SplitMix64, ~20 ns/key);
        * a sequence of ``str``/``bytes`` keys runs one tight BLAKE2b loop
          that accumulates digests into a single buffer and converts them to
          indices with one :func:`numpy.frombuffer` pass;
        * anything else (mixed types, python ints, wide hash spaces) falls
          back to per-key :meth:`hash_key` calls.

        ``parallel`` optionally takes a
        :class:`~repro.parallel.executor.ParallelExecutor` (duck-typed —
        this module does not import the parallel machinery): eligible
        batches are then hashed chunk-wise across its worker processes,
        with the executor guaranteeing identical output; ineligible batches
        (too small, unsupported kinds, ``bh > 64``) silently fall through
        to the serial code below.

        Returns a ``uint64`` array for ``bh <= 64`` and an object array of
        python ints otherwise.
        """
        if parallel is not None:
            hashed = parallel.hash_keys(keys)
            if hashed is not None:
                return hashed
        n = len(keys)
        if self.bh > 64:
            return np.array([self.hash_key(k) for k in keys], dtype=object)
        mask = np.uint64(self.size - 1)
        if isinstance(keys, np.ndarray):
            if keys.dtype.kind == "b":
                raise TypeError("bool keys are ambiguous; use int, str or bytes")
            if keys.dtype.kind == "u":
                return _splitmix64_vec(keys.astype(np.uint64, copy=False)) & mask
            if keys.dtype.kind == "i":
                # Two's-complement view == value mod 2**64, matching hash_key.
                return _splitmix64_vec(keys.astype(np.int64, copy=False).view(np.uint64)) & mask
            keys = keys.tolist()
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        first = keys[0]
        if isinstance(first, (str, bytes)) and not isinstance(first, bool):
            # Fast path: accumulate all 16-byte digests, then take the low
            # 64 bits of each (digest % 2**bh only depends on those for
            # bh <= 64, since big-endian int.from_bytes puts them last).
            blake2b = hashlib.blake2b
            buf = bytearray()
            extend = buf.extend
            for key in keys:
                if isinstance(key, str):
                    data = key.encode("utf-8")
                elif isinstance(key, bytes):
                    data = key
                else:
                    break  # mixed batch: fall through to the generic loop
                extend(blake2b(data, digest_size=16).digest())
            else:
                low64 = np.frombuffer(bytes(buf), dtype=">u8")[1::2]
                return low64.astype(np.uint64) & mask
        return np.fromiter((self.hash_key(k) for k in keys), dtype=np.uint64, count=n)

    def random_index(self, rng: RngLike = None) -> int:
        """Draw a uniformly random hash index from ``R_h``.

        Used by the local approach to pick the victim group of a new vnode
        (section 3.6).
        """
        gen = ensure_rng(rng)
        if self.bh <= 63:
            return int(gen.integers(0, self.size))
        # Compose two draws for very wide hash spaces (numpy integers() is
        # limited to 64-bit ranges).
        high_bits = self.bh - 63
        high = int(gen.integers(0, 1 << high_bits))
        low = int(gen.integers(0, 1 << 63))
        return ((high << 63) | low) % self.size

    def contains(self, index: int) -> bool:
        """True if ``index`` is a valid hash index of this space."""
        return 0 <= index < self.size

    # -- partition helpers ----------------------------------------------------

    def partition_range(self, partition: Partition) -> Tuple[int, int]:
        """Absolute ``[start, end)`` indices covered by ``partition``."""
        return partition.start(self.bh), partition.end(self.bh)

    def partition_of_index(self, index: int, level: int) -> Partition:
        """The level-``level`` partition containing hash index ``index``."""
        if not self.contains(index):
            raise PartitionError(f"hash index {index} outside R_h (bh={self.bh})")
        if level > self.bh:
            raise PartitionError(f"splitlevel {level} exceeds bh={self.bh}")
        return Partition(level, index >> (self.bh - level))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashSpace(bh={self.bh})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashSpace) and other.bh == self.bh

    def __hash__(self) -> int:
        return hash(("HashSpace", self.bh))


# -- set-level predicates ------------------------------------------------------


def partitions_are_disjoint(partitions: Iterable[Partition]) -> bool:
    """True if no two partitions in the collection overlap (invariant G1)."""
    parts = sorted(partitions, key=Partition.ring_sort_key)
    for a, b in zip(parts, parts[1:]):
        if a.overlaps(b):
            return False
    return True


def partitions_cover_space(partitions: Iterable[Partition]) -> bool:
    """True if the partitions exactly tile the whole hash space (invariant G1).

    The check is exact: partitions must be pairwise disjoint and their
    fractions must sum to 1.
    """
    parts = list(partitions)
    if not parts:
        return False
    if not partitions_are_disjoint(parts):
        return False
    total = sum((p.fraction for p in parts), Fraction(0))
    return total == 1


def total_fraction(partitions: Iterable[Partition]) -> Fraction:
    """Exact total fraction of the hash space covered by the partitions."""
    return sum((p.fraction for p in partitions), Fraction(0))


def iter_level_partitions(level: int) -> Iterator[Partition]:
    """Iterate over every partition of a given splitlevel, in ring order."""
    for index in range(1 << level):
        yield Partition(level, index)
