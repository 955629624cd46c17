"""Key workload generators.

The paper assumes uniform data distributions and no hot spots (section 5);
besides that uniform workload we also provide Zipf-skewed and sequential key
generators, used by the examples and by the heterogeneity/storage ablations
to show how the DHT behaves outside the paper's assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.core.hashspace import splitmix64_inverse
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import is_power_of_two


def uniform_keys(n: int, rng: RngLike = None, prefix: str = "key") -> List[str]:
    """``n`` distinct keys whose hashes are effectively uniform over the ring."""
    if n < 0:
        raise ValueError("n must be non-negative")
    gen = ensure_rng(rng)
    # Distinct random suffixes; the hash function provides the uniformity.
    suffixes = gen.integers(0, 2**62, size=n)
    return [f"{prefix}:{i}:{int(s)}" for i, s in enumerate(suffixes)]


def id_keys(n: int, rng: RngLike = None) -> np.ndarray:
    """``n`` distinct 64-bit integer ids as a ``uint64`` array.

    The id-style workload of the bulk API: integer keys stay in numpy end to
    end (vectorized SplitMix64 hashing, columnar storage segments), which is
    what makes million-key :meth:`~repro.core.base.BaseDHT.bulk_load` runs
    hash-bound rather than interpreter-bound.  Ids are drawn without
    replacement from ``[0, 2**63)``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    gen = ensure_rng(rng)
    # Distinctness: random high 32 bits + sequential low bits would skew the
    # space; instead draw 63-bit values and resolve the (rare) collisions.
    ids = gen.integers(0, 2**63, size=n, dtype=np.int64).astype(np.uint64)
    if n:
        uniq = np.unique(ids)
        while uniq.size < n:
            extra = gen.integers(0, 2**63, size=n - uniq.size, dtype=np.int64).astype(np.uint64)
            uniq = np.unique(np.concatenate([uniq, extra]))
        ids = uniq
        gen.shuffle(ids)
    return ids


def sequential_keys(n: int, prefix: str = "item") -> List[str]:
    """``n`` sequential keys (``item:0``, ``item:1``, ...).

    Sequential names still hash uniformly, but they are reproducible without
    an RNG, which some tests and examples prefer.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return [f"{prefix}:{i}" for i in range(n)]


def zipf_keys(
    n: int, n_distinct: int, exponent: float = 1.2, rng: RngLike = None, prefix: str = "obj"
) -> List[str]:
    """``n`` key *accesses* over ``n_distinct`` objects with Zipf popularity.

    Returns a list of length ``n`` where popular keys repeat — an access
    trace rather than a key set.  Used by the storage example to demonstrate
    hot-spot behaviour (which the paper explicitly leaves to future work).
    """
    if n < 0 or n_distinct < 1:
        raise ValueError("n must be non-negative and n_distinct >= 1")
    if exponent <= 0:
        raise ValueError("exponent must be strictly positive")
    gen = ensure_rng(rng)
    ranks = np.arange(1, n_distinct + 1, dtype=np.float64)
    probabilities = ranks**-exponent
    probabilities /= probabilities.sum()
    draws = gen.choice(n_distinct, size=n, p=probabilities)
    return [f"{prefix}:{int(d)}" for d in draws]


def zipf_id_keys(
    n: int,
    bh: int = 32,
    exponent: float = 1.1,
    n_ranges: int = 4096,
    rng: RngLike = None,
) -> np.ndarray:
    """``n`` distinct integer keys whose *stored* load is Zipf-skewed on the ring.

    A uniform hash function turns any key population into uniform stored
    load, so skewing the keys themselves (as :func:`zipf_keys` does for the
    read trace) cannot produce hot *partitions*.  This generator works
    backwards instead: it slices the ``bh``-bit ring into ``n_ranges``
    equal ranges, draws each key's range with Zipf(``exponent``)
    probability (range order shuffled so hot ranges scatter over the
    ring), places the key's hash index uniformly inside the drawn range,
    and inverts the SplitMix64 finalizer
    (:func:`repro.core.hashspace.splitmix64_inverse`) to obtain a ``uint64``
    key that :meth:`~repro.core.hashspace.HashSpace.hash_keys` maps exactly
    there.

    The result is the skewed-load scenario the paper's count-only balance
    model cannot express: ``sigma(Pv)`` reports perfect balance while the
    per-snode *item* load is dominated by whichever vnodes own the hot
    ranges — the ``"zipf"`` churn workload that gives
    :meth:`~repro.core.base.BaseDHT.rebalance_load` real work.

    ``n_ranges`` must be a power of two no larger than ``2**bh`` (ranges
    stay aligned with the model's binary partitions); ``bh`` must be at
    most 64 (integer keys hash through SplitMix64 only on 64-bit-or-smaller
    spaces).  Keys are distinct and returned in shuffled order.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not (1 <= bh <= 64):
        raise ValueError(f"bh must be in [1, 64] for integer-key workloads, got {bh}")
    if n_ranges < 2 or not is_power_of_two(n_ranges) or n_ranges > (1 << bh):
        raise ValueError(
            f"n_ranges must be a power of two in [2, 2**bh], got {n_ranges} "
            f"(bh={bh}; a single range cannot carry any skew)"
        )
    if exponent <= 0:
        raise ValueError("exponent must be strictly positive")
    if n == 0:
        return np.empty(0, dtype=np.uint64)

    gen = ensure_rng(rng)
    ranks = np.arange(1, n_ranges + 1, dtype=np.float64)
    probabilities = ranks**-exponent
    probabilities /= probabilities.sum()
    # Scatter the popularity ranks over the ring so the hot ranges are not
    # all adjacent at index zero.
    placement = gen.permutation(n_ranges).astype(np.uint64)
    width = np.uint64((1 << bh) // n_ranges)
    high_bits = 64 - bh

    def draw(count: int) -> np.ndarray:
        ranges = placement[gen.choice(n_ranges, size=count, p=probabilities)]
        with np.errstate(over="ignore"):
            index = ranges * width
            if int(width) > 1:
                index = index + gen.integers(0, int(width), size=count, dtype=np.uint64)
            if high_bits:
                # The hash masks to the low bh bits; the high bits are free
                # entropy that keeps the inverted keys distinct.
                upper = gen.integers(0, 1 << high_bits, size=count, dtype=np.uint64)
                index = index | (upper << np.uint64(bh))
        return splitmix64_inverse(index)

    keys = np.unique(draw(n))
    while keys.size < n:
        keys = np.unique(np.concatenate([keys, draw(n - keys.size)]))
    gen.shuffle(keys)
    return keys


@dataclass
class KeyWorkload:
    """A reusable key workload: a set of keys plus deterministic values.

    Examples
    --------
    >>> wl = KeyWorkload.uniform(100, rng=5)
    >>> len(wl.keys)
    100
    >>> wl.value_for(wl.keys[0]).startswith("value-of:")
    True
    """

    keys: List[str]

    @classmethod
    def uniform(cls, n: int, rng: RngLike = None) -> "KeyWorkload":
        """Uniformly hashed keys (the paper's assumption)."""
        return cls(uniform_keys(n, rng))

    @classmethod
    def sequential(cls, n: int) -> "KeyWorkload":
        """Sequential keys (fully deterministic)."""
        return cls(sequential_keys(n))

    @staticmethod
    def value_for(key: str) -> str:
        """Deterministic value derived from the key (easy to verify after migration)."""
        return f"value-of:{key}"

    def items(self) -> Iterator[tuple]:
        """Iterate over ``(key, value)`` pairs."""
        for key in self.keys:
            yield key, self.value_for(key)

    def __len__(self) -> int:
        return len(self.keys)
