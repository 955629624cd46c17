"""Seeded inputs, and the op plan of the closed loop.

``--seed`` reaches the system only through what is generated here: the key
population, its values, and which keys the point loop touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from bench import spec
from repro.core.config import DEFAULT_BH
from repro.core.hashspace import splitmix64_inverse
from repro.workloads.keys import id_keys, uniform_keys

ZIPF_EXPONENT = 1.1
ZIPF_RANGES = 256


def zipf_ids(n: int, seed: int) -> np.ndarray:
    """``n`` distinct uint64 keys whose stored load is Zipf-skewed on the ring.

    The method of :func:`repro.workloads.keys.zipf_id_keys` — draw a hash
    range with Zipf probability, place the index inside it, invert
    SplitMix64 — with one difference: the *hash indexes* (the low ``bh``
    bits, in load order) come from ``CLUSTER_SEED`` and only the free high
    bits from ``seed``.  Every seed therefore gives different keys that land
    on the same ring positions in the same order.  Load-aware rebalancing
    decides by comparing per-partition row counts, so a population redrawn
    per seed flips single transfer or split decisions and moves
    ``elastic_s`` by 2x between seeds; no two runs could then be compared.
    """
    fixed = np.random.default_rng(spec.CLUSTER_SEED)
    share = np.arange(1, ZIPF_RANGES + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    share /= share.sum()
    width = (1 << DEFAULT_BH) // ZIPF_RANGES
    layout = fixed.permutation(ZIPF_RANGES).astype(np.uint64)
    index = layout[fixed.choice(ZIPF_RANGES, size=n, p=share)] * np.uint64(width)
    index += fixed.integers(0, width, size=n, dtype=np.uint64)
    gen = np.random.default_rng(seed)
    while True:
        high = gen.integers(0, 1 << (64 - DEFAULT_BH), size=n, dtype=np.uint64)
        keys = splitmix64_inverse(index | (high << np.uint64(DEFAULT_BH)))
        if np.unique(keys).size == n:
            return keys


def value_column(keys: np.ndarray, value_bytes: int) -> Optional[np.ndarray]:
    """One distinct ``value_bytes``-long value per row, as an object column.

    Distinct objects matter: pickle memoizes a shared value, which would
    hide the per-row encode cost (38 instead of 168 B/row on the wire).
    """
    if not value_bytes:
        return None
    repeat = max(1, value_bytes // 8)
    raw = np.repeat(keys.astype("<u8").reshape(-1, 1), repeat, axis=1).tobytes()
    width = 8 * repeat
    column = np.empty(len(keys), dtype=object)
    column[:] = [raw[i : i + width] for i in range(0, len(raw), width)]
    return column


@dataclass
class Inputs:
    int_keys: np.ndarray
    #: ``int_keys`` as Python ints (what the scalar API takes).
    key_list: List[int]
    int_values: Optional[np.ndarray]
    str_keys: List[str]
    str_values: Optional[np.ndarray]


def generate(w: spec.Workload, seed: int) -> Inputs:
    if w.key_family == "zipf":
        int_keys = zipf_ids(w.int_rows, seed)
    else:
        int_keys = id_keys(w.int_rows, rng=seed)
    key_list = int_keys.tolist()
    str_keys = uniform_keys(w.str_rows, rng=seed + 1) if w.str_rows else []
    return Inputs(
        int_keys=int_keys,
        key_list=key_list,
        int_values=value_column(int_keys, w.value_bytes),
        str_keys=str_keys,
        str_values=value_column(np.arange(len(str_keys)), w.value_bytes) if str_keys else None,
    )


def chunk_bounds(rows: int, chunks: int) -> List[Tuple[int, int]]:
    """``[lo, hi)`` row ranges of ``chunks`` near-equal slices."""
    edges = np.linspace(0, rows, chunks + 1).astype(int).tolist()
    return list(zip(edges[:-1], edges[1:]))


class PointPlan:
    """Which keys a closed loop reads and writes, and what each must return.

    90% get / 10% put on uniformly drawn loaded keys.  Client ``c`` only
    touches rows with ``row % clients == c``, so no read races another
    client's write and every get has exactly one acceptable answer: the
    loaded value, or the last put this plan acknowledged.
    """

    PUT_SHARE = 0.10
    #: Untimed puts before the loop starts, enough to hit every store of both
    #: tiers: a store's first write merges its pending segments (tens of ms),
    #: which is lazy set-up, not the steady state the loop measures — the
    #: first *read* after ingest is timed on its own as ``read_rows_per_s``.
    WARM_PUTS = 512

    def __init__(self, inputs: Inputs, w: spec.Workload, seed: int):
        self.keys = inputs.key_list
        self._base = inputs.int_values
        self._value_bytes = max(8, w.value_bytes)
        self.clients = w.clients
        rng = np.random.default_rng(seed + 7)
        per_client = len(self.keys) // w.clients
        self._rows = [
            (rng.integers(0, per_client, size=w.point_ops) * w.clients + c).tolist()
            for c in range(w.clients)
        ]
        self._puts = [
            (rng.random(w.point_ops) < self.PUT_SHARE).tolist() for _ in range(w.clients)
        ]
        self.written: Dict[int, bytes] = {}

    def ops(self, client: int) -> Iterator[Tuple[int, bool, Any]]:
        """``(row, is_put, value_to_put)`` for one client's loop."""
        width = self._value_bytes
        for n, (row, is_put) in enumerate(zip(self._rows[client], self._puts[client])):
            value = (n * self.clients + client).to_bytes(8, "little") * (width // 8)
            yield row, is_put, (value if is_put else None)

    def warm_rows(self) -> List[int]:
        """Rows to re-put with their current value before timing starts."""
        return list(range(min(self.WARM_PUTS, len(self.keys))))

    def expected(self, row: int) -> Any:
        if row in self.written:
            return self.written[row]
        return None if self._base is None else self._base[row]


def sample_rows(n_rows: int, count: int, seed: int) -> List[int]:
    """``count`` distinct row numbers for a value-checked read-back."""
    rng = np.random.default_rng(seed + 13)
    count = min(count, n_rows)
    return sorted(rng.choice(n_rows, size=count, replace=False).tolist())


def mismatches(got: Sequence[Any], want: Sequence[Any], corrupt: bool) -> int:
    """Rows whose read-back differs from what was written.

    ``corrupt`` is the seeded fault of the self-test: it damages the first
    value read back, which must make the run fail.
    """
    if corrupt and len(got):
        got = list(got)
        got[0] = b"\x00corrupted-read-back"
    return sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
