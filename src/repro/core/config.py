"""Model configuration.

The paper's model is controlled by three structural parameters:

``Bh``
    Number of bits of the hash function; the hash space is
    ``R_h = [0, 2**Bh)`` (section 2.2).
``Pmin``
    Minimum number of partitions per vnode.  ``Pmax = 2 * Pmin``
    (invariant G4 / G4').
``Vmin``
    Minimum number of vnodes per group in the *local* approach.
    ``Vmax = 2 * Vmin`` (invariant L2).  The global approach has no
    ``Vmin`` (conceptually a single unbounded group).

Both must be powers of two for the binary-split machinery to work, which
is exactly what invariants G2/G4/L2 require.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.durability import DurabilityConfig
from repro.core.errors import ConfigError
from repro.utils.validation import is_power_of_two

#: Default number of bits of the hash function.  The paper does not fix a
#: value (results only depend on quota *fractions*); 32 bits keeps absolute
#: partition sizes integral for every configuration exercised in the paper
#: (splitlevels stay far below 32 for up to 8192 vnodes with Pmin <= 128).
DEFAULT_BH = 32


def _check_pow2(value: int, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an int, got {type(value).__name__}")
    if not is_power_of_two(value):
        raise ConfigError(f"{name} must be a positive power of two, got {value}")
    return value


@dataclass(frozen=True)
class ParallelConfig:
    """Multicore bulk-pipeline settings (see :mod:`repro.parallel`).

    Parameters
    ----------
    workers:
        Worker processes for the shared-memory bulk pipeline.  ``0`` (the
        default) disables the pool entirely — every path stays the serial,
        bit-identical engine.  ``workers=1`` exercises the full shm
        pipeline on one worker (the overhead-guard configuration).
    min_batch:
        Batches smaller than this stay on the serial path even with
        workers enabled: process fan-out has a fixed dispatch cost
        (~hundreds of microseconds) that small batches cannot amortize.
    start_method:
        Multiprocessing start method (``"fork"``/``"spawn"``/
        ``"forkserver"``).  ``None`` picks ``fork`` when the platform
        offers it (cheap worker startup on Linux) and ``spawn`` otherwise.
    """

    workers: int = 0
    min_batch: int = 32_768
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.workers, bool) or not isinstance(self.workers, int):
            raise ConfigError(
                f"parallel workers must be an int, got {type(self.workers).__name__}"
            )
        if self.workers < 0:
            raise ConfigError(f"parallel workers must be >= 0, got {self.workers}")
        if isinstance(self.min_batch, bool) or not isinstance(self.min_batch, int):
            raise ConfigError(
                f"parallel min_batch must be an int, got {type(self.min_batch).__name__}"
            )
        if self.min_batch < 1:
            raise ConfigError(f"parallel min_batch must be >= 1, got {self.min_batch}")
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise ConfigError(
                f"parallel start_method must be fork/spawn/forkserver or None, "
                f"got {self.start_method!r}"
            )

    @property
    def enabled(self) -> bool:
        """True when the configuration actually requests worker processes."""
        return self.workers > 0

    def as_dict(self) -> dict:
        """JSON-serializable form (snapshots round-trip it)."""
        return {
            "workers": self.workers,
            "min_batch": self.min_batch,
            "start_method": self.start_method,
        }


@dataclass(frozen=True)
class DHTConfig:
    """Configuration shared by the global and local DHT models.

    Parameters
    ----------
    bh:
        Number of bits of the hash function (``Bh`` in the paper).
    pmin:
        Minimum number of partitions per vnode (``Pmin``).  The maximum is
        always ``2 * pmin`` (``Pmax``), per invariant G4/G4'.
    vmin:
        Minimum number of vnodes per group (``Vmin``), used only by the
        local approach.  ``None`` means "no grouping" and is what the
        global approach uses internally.  The maximum is ``2 * vmin``
        (``Vmax``), per invariant L2.
    replication_factor:
        Number of copies kept of every stored item (data replication, a
        library extension — the paper replicates only *metadata*, the
        GPDR/LPDR tables).  ``1`` (default) stores each item once, exactly
        as the seed model did; ``k > 1`` additionally places ``k - 1``
        replicas of every partition on ring-successor vnodes hosted by
        distinct snodes (see :mod:`repro.core.replication`).
    durability:
        On-disk durability tier (a library extension — the paper's
        persistence behaviour is unspecified; section 5 assumes
        cluster-internal reliability).  ``None`` (default) keeps the
        RAM-only seed model bit-identical; a
        :class:`~repro.core.durability.DurabilityConfig` gives every
        primary ``VnodeStore`` a write-ahead log plus checkpointed columnar
        segment files under ``data_dir``, enabling
        :meth:`~repro.core.base.BaseDHT.restart_snode` to recover
        acknowledged writes even with no surviving replica.
    parallel:
        Multicore bulk-pipeline settings (a library extension — the
        paper's cost model is single-threaded).  ``None`` (default) or
        ``ParallelConfig(workers=0)`` keeps every path the serial,
        bit-identical engine; ``workers > 0`` fans the hot bulk pipelines
        (``hash_keys``, ``bulk_load``, ``lookup_many``) out over a
        persistent pool of worker processes
        operating on shared-memory columnar segments (see
        :mod:`repro.parallel`).
    """

    bh: int = DEFAULT_BH
    pmin: int = 32
    vmin: Optional[int] = 32
    replication_factor: int = 1
    durability: Optional[DurabilityConfig] = None
    parallel: Optional[ParallelConfig] = None

    def __post_init__(self) -> None:
        if isinstance(self.bh, bool) or not isinstance(self.bh, int):
            raise ConfigError(f"bh must be an int, got {type(self.bh).__name__}")
        if not (1 <= self.bh <= 128):
            raise ConfigError(f"bh must be in [1, 128], got {self.bh}")
        if isinstance(self.replication_factor, bool) or not isinstance(
            self.replication_factor, int
        ):
            raise ConfigError(
                f"replication_factor must be an int, got "
                f"{type(self.replication_factor).__name__}"
            )
        if self.replication_factor < 1:
            raise ConfigError(
                f"replication_factor must be >= 1, got {self.replication_factor}"
            )
        if self.durability is not None and not isinstance(
            self.durability, DurabilityConfig
        ):
            raise ConfigError(
                f"durability must be a DurabilityConfig or None, got "
                f"{type(self.durability).__name__}"
            )
        if self.parallel is not None and not isinstance(self.parallel, ParallelConfig):
            raise ConfigError(
                f"parallel must be a ParallelConfig or None, got "
                f"{type(self.parallel).__name__}"
            )
        _check_pow2(self.pmin, "pmin")
        if self.pmin < 2:
            # With Pmin = 1 the improvement test of the creation algorithm
            # (section 2.5 step 4) can never hand the first partition to a new
            # vnode without violating G4, so the model degenerates.
            raise ConfigError(f"pmin must be >= 2, got {self.pmin}")
        if self.vmin is not None:
            _check_pow2(self.vmin, "vmin")
        # The hash space must be able to hold at least Pmax partitions in a
        # single group; in practice splitlevels stay far below bh, but a
        # degenerate configuration (e.g. bh=2, pmin=64) is rejected early.
        if self.pmax > self.hash_space_size:
            raise ConfigError(
                f"pmax={self.pmax} exceeds the hash space size 2**{self.bh}; "
                "increase bh or decrease pmin"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def pmax(self) -> int:
        """Maximum number of partitions per vnode (``Pmax = 2 * Pmin``)."""
        return 2 * self.pmin

    @property
    def vmax(self) -> Optional[int]:
        """Maximum number of vnodes per group (``Vmax = 2 * Vmin``)."""
        return None if self.vmin is None else 2 * self.vmin

    @property
    def hash_space_size(self) -> int:
        """Size of the hash space ``|R_h| = 2**Bh``."""
        return 1 << self.bh

    @property
    def initial_splitlevel(self) -> int:
        """Splitlevel of the partitions of the very first vnode.

        The first vnode must own at least ``Pmin`` partitions (G4), and the
        partitions must tile ``R_h`` (G1) with a power-of-two count (G2), so
        the first vnode starts with exactly ``Pmin`` partitions at splitlevel
        ``log2(Pmin)``.
        """
        return self.pmin.bit_length() - 1

    @property
    def is_grouped(self) -> bool:
        """True when the configuration enables the local (grouped) approach."""
        return self.vmin is not None

    @property
    def replica_ranks(self) -> int:
        """Number of non-primary replicas kept per partition (``k - 1``)."""
        return self.replication_factor - 1

    # -- convenience constructors ------------------------------------------

    @classmethod
    def for_global(
        cls,
        bh: int = DEFAULT_BH,
        pmin: int = 32,
        replication_factor: int = 1,
        parallel: Optional[ParallelConfig] = None,
    ) -> "DHTConfig":
        """Configuration for the global approach (no groups)."""
        return cls(
            bh=bh,
            pmin=pmin,
            vmin=None,
            replication_factor=replication_factor,
            parallel=parallel,
        )

    @classmethod
    def for_local(
        cls,
        bh: int = DEFAULT_BH,
        pmin: int = 32,
        vmin: int = 32,
        replication_factor: int = 1,
        parallel: Optional[ParallelConfig] = None,
    ) -> "DHTConfig":
        """Configuration for the local approach (grouped)."""
        return cls(
            bh=bh,
            pmin=pmin,
            vmin=vmin,
            replication_factor=replication_factor,
            parallel=parallel,
        )

    @classmethod
    def paper_default(cls) -> "DHTConfig":
        """The configuration selected by the paper's θ analysis: Pmin = Vmin = 32."""
        return cls(bh=DEFAULT_BH, pmin=32, vmin=32)

    def with_(self, **changes) -> "DHTConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of a balance-simulation run (evaluation section 4).

    The paper creates 1024 vnodes consecutively, measures the metric under
    analysis after every creation, and averages 100 runs.
    """

    dht: DHTConfig = field(default_factory=DHTConfig.paper_default)
    n_vnodes: int = 1024
    runs: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_vnodes < 1:
            raise ConfigError(f"n_vnodes must be >= 1, got {self.n_vnodes}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
