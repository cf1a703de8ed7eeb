"""Fingerprint-prefix sharded strategy store with a shared-memory hot tier.

One :class:`~repro.serve.store.StrategyStore` holds every record behind a
single lock — fine for a warm-up script, a contention point for a
gateway pushing a million requests.  :class:`ShardedStrategyStore`
splits the keyspace across N independent shards, each a full
``StrategyStore`` with its own lock, LRU layer and directory, so
concurrent lookups and writes for different fingerprints never serialize
on one mutex.

Sharding is by fingerprint prefix: ``int(fp[:2], 16) % shards``.  The
record files a sharded store writes are byte-identical to the unsharded
store's — only the directory above the two-level fan-out changes
(``<root>/shard-03/<fp[:2]>/<fp>.json``) — so the shards form an exact
*partition* of the unsharded store's contents (asserted in
``tests/test_sharded_store.py``).

Between the per-shard LRU and the disk sits an optional
:class:`~repro.serve.hotmem.SharedMemoryHotTier`: encoded envelopes of
recently written records in a named shared-memory ring that pool workers
attach to by name, turning their repeat lookups into one buffer copy
instead of a disk read + JSON file parse.  Hot-tier records are
validated exactly like disk records (same ``decode_record``, same hash
checks), so the tier can never serve a stale or torn record.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.dvfs.strategy import DvfsStrategy
from repro.errors import ServeError
from repro.serve.hotmem import SharedMemoryHotTier
from repro.serve.store import (
    StoreCounters,
    StoreHit,
    StrategyStore,
    decode_record,
    encode_document,
)


def shard_index(fingerprint: str, shards: int) -> int:
    """The shard a fingerprint belongs to (stable prefix partition)."""
    return int(fingerprint[:2], 16) % shards


@dataclass
class ShardedStrategyStore:
    """N independent :class:`StrategyStore` shards behind one interface.

    Duck-type compatible with ``StrategyStore`` everywhere the service
    layer cares (``lookup`` / ``get`` / ``put`` / ``fingerprints`` /
    ``counters`` / ``clear*``), so it drops into
    :class:`~repro.serve.service.StrategyService` unchanged.

    Attributes:
        root: parent directory; shard ``i`` lives in ``shard-{i:02d}``.
        shards: shard count (1–256; the prefix byte is the partition key).
        memory_capacity: per-shard LRU entry cap.
        hot_tier: optional shared-memory tier consulted between the LRU
            and the disk; pass ``hot_slots=0`` to disable.
    """

    root: Path
    shards: int = 8
    memory_capacity: int = 256
    hot_slots: int = 512

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if not 1 <= self.shards <= 256:
            raise ServeError(
                f"shards must be in [1, 256]: {self.shards}"
            )
        self._stores = [
            StrategyStore(
                self.root / f"shard-{i:02d}",
                memory_capacity=self.memory_capacity,
            )
            for i in range(self.shards)
        ]
        # Eager shard directories make the on-disk layout self-describing
        # (ShardLayout.detect counts them even before the first write).
        for store in self._stores:
            store.root.mkdir(parents=True, exist_ok=True)
        self.hot_tier: SharedMemoryHotTier | None = None
        if self.hot_slots > 0:
            self.hot_tier = SharedMemoryHotTier(slots=self.hot_slots)
        self._hot_lock = threading.Lock()
        self.counters = StoreCounters()

    # -- partition plumbing -------------------------------------------------

    def shard_for(self, fingerprint: str) -> StrategyStore:
        """The shard store owning ``fingerprint``."""
        return self._stores[shard_index(fingerprint, self.shards)]

    def path_for(self, fingerprint: str) -> Path:
        """The record path (``<root>/shard-XX/<fp[:2]>/<fp>.json``)."""
        return self.shard_for(fingerprint).path_for(fingerprint)

    @property
    def shard_stores(self) -> tuple[StrategyStore, ...]:
        """The underlying per-shard stores (read-mostly introspection)."""
        return tuple(self._stores)

    # -- lookup / put -------------------------------------------------------

    def lookup(
        self,
        fingerprint: str,
        config_hash: str | None = None,
        spec_hash: str | None = None,
    ) -> StoreHit | None:
        """LRU tier, then shared-memory hot tier, then the shard's disk."""
        shard = self.shard_for(fingerprint)
        hit = shard.lookup_memory(fingerprint)
        if hit is not None:
            return hit
        hit = self._lookup_hot(shard, fingerprint, config_hash, spec_hash)
        if hit is not None:
            return hit
        hit = shard.lookup_disk(fingerprint, config_hash, spec_hash)
        if hit is not None and self.hot_tier is not None:
            # Promote: future cross-process lookups skip the disk.
            document = encode_document(
                fingerprint, hit.strategy, config_hash or "", spec_hash or ""
            ) if config_hash is not None and spec_hash is not None else None
            if document is not None:
                with self._hot_lock:
                    self.hot_tier.put(
                        fingerprint, document.encode("utf-8")
                    )
        return hit

    def _lookup_hot(
        self,
        shard: StrategyStore,
        fingerprint: str,
        config_hash: str | None,
        spec_hash: str | None,
    ) -> StoreHit | None:
        if self.hot_tier is None:
            return None
        with self._hot_lock:
            payload = self.hot_tier.get(fingerprint)
        if payload is None:
            return None
        # Validate exactly like a disk record; any damage or drift falls
        # through to the disk tier (the source of truth).
        try:
            record = json.loads(payload.decode("utf-8"))
            strategy = decode_record(
                record, fingerprint, config_hash, spec_hash
            )
        except (ValueError, ServeError):
            return None
        with shard._lock:
            shard.counters.hot_hits += 1
            shard._remember(fingerprint, strategy)
        return StoreHit(fingerprint, strategy, tier="hot")

    def get(
        self,
        fingerprint: str,
        config_hash: str | None = None,
        spec_hash: str | None = None,
    ) -> DvfsStrategy | None:
        """:meth:`lookup` without the tier bookkeeping wrapper."""
        hit = self.lookup(fingerprint, config_hash, spec_hash)
        return None if hit is None else hit.strategy

    def put(
        self,
        fingerprint: str,
        strategy: DvfsStrategy,
        config_hash: str,
        spec_hash: str,
    ) -> Path:
        """Persist to the owning shard and refresh the hot tier."""
        document = encode_document(
            fingerprint, strategy, config_hash, spec_hash
        )
        path = self.shard_for(fingerprint).put(
            fingerprint, strategy, config_hash, spec_hash, document=document
        )
        if self.hot_tier is not None:
            with self._hot_lock:
                self.hot_tier.put(fingerprint, document.encode("utf-8"))
        return path

    # -- aggregation --------------------------------------------------------

    def aggregate_counters(self) -> StoreCounters:
        """Sum of all shard counters (plus any pre-merged totals)."""
        total = StoreCounters()
        for store in self._stores:
            total.merge(store.counters)
        total.merge(self.counters)
        return total

    def counter_rows(self) -> list[dict[str, int | str]]:
        """Aggregated counters + per-shard occupancy + hot-tier rows."""
        rows = self.aggregate_counters().rows()
        rows.append({"counter": "shards", "count": self.shards})
        if self.hot_tier is not None:
            rows.extend(self.hot_tier.rows())
        return rows

    def fingerprints(self) -> Iterator[str]:
        """All persisted fingerprints across every shard (sorted)."""
        for fingerprint in sorted(
            fp for store in self._stores for fp in store.fingerprints()
        ):
            yield fingerprint

    def quarantined_files(self) -> Iterator[Path]:
        """All quarantined ``.corrupt`` files across every shard."""
        for store in self._stores:
            yield from store.quarantined_files()

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)

    def memory_size(self) -> int:
        """Entries resident across all shard LRU layers."""
        return sum(store.memory_size() for store in self._stores)

    def clear_memory(self) -> None:
        """Drop every shard's LRU layer (disk records stay)."""
        for store in self._stores:
            store.clear_memory()

    def clear(self) -> int:
        """Delete every persisted record across shards."""
        return sum(store.clear() for store in self._stores)

    def close(self) -> None:
        """Release the shared-memory hot tier (idempotent)."""
        if self.hot_tier is not None:
            self.hot_tier.close()
            self.hot_tier = None

    def __enter__(self) -> "ShardedStrategyStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class ShardLayout:
    """How an on-disk store directory is organised (CLI detection)."""

    sharded: bool
    shards: int = 0

    @classmethod
    def detect(cls, root: Path) -> "ShardLayout":
        """Detect whether ``root`` holds a sharded or a flat store."""
        root = Path(root)
        if not root.is_dir():
            return cls(sharded=False)
        shard_dirs = sorted(root.glob("shard-[0-9][0-9]"))
        if shard_dirs:
            return cls(sharded=True, shards=len(shard_dirs))
        return cls(sharded=False)
