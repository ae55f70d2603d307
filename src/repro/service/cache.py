"""LRU result cache of served allocations.

The allocation problem space is small in practice -- fleets of devices with
the same design-point set asking about a modest set of (budget, alpha)
pairs -- so an LRU map keyed by the canonical problem encoding
(:attr:`repro.service.requests.AllocationRequest.cache_key`) absorbs most of
a production workload before it ever reaches the batch engine.  The cache
itself is thread-safe and counts its hits, misses and evictions in
:mod:`repro.obs.metrics` families (note the surrounding
:class:`~repro.service.server.AllocationService` is still bound to one
event loop -- its micro-batcher parks futures on the calling loop).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, Optional, TypeVar

from repro.obs.metrics import Counter, MetricsRegistry

Value = TypeVar("Value")


class AllocationCache(Generic[Value]):
    """Bounded LRU map from canonical problem keys to served responses.

    ``get`` refreshes recency; ``put`` evicts the least recently used entry
    once ``max_entries`` is exceeded.  A ``max_entries`` of zero disables
    caching entirely (every lookup misses, nothing is stored) -- useful for
    benchmarking the solve path.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be non-negative, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, Value]" = OrderedDict()
        self._lock = threading.Lock()
        self.lookups = Counter(
            "repro_cache_lookups_total",
            "Allocation cache lookups, by result.",
            ("result",),
        )
        self.lookups.inc(0.0, result="hit")  # both series exist from the start
        self.lookups.inc(0.0, result="miss")
        self.evictions = Counter(
            "repro_cache_evictions_total", "Allocation cache LRU evictions."
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Value]:
        """Look up a key, refreshing its recency; ``None`` on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        self.lookups.inc(result="miss" if value is None else "hit")
        return value

    def put(self, key: Hashable, value: Value) -> None:
        """Store a key, evicting the least recently used entry when full."""
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = len(self._entries) - self.max_entries
            for _ in range(evicted):
                self._entries.popitem(last=False)
        if evicted > 0:
            self.evictions.inc(evicted)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Expose the cache's families on a metrics registry."""
        registry.register(self.lookups)
        registry.register(self.evictions)
        registry.callback(
            "repro_cache_entries",
            "Entries currently held in the allocation cache.",
            "gauge",
            lambda: [("", {}, len(self))],
        )


__all__ = ["AllocationCache"]
