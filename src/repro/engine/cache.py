"""LRU factorization cache: factor once, solve many.

The serve-many-RHS workload the ROADMAP implies — repeated
``solve(T, b_i)`` against the same operator — should pay the ``O(m n²)``
factorization cost once.  The cache is keyed on
``(operator fingerprint, plan key)``: the fingerprint is a stable
content hash (:meth:`~repro.engine.StructuredOperator.fingerprint`), the
plan key covers every knob that changes the factorization (algorithm,
representation, ``m_s``, panel, perturbation size …), so distinct
configurations never collide.

Entries account their byte footprint (every buffer reachable through
the stored factorization object, once each); eviction is
least-recently-used, triggered by either an entry-count or a byte
budget.  The engine makes room under the entry budget on a miss,
before it loads or builds the new factor.  All operations take an
internal lock, so concurrent solves from multiple threads are safe;
hit/miss/eviction counters make the behaviour observable (and
testable).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import spans as _spans

__all__ = [
    "CacheStats",
    "FactorizationCache",
    "default_cache",
    "set_default_cache",
]


def _estimate_nbytes(obj) -> int:
    """Byte footprint of the ndarrays reachable from a factorization.

    Walks attributes (``__dict__`` and ``__slots__``) and list / tuple /
    dict containers to *any* nesting depth; cycles and shared references
    are counted once.  Each array is charged through the buffer that
    owns its memory, once per buffer, so views and reshapes of one
    buffer cost what the buffer does.  A memory map is charged its
    mapped size: a solve reads every page, so a warm map is fully
    resident after first use.  Non-array leaves are counted at a flat
    64 bytes so empty results still have nonzero size.  The unbounded
    walk matters: factorization objects nest (a distributed result holds
    a run holding per-worker payloads holding arrays), and a depth
    cutoff made ``max_bytes`` eviction blind to everything below it.
    """
    seen: set[int] = set()

    def walk(v) -> int:
        if id(v) in seen:
            return 0
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            owner = v
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            if owner is not v:
                if id(owner) in seen:
                    return 0
                seen.add(id(owner))
            return int(owner.nbytes)
        if isinstance(v, (list, tuple)):
            return sum(walk(x) for x in v)
        if isinstance(v, dict):
            return sum(walk(x) for x in v.values())
        total = 0
        attrs = getattr(v, "__dict__", None)
        if attrs:
            total += sum(walk(x) for x in attrs.values())
        for klass in type(v).__mro__:
            slots = getattr(klass, "__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            for name in slots:
                try:
                    total += walk(getattr(v, name))
                except AttributeError:
                    pass
        return total if total else 64

    return walk(obj)


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of the cache counters."""

    hits: int
    misses: int
    evictions: int
    entries: int
    current_bytes: int
    max_entries: int
    max_bytes: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class FactorizationCache:
    """Thread-safe LRU cache of factorization objects.

    Parameters
    ----------
    max_entries : int
        Entry-count budget (≥ 1).
    max_bytes : int
        Byte budget over the stored factorizations' array payloads.
    """

    def __init__(self, max_entries: int = 32,
                 max_bytes: int = 512 * 2 ** 20):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def _publish_gauges(self) -> None:
        """Mirror the counters into live observability gauges.

        Called under the cache lock after every state change when
        observability is enabled (one boolean check otherwise).  With
        several cache instances alive the gauges reflect the most
        recently active one — the default process-wide cache in every
        production configuration.
        """
        registry = _metrics.default_registry()
        registry.gauge("repro_cache_hits",
                       "Factorization cache hits").set(self._hits)
        registry.gauge("repro_cache_misses",
                       "Factorization cache misses").set(self._misses)
        registry.gauge("repro_cache_evictions",
                       "Factorization cache LRU evictions"
                       ).set(self._evictions)
        registry.gauge("repro_cache_entries",
                       "Factorizations currently cached"
                       ).set(len(self._entries))
        registry.gauge("repro_cache_bytes",
                       "Byte footprint of cached factorizations"
                       ).set(self._bytes)

    def get(self, key: tuple):
        """Look up ``key``; returns the value or ``None`` (counts the
        hit/miss and refreshes recency)."""
        with self._lock:
            try:
                value, nbytes = self._entries.pop(key)
            except KeyError:
                self._misses += 1
                if _spans.enabled():
                    self._publish_gauges()
                return None
            self._entries[key] = (value, nbytes)
            self._hits += 1
            if _spans.enabled():
                self._publish_gauges()
            return value

    def put(self, key: tuple, value) -> None:
        """Insert ``value`` under ``key``, evicting LRU entries past the
        entry/byte budgets.  Values larger than the whole byte budget are
        not cached at all."""
        nbytes = _estimate_nbytes(value)
        if nbytes > self.max_bytes:
            return
        with self._lock:
            if key in self._entries:
                _, old = self._entries.pop(key)
                self._bytes -= old
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            self._evict_to(self.max_entries)

    def make_room(self) -> None:
        """Evict LRU entries until one more fits the entry budget.

        The engine calls this on a miss, before it loads or builds the
        value it will :meth:`put`, so a full cache never holds
        ``max_entries + 1`` values while the new one is made.  The byte
        budget is checked by :meth:`put`, once the value's size is
        known.
        """
        with self._lock:
            self._evict_to(self.max_entries - 1)

    def _evict_to(self, entries: int) -> None:
        """Drop least-recently-used entries until at most ``entries``
        remain within the byte budget (called under the lock)."""
        while len(self._entries) > entries or self._bytes > self.max_bytes:
            _, (_, evicted_bytes) = self._entries.popitem(last=False)
            self._bytes -= evicted_bytes
            self._evictions += 1
        if _spans.enabled():
            self._publish_gauges()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            if _spans.enabled():
                self._publish_gauges()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        with self._lock:
            self._hits = self._misses = self._evictions = 0
            if _spans.enabled():
                self._publish_gauges()

    def stats(self) -> CacheStats:
        """Consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits, misses=self._misses,
                evictions=self._evictions, entries=len(self._entries),
                current_bytes=self._bytes, max_entries=self.max_entries,
                max_bytes=self.max_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (f"FactorizationCache(entries={s.entries}, "
                f"bytes={s.current_bytes}, hits={s.hits}, "
                f"misses={s.misses}, evictions={s.evictions})")


_default_cache = FactorizationCache()
_default_lock = threading.Lock()


def default_cache() -> FactorizationCache:
    """The process-wide cache used unless a plan has ``cache="off"``."""
    return _default_cache


def set_default_cache(cache: FactorizationCache) -> FactorizationCache:
    """Swap the process-wide cache; returns the previous one."""
    global _default_cache
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
    return previous
