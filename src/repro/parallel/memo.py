"""Memoisation for the closed-form cost oracles.

The cycle oracles (``systolic/cycles.py`` row-stationary and FC tile
schedules, ``systolic/training.py`` whole-network training cost) are
pure functions of a small hashable geometry signature, yet the hot
loops — agent forward batches, scheduler train steps, ``ShardCost``
merge accounting — re-derive the same algebra every update.  A fleet
round asks for the cost of the *same* layer stack at the *same* batch
size thousands of times; after the first answer, every other call
should pay a dict lookup.

Caches always count hits/misses so the wall-clock benchmark can pin
the hit rate.  :func:`publish_memo_metrics` exports the counters
through the ``repro.obs`` metrics registry as gauges — gauges rather
than counters because the memo tallies are themselves cumulative and
re-published every round.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager

from repro.obs.probes import PROBE

__all__ = [
    "MemoCache",
    "cache",
    "memoised",
    "memo_enabled",
    "set_memo_enabled",
    "memo_disabled",
    "memo_stats",
    "clear_memo_caches",
    "publish_memo_metrics",
]

_MISS = object()
_ENABLED = True
_LOCK = threading.Lock()
_CACHES: dict[str, "MemoCache"] = {}


class MemoCache:
    """One named memo table with always-on hit/miss tallies."""

    __slots__ = ("name", "hits", "misses", "_store")

    def __init__(self, name: str):
        self.name = name
        self.hits = 0
        self.misses = 0
        self._store: dict = {}

    def get(self, key):
        """The cached value, or the module ``_MISS`` sentinel; counts."""
        value = self._store.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value):
        """Store and return ``value`` (does not count as hit or miss)."""
        self._store[key] = value
        return value

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def cache(name: str) -> MemoCache:
    """Get or create the process-wide cache registered under ``name``."""
    with _LOCK:
        memo = _CACHES.get(name)
        if memo is None:
            memo = _CACHES[name] = MemoCache(name)
    return memo


def memoised(name: str):
    """Memoise a pure function of hashable arguments under ``name``.

    The wrapped function keeps the original behind ``__wrapped__`` and
    exposes its table as ``.memo``.  With memoisation disabled
    (:func:`set_memo_enabled` / :func:`memo_disabled`) the call falls
    straight through to the original — the pre-memo recompute path the
    wall-clock benchmark uses as its baseline.
    """

    def wrap(fn):
        memo = cache(name)

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            if not _ENABLED:
                return fn(*args, **kwargs)
            key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
            value = memo.get(key)
            if value is _MISS:
                value = memo.put(key, fn(*args, **kwargs))
            return value

        inner.memo = memo
        return inner

    return wrap


def memo_enabled() -> bool:
    return _ENABLED


def set_memo_enabled(flag: bool) -> bool:
    """Set the global memo switch; returns the previous value."""
    global _ENABLED
    prior = _ENABLED
    _ENABLED = bool(flag)
    return prior


@contextmanager
def memo_disabled():
    """Run a block on the recompute path (baseline measurements)."""
    prior = set_memo_enabled(False)
    try:
        yield
    finally:
        set_memo_enabled(prior)


def clear_memo_caches() -> None:
    """Empty every table and zero its counters (test isolation)."""
    with _LOCK:
        caches = list(_CACHES.values())
    for memo in caches:
        memo.clear()


def memo_stats() -> dict[str, dict]:
    """``{oracle: {hits, misses, entries, hit_rate}}``, sorted by name."""
    with _LOCK:
        caches = sorted(_CACHES.values(), key=lambda m: m.name)
    return {
        memo.name: {
            "hits": memo.hits,
            "misses": memo.misses,
            "entries": len(memo),
            "hit_rate": memo.hit_rate,
        }
        for memo in caches
    }


def publish_memo_metrics(probe=None) -> dict[str, dict]:
    """Export hit/miss tallies through the ``repro.obs`` registry.

    Writes per-oracle ``repro_memo_hits`` / ``repro_memo_misses`` /
    ``repro_memo_hit_rate`` gauges plus the aggregate
    ``repro_memo_hit_rate_overall``, and returns :func:`memo_stats`.
    No-op (stats still returned) while the probe is inactive.
    """
    if probe is None:
        probe = PROBE
    stats = memo_stats()
    if getattr(probe, "enabled", False):
        hits = misses = 0
        for name, row in stats.items():
            hits += row["hits"]
            misses += row["misses"]
            probe.gauge("repro_memo_hits", row["hits"], oracle=name)
            probe.gauge("repro_memo_misses", row["misses"], oracle=name)
            probe.gauge("repro_memo_hit_rate", row["hit_rate"], oracle=name)
            probe.gauge("repro_memo_entries", row["entries"], oracle=name)
        total = hits + misses
        probe.gauge(
            "repro_memo_hit_rate_overall", hits / total if total else 0.0
        )
    return stats
