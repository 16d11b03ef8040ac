"""Memoised closed-form cost oracles.

:mod:`repro.parallel.memo` caches the cycle oracles' answers on their
geometry signatures and counts hits/misses, exported via ``repro.obs``.

The memo stays at this path, rather than next to the oracles it
caches, because the ``fleetbench`` benchmark imports
:func:`clear_memo_caches` and :func:`memo_stats` from here.
"""

from repro.parallel.memo import (
    MemoCache,
    cache,
    clear_memo_caches,
    memo_disabled,
    memo_stats,
    memoised,
    publish_memo_metrics,
    set_memo_enabled,
)

__all__ = [
    "MemoCache",
    "cache",
    "clear_memo_caches",
    "memo_disabled",
    "memo_stats",
    "memoised",
    "publish_memo_metrics",
    "set_memo_enabled",
]
