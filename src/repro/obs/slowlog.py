"""The slow-query log: a bounded, thread-safe record of the N
slowest explains.

Entries are plain JSON-ready dicts produced by the service after each
explain -- query signature, problem class, elapsed seconds, matcher
steps, a per-span-kind profile, the cache hit/miss delta and whether
the evaluation budget truncated the search.
The log keeps the *slowest* ``capacity`` entries seen so far (a
min-heap on elapsed time evicts the quickest), so one burst of cheap
queries can never flush the interesting outliers.

The log is also a persistence participant: :meth:`export` /
:meth:`restore` move the retained entries through
:mod:`repro.persist` so the outliers observed before a restart stay
visible after it (they are often exactly the queries an operator is
restarting *because of*)."""

from __future__ import annotations

import copy
import heapq
import itertools
import math
import threading
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["SlowQueryLog"]


def _coerce_elapsed(value: Any) -> float:
    """Defensive elapsed-seconds coercion: missing, non-numeric, NaN
    and infinite values all become 0.0 so a single malformed entry can
    neither raise out of ``record()`` nor poison the heap ordering
    (NaN compares false against everything, which silently breaks the
    min-heap invariant)."""
    try:
        elapsed = float(value)
    except (TypeError, ValueError):
        return 0.0
    if not math.isfinite(elapsed):
        return 0.0
    return elapsed


class SlowQueryLog:
    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError("slow-query log capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._seq = itertools.count()
        # heap of (elapsed_s, seq, entry): the root is the *fastest*
        # retained entry, i.e. the eviction candidate
        self._heap: List[Any] = []

    def record(self, entry: Dict[str, Any]) -> bool:
        """Offer one entry; returns whether it was retained.

        The entry is frozen (deep-copied) at record time, so later
        caller-side mutation of the offered dict -- or of anything the
        service keeps a live reference to, like a profile accumulator --
        cannot corrupt the retained log.
        """
        elapsed = _coerce_elapsed(entry.get("elapsed_s", 0.0))
        with self._lock:
            if len(self._heap) < self.capacity:
                heapq.heappush(
                    self._heap, (elapsed, next(self._seq), copy.deepcopy(entry))
                )
                return True
            if elapsed <= self._heap[0][0]:
                return False
            heapq.heapreplace(
                self._heap, (elapsed, next(self._seq), copy.deepcopy(entry))
            )
            return True

    def entries(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Slowest first; ties broken oldest-first (stable seq).

        Returned entries are deep copies: nested mutable values (the
        per-span-kind profile dict, the cache delta) must not alias the
        retained heap, or a caller mutating its result would rewrite
        history for every later reader.
        """
        with self._lock:
            ranked = sorted(self._heap, key=lambda item: (-item[0], item[1]))
            entries = [copy.deepcopy(entry) for _, _, entry in ranked]
        if limit is not None:
            entries = entries[: max(0, limit)]
        return entries

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()

    # -- persistence seam ------------------------------------------------------

    def export(self) -> List[Dict[str, Any]]:
        """JSON-ready snapshot of the retained entries, slowest first."""
        return self.entries()

    def restore(self, entries: Iterable[Dict[str, Any]]) -> int:
        """Re-offer persisted entries; returns how many were retained.

        Restores go through :meth:`record`, so capacity, elapsed
        coercion and freezing all apply -- a decayed snapshot can only
        cost retained history, never corrupt the live heap.
        """
        restored = 0
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            if self.record(entry):
                restored += 1
        return restored

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)
