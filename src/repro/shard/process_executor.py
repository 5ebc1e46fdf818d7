"""Process-pool batch execution: CPU-parallel candidate evaluation.

Why-query rewriting is pure-Python CPU work, which threads in one
interpreter serialise under the GIL.  :class:`ProcessExecutor` escapes
it: a pool of worker *processes*, each holding one long-lived
:class:`~repro.exec.context.ExecutionContext` warmed from a serialized
snapshot of the coordinator's graph.

Why this is not just ``ProcessPoolExecutor.map`` over closures:

* **closures don't pickle** -- the evaluator's per-candidate thunks
  close over the matcher stack.  The executor therefore advertises
  ``supports_queries`` and receives the *queries* themselves
  (:meth:`run_queries`); each candidate crosses the process boundary as
  the compact hashable wire form of
  :func:`repro.core.serialize.query_to_wire`, and each worker memoises
  deserialisation by that same tuple;
* **per-worker warm-up** -- the pool initializer rebuilds the graph
  from one shipped :func:`~repro.core.serialize.graph_to_dict` snapshot
  (insertion-order exact, version-exact) and keeps a process-global
  ``ExecutionContext`` alive across batches, so workers amortise plan /
  candidate / result caches exactly like the coordinator does;
* **determinism** -- results return in submission order
  (``pool.map``), and budget truncation happens in the coordinator
  (:class:`~repro.exec.evaluator.CandidateEvaluator` grants *before*
  submission), so at batch size 1 every engine reproduces the serial
  search trajectory bit-identically;
* **staleness** -- the coordinator snapshots the graph's mutation
  ``version``; if the graph moved since the pool warmed up, the pool is
  rebuilt from a fresh snapshot before the next batch (correctness over
  reuse).

Start method: ``forkserver`` where available (fork is unsafe in a
threaded coordinator, spawn is the slow fallback); override with
``start_method=`` if the deployment knows better.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.core.serialize import (
    graph_from_dict,
    graph_to_dict,
    query_from_wire,
    query_to_wire,
)
from repro.obs.tracing import SPAN_WORKER, Tracer, current_tracer
from repro.stats import unified_stats

T = TypeVar("T")

__all__ = ["ProcessExecutor"]


# -- worker side -----------------------------------------------------------------
#
# One module-global evaluation spine per worker process, built once by the
# pool initializer and reused for every task the worker serves.  The keys:
# ``context`` (the warm ExecutionContext) and ``queries`` (wire form ->
# deserialized GraphQuery).

_WORKER_STATE: Dict[str, object] = {}

#: bound on the per-worker wire->query memo: a long-lived service ships
#: every distinct rewriting candidate ever searched, and the coordinator
#: bounds its own caches -- the workers must not grow without limit either
_WORKER_QUERY_CACHE_ENTRIES = 10_000


def _worker_init(
    payload: dict, injective: bool, compiled: bool, barrier: object
) -> None:
    """Pool initializer: rebuild the snapshot, warm one context.
    ``barrier`` is the pool's warm-up rendezvous (:func:`_worker_touch`);
    it can only travel here, by inheritance at process start."""
    # imported lazily so the coordinator-side import of this module stays
    # cheap; the worker pays it once per process
    from repro.exec.context import ExecutionContext

    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        context=ExecutionContext(
            graph_from_dict(payload),
            injective=injective,
            compiled=compiled,
        ),
        queries={},
        barrier=barrier,
    )


def _worker_query(wire: Tuple) -> GraphQuery:
    queries: Dict[Tuple, GraphQuery] = _WORKER_STATE["queries"]  # type: ignore[assignment]
    query = queries.get(wire)
    if query is None:
        query = query_from_wire(wire)
        if len(queries) >= _WORKER_QUERY_CACHE_ENTRIES:
            # FIFO eviction: oldest wire forms belong to long-finished
            # searches; re-deserialising one later is cheap
            queries.pop(next(iter(queries)))
        queries[wire] = query
    return query


def _worker_count(wire: Tuple, limit: Optional[int], trace: bool = False):
    """One bounded count; with ``trace`` the worker runs its own tracer
    and ships ``(count, span summary)`` back in the result envelope (a
    full span tree would be oversized and unpicklable-adjacent; the
    coordinator grafts the summary as one ``worker`` span)."""
    context = _WORKER_STATE["context"]
    if not trace:
        return context.count(_worker_query(wire), limit=limit)  # type: ignore[union-attr]
    tracer = Tracer()
    with tracer.activate():
        count = context.count(_worker_query(wire), limit=limit)  # type: ignore[union-attr]
    return count, tracer.summarize()


def _worker_touch(timeout_s: float) -> int:
    """Warm-up task: meet the pool's other workers at its barrier, then
    report the pid.  A worker waiting there takes no second task, so as
    many tasks as the barrier has parties complete only on that many
    distinct, initialized processes; a pool that cannot bring them up
    within ``timeout_s`` breaks the barrier and every task raises."""
    _WORKER_STATE["barrier"].wait(timeout_s)  # type: ignore[attr-defined]
    return os.getpid()


# -- coordinator side -------------------------------------------------------------


class ProcessExecutor:
    """Evaluate candidate batches on a pool of warm worker processes.

    Satisfies the :class:`~repro.exec.evaluator.BatchExecutor` protocol
    and additionally advertises ``supports_queries``: the
    :class:`~repro.exec.evaluator.CandidateEvaluator` routes the query
    batch through :meth:`run_queries` (wire forms across the boundary)
    instead of un-picklable thunks.  Bound to one graph -- the workers'
    warm contexts are snapshots of it; the
    :class:`~repro.service.WhyQueryService` therefore keeps one process
    executor per pooled graph.

    ``max_workers`` sizes the pool; every worker is warmed from the
    full snapshot.  The pool spins up lazily (or explicitly via
    :meth:`warm_up`) and is released by :meth:`close` /
    context-manager exit.
    """

    name = "process"
    #: :class:`CandidateEvaluator` ships queries (not thunks) when set
    supports_queries = True

    def __init__(
        self,
        graph: PropertyGraph,
        max_workers: int = 2,
        injective: bool = True,
        start_method: Optional[str] = None,
        compiled: bool = True,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.graph = graph
        self.max_workers = max_workers
        self.injective = injective
        self.compiled = compiled
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            # fork would duplicate a possibly-threaded coordinator mid-lock;
            # forkserver forks from a clean helper instead, spawn is the
            # universally available fallback
            start_method = "forkserver" if "forkserver" in methods else "spawn"
        self.start_method = start_method
        #: engines default their drain batch to the worker count
        self.preferred_batch = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._snapshot_version: Optional[int] = None
        #: serialises pool creation/teardown: the service's concurrent
        #: explain() calls may race on first touch, and two threads
        #: building pools would leak one pool's workers forever
        self._lock = threading.Lock()
        # lifetime counters (coordinator-side, for stats()/info())
        self.batches = 0
        self.queries_shipped = 0
        self.pool_rebuilds = 0

    # -- lifecycle ------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        stale: Optional[ProcessPoolExecutor] = None
        with self._lock:
            if (
                self._pool is not None
                and self._snapshot_version != self.graph.version
            ):
                # the graph mutated since the workers warmed up: their
                # snapshots are stale, rebuild from a fresh one
                stale, self._pool = self._pool, None
                self._snapshot_version = None
            if self._pool is None:
                context = multiprocessing.get_context(self.start_method)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=context,
                    initializer=_worker_init,
                    initargs=(
                        graph_to_dict(self.graph),
                        self.injective,
                        self.compiled,
                        context.Barrier(self.max_workers),
                    ),
                )
                self._snapshot_version = self.graph.version
                self.pool_rebuilds += 1
            pool = self._pool
        if stale is not None:
            stale.shutdown(wait=True)
        return pool

    def warm_up(self, timeout_s: float = 60.0) -> List[int]:
        """Force-spawn every worker; returns their (distinct) pids.

        ``ProcessPoolExecutor`` spawns workers on demand, so the first
        measured batch would otherwise pay process start + snapshot
        rebuild.  One task per worker meets the others at the pool's
        barrier (:func:`_worker_touch`), which only ``max_workers``
        distinct initialized processes can pass; if they are not all up
        within ``timeout_s`` the pool is closed and this raises.
        """
        pool = self._ensure_pool()
        try:
            return list(pool.map(_worker_touch, repeat(timeout_s, self.max_workers)))
        except threading.BrokenBarrierError as exc:
            self.close()  # the barrier stays broken: the next use rebuilds
            raise RuntimeError(
                f"{self.max_workers} workers were not up within {timeout_s} s"
            ) from exc

    def close(self) -> None:
        """Shut the worker pool down (idempotent; the pool respawns lazily)."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._snapshot_version = None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- BatchExecutor protocol ------------------------------------------------

    def run(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        """Protocol fallback for generic thunks: run in the calling thread.

        Arbitrary closures cannot cross the process boundary; callers
        that want the pool go through :meth:`run_queries` (the
        :class:`CandidateEvaluator` does so automatically via
        ``supports_queries``).
        """
        return [task() for task in tasks]

    # -- query batches -----------------------------------------------------------

    def run_queries(
        self, queries: Sequence[GraphQuery], limit: Optional[int] = None
    ) -> List[int]:
        """Bounded counts for a candidate batch, in submission order."""
        queries = list(queries)
        if not queries:
            return []
        pool = self._ensure_pool()
        wires = [query_to_wire(query) for query in queries]
        tracer = current_tracer()
        if tracer.enabled:
            counts = []
            envelopes = pool.map(
                _worker_count,
                wires,
                repeat(limit, len(wires)),
                repeat(True, len(wires)),
            )
            for task_index, (count, summary) in enumerate(envelopes):
                tracer.attach_summary(SPAN_WORKER, summary, task=task_index)
                counts.append(count)
        else:
            counts = list(
                pool.map(_worker_count, wires, repeat(limit, len(wires)))
            )
        with self._lock:
            self.batches += 1
            self.queries_shipped += len(wires)
        return counts

    # -- reporting ---------------------------------------------------------------

    def info(self) -> Dict[str, object]:
        """Lifetime counters in the unified stats schema.

        Pool lifecycle lives under ``["pools"]``.  All counters are
        snapshotted under the pool lock -- the same lock the increment
        sites hold -- so a monitoring poll racing a concurrent batch
        observes one consistent point in time instead of a torn mix of
        pre- and post-batch values.
        """
        with self._lock:
            pools = {
                "max_workers": self.max_workers,
                "start_method": self.start_method,
                "pool_live": self._pool is not None,
                "pool_rebuilds": self.pool_rebuilds,
                "batches": self.batches,
                "queries_shipped": self.queries_shipped,
                "snapshot_version": self._snapshot_version,
            }
        return unified_stats(pools=pools)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessExecutor(max_workers={self.max_workers}, "
            f"start_method={self.start_method!r})"
        )
