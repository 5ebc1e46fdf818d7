"""Long-lived why-query service: shared contexts across requests.

The ROADMAP's north star is a process that debugs queries for *many*
users over a handful of hot graphs.  One-shot engine construction per
request throws the shared evaluation state away between requests; the
:class:`WhyQueryService` keeps it:

* a bounded pool of per-graph :class:`~repro.exec.context.ExecutionContext`
  instances (least-recently-used graph evicted first), so every
  ``explain()``/``open_session()`` call over the same graph reuses the
  matcher, the query-result cache, the statistics and the candidate-set
  cache warmed by earlier requests;
* thread-safe request handling -- the pool is lock-protected, and the
  evaluation stack underneath keeps all per-call state on the stack, so
  concurrent ``explain()`` calls over the same graph are safe (CPython
  dict/counter mutation is atomic under the GIL);
* serial candidate evaluation by default (batch size 1: the searches
  are sequential best-first, each count decides what is generated next);
* **CPU-parallel evaluation** with ``executor="process"``: every pooled
  graph gets its own :class:`~repro.shard.ProcessExecutor` (a warm
  worker-process pool built from a snapshot of that graph), created
  with the graph's pool slot and shut down on eviction -- the searches drain
  worker-count-sized batches, so pure-Python rewriting work scales with
  cores instead of stalling on the coordinator's GIL;
* **one blocking front door**: a request is a single hop -- admit,
  lease the graph's context, run the engine, record, release -- inside
  :meth:`WhyQueryService.explain`; the searches are CPU-bound, so an
  asyncio caller runs that hop on a thread
  (``await asyncio.to_thread(service.explain, graph, query)``) and
  bounds its own concurrency (``examples/async_service.py``);
* **service-level admission control**: a :class:`BudgetPool` carves a
  per-request :class:`~repro.exec.evaluator.EvaluationBudget` out of a
  bounded global evaluation pool (fair-share split across the requests
  currently active, returned on completion), so total work stays bounded
  under heavy traffic -- overload degrades to smaller per-request search
  budgets, queued admissions, and finally :class:`AdmissionRejected`;
* aggregated cache/throughput/admission counters over all live contexts
  (:meth:`WhyQueryService.stats`), the service-level equivalent of
  :meth:`ExecutionContext.cache_report`.

>>> service = WhyQueryService(max_contexts=4, budget_pool=BudgetPool(2000))
>>> report = service.explain(graph, failed_query)       # request 1
>>> session = service.open_session(graph, failed_query) # request 2, warm
>>> service.stats()["service"]["explain_calls"]
1
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Union

from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.exec.context import ExecutionContext
from repro.exec.evaluator import BatchExecutor, EvaluationBudget
from repro.metrics.cardinality import CardinalityThreshold
from repro.obs import (
    NULL_TRACER,
    REGISTRY,
    SPAN_ADMISSION,
    SPAN_EXPLAIN,
    SlowQueryLog,
    Tracer,
    tracing_default,
)
from repro.persist import (
    SnapshotStore,
    persist_key,
    restore_context,
    snapshot_context,
)
from repro.shard.process_executor import ProcessExecutor
from repro.stats import (
    csr_section,
    deltas_section,
    programs_section,
    unified_stats,
)
from repro.why.engine import WhyQueryEngine, WhyQueryReport
from repro.why.session import DebugSession

__all__ = [
    "AdmissionRejected",
    "BudgetLease",
    "BudgetPool",
    "WhyQueryService",
]

# Process-wide request metrics (the unified stats' ``metrics`` section
# and the Prometheus endpoint render these).  Handles are module-level
# so the hot path pays one attribute load, not a registry lookup.
_EXPLAIN_LATENCY = REGISTRY.histogram(
    "repro_explain_latency_seconds",
    help="End-to-end WhyQueryService.explain() latency",
)
_FIRST_CANDIDATE_LATENCY = REGISTRY.histogram(
    "repro_first_candidate_seconds",
    help="Time from request start to the first evaluated rewrite candidate",
)
_ADMISSION_WAIT = REGISTRY.histogram(
    "repro_admission_wait_seconds",
    help="Time spent acquiring a budget-pool admission lease",
)
_EXPLAIN_CALLS = REGISTRY.counter(
    "repro_explain_total", help="WhyQueryService.explain() calls served"
)
_EXPLAIN_REJECTED = REGISTRY.counter(
    "repro_explain_rejected_total",
    help="Requests shed by budget-pool admission control",
)


def _span_kind_histogram(kind: str):
    """The per-span-kind duration histogram (one request's total time
    inside that kind is one observation)."""
    return REGISTRY.histogram(
        "repro_span_seconds",
        help="Per-request total time spent inside one span kind",
        labels={"kind": kind},
    )


class AdmissionRejected(RuntimeError):
    """The budget pool could not admit the request (overload shedding).

    Raised by :meth:`BudgetPool.acquire` -- and propagated out of
    :meth:`WhyQueryService.explain` -- when the pool is exhausted and the
    queue policy does not allow (further) waiting.  A deployment maps
    this to its transport-level overload response (HTTP 429 / gRPC
    RESOURCE_EXHAUSTED).
    """


class BudgetLease:
    """One request's slice of a :class:`BudgetPool`.

    ``budget`` is the :class:`~repro.exec.evaluator.EvaluationBudget` the
    request's engines spend against; ``granted`` is its size.  The lease
    returns its capacity with :meth:`release` (the service does this in a
    ``finally``); it also works as a context manager.
    """

    __slots__ = ("granted", "budget", "_pool", "_released")

    def __init__(self, pool: "BudgetPool", granted: int) -> None:
        self.granted = granted
        self.budget = EvaluationBudget(granted)
        self._pool = pool
        self._released = False

    def release(self) -> None:
        """Return the granted capacity to the pool (idempotent-checked)."""
        if self._released:
            raise RuntimeError("budget lease released twice")
        self._released = True
        self._pool._release(self)

    def __enter__(self) -> "BudgetLease":
        return self

    def __exit__(self, *exc: object) -> None:
        if not self._released:
            self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BudgetLease(granted={self.granted}, "
            f"spent={self.budget.spent}, released={self._released})"
        )


class BudgetPool:
    """Bounded global pool of evaluation capacity shared by all requests.

    ``total`` is the number of candidate evaluations that may be
    *reserved* concurrently across active requests.  Each admission
    carves out a fair share: a request asking for ``requested``
    evaluations is granted ``min(requested, available,
    max(min_grant, total // (active + 1)))`` -- under light load a
    request gets everything it asked for, under heavy load the pool
    splits evenly across the requests currently holding leases.  A grant
    below ``min(requested, min_grant)`` is not worth admitting (the
    search could barely move); such requests wait or are rejected:

    * ``max_waiting = 0`` (default) -- **reject policy**: raise
      :class:`AdmissionRejected` immediately;
    * ``max_waiting > 0`` -- **queue policy**: up to that many requests
      block for capacity (``wait_timeout`` seconds each, ``None`` =
      indefinitely); waiters past the cap, and waiters whose timeout
      expires, are rejected.

    Thread-safe; all counters are surfaced via :meth:`stats` and folded
    into :meth:`WhyQueryService.stats` under ``"admission"``.
    """

    def __init__(
        self,
        total: int,
        min_grant: int = 8,
        max_waiting: int = 0,
        wait_timeout: Optional[float] = None,
    ) -> None:
        if total < 1:
            raise ValueError("total must be >= 1")
        if min_grant < 1:
            raise ValueError("min_grant must be >= 1")
        if min_grant > total:
            raise ValueError("min_grant cannot exceed total")
        if max_waiting < 0:
            raise ValueError("max_waiting must be >= 0")
        if wait_timeout is not None and wait_timeout < 0:
            raise ValueError("wait_timeout must be >= 0 or None")
        self.total = total
        self.min_grant = min_grant
        self.max_waiting = max_waiting
        self.wait_timeout = wait_timeout
        self._available = total
        self._active = 0
        self._waiting = 0
        self._cond = threading.Condition()
        # lifetime counters
        self._admitted = 0
        self._rejected = 0
        self._timeouts = 0
        self._queued = 0
        self._peak_in_use = 0
        self._peak_active = 0
        self._granted_total = 0
        self._spent_total = 0

    # -- admission ------------------------------------------------------------

    def _try_grant(self, requested: int) -> Optional[int]:
        """Grant size if the request is admissible right now, else None."""
        share = max(self.min_grant, self.total // (self._active + 1))
        grant = min(requested, share, self._available)
        if grant < min(requested, self.min_grant):
            return None
        return grant

    def acquire(self, requested: int) -> BudgetLease:
        """Admit a request and lease it a fair share of the pool.

        Raises :class:`AdmissionRejected` per the queue/reject policy.
        """
        if requested < 1:
            raise ValueError("requested must be >= 1")
        wait_started = time.monotonic()
        deadline = (
            None
            if self.wait_timeout is None
            else wait_started + self.wait_timeout
        )
        with self._cond:
            waited = False
            while True:
                grant = self._try_grant(requested)
                if grant is not None:
                    if waited:
                        self._waiting -= 1
                    self._active += 1
                    self._available -= grant
                    self._admitted += 1
                    self._granted_total += grant
                    in_use = self.total - self._available
                    self._peak_in_use = max(self._peak_in_use, in_use)
                    self._peak_active = max(self._peak_active, self._active)
                    _ADMISSION_WAIT.observe(time.monotonic() - wait_started)
                    return BudgetLease(self, grant)
                if not waited:
                    if self._waiting >= self.max_waiting:
                        self._rejected += 1
                        raise AdmissionRejected(
                            f"budget pool exhausted ({self._active} active, "
                            f"{self._available}/{self.total} available)"
                        )
                    waited = True
                    self._waiting += 1
                    self._queued += 1
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        self._waiting -= 1
                        self._timeouts += 1
                        self._rejected += 1
                        raise AdmissionRejected(
                            "timed out waiting for budget-pool capacity"
                        )

    def _release(self, lease: BudgetLease) -> None:
        with self._cond:
            self._available += lease.granted
            self._active -= 1
            self._spent_total += lease.budget.spent
            self._cond.notify_all()

    # -- reporting ------------------------------------------------------------

    @property
    def available(self) -> int:
        with self._cond:
            return self._available

    @property
    def active(self) -> int:
        with self._cond:
            return self._active

    def stats(self) -> Dict[str, int]:
        """Snapshot of capacity and lifetime admission counters."""
        with self._cond:
            return {
                "total": self.total,
                "available": self._available,
                "in_use": self.total - self._available,
                "active_requests": self._active,
                "waiting_requests": self._waiting,
                "admitted": self._admitted,
                "rejected": self._rejected,
                "timeouts": self._timeouts,
                "queued_waits": self._queued,
                "peak_in_use": self._peak_in_use,
                "peak_active": self._peak_active,
                "evaluations_granted": self._granted_total,
                "evaluations_spent": self._spent_total,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BudgetPool(total={self.total}, available={self.available}, "
            f"active={self.active})"
        )


class _PoolEntry:
    """One pooled context plus the bookkeeping the LRU needs.

    With ``executor="process"`` the entry also owns the graph's warm
    worker pool (a :class:`~repro.shard.ProcessExecutor` is bound to one
    graph snapshot, so it shares the context's lifecycle: created with
    the slot, shut down on eviction).  ``in_flight``/``retired`` make
    that shutdown safe under concurrency: a request *leases* the entry
    for its duration, and an evicted (retired) entry's pool is closed by
    whoever drops the lease count to zero -- never under a request that
    is still evaluating on it.
    """

    __slots__ = ("context", "version", "requests", "executor", "in_flight", "retired")

    def __init__(
        self,
        context: ExecutionContext,
        executor: Optional[ProcessExecutor] = None,
    ) -> None:
        self.context = context
        self.version = context.graph.version
        self.requests = 0
        self.executor = executor
        #: requests currently executing against this entry
        self.in_flight = 0
        #: set when the LRU dropped the entry; resources close at drain
        self.retired = False


class WhyQueryService:
    """Serves why-query debugging over a bounded pool of warm contexts.

    ``max_contexts`` bounds the number of graphs whose evaluation state is
    kept warm; the least-recently-used graph's context is dropped when the
    pool overflows (its memory goes with it -- contexts created by the
    service are private to the service, not the process-wide registry).
    Engine tuning knobs (``mcs_strategy``, budgets, ``rewrite_k``, ...)
    are fixed per service and applied to every request.

    ``budget_pool`` switches on admission control: every ``explain()``
    leases its rewriting budget from the pool and returns it when done.
    ``context_factory`` builds the per-graph context in place of
    ``ExecutionContext(graph)`` -- the one seam for serving with another
    matcher configuration (``ExecutionContext(g, injective=False)`` for
    homomorphic semantics, ``compiled=False`` for the interpreter); in
    process mode the workers inherit the semantics of the context it
    returns.

    ``explain()`` blocks its calling thread for the whole request and is
    safe to call from many threads.  From asyncio, run it on a thread --
    ``await asyncio.to_thread(service.explain, graph, query)`` -- and
    bound the number in flight with the caller's own semaphore or
    executor; the service keeps no thread pool of its own.

    ``persist`` (a directory path or a
    :class:`~repro.persist.SnapshotStore`) switches on **warm-restart
    persistence and context tiering** (docs/persistence.md): LRU
    evictions spill a context's cache state to disk instead of
    dropping it, first touch prewarms from the spilled snapshot,
    :meth:`checkpoint`/:meth:`close` write durability points, the
    slow-query log survives restarts, and a restarted service restores
    its result caches after validating each snapshot against the live
    graph (delta-replay scoped; see :mod:`repro.persist`).

    ``executor="process"`` switches on **CPU-parallel evaluation**:
    every pooled graph gets its own
    :class:`~repro.shard.ProcessExecutor` -- ``process_workers`` worker
    processes, each holding a long-lived warm context built from a
    snapshot of that graph -- created with the graph's pool slot and
    shut down when the slot is evicted.  Each pool's counters surface
    under ``stats()["per_graph"][i]["process_pool"]``.
    """

    #: engine kwargs the service itself wires per request; passing them as
    #: engine_options would silently collide at explain() time
    _RESERVED_ENGINE_OPTIONS = frozenset(
        {
            "graph",
            "context",
            "executor",
            "preference_model",
            "preferences",
            "evaluation_budget",
            "on_candidate",
            "tracer",
        }
    )

    #: the tuning knobs ``**engine_options`` may carry (a misspelt or
    #: removed one fails at construction, not on the first request)
    _ENGINE_OPTIONS = (
        frozenset(inspect.signature(WhyQueryEngine).parameters)
        - _RESERVED_ENGINE_OPTIONS
    )

    #: evaluations requested from the budget pool per request when the
    #: service's engine options don't override ``max_rewrite_evaluations``
    #: (mirrors the WhyQueryEngine default)
    DEFAULT_REQUEST_EVALUATIONS = 300

    def __init__(
        self,
        max_contexts: int = 8,
        executor: Optional[Union[BatchExecutor, str]] = None,
        budget_pool: Optional[BudgetPool] = None,
        context_factory: Optional[
            Callable[[PropertyGraph], ExecutionContext]
        ] = None,
        process_workers: int = 2,
        slow_log_capacity: int = 32,
        persist: Optional[Union[str, SnapshotStore]] = None,
        **engine_options,
    ) -> None:
        if max_contexts < 1:
            raise ValueError("max_contexts must be >= 1")
        if process_workers < 1:
            raise ValueError("process_workers must be >= 1")
        if isinstance(executor, str) and executor != "process":
            raise ValueError(
                f"unknown executor mode {executor!r}; pass 'process' or a "
                "BatchExecutor instance"
            )
        reserved = self._RESERVED_ENGINE_OPTIONS & engine_options.keys()
        if reserved:
            raise TypeError(
                f"engine option(s) {sorted(reserved)} are wired per request "
                "by the service (preference models live on the per-graph "
                "context; pass executor=/budget_pool= directly)"
            )
        unknown = engine_options.keys() - self._ENGINE_OPTIONS
        if unknown:
            raise TypeError(
                f"unknown engine option(s) {sorted(unknown)}; WhyQueryEngine "
                f"takes {sorted(self._ENGINE_OPTIONS)}"
            )
        self.max_contexts = max_contexts
        #: a ``BatchExecutor`` shared by all requests, or ``None``; in
        #: process mode the shared executor stays ``None`` and each pool
        #: entry owns a per-graph ``ProcessExecutor`` instead
        self.executor = None if isinstance(executor, str) else executor
        self.process_mode = executor == "process"
        self.process_workers = process_workers
        self.budget_pool = budget_pool
        self.engine_options = engine_options
        self._context_factory = (
            context_factory if context_factory is not None else ExecutionContext
        )
        #: bounded record of the slowest explains (see docs/observability.md)
        self.slow_log = SlowQueryLog(capacity=slow_log_capacity)
        #: warm-restart persistence (docs/persistence.md): a directory
        #: path or a ready-made SnapshotStore switches on context
        #: tiering (evictions spill, first touch prewarms), explicit
        #: checkpoints and slow-log survival; ``None`` keeps the
        #: historical everything-is-lost-on-restart behaviour
        self.persist_store: Optional[SnapshotStore] = (
            persist
            if persist is None or isinstance(persist, SnapshotStore)
            else SnapshotStore(persist)
        )
        self._persist_counters: Dict[str, int] = {
            "prewarm_attempts": 0,
            "prewarm_restored": 0,
            "prewarm_cold": 0,
            "prewarm_errors": 0,
            "results_restored": 0,
            "spills": 0,
            "spill_errors": 0,
            "checkpoints": 0,
            "slow_log_restored": 0,
        }
        self._last_restore: Optional[Dict[str, object]] = None
        self._pool: "OrderedDict[int, _PoolEntry]" = OrderedDict()
        self._lock = threading.RLock()
        if self.persist_store is not None:
            self._restore_slow_log()
        # throughput counters (monotonic over the service lifetime)
        self._explain_calls = 0
        self._session_calls = 0
        self._rejected_calls = 0
        self._contexts_created = 0
        self._evictions = 0
        self._busy_seconds = 0.0
        self._started = time.perf_counter()

    # -- context pool ---------------------------------------------------------

    def _entry_for(self, graph: PropertyGraph, lease: bool = False) -> _PoolEntry:
        """The graph's pool entry (LRU bookkeeping, created on demand).

        With ``lease=True`` the entry's ``in_flight`` count is raised;
        the caller must pair it with :meth:`_release_entry` (requests do
        this in a ``finally``), which is what keeps an evicted entry's
        worker pool alive until its last request finished.
        """
        key = id(graph)
        evicted: List[_PoolEntry] = []
        spilled: List[_PoolEntry] = []
        created: Optional[_PoolEntry] = None
        with self._lock:
            entry = self._pool.get(key)
            if entry is not None and entry.context.graph is graph:
                self._pool.move_to_end(key)
            else:
                context = self._context_factory(graph)
                if context.graph is not graph:
                    raise ValueError(
                        "context_factory returned a context for a different graph"
                    )
                executor = None
                if self.process_mode:
                    # the workers must evaluate with the semantics of the
                    # context the factory built, or process-mode counts
                    # would silently diverge from the serial service's
                    executor = ProcessExecutor(
                        graph,
                        max_workers=self.process_workers,
                        injective=context.matcher.injective,
                        compiled=context.matcher.compiled,
                    )
                entry = _PoolEntry(context, executor)
                created = entry
                self._pool[key] = entry
                self._contexts_created += 1
                while len(self._pool) > self.max_contexts:
                    _, dropped = self._pool.popitem(last=False)
                    self._evictions += 1
                    dropped.retired = True
                    spilled.append(dropped)
                    if dropped.in_flight == 0:
                        evicted.append(dropped)
                    # else: the last in-flight request closes it on release
            if lease:
                entry.in_flight += 1
            entry.requests += 1
            entry.version = graph.version
        # persistence and worker-pool teardown happen outside the lock:
        # eviction must not stall every other request behind process
        # teardown or snapshot IO.  Tiering: the evicted context's cache
        # state spills to the snapshot store (instead of being dropped),
        # and a freshly created context prewarms from whatever the store
        # holds for its graph.  Prewarming a *published* entry is
        # racy-benign -- the caches take restores under their own locks
        # and live entries always win over restored ones.
        for dropped in spilled:
            self._spill_entry(dropped)
        for dropped in evicted:
            if dropped.executor is not None:
                dropped.executor.close()
        if created is not None:
            self._prewarm_entry(created)
        return entry

    # -- warm-restart persistence (docs/persistence.md) -----------------------

    #: store key of the service-wide slow-query log payload
    _SLOW_LOG_KEY = "service-slowlog"

    def _count_persist(self, **deltas: int) -> None:
        """Bump persistence counters; spills and prewarms run outside
        the pool lock on many threads, so the increments take it."""
        with self._lock:
            for key, delta in deltas.items():
                self._persist_counters[key] += delta

    def _spill_entry(self, entry: _PoolEntry) -> bool:
        """Snapshot one context's warm state to the persist store;
        ``True`` when this spill was saved.

        Persistence must never break serving: failures (disk full,
        unserialisable attribute values, ...) are swallowed and counted.
        """
        if self.persist_store is None:
            return False
        try:
            payload = snapshot_context(entry.context)
            self.persist_store.save(persist_key(entry.context.graph), payload)
        except Exception:
            self._count_persist(spill_errors=1)
            return False
        self._count_persist(spills=1)
        return True

    def _prewarm_entry(self, entry: _PoolEntry) -> None:
        """Restore a freshly created context from its spilled/persisted
        snapshot, if one survives validation (cold start otherwise)."""
        if self.persist_store is None:
            return
        self._count_persist(prewarm_attempts=1)
        try:
            payload = self.persist_store.load(persist_key(entry.context.graph))
            if payload is None:
                self._count_persist(prewarm_cold=1)
                return
            report = restore_context(entry.context, payload)
        except Exception:
            self._count_persist(prewarm_errors=1)
            return
        self._last_restore = report.as_dict()
        if report.status == "restored":
            self._count_persist(
                prewarm_restored=1, results_restored=report.results_restored
            )
        else:
            self._count_persist(prewarm_cold=1)

    def _restore_slow_log(self) -> None:
        payload = self.persist_store.load(self._SLOW_LOG_KEY)
        if (
            isinstance(payload, dict)
            and payload.get("kind") == "slowlog"
            and isinstance(payload.get("entries"), list)
        ):
            self._count_persist(
                slow_log_restored=self.slow_log.restore(payload["entries"])
            )

    def checkpoint(self) -> Dict[str, int]:
        """Spill every live pooled context and the slow-query log.

        An explicit durability point: a deployment calls this before a
        planned restart (``close()`` does it automatically) so the next
        process starts warm.  Returns ``{"contexts": n, "errors": m}``;
        a no-op (``persist=None``) returns zeros.
        """
        if self.persist_store is None:
            return {"contexts": 0, "errors": 0}
        with self._lock:
            entries = list(self._pool.values())
        saved = sum(self._spill_entry(entry) for entry in entries)
        errors = len(entries) - saved
        try:
            self.persist_store.save(
                self._SLOW_LOG_KEY,
                {"kind": "slowlog", "entries": self.slow_log.export()},
            )
        except Exception:
            errors += 1
        self._count_persist(checkpoints=1)
        return {"contexts": saved, "errors": errors}

    def _release_entry(self, entry: _PoolEntry) -> None:
        """Drop a request's lease; close a retired entry at drain."""
        with self._lock:
            entry.in_flight -= 1
            close_now = (
                entry.retired
                and entry.in_flight == 0
                and entry.executor is not None
            )
        if close_now:
            entry.executor.close()

    def context_for(self, graph: PropertyGraph) -> ExecutionContext:
        """The service's warm context of ``graph`` (LRU, created on demand).

        Graphs are identified by object identity; a pooled context pins
        its graph (warm caches for a dead graph are useless), so dropping
        the graph's slot -- LRU eviction -- is also what releases the
        graph's memory.  A version bump on the graph keeps the same
        context: every layer self-invalidates from
        :attr:`PropertyGraph.version`, so eviction is purely a memory
        decision, not a correctness one.  In process mode the slot also
        owns the graph's worker pool, which eviction shuts down.
        """
        return self._entry_for(graph).context

    def _executor_for(self, entry: _PoolEntry) -> Optional[BatchExecutor]:
        """The executor a request over this entry's graph should use."""
        return entry.executor if self.process_mode else self.executor

    def __len__(self) -> int:
        """Number of live pooled contexts."""
        with self._lock:
            return len(self._pool)

    # -- admission ------------------------------------------------------------

    def _admit(self, pool: Optional[BudgetPool]) -> Optional[BudgetLease]:
        """Lease this request's evaluation budget from ``pool`` (if any)."""
        if pool is None:
            return None
        requested = int(
            self.engine_options.get(
                "max_rewrite_evaluations", self.DEFAULT_REQUEST_EVALUATIONS
            )
        )
        try:
            return pool.acquire(requested)
        except AdmissionRejected:
            _EXPLAIN_REJECTED.inc()
            with self._lock:
                self._rejected_calls += 1
            raise

    # -- request entry points -------------------------------------------------

    def explain(
        self,
        graph: PropertyGraph,
        query: GraphQuery,
        threshold: Optional[CardinalityThreshold] = None,
        explain: bool = True,
        rewrite: bool = True,
        on_candidate: Optional[Callable[..., None]] = None,
        budget_pool: Optional[BudgetPool] = None,
        trace: Optional[bool] = None,
    ) -> WhyQueryReport:
        """One-shot debugging request (classify, explain, rewrite).

        With a ``budget_pool`` configured, the request first leases its
        rewriting budget (queueing or raising :class:`AdmissionRejected`
        per the pool's policy) and returns the lease when done -- under
        load a request may be granted a smaller search budget than the
        engine's ``max_rewrite_evaluations``.

        ``budget_pool`` leases from that pool instead of the service's
        -- the protocol server passes the caller's *per-tenant* pool.
        The lease is taken, counted, traced and returned on this thread
        either way, so a lease holder never waits for a second worker.

        ``on_candidate`` is the incremental-results seam: it is invoked
        once per evaluated rewrite candidate
        (an :class:`~repro.exec.evaluator.EvaluatedCandidate`) while the
        search is still running; exceptions it raises abort the search
        and propagate out (cooperative cancellation).

        ``trace`` switches request tracing on (``None`` follows the
        session default, :func:`repro.obs.tracing_default`, i.e.
        ``REPRO_TRACE=1``).  A traced request carries its span tree on
        ``report.trace``; an untraced request pays only the no-op tracer
        fast path.  Latency/admission histograms and the slow-query log
        record every request either way.
        """
        if trace is None:
            trace = tracing_default()
        tracer = Tracer() if trace else NULL_TRACER
        start = time.perf_counter()
        first_candidate: List[Optional[float]] = [None]
        caller_on_candidate = on_candidate

        def observed_on_candidate(item) -> None:
            if first_candidate[0] is None:
                first_candidate[0] = time.perf_counter() - start
            if caller_on_candidate is not None:
                caller_on_candidate(item)

        with tracer.activate():
            with tracer.span(SPAN_EXPLAIN) as root:
                with tracer.span(SPAN_ADMISSION):
                    lease = self._admit(
                        budget_pool if budget_pool is not None else self.budget_pool
                    )
                try:
                    entry = self._entry_for(graph, lease=True)
                    try:
                        context = entry.context
                        cache_stats = context.cache.stats
                        hits_before = cache_stats.hits
                        misses_before = cache_stats.misses
                        steps_before = context.matcher.steps
                        engine = WhyQueryEngine(
                            context=context,
                            executor=self._executor_for(entry),
                            preference_model=context.preference_model,
                            preferences=context.preferences,
                            evaluation_budget=(
                                None if lease is None else lease.budget
                            ),
                            on_candidate=observed_on_candidate,
                            tracer=tracer,
                            **self.engine_options,
                        )
                        busy_start = time.perf_counter()
                        try:
                            report = engine.debug(
                                query, threshold, explain=explain, rewrite=rewrite
                            )
                        finally:
                            with self._lock:
                                self._explain_calls += 1
                                self._busy_seconds += (
                                    time.perf_counter() - busy_start
                                )
                    finally:
                        self._release_entry(entry)
                finally:
                    if lease is not None:
                        lease.release()
                if tracer.enabled:
                    root.attributes["problem"] = report.problem.value
        # the root span is closed here, so elapsed_s is final and the
        # trace the report carries equals the trace the metrics saw
        elapsed = time.perf_counter() - start
        if tracer.enabled:
            report.trace = tracer.to_dict()
        self._record_explain(
            query=query,
            report=report,
            tracer=tracer,
            elapsed=elapsed,
            first_candidate_s=first_candidate[0],
            cache_delta={
                "hits": cache_stats.hits - hits_before,
                "misses": cache_stats.misses - misses_before,
            },
            matcher_steps=context.matcher.steps - steps_before,
        )
        return report

    def _record_explain(
        self,
        query: GraphQuery,
        report: WhyQueryReport,
        tracer,
        elapsed: float,
        first_candidate_s: Optional[float],
        cache_delta: Dict[str, int],
        matcher_steps: int,
    ) -> None:
        """Fold one finished explain into the process metrics and the
        slow-query log.

        The cache/steps deltas are read from shared per-graph counters,
        so under concurrent requests over the same graph they attribute
        overlapping work approximately -- good enough for profiles,
        never used for correctness.
        """
        _EXPLAIN_CALLS.inc()
        _EXPLAIN_LATENCY.observe(elapsed)
        if first_candidate_s is not None:
            _FIRST_CANDIDATE_LATENCY.observe(first_candidate_s)
        profile = tracer.summarize()
        for kind, agg in profile.items():
            _span_kind_histogram(kind).observe(agg["total_s"])
        rewriting = report.rewriting
        self.slow_log.record(
            {
                "signature": repr(query.signature()),
                "problem": report.problem.value,
                "elapsed_s": elapsed,
                "first_candidate_s": first_candidate_s,
                "matcher_steps": matcher_steps,
                "cache": cache_delta,
                "profile": profile,
                "budget_truncated": bool(
                    getattr(rewriting, "budget_exhausted", False)
                ),
                "evaluated": int(getattr(rewriting, "evaluated", 0)),
                "traced": bool(tracer.enabled),
            }
        )

    def slow_queries(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """The slowest explains seen so far, slowest first.

        Entries are JSON-ready dicts (see :mod:`repro.obs.slowlog`);
        ``limit`` truncates the ranking.  Served verbatim by the
        protocol's ``slow_queries`` message and ``python -m repro
        slowlog``.
        """
        return self.slow_log.entries(limit)

    def open_session(
        self,
        graph: PropertyGraph,
        query: GraphQuery,
        threshold: Optional[CardinalityThreshold] = None,
        **session_options,
    ) -> DebugSession:
        """Start an interactive propose-rate-accept session.

        The session shares the graph's pooled context, so it starts warm
        from every previous ``explain()`` over the same graph, and its
        ratings feed the context's preference models, steering later
        requests over that graph.  When per-user isolation is wanted
        instead, pass fresh models explicitly, e.g.
        ``open_session(graph, query, model=RewritePreferenceModel(),
        preferences=UserPreferences())``.

        Sessions are long-lived and interactive, so they are *not*
        admission-controlled: the budget pool governs the bursty
        ``explain()`` traffic, a session's searches run under its own
        ``max_evaluations``.
        """
        context = self.context_for(graph)
        if threshold is not None:
            session_options.setdefault("threshold", threshold)
        session = DebugSession(query=query, context=context, **session_options)
        with self._lock:
            self._session_calls += 1
        return session

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the per-graph worker pools (idempotent).

        Pooled contexts (and their warm caches) survive ``close()`` --
        only the process pools are torn down; a later request respawns
        what it needs.  With persistence configured the close
        also checkpoints, so an orderly shutdown always leaves a warm
        snapshot behind.
        """
        if self.persist_store is not None:
            self.checkpoint()
        with self._lock:
            executors = [
                entry.executor
                for entry in self._pool.values()
                if entry.executor is not None
            ]
        for executor in executors:
            executor.close()

    def __enter__(self) -> "WhyQueryService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Aggregated counters over all live contexts, unified schema.

        Emits the :mod:`repro.stats` sections -- ``caches``/``csr``/
        ``programs``/``deltas`` summed over every pooled context,
        ``admission`` straight from the :class:`BudgetPool`,
        ``metrics`` a snapshot of the process-wide
        :data:`repro.obs.REGISTRY` (latency histograms and request
        counters) -- plus the
        service-specific ``service`` (throughput), ``matcher``,
        ``executor`` and ``per_graph`` keys.  This is exactly what the
        protocol ``stats`` message serves.
        """
        admission = self.budget_pool.stats() if self.budget_pool else None
        executor_info = None
        info = getattr(self.executor, "info", None)
        if callable(info):
            executor_info = info()
        persistence: Optional[Dict[str, object]] = None
        if self.persist_store is not None:
            with self._lock:
                persistence = dict(self._persist_counters)
            persistence["store"] = dict(self.persist_store.counters)
            persistence["directory"] = self.persist_store.directory
            persistence["last_restore"] = self._last_restore
        with self._lock:
            per_graph: List[Dict[str, object]] = []
            caches = {
                "results": {"hits": 0, "misses": 0},
                "path1": {"hits": 0, "misses": 0, "dropped": 0, "retained": 0},
            }
            matcher = dict.fromkeys(
                (
                    "calls", "steps", "decided_empty",
                    "derived_filtered", "derived_seeded", "derived_unchanged",
                ),
                0,
            )
            csr = csr_section({})
            programs = programs_section({})
            deltas = deltas_section()
            for entry in self._pool.values():
                report = entry.context.cache_report()
                for layer, layer_totals in caches.items():
                    for key in layer_totals:
                        layer_totals[key] += int(report["caches"][layer][key])
                for key in matcher:
                    matcher[key] += int(report["matcher"][key])
                for key in csr:
                    csr[key] += int(report["csr"][key])
                for key in programs:
                    programs[key] += int(report["programs"][key])
                for key in deltas:
                    deltas[key] += int(report["deltas"][key])
                graph_stats: Dict[str, object] = {
                    "graph": repr(entry.context.graph),
                    "version": entry.version,
                    "requests": entry.requests,
                    "cache_report": report,
                }
                if entry.executor is not None:
                    graph_stats["process_pool"] = entry.executor.info()
                per_graph.append(graph_stats)
            requests = self._explain_calls + self._session_calls
            uptime = time.perf_counter() - self._started
            service = {
                "requests": requests,
                "explain_calls": self._explain_calls,
                "session_calls": self._session_calls,
                "rejected_calls": self._rejected_calls,
                "contexts_live": len(self._pool),
                "contexts_created": self._contexts_created,
                "evictions": self._evictions,
                "busy_seconds": self._busy_seconds,
                "uptime_seconds": uptime,
                "requests_per_second": requests / uptime if uptime > 0 else 0.0,
            }
            return unified_stats(
                caches=caches,
                csr=csr,
                programs=programs,
                admission=admission,
                deltas=deltas,
                metrics=REGISTRY.snapshot(),
                extra={
                    "service": service,
                    "matcher": matcher,
                    "executor": executor_info,
                    "per_graph": per_graph,
                    "persistence": persistence,
                },
            )
