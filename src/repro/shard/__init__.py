"""Process-parallel candidate evaluation.

:class:`ProcessExecutor` is a :class:`~repro.exec.evaluator.BatchExecutor`
on worker processes: every worker is warmed once with one long-lived
:class:`~repro.exec.context.ExecutionContext` over the full graph
snapshot (:func:`repro.core.serialize.graph_to_dict`), candidates cross
the boundary as :func:`repro.core.serialize.query_to_wire` forms,
results come back in submission order and budget truncation stays in the
coordinator.  A graph mutation rebuilds the pool from a fresh snapshot
before the next batch.  ``WhyQueryService(executor="process",
process_workers=w)`` keeps one executor per pooled graph.
"""

from repro.shard.process_executor import ProcessExecutor

__all__ = ["ProcessExecutor"]
