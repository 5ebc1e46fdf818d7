"""Sharded storage, process-parallel evaluation, shard-affine placement.

``repro.shard`` is the first layer of the codebase that escapes
single-core execution: the storage scale axis (partition the graph,
fan matching out per shard) and the compute scale axis (evaluate
candidate batches on worker *processes*, outside the coordinator's
GIL) behind the seams the earlier layers left for them --
:class:`~repro.core.graph.PropertyGraph`'s read-accessor surface, the
matcher's ``seed_restrict``, the
:class:`~repro.exec.evaluator.BatchExecutor` protocol and the
service's per-graph context pool.

* :class:`GraphPartitioner` / :class:`GraphShard` -- balanced
  vertex-range shards with per-shard typed adjacency and a
  boundary-edge index;
* :class:`ShardedGraph` -- the read-only façade exposing the
  ``PropertyGraph`` accessor surface over the shards;
* :class:`ShardedMatcher` -- per-shard candidate enumeration and
  expansion with deterministic (ascending shard order) merge, in one
  process: the oracle's sharded path and the affine executor's
  coordinator-side fallback;
* :class:`ProcessExecutor` -- ``BatchExecutor`` on worker processes:
  wire-form queries across the boundary, submission-order results,
  coordinator-side budget truncation.  The shard count is its only
  shape setting: ``shards=1`` warms every worker with one long-lived
  ``ExecutionContext`` over the full snapshot, ``shards > 1`` makes it
  **shard-affine** -- each worker holds only the shards placed on it
  (:func:`affine_placement`) and every count fans out per shard to the
  owning workers;
* :class:`ShardSlice` / :class:`SliceEvaluator` / :class:`ShardMiss` --
  the worker-side half of affine placement.

The shard wire format
---------------------

Affine workers are warmed from the per-shard wire form of
:func:`repro.core.serialize.shard_to_wire` (rebuilt by
``shard_from_wire`` into a :class:`ShardSlice`), a pure dict/list
composite carrying:

* ``vertices`` -- the shard's owned vertex range with attribute maps;
* ``edges`` -- every edge record *incident* to an owned vertex, in the
  source graph's global insertion order, so the rebuilt owned adjacency
  lists (typed and untyped) equal the source's element for element and
  a completed seed-restricted search takes the identical matcher
  ``steps``;
* ``halo`` -- attribute maps of the remote endpoints of boundary edges
  (enough to *check* a one-hop cross-shard expansion target, never to
  expand from it);
* ``boundary`` -- the rows of the cross-shard boundary-edge index
  involving this shard (:meth:`ShardedGraph.boundary_rows`);
* ``version`` -- the source graph's mutation counter, so staleness
  checks agree across processes.

Anything a slice does not hold raises :class:`ShardMiss` instead of
answering wrongly; the coordinator resolves missed blocks against its
full graph (correctness first, locality second) and counts them in
``ProcessExecutor.info()["pools"]["affine_fallbacks"]``.

The differential-oracle pattern
-------------------------------

Every execution path in this package is tested *differentially* against
the serial :class:`~repro.matching.matcher.PatternMatcher` as the
oracle: randomized graphs and queries (seeded in-code, so failures
reproduce) run through the serial matcher, ``ShardedMatcher`` at shard
counts {1, 2, 4}, the wire protocol, and the affine slice path
(interpreted and compiled), asserting count value-identity and match-set
permutation-identity everywhere (``tests/test_property_based.py``).
New execution strategies should plug into that oracle helper rather
than invent bespoke fixtures: the generator already covers multi-type
parallel edges, self-loops on boundary vertices, empty shards and
out-of-order explicit ids.
"""

from repro.shard.affine import (
    ShardMiss,
    ShardSlice,
    SliceEvaluator,
    canonical_edge_order,
)
from repro.shard.matching import ShardedMatcher
from repro.shard.partition import GraphPartitioner, GraphShard, ShardedGraph
from repro.shard.process_executor import ProcessExecutor, affine_placement

__all__ = [
    "GraphPartitioner",
    "GraphShard",
    "ProcessExecutor",
    "ShardMiss",
    "ShardSlice",
    "ShardedGraph",
    "ShardedMatcher",
    "SliceEvaluator",
    "affine_placement",
    "canonical_edge_order",
]
