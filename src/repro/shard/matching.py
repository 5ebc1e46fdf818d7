"""Per-shard candidate enumeration and expansion with deterministic merge.

The decomposition: every match binds the evaluation plan's *first seed*
to exactly one data vertex, and every data vertex is owned by exactly
one shard -- so restricting the first seed's candidate pool to one
shard's vertex range splits the match set into disjoint per-shard
blocks whose union is exactly the unrestricted result.  That is the
``seed_restrict`` seam of :class:`~repro.matching.matcher.PatternMatcher`;
this module drives it per shard and merges:

* :meth:`ShardedMatcher.candidates` fans candidate enumeration out per
  shard (each shard's lazily indexed
  :func:`~repro.matching.candidates.vertex_candidates`) and returns the
  per-shard sets next to their deterministic merge;
* :meth:`ShardedMatcher.count` / :meth:`ShardedMatcher.match` evaluate
  one query per shard and merge in ascending shard order -- counts are
  *value-identical* to the unsharded matcher (bounded counts included:
  per-shard counts are clamped at ``limit``, and
  ``min(sum(min(c_i, L)), L) == min(sum(c_i), L)``), match sets are
  permutation-identical.

Cross-process shard fan-out is the shard-affine
:class:`~repro.shard.ProcessExecutor`'s job (``shards > 1``); there this
matcher is the coordinator-side fallback for blocks a worker's slice
cannot finish.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.core.query import GraphQuery, QueryVertex
from repro.core.result import ResultSet
from repro.matching.candidates import vertex_candidates
from repro.matching.matcher import PatternMatcher
from repro.shard.partition import ShardedGraph

__all__ = ["ShardedMatcher"]


class ShardedMatcher:
    """Evaluates queries against a :class:`~repro.shard.ShardedGraph`
    one shard at a time, merging deterministically.

    One :class:`~repro.matching.matcher.PatternMatcher` is bound to the
    façade (expansion crosses shard boundaries transparently -- the
    façade routes each hop to the owning shard); per-shard work differs
    only in the first seed's pool.  Shards are evaluated and merged in
    ascending shard order, so the merge is deterministic.
    """

    def __init__(
        self,
        sharded: ShardedGraph,
        injective: bool = True,
        compiled: bool = True,
    ) -> None:
        if not isinstance(sharded, ShardedGraph):
            raise TypeError("ShardedMatcher requires a ShardedGraph")
        self.sharded = sharded
        self.matcher = PatternMatcher(sharded, injective=injective, compiled=compiled)
        #: per-shard evaluations served (fan-out instrumentation)
        self.shard_tasks = 0

    # -- candidate enumeration ---------------------------------------------------

    def candidates(
        self, qvertex: QueryVertex
    ) -> Tuple[Optional[FrozenSet[int]], Dict[int, Optional[FrozenSet[int]]]]:
        """``(merged, per_shard)`` candidate sets for one query vertex.

        Each shard's set is computed against that shard's own indexes
        (no cross-shard touch); the merge is their union.  ``None``
        means unconstrained, exactly as in the unsharded path.
        """
        per_shard: Dict[int, Optional[FrozenSet[int]]] = {}
        unconstrained = False
        merged: set = set()
        for shard in self.sharded.shards:
            self.shard_tasks += 1
            result = vertex_candidates(shard, qvertex)
            per_shard[shard.index] = result
            if result is None:
                unconstrained = True
            else:
                merged.update(result)
        return (None if unconstrained else frozenset(merged)), per_shard

    # -- evaluation --------------------------------------------------------------

    def count_shard(
        self,
        shard_index: int,
        query: GraphQuery,
        limit: Optional[int] = None,
        edge_order: Optional[Sequence[int]] = None,
    ) -> int:
        """Matches whose first seed binds inside one shard (bounded).

        ``edge_order`` pins the evaluation plan; the shard-affine
        executor's fallback passes its canonical order here so a
        coordinator-resolved block restricts the same first-seed vertex
        the slice-evaluated blocks did.
        """
        shard = self.sharded.shards[shard_index]
        self.shard_tasks += 1
        return self.matcher.count(
            query,
            limit=limit,
            edge_order=edge_order,
            seed_restrict=shard.vertex_ids,
        )

    def count(self, query: GraphQuery, limit: Optional[int] = None) -> int:
        """Total match count, fanned out per shard (value-identical).

        Each shard is evaluated with the full ``limit`` (a shard cannot
        know how many matches the others contribute); the sum is clamped
        at ``limit``, which equals the unsharded bounded count.
        """
        total = sum(
            self.count_shard(shard.index, query, limit=limit)
            for shard in self.sharded.shards
        )
        if limit is not None:
            return min(total, limit)
        return total

    def match(self, query: GraphQuery, limit: Optional[int] = None) -> ResultSet:
        """All matches, merged in ascending shard order.

        Permutation-identical to the unsharded matcher when ``limit`` is
        ``None``; with a limit, the bounded enumeration keeps shard-order
        priority (same cardinality as the unsharded bound, possibly a
        different representative subset -- exactly like any other
        enumeration-order change).
        """
        merged = ResultSet()
        for shard in self.sharded.shards:
            self.shard_tasks += 1
            results = self.matcher.match(
                query, limit=limit, seed_restrict=shard.vertex_ids
            )
            for binding in results:
                merged.add(binding)
                if limit is not None and merged.cardinality >= limit:
                    return merged
        return merged

    def exists(self, query: GraphQuery) -> bool:
        for shard in self.sharded.shards:
            self.shard_tasks += 1
            if self.matcher.exists(query, seed_restrict=shard.vertex_ids):
                return True
        return False

    # -- reporting ---------------------------------------------------------------

    def info(self) -> Dict[str, object]:
        return {
            "shards": self.sharded.num_shards,
            "shard_tasks": self.shard_tasks,
            "matcher_calls": self.matcher.calls,
            "matcher_steps": self.matcher.steps,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedMatcher(shards={self.sharded.num_shards})"
