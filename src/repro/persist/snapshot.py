"""Crash-safe snapshot/restore of warm evaluation state.

A :class:`~repro.service.WhyQueryService` restart (or an LRU eviction
from its context pool) historically discarded every derived artefact --
the :class:`~repro.rewrite.cache.QueryResultCache` and the slow-query
log -- so the first minutes after a deploy served
why-queries at cold latency.  This module gives every cache owner an
explicit, versioned externalization seam:

* :func:`snapshot_context` serialises a context's result-cache entries
  (count + limit, keyed by the query itself -- signatures are not
  invertible) into one JSON-safe payload stamped with the graph
  mutation ``version`` and a content fingerprint;
* :class:`SnapshotStore` writes payloads to disk in a checksummed,
  atomically-replaced format (``REPROSNAP`` magic + sha256 over the
  body), and its :meth:`~SnapshotStore.load` returns ``None`` on *any*
  decay -- truncation, corruption, checksum mismatch, an unknown or
  newer format -- so a broken file can only ever cost warmth;
* :func:`restore_context` validates a payload against the live graph
  before any entry lands, replaying
  :meth:`~repro.core.graph.PropertyGraph.deltas_since` through the
  PR 7 delta-touch machinery (:mod:`repro.core.delta`) so a snapshot
  survives *small* mutations: only delta-touched entries are dropped,
  a ring overrun or a version mismatch falls back cold.

Validation rules (persisted version ``P`` vs live graph version ``G``):

========  ==============================================================
``P > G``   discard -- the snapshot is from a *future* of this graph
            (or a different graph whose counter ran ahead); replay
            cannot reconcile it.
``P == G``  require the content fingerprint to match: equal version
            counters on different graphs are routine (two graphs built
            by the same loader), and a fingerprint mismatch means the
            counts belong to someone else.
``P < G``   replay ``deltas_since(P)``.  ``None`` (ring overrun) is a
            cold start.  Otherwise the element counts recorded at ``P``
            must equal the live counts minus the adds in the replayed
            run -- if not, the live graph is not a descendant of the
            snapshot's graph and everything is discarded.  Entries
            whose query the delta run touches are dropped
            (:func:`~repro.core.delta.touch_affects_query`).
========  ==============================================================

Counts restore verbatim only after the version/fingerprint/delta
gauntlet above, which is what keeps the differential guarantee -- a
restored cache never returns a count a cold compute would not.  Plans
are not persisted: they are rebuilt per evaluation from the live
statistics, so a ``"plans"`` list in a file written by an older
version is ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.delta import delta_touch, query_touch_profile, touch_affects_query
from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.core.serialize import graph_to_dict, query_from_dict, query_to_dict

__all__ = [
    "MAGIC",
    "SNAPSHOT_FORMAT",
    "RestoreReport",
    "SnapshotStore",
    "graph_fingerprint",
    "persist_key",
    "restore_context",
    "set_persist_name",
    "snapshot_context",
]

#: first line of every snapshot file; a file not starting with this is
#: not ours and is ignored wholesale
MAGIC = "REPROSNAP"

#: bumped whenever the payload schema changes incompatibly; loads
#: reject files written by a *newer* format rather than misparse them
SNAPSHOT_FORMAT = 1

#: attribute carrying a graph's explicit persistence identity (the
#: protocol server names graphs; ``id(graph)`` does not survive a
#: process restart)
_PERSIST_NAME_ATTR = "_repro_persist_name"


# -- graph identity --------------------------------------------------------------


def set_persist_name(graph: PropertyGraph, name: str) -> None:
    """Give ``graph`` a stable persistence identity.

    The service pool keys contexts by graph *object*; across restarts
    only a name survives.  The protocol server calls this with the
    client-facing graph name on ``put_graph`` and for preloaded graphs.
    """
    setattr(graph, _PERSIST_NAME_ATTR, str(name))


def persist_key(graph: PropertyGraph) -> str:
    """The graph's snapshot key: its explicit persist name when one was
    set, else a content-derived key (same content -> same key, which is
    exactly the property an anonymous restart needs)."""
    name = getattr(graph, _PERSIST_NAME_ATTR, None)
    if name is not None:
        return f"g-{name}"
    return f"fp-{_content_sha(graph)[:16]}"


def _content_sha(graph: PropertyGraph) -> str:
    payload = graph_to_dict(graph)
    # the version counter is process history, not content: two graphs
    # with identical elements must fingerprint equal regardless of how
    # many mutations built them
    payload.pop("version", None)
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def graph_fingerprint(graph: PropertyGraph) -> Dict[str, Any]:
    """Content identity recorded in every snapshot: element counts (for
    the cheap delta-replay consistency check) and a sha256 over the
    canonical serialised content (for the exact ``P == G`` check)."""
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "sha256": _content_sha(graph),
    }


# -- the on-disk store -----------------------------------------------------------

_KEY_SAFE = re.compile(r"[^A-Za-z0-9._-]")


def _slug(key: str) -> str:
    """Filesystem-safe file stem for ``key``: hostile characters are
    replaced and a key hash is appended so distinct keys can never
    collide on one file after sanitisation."""
    safe = _KEY_SAFE.sub("_", key)[:80]
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]
    return f"{safe}.{digest}"


class SnapshotStore:
    """Checksummed, atomically-replaced snapshot files in one directory.

    File format (text header, JSON body)::

        REPROSNAP 1
        sha256:<hex of the body bytes>
        {...payload...}

    Writes land via ``tempfile`` + ``fsync`` + ``os.replace`` in the
    destination directory, so a crash mid-write leaves either the old
    snapshot or the new one -- never a torn file.  :meth:`load` is the
    crash-recovery boundary: every decay mode (missing file, truncated
    header, foreign magic, newer format, checksum mismatch, invalid
    JSON, non-dict body, unreadable file) returns ``None`` and bumps a
    counter; nothing raises out of it.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        #: load outcomes, for the service's ``persistence`` stats section
        self.counters: Dict[str, int] = {
            "saves": 0,
            "loads": 0,
            "load_misses": 0,
            "load_rejects": 0,
        }

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, f"{_slug(key)}.snap")

    def save(self, key: str, payload: Mapping[str, Any]) -> str:
        """Durably write ``payload`` under ``key``; returns the path."""
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        body_bytes = body.encode("utf-8")
        digest = hashlib.sha256(body_bytes).hexdigest()
        data = f"{MAGIC} {SNAPSHOT_FORMAT}\nsha256:{digest}\n".encode("utf-8")
        data += body_bytes
        path = self.path_for(key)
        fd, tmp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".snap"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.counters["saves"] += 1
        return path

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or ``None`` on any decay."""
        self.counters["loads"] += 1
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            self.counters["load_misses"] += 1
            return None
        payload = self._parse(raw)
        if payload is None:
            self.counters["load_rejects"] += 1
        return payload

    @staticmethod
    def _parse(raw: bytes) -> Optional[Dict[str, Any]]:
        try:
            magic_line, checksum_line, body = raw.split(b"\n", 2)
        except ValueError:
            return None  # truncated before the body
        parts = magic_line.decode("utf-8", "replace").split()
        if len(parts) != 2 or parts[0] != MAGIC:
            return None
        try:
            file_format = int(parts[1])
        except ValueError:
            return None
        if file_format > SNAPSHOT_FORMAT or file_format < 1:
            # a newer writer's file must be rejected, never misparsed
            return None
        checksum = checksum_line.decode("utf-8", "replace")
        if not checksum.startswith("sha256:"):
            return None
        if hashlib.sha256(body).hexdigest() != checksum[len("sha256:"):]:
            return None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        return payload

    def delete(self, key: str) -> None:
        try:
            os.unlink(self.path_for(key))
        except OSError:
            pass

    def keys_on_disk(self) -> List[str]:
        """File stems currently stored (diagnostics; keys are slugs)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            name[: -len(".snap")]
            for name in names
            if name.endswith(".snap") and not name.startswith(".tmp-")
        )


# -- payload assembly ------------------------------------------------------------


def snapshot_context(context, slow_log=None) -> Dict[str, Any]:
    """One JSON-safe payload holding the context's warm state.

    Exports the result cache *after* its own delta-scoped validation, so
    the payload is consistent with ``graph.version`` at call time.
    ``slow_log`` (a :class:`~repro.obs.slowlog.SlowQueryLog`) rides along
    when given -- the service persists its log through the same store.
    """
    graph = context.graph
    results = [
        {"query": query_to_dict(query), "count": count, "limit": limit}
        for query, count, limit in context.cache.export_entries()
    ]
    payload: Dict[str, Any] = {
        "kind": "context",
        "persisted_version": graph.version,
        "fingerprint": graph_fingerprint(graph),
        "results": results,
    }
    if slow_log is not None:
        payload["slow_log"] = slow_log.export()
    return payload


# -- restore ---------------------------------------------------------------------


@dataclass
class RestoreReport:
    """What a :func:`restore_context` call did, for stats and tests."""

    status: str = "cold"  #: "restored" | "cold"
    reason: Optional[str] = None  #: why the payload was discarded, if it was
    results_restored: int = 0
    results_dropped: int = 0  #: delta-touched or malformed result entries
    slow_log_restored: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "reason": self.reason,
            "results_restored": self.results_restored,
            "results_dropped": self.results_dropped,
            "slow_log_restored": self.slow_log_restored,
        }


def restore_context(context, payload: Mapping[str, Any], slow_log=None) -> RestoreReport:
    """Validate ``payload`` against the live graph and prewarm the caches.

    Implements the version/fingerprint/delta gauntlet documented in the
    module docstring.  Never raises on a decayed payload: a discard is a
    cold start with a ``reason``; individual malformed or delta-touched
    entries are dropped and counted while the rest restore.  The
    slow-query log (when present in the payload and ``slow_log`` is
    given) restores regardless of the cache verdict -- it is
    observability history, not answer state, and stale history is
    precisely what an operator debugging a restart wants to see.
    """
    report = RestoreReport()
    if slow_log is not None:
        entries = payload.get("slow_log")
        if isinstance(entries, list):
            report.slow_log_restored = slow_log.restore(entries)

    graph = context.graph
    try:
        persisted_version = int(payload["persisted_version"])
        fingerprint = payload["fingerprint"]
        persisted_vertices = int(fingerprint["vertices"])
        persisted_edges = int(fingerprint["edges"])
        persisted_sha = str(fingerprint["sha256"])
    except (KeyError, TypeError, ValueError):
        report.reason = "malformed"
        return report
    if payload.get("kind") != "context":
        report.reason = "malformed"
        return report

    touch = None
    if persisted_version > graph.version:
        report.reason = "version-ahead"
        return report
    if persisted_version == graph.version:
        live = graph_fingerprint(graph)
        if (
            live["vertices"] != persisted_vertices
            or live["edges"] != persisted_edges
            or live["sha256"] != persisted_sha
        ):
            report.reason = "fingerprint-mismatch"
            return report
    else:
        deltas_since = getattr(graph, "deltas_since", None)
        deltas = (
            deltas_since(persisted_version) if deltas_since is not None else None
        )
        if deltas is None:
            report.reason = "delta-overrun"
            return report
        added_vertices = sum(1 for record in deltas if record[0] == "v")
        added_edges = sum(1 for record in deltas if record[0] == "e")
        if (
            graph.num_vertices - added_vertices != persisted_vertices
            or graph.num_edges - added_edges != persisted_edges
        ):
            # the live graph is not a descendant of the snapshot's graph
            # (same key, different history); nothing in here is trustworthy
            report.reason = "lineage-mismatch"
            return report
        touch = delta_touch(deltas)

    results: List[Tuple[GraphQuery, int, Optional[int]]] = []
    for entry in payload.get("results", ()):
        parsed = _parse_result_entry(entry)
        if parsed is None:
            report.results_dropped += 1
            continue
        query, count, limit = parsed
        if touch is not None and touch_affects_query(
            touch, query_touch_profile(query)
        ):
            report.results_dropped += 1
            continue
        results.append((query, count, limit))
    report.results_restored = context.cache.restore_entries(results)
    report.results_dropped += len(results) - report.results_restored
    report.status = "restored"
    return report


def _parse_result_entry(
    entry: Any,
) -> Optional[Tuple[GraphQuery, int, Optional[int]]]:
    try:
        query = query_from_dict(entry["query"])
        count = int(entry["count"])
        limit = entry["limit"]
        limit = None if limit is None else int(limit)
    except Exception:
        return None
    if count < 0 or (limit is not None and limit < 0):
        return None
    return query, count, limit
