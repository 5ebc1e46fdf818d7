"""Durable snapshots of a context's result cache.

See :mod:`repro.persist.snapshot` for the format, the validation rules
and the crash-recovery contract.  Nothing in the serving stack calls
this package; the ``persist.*`` benchmark probe is its only consumer.
"""

from repro.persist.snapshot import (
    MAGIC,
    SNAPSHOT_FORMAT,
    RestoreReport,
    SnapshotStore,
    graph_fingerprint,
    persist_key,
    restore_context,
    snapshot_context,
)

__all__ = [
    "MAGIC",
    "SNAPSHOT_FORMAT",
    "RestoreReport",
    "SnapshotStore",
    "graph_fingerprint",
    "persist_key",
    "restore_context",
    "snapshot_context",
]
