"""One unified stats schema for every reporting surface.

Before this module, the three reporting surfaces each invented their own
nesting and key names:

* ``PatternMatcher.cache_info()`` -- ``{"plan": ..., "programs": <flat
  csr counters>}`` next to a candidate-cache row;
* ``ProcessExecutor.info()`` -- one flat dict mixing pool lifecycle,
  payload accounting and delta counters;
* ``WhyQueryService.stats()`` -- a third nesting with a flat ``totals``
  dict whose keys (``csr_builds``, ``program_hits``, ...) matched neither
  of the other two.

A network front door (:mod:`repro.server`) serving a ``stats`` message
needs *one* schema, so this module defines it:

======================  =====================================================
``caches``              named hit/miss cache layers (``results``,
                        ``path1``), each a :class:`CacheStats` row
``csr``                 interned CSR array accounting (``builds``, ``bytes``,
                        ``patches``, ``rebuilds``)
``programs``            compiled match kernels (``compiled``, ``hits``,
                        ``fallbacks``)
``pools``               worker pool lifecycle
``admission``           :class:`~repro.service.BudgetPool` counters
``deltas``              delta-sync pipeline (``applied``)
``metrics``             process-wide :mod:`repro.obs` registry snapshot
                        (``counters``, ``gauges``, ``histograms``)
======================  =====================================================

Every surface emits **all seven sections** (``None``/empty when the surface
has nothing to report there) plus surface-specific extras (``matcher``,
``service``, ``per_graph``), under a ``"schema"`` version tag.  The
protocol ``stats`` message serves :meth:`WhyQueryService.stats` verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

__all__ = [
    "CacheStats",
    "STATS_SCHEMA",
    "SECTIONS",
    "csr_section",
    "deltas_section",
    "programs_section",
    "unified_stats",
]

#: schema identity tag carried by every unified report
STATS_SCHEMA = "repro.stats/1"

#: the typed sections every surface emits
SECTIONS = ("caches", "csr", "programs", "pools", "admission", "deltas", "metrics")


@dataclass
class CacheStats:
    """Hit/miss counters of one cache instance: one ``caches`` row."""

    hits: int = 0
    misses: int = 0
    size: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "hit_rate": self.hit_rate,
        }


def csr_section(flat: Mapping[str, int]) -> Dict[str, int]:
    """CSR accounting section from the flat :func:`csr_stats` counters."""
    return {
        "builds": int(flat.get("csr_builds", 0)),
        "bytes": int(flat.get("csr_bytes", 0)),
        "patches": int(flat.get("csr_patches", 0)),
        "rebuilds": int(flat.get("csr_rebuilds", 0)),
    }


def programs_section(flat: Mapping[str, int]) -> Dict[str, int]:
    """Compiled-kernel section from the flat :func:`csr_stats` counters."""
    return {
        "compiled": int(flat.get("programs_compiled", 0)),
        "hits": int(flat.get("program_hits", 0)),
        "fallbacks": int(flat.get("program_fallbacks", 0)),
    }


def deltas_section(applied: int = 0) -> Dict[str, int]:
    """Delta-sync pipeline section."""
    return {"applied": int(applied)}


def unified_stats(
    caches: Optional[Mapping[str, Any]] = None,
    csr: Optional[Mapping[str, int]] = None,
    programs: Optional[Mapping[str, int]] = None,
    pools: Optional[Mapping[str, Any]] = None,
    admission: Optional[Mapping[str, Any]] = None,
    deltas: Optional[Mapping[str, int]] = None,
    metrics: Optional[Mapping[str, Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one unified report; every section is always present."""
    data: Dict[str, Any] = {"schema": STATS_SCHEMA}
    data["caches"] = dict(caches) if caches is not None else {}
    data["csr"] = dict(csr) if csr is not None else csr_section({})
    data["programs"] = dict(programs) if programs is not None else programs_section({})
    data["pools"] = dict(pools) if pools is not None else None
    data["admission"] = dict(admission) if admission is not None else None
    data["deltas"] = dict(deltas) if deltas is not None else deltas_section()
    data["metrics"] = dict(metrics) if metrics is not None else {}
    if extra:
        data.update(extra)
    return data
