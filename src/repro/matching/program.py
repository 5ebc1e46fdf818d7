"""Flat match programs: plans bound to shape-keyed nested-loop kernels.

The second layer of the compiled matching backend.  A plan
from :mod:`repro.matching.plan` is conceptually a SEED / EXPAND /
FILTER / EMIT op sequence over the packed arrays of
:mod:`repro.matching.csr`:

* SEED   -- iterate an interned candidate pool of dense vertex indexes
  (the first seed's pool arrives as a run-time argument, so a count
  seeded over a subset of it reuses the kernel);
* EXPAND -- scan the anchor's row slice of a ``(type, direction)`` CSR
  segment: candidate edge index and opposite endpoint come from two
  flat-array reads, so a typed query edge never visits edges of other
  types;
* FILTER -- one-byte bitset probes (interned predicate masks,
  injectivity scratch maps) plus the self-loop dedup and bound-endpoint
  equality tests, in exactly the interpreter's check order;
* EMIT   -- count, or construct the :class:`ResultGraph` binding tuple.

The rewriting engines evaluate hundreds of variants of one pattern that
differ only in predicate constants and edge types, so lowering splits
what such variants share from what they do not:

* the **shape** is the structural part of the plan -- per step the
  anchor / closing variable indexes, whether one segment or several are
  scanned, the self-loop-skip flag and the has-edge-mask /
  has-vertex-mask bits, plus ``injective``.  One nested
  loop is generated as Python source and ``compile()``d per shape, in a
  small **process-wide** cache: kernel code is graph-independent, so a
  second graph, a fresh service or a restarted stack reuses it;
* the **binding** is the flat tuple of arrays the shape leaves open
  (seed pools, ``(indptr, edge_ix, other_ix)`` segments, predicate
  masks, ``vid_of`` / ``eid_of``).  The kernel unpacks it into locals
  at entry, so the inner loops perform no dict or attribute lookups.

A :class:`MatchProgram` is one plan walked into ``(shape, binding)``.
The walk costs a few dictionary probes per plan step and is repeated
on every evaluation; nothing per query is retained -- no plan, no code
object, no source -- so the arrays are always the index's current ones
and a delta patch needs no invalidation here.  The kernel performs no
allocation per step: scratch bitsets are two ``bytearray`` blocks per
call, and the enumeration visits exactly the candidates the interpreter
visits, so the ``steps`` counter of a compiled run equals the
interpreter's on unbounded evaluations (the differential invariant the
tests pin down).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.query import Direction, GraphQuery
from repro.core.result import ResultGraph
from repro.matching.csr import _CsrEntry, csr_entry
from repro.matching.plan import PlanStep, SeedStep, build_plan
from repro.obs.tracing import SPAN_PLAN, SPAN_PROGRAM_COMPILE, current_tracer

__all__ = ["MatchProgram", "ProgramUnsupported", "bind_program", "compiled_program"]

#: bound on the process-wide kernel cache (the paper's 32-request mix
#: generates 98 kernels); the oldest kernel goes first and is simply
#: generated again if its shape returns
KERNEL_CACHE_ENTRIES = 256

#: (mode, shape, emit order) -> kernel function, shared by every graph
_KERNELS: Dict[Hashable, Any] = {}
#: serialises generation and eviction (lookups are lock-free)
_KERNELS_LOCK = threading.Lock()

#: CPython refuses a code object with more statically nested blocks; a
#: plan needing more loops than this is served by the interpreter
_MAX_NESTED_LOOPS = 20

#: binding slots every kernel starts with: ``vid_of``, ``eid_of`` and
#: ``selfloop``
_HEADER = ("vid", "eid", "sl")

#: how an expansion scans the anchor's adjacency: one ``(type,
#: direction)`` segment inline; a tuple of segments (several types); or
#: a tuple walked out then in, the in walk skipping the self-loops the
#: out walk already yielded
_SCANS = _ONE_SEGMENT, _SEGMENTS, _BOTH_WAYS = range(3)


class ProgramUnsupported(Exception):
    """The plan has a shape the lowering does not handle; the caller
    falls back to the interpreter (the correctness oracle)."""


def _kernel_source(mode: str, shape: Tuple, emit: Tuple) -> str:
    """Source of the nested-loop kernel for one shape.

    ``shape`` is ``(injective, steps)`` with ``None`` for a
    seed step and ``(anchor, closing, scan, edge mask?, vertex mask?)``
    for an expansion (``scan``: one of :data:`_SCANS`); binding slots
    are named ``b<index>`` in the order :class:`MatchProgram` appends
    them.  ``emit`` (match mode) lists the vertex and the edge variable
    indexes in ascending order of the query ids they bind; the ids
    themselves close the binding.
    """
    injective, steps = shape
    names = list(_HEADER)
    body: List[str] = []
    vertices = edges = 0

    def slot() -> str:
        names.append(f"b{len(names)}")
        return names[-1]

    def candidate(i: int, indent: int, e_expr: str, o_expr: str, skip: Optional[str]):
        nonlocal vertices, edges
        _anchor, closing, _scan, has_em, has_vm = steps[i]
        pad = "    " * indent
        ev = f"e{edges}"
        edges += 1
        body.append(f"{pad}{ev} = {e_expr}")
        if skip is not None:
            body.append(f"{pad}if {skip} and sl[{ev}]: continue")
        body.append(f"{pad}steps += 1")
        if injective:
            body.append(f"{pad}if used_e[{ev}]: continue")
        if has_em:
            body.append(f"{pad}if not {slot()}[{ev}]: continue")
        if closing >= 0:
            body.append(f"{pad}if {o_expr} != v{closing}: continue")
            if injective:
                body.append(f"{pad}used_e[{ev}] = 1")
            gen(i + 1, indent)
            if injective:
                body.append(f"{pad}used_e[{ev}] = 0")
            return
        w = f"v{vertices}"
        vertices += 1
        body.append(f"{pad}{w} = {o_expr}")
        if injective:
            body.append(f"{pad}if used_v[{w}]: continue")
        if has_vm:
            body.append(f"{pad}if not {slot()}[{w}]: continue")
        if injective:
            body.append(f"{pad}used_v[{w}] = 1")
            body.append(f"{pad}used_e[{ev}] = 1")
        gen(i + 1, indent)
        if injective:
            body.append(f"{pad}used_e[{ev}] = 0")
            body.append(f"{pad}used_v[{w}] = 0")

    def gen(i: int, indent: int) -> None:
        nonlocal vertices
        pad = "    " * indent
        if i == len(steps):
            if mode == "match":
                vparts = "".join(f"(q{k}, vid[v{var}]), " for k, var in enumerate(emit[0]))
                eparts = "".join(f"(r{k}, eid[e{var}]), " for k, var in enumerate(emit[1]))
                body.append(f"{pad}out_append(RG(({vparts}), ({eparts})))")
            body.append(f"{pad}nmatch += 1")
            body.append(f"{pad}if nmatch == limit: return nmatch, steps")
            return
        step = steps[i]
        if step is None:
            v = f"v{vertices}"
            vertices += 1
            # the first seed's pool is the run-time argument
            body.append(f"{pad}for {v} in {slot() if i else 'pool'}:")
            ipad = pad + "    "
            body.append(f"{ipad}steps += 1")
            if injective and i > 0:
                body.append(f"{ipad}if used_v[{v}]: continue")
            if injective:
                body.append(f"{ipad}used_v[{v}] = 1")
            gen(i + 1, indent + 1)
            if injective:
                body.append(f"{ipad}used_v[{v}] = 0")
            return
        anchor, scan = step[0], step[2]
        x = f"_x{i}"
        if scan == _ONE_SEGMENT:
            ip, ea, oa = slot(), slot(), slot()
            body.append(f"{pad}for {x} in range({ip}[v{anchor}], {ip}[v{anchor} + 1]):")
            candidate(i, indent + 1, f"{ea}[{x}]", f"{oa}[{x}]", None)
        else:
            sp, se, so, sk = f"_sp{i}", f"_se{i}", f"_so{i}", f"_sk{i}"
            body.append(f"{pad}for {sp}, {se}, {so}, {sk} in {slot()}:")
            body.append(f"{pad}    for {x} in range({sp}[v{anchor}], {sp}[v{anchor} + 1]):")
            candidate(
                i, indent + 2, f"{se}[{x}]", f"{so}[{x}]", sk if scan == _BOTH_WAYS else None
            )

    gen(0, 1)
    if mode == "match":
        names += [f"q{k}" for k in range(len(emit[0]))]
        names += [f"r{k}" for k in range(len(emit[1]))]
    lines = [
        "def _kernel(pool, limit, used_v, used_e, out, binding):",
        f"    ({', '.join(names)},) = binding",
        "    steps = 0",
        "    nmatch = 0",
    ]
    if mode == "match":
        lines.append("    out_append = out.append")
    return "\n".join(lines + body + ["    return nmatch, steps", ""])


class MatchProgram:
    """One plan walked over one graph's :class:`CSRIndex`: the shape
    naming its kernel plus the binding the kernel runs over.

    Construction is the walk (interning every pool, mask and adjacency
    segment the plan touches); kernels are resolved per mode through the
    process-wide cache on first run.  ``run_count`` / ``run_match``
    return ``(value, steps)`` so the caller can fold the search effort
    into its own counters.
    """

    __slots__ = ("_entry", "csr", "shape", "binding", "_bound", "_seed")

    def __init__(
        self,
        entry: _CsrEntry,
        plan: Sequence[PlanStep],
        query: GraphQuery,
        injective: bool = True,
    ) -> None:
        if not plan or not isinstance(plan[0], SeedStep):
            raise ProgramUnsupported("plan does not open with a seed step")
        self._entry = entry
        self.csr = csr = entry.csr
        self._seed = query.vertex(plan[0].vid)
        binding: List[Any] = [csr.vid_of, csr.eid_of, csr.selfloop]
        steps: List[Optional[Tuple]] = []
        var_of: Dict[int, int] = {}
        qeids: List[int] = []
        adjacency = csr.adjacency
        for i, step in enumerate(plan):
            if isinstance(step, SeedStep):
                var_of[step.vid] = len(var_of)
                if i:
                    binding.append(csr.seed_pool(query.vertex(step.vid)))
                steps.append(None)
                continue
            qedge = query.edge(step.eid)
            qeids.append(step.eid)
            forward = Direction.FORWARD in qedge.directions
            backward = Direction.BACKWARD in qedge.directions
            if step.anchor == qedge.source:
                want_out, want_in = forward, backward
            else:
                want_out, want_in = backward, forward
            # sorted for deterministic segment order, like the interpreter
            types = sorted(qedge.types) if qedge.types is not None else (None,)
            if want_out and want_in:
                scan = _BOTH_WAYS
                binding.append(
                    tuple(
                        [adjacency(t, "out") + (0,) for t in types]
                        + [adjacency(t, "in") + (1,) for t in types]
                    )
                )
            elif len(types) > 1:
                scan = _SEGMENTS
                way = "out" if want_out else "in"
                binding.append(tuple([adjacency(t, way) + (0,) for t in types]))
            else:
                scan = _ONE_SEGMENT
                binding.extend(adjacency(types[0], "out" if want_out else "in"))
            emask = csr.edge_mask(qedge)
            if emask is not None:
                binding.append(emask)
            vmask = None
            if step.new_vid is None:
                closing = var_of[qedge.other_end(step.anchor)]
            else:
                closing = -1
                var_of[step.new_vid] = len(var_of)
                vmask = csr.vertex_mask(query.vertex(step.new_vid))
                if vmask is not None:
                    binding.append(vmask)
            steps.append(
                (var_of[step.anchor], closing, scan, emask is not None, vmask is not None)
            )
        loops = sum(1 if step is None or step[2] == _ONE_SEGMENT else 2 for step in steps)
        if loops > _MAX_NESTED_LOOPS:
            raise ProgramUnsupported(f"plan needs {loops} nested loops")
        self.shape = (injective, tuple(steps))
        self.binding = binding
        #: query vertex id -> variable index, and the query edge id of
        #: each edge variable: what a match kernel's result graphs carry
        self._bound = (var_of, qeids)

    # -- kernels ----------------------------------------------------------------

    def _key(self, mode: str) -> Tuple[Hashable, List[Any]]:
        """``(kernel cache key, binding)`` for ``mode``.  A match kernel
        emits its variables in ascending query-id order, so that order
        is part of its key and the ids themselves close its binding."""
        if mode == "count":
            return (mode, self.shape, ()), self.binding
        var_of, qeids = self._bound
        qvids = sorted(var_of)
        order = sorted(range(len(qeids)), key=qeids.__getitem__)
        emit = (tuple([var_of[q] for q in qvids]), tuple(order))
        return (mode, self.shape, emit), self.binding + qvids + [qeids[k] for k in order]

    def kernel(self, mode: str) -> Any:
        """This program's ``"count"`` / ``"match"`` kernel function."""
        return self._resolve(mode)[0]

    def source(self, mode: str) -> str:
        """Generated text of that kernel (regenerated, not retained)."""
        return _kernel_source(*self._key(mode)[0])

    def _resolve(self, mode: str) -> Tuple[Any, List[Any]]:
        """``(kernel, binding)`` for ``mode``.  A key the process has not
        met is generated and compiled here -- the only place that is --
        and charged to this graph's counters."""
        key, binding = self._key(mode)
        fn = _KERNELS.get(key)
        if fn is not None:
            self._entry.program_hits += 1
            return fn, binding
        with _KERNELS_LOCK, current_tracer().span(SPAN_PROGRAM_COMPILE):
            namespace: Dict[str, Any] = {"range": range, "RG": ResultGraph}
            exec(compile(_kernel_source(*key), f"<match-kernel:{mode}>", "exec"), namespace)
            fn = namespace["_kernel"]
            if len(_KERNELS) >= KERNEL_CACHE_ENTRIES:
                del _KERNELS[next(iter(_KERNELS))]
            _KERNELS[key] = fn
        self._entry.programs_compiled += 1
        return fn, binding

    # -- execution --------------------------------------------------------------

    def _run(
        self,
        mode: str,
        limit: int,
        out: Optional[List[ResultGraph]],
        pool: Optional[Sequence[int]] = None,
    ) -> Tuple[int, int]:
        csr = self.csr
        if pool is None:
            pool = csr.seed_pool(self._seed)
        used_v = used_e = None
        if self.shape[0]:
            used_v, used_e = bytearray(csr.num_vertices), bytearray(csr.num_edges)
        kernel, binding = self._resolve(mode)
        return kernel(pool, limit, used_v, used_e, out, binding)

    def run_count(
        self, limit: Optional[int] = None, pool: Optional[Sequence[int]] = None
    ) -> Tuple[int, int]:
        """Bounded match count: ``(count, steps)``.  ``pool`` (ascending
        vertex indexes satisfying the first seed's predicates) replaces
        that seed's interned pool."""
        if limit is None:
            limit = 0  # nmatch starts at 1 on first emit: never equal
        elif limit <= 0:
            limit = 1  # the interpreter's count() stops after one match
        return self._run("count", limit, None, pool)

    def run_match(self, limit: Optional[int] = None) -> Tuple[List[ResultGraph], int]:
        """Bounded enumeration: ``(result graphs, steps)``."""
        out: List[ResultGraph] = []
        if limit is not None and limit <= 0:
            return out, 0
        _, steps = self._run("match", limit or 0, out)
        return out, steps


def bind_program(
    entry: _CsrEntry,
    plan: Sequence[PlanStep],
    query: GraphQuery,
    injective: bool = True,
) -> MatchProgram:
    """The plan bound over the entry's index.  A plan the lowering
    refuses is counted against the graph (``program_fallbacks``) before
    :class:`ProgramUnsupported` reaches the caller."""
    try:
        return MatchProgram(entry, plan, query, injective)
    except ProgramUnsupported:
        entry.program_fallbacks += 1
        raise


def compiled_program(
    graph: Any,
    query: GraphQuery,
    edge_order: Optional[Sequence[int]] = None,
    injective: bool = True,
) -> MatchProgram:
    """The query's plan bound over the graph's current CSR index.

    The plan is built afresh, exactly as on the interpreter path, and
    nothing per query is cached: the program is re-bound on every call,
    which is what makes every :meth:`CSRIndex.apply_deltas` patch
    (appended rows, a segment going from empty to non-empty, a recycled
    mask table) visible to the next evaluation with no invalidation
    rule.  Binding goes through :func:`bind_program`.
    """
    entry = csr_entry(graph)
    with current_tracer().span(SPAN_PLAN):
        plan = build_plan(graph, query, edge_order)
    return bind_program(entry, plan, query, injective)
