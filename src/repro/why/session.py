"""Interactive debugging sessions (the DebEAQ workflow).

The thesis' demonstrator (DebEAQ, ICDE 2016) wraps the why-query engines
into an interactive loop: the system proposes an explanation, the user
rates it, the preference models adapt, and the next proposal reflects the
feedback.  :class:`DebugSession` provides that loop as a library API:

>>> session = DebugSession(graph, failed_query)
>>> proposal = session.propose()          # best current rewriting
>>> session.rate(0.0)                     # "don't touch that element"
>>> proposal = session.propose()          # adapted proposal
>>> session.accept()                      # freeze the accepted rewriting

The session keeps a full transcript (proposals, ratings, timings) that a
frontend can render and tests can assert on, and exposes the subgraph
explanation of the failed query for the "why did it fail?" panel.

A session is a loop over the engine ``explain()`` runs: it holds a
:class:`~repro.why.engine.WhyQueryEngine` and asks it to classify,
explain and rewrite, so a session's first proposal is the rewriting
``explain()`` reports and its explanation is the one ``explain()`` shows.
Only the bounds are the session's own: ``max_evaluations`` per proposal,
and an unbounded subgraph explanation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.errors import ExplanationError
from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.exec.context import ExecutionContext
from repro.explain.discover_mcs import McsResult
from repro.explain.preferences import UserPreferences
from repro.metrics.cardinality import CardinalityProblem, CardinalityThreshold
from repro.rewrite.coarse import RewrittenQuery
from repro.rewrite.preference_model import RewritePreferenceModel
from repro.why.engine import WhyQueryEngine


@dataclass
class SessionEvent:
    """One transcript entry: a proposal and the user's reaction."""

    round: int
    proposal: RewrittenQuery
    rating: Optional[float] = None
    accepted: bool = False
    elapsed: float = 0.0


@dataclass
class DebugSession:
    """Stateful propose-rate-accept loop over one failed query.

    The session evaluates through the graph's shared
    :class:`~repro.exec.context.ExecutionContext` (pass ``context`` to
    supply one explicitly, e.g. the per-graph context of a
    :class:`~repro.service.WhyQueryService`), so the counting work of a
    preceding ``explain()`` call -- and of other sessions over the same
    graph -- is reused instead of re-derived.  Unless given explicitly,
    the preference models also come from the context, so ratings keep
    steering later sessions over the same graph.
    """

    graph: Optional[PropertyGraph] = None
    query: Optional[GraphQuery] = None
    threshold: CardinalityThreshold = field(
        default_factory=lambda: CardinalityThreshold.at_least(1)
    )
    max_evaluations: int = 300
    model: Optional[RewritePreferenceModel] = None
    preferences: Optional[UserPreferences] = None
    transcript: List[SessionEvent] = field(default_factory=list)
    accepted: Optional[RewrittenQuery] = None
    context: Optional[ExecutionContext] = None

    def __post_init__(self) -> None:
        if self.query is None:
            raise ValueError("a query is required")
        self.context = ExecutionContext.bind(self.graph, self.context, shared=True)
        self.graph = self.context.graph
        if self.model is None:
            self.model = self.context.preference_model
        if self.preferences is None:
            self.preferences = self.context.preferences
        self._engine = WhyQueryEngine(
            context=self.context,
            preferences=self.preferences,
            preference_model=self.model,
            max_explanation_evaluations=None,
            max_rewrite_evaluations=self.max_evaluations,
        )
        self._explanation: Optional[McsResult] = None

    # -- "why did it fail?" panel ------------------------------------------------

    @property
    def problem(self) -> CardinalityProblem:
        """Classification of the session's query."""
        return self._engine.classify(self.query, self.threshold)

    def explanation(self) -> Optional[McsResult]:
        """The subgraph-based explanation (computed once, then cached);
        ``None`` when the query meets its expectation."""
        if self._explanation is None:
            self._explanation = self._engine.subgraph(
                self.query, self.problem, self.threshold
            )
        return self._explanation

    # -- propose / rate / accept ------------------------------------------------------

    @property
    def pending(self) -> Optional[SessionEvent]:
        """The proposal awaiting a rating, if any."""
        if self.transcript and self.transcript[-1].rating is None and not (
            self.transcript[-1].accepted
        ):
            return self.transcript[-1]
        return None

    def propose(self) -> Optional[RewrittenQuery]:
        """Produce the next proposal under the current preference model.

        Returns ``None`` when the search finds no rewriting within the
        budget.  Raises :class:`ExplanationError` when a proposal is
        already awaiting its rating.
        """
        if self.accepted is not None:
            raise ExplanationError("session already accepted a rewriting")
        if self.pending is not None:
            raise ExplanationError("rate the pending proposal first")
        start = time.perf_counter()
        proposal = self._next_proposal()
        if proposal is None:
            return None
        self.transcript.append(
            SessionEvent(
                round=len(self.transcript) + 1,
                proposal=proposal,
                elapsed=time.perf_counter() - start,
            )
        )
        return proposal

    def _next_proposal(self) -> Optional[RewrittenQuery]:
        problem = self.problem
        if problem == CardinalityProblem.EXPECTED:
            raise ExplanationError("query meets its expectation; nothing to propose")
        # skip rewritings the user has already rated
        seen = {e.proposal.query.signature() for e in self.transcript}
        outcome = self._engine.rewrite(
            self.query, problem, self.threshold, k=len(seen) + 1
        )
        if problem == CardinalityProblem.EMPTY:
            for candidate in outcome.explanations:
                if candidate.query.signature() not in seen:
                    return candidate
            return None
        if outcome.best_query.signature() in seen:
            return None
        return RewrittenQuery(
            query=outcome.best_query,
            cardinality=outcome.best_cardinality,
            syntactic=outcome.best_syntactic,
            modifications=outcome.modifications,
            estimate=float(outcome.best_cardinality),
        )

    def rate(self, rating: float) -> None:
        """Rate the pending proposal; 0 = unacceptable, 1 = perfect.

        Feeds both user-integration models: the rewrite preference model
        (Sec. 5.4) and the traversal preferences (Sec. 4.4).
        """
        event = self.pending
        if event is None:
            raise ExplanationError("no pending proposal to rate")
        event.rating = rating
        self.model.rate_proposal(event.proposal.modifications, rating)
        for op in event.proposal.modifications:
            # a low rating on a change means the touched element matters
            self.preferences.rate(op.target, 1.0 - rating)

    def accept(self) -> RewrittenQuery:
        """Accept the pending (or last rated) proposal and end the session."""
        if self.accepted is not None:
            return self.accepted
        if not self.transcript:
            raise ExplanationError("nothing proposed yet")
        event = self.transcript[-1]
        event.accepted = True
        if event.rating is None:
            event.rating = 1.0
            self.model.rate_proposal(event.proposal.modifications, 1.0)
        self.accepted = event.proposal
        return event.proposal

    # -- reporting ----------------------------------------------------------------------

    def summary(self) -> str:
        """Readable transcript of the whole session."""
        lines = [f"session: {self.problem.value}, threshold {self.threshold}"]
        for event in self.transcript:
            rating = "pending" if event.rating is None else f"{event.rating:.1f}"
            mark = " [accepted]" if event.accepted else ""
            lines.append(
                f"  round {event.round}: {event.proposal.describe()} "
                f"(rating {rating}){mark}"
            )
        if self.accepted is None:
            lines.append("  no rewriting accepted yet")
        return "\n".join(lines)
