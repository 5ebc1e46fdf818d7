"""Committed answers: one digest per report of the 32-request mix.

``answer_digests.json`` holds, per replay of
:func:`test_property_based.explain_mix_rounds` (a seed, in-process or
over the wire), per round and per request, the sha256 of
``json.dumps(strip_volatile(report), sort_keys=True)``, ``report``
being the wire form of the explain (``report_to_dict``).  The tests
that already replay the mix check their reports against it and name
the first request that differs.  Regenerate the file only in a change
that means to move an answer, and name the requests that moved::

    PYTHONPATH=src:tests python tests/answers.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.server.protocol import strip_volatile

DIGEST_FILE = Path(__file__).with_name("answer_digests.json")

#: the committed replays: (seed, over the wire)
REPLAYS = ((7, False), (12, False), (12, True))

#: one replay's reports: per round, ``(graph name, report dict)`` per request
Rounds = List[List[Tuple[str, Dict[str, Any]]]]


def replay_name(seed: int, wire: bool) -> str:
    return f"seed {seed} {'wire' if wire else 'in-process'}"


def report_digest(report: Dict[str, Any]) -> str:
    body = json.dumps(strip_volatile(report), sort_keys=True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def first_difference(seed: int, wire: bool, rounds: Rounds) -> Optional[str]:
    """``None`` when every report of the replay hashes to its committed
    digest, else a description of the first request that does not."""
    name = replay_name(seed, wire)
    committed = json.loads(DIGEST_FILE.read_text())[name]
    shape = [len(reports) for reports in rounds]
    if shape != [len(digests) for digests in committed]:
        return f"{name}: {shape} requests per round, not the committed shape"
    for round_index, (reports, digests) in enumerate(zip(rounds, committed)):
        for request, ((graph, report), digest) in enumerate(zip(reports, digests)):
            if report_digest(report) != digest:
                return (
                    f"{name}, round {round_index}, request {request}: the "
                    f"{report['problem']} request on {graph} (threshold "
                    f"{report['threshold']}) answers differently from the "
                    "committed digest"
                )
    return None


def main() -> None:
    from test_property_based import explain_mix_rounds

    replays = {}
    for seed, wire in REPLAYS:
        rounds = explain_mix_rounds(seed, wire=wire)
        replays[replay_name(seed, wire)] = [
            [report_digest(report) for _, report in reports] for reports in rounds
        ]
    DIGEST_FILE.write_text(json.dumps(replays, indent=1) + "\n")


if __name__ == "__main__":
    main()
