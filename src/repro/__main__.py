"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``demo``
    Run the quickstart debugging story on a generated social network
    through a :class:`~repro.service.WhyQueryService` (the long-lived
    serving entry point), and print the service's cache/throughput
    counters afterwards.
``experiments [--dataset ldbc|dbpedia] [ids...]``
    Regenerate evaluation tables (default: the fast ones).  Available
    ids: tabA, fig4, fig5, fig5-user, fig6, fig6-topo, appB.
``datasets``
    Print the generated data-set inventory (Table A.1).
``serve [--host H] [--port P] [--metrics-port M] [--with-ldbc]
[--allow-remote-shutdown]``
    Run the why-query protocol server in the foreground (see
    ``docs/protocol.md``); ``--with-ldbc`` preloads the generated LDBC
    social network under the graph name ``ldbc``; ``--metrics-port``
    additionally serves the Prometheus text exposition of the metrics
    registry over plain HTTP (``GET /metrics``).
``slowlog [--host H] [--port P] [--limit N]``
    Connect to a running server and print its slow-query log, slowest
    explain first (see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_demo(_: argparse.Namespace) -> int:
    from repro.datasets import ldbc
    from repro.service import WhyQueryService

    network = ldbc.generate()
    print(f"generated social network: {network.graph}")
    failed = ldbc.empty_variant("LDBC QUERY 2")
    print("\nfailed query:")
    print(failed.describe())
    service = WhyQueryService()
    report = service.explain(network.graph, failed)
    print()
    print(report.summary())
    # a second request over the same graph runs against the warm context
    service.explain(network.graph, failed, explain=False)
    stats = service.stats()
    results = stats["caches"]["results"]
    print()
    print(
        f"[service: {stats['service']['requests']} requests, "
        f"{stats['service']['contexts_live']} warm context(s), "
        f"result cache {results['hits']} hits / "
        f"{results['misses']} misses]"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import WhyQueryProtocolServer

    graphs = {}
    if args.with_ldbc:
        from repro.datasets import ldbc

        graphs["ldbc"] = ldbc.generate().graph

    server = WhyQueryProtocolServer(
        graphs=graphs,
        host=args.host,
        port=args.port,
        allow_shutdown=args.allow_remote_shutdown,
    )

    metrics_handle = None
    if args.metrics_port is not None:
        from repro.obs import start_metrics_server

        metrics_handle = start_metrics_server(port=args.metrics_port, host=args.host)
        host, port = metrics_handle.address
        print(f"metrics endpoint on http://{host}:{port}/metrics", flush=True)

    def _announce(address) -> None:
        print(f"whyquery server listening on {address[0]}:{address[1]}", flush=True)

    try:
        asyncio.run(server.run(on_started=_announce))
    except KeyboardInterrupt:
        pass
    finally:
        if metrics_handle is not None:
            metrics_handle.close()
    return 0


def _cmd_slowlog(args: argparse.Namespace) -> int:
    from repro.client import connect

    with connect(args.host, args.port) as client:
        entries = client.slow_queries(limit=args.limit)
    if not entries:
        print("slow-query log is empty")
        return 0
    for rank, entry in enumerate(entries, start=1):
        flags = []
        if entry.get("budget_truncated"):
            flags.append("budget-truncated")
        if not entry.get("traced"):
            flags.append("untraced")
        cache = entry.get("cache", {})
        print(
            f"#{rank} {entry['elapsed_s'] * 1000.0:.2f} ms  "
            f"problem={entry.get('problem')}  "
            f"steps={entry.get('matcher_steps')}  "
            f"cache={cache.get('hits', 0)}h/{cache.get('misses', 0)}m"
            + (f"  [{', '.join(flags)}]" if flags else "")
        )
        print(f"   signature: {entry.get('signature', '')[:100]}")
        profile = entry.get("profile") or {}
        if profile:
            parts = [
                f"{kind}:{agg['count']}x {agg['total_s'] * 1000.0:.2f}ms"
                for kind, agg in sorted(profile.items())
            ]
            print(f"   spans: {'  '.join(parts)}")
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    from repro.harness import format_table, tabA_datasets

    rows = tabA_datasets()
    print(
        format_table(
            ["dataset", "query", "|V|", "|E|", "qV", "qE", "C1"],
            [
                (
                    r.dataset,
                    r.query,
                    r.vertices,
                    r.edges,
                    r.query_vertices,
                    r.query_edges,
                    r.cardinality,
                )
                for r in rows
            ],
            title="Table A.1: data sets and queries",
        )
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.harness import (
        appB_resources,
        fig4_discovermcs,
        fig5_priorities,
        fig5_user_integration,
        fig6_baselines,
        fig6_topology,
        format_table,
        tabA_datasets,
    )

    dataset = args.dataset
    wanted = args.ids or ["tabA", "fig4", "fig5", "appB"]

    if "tabA" in wanted:
        _cmd_datasets(args)
        print()
    if "fig4" in wanted:
        rows = fig4_discovermcs(dataset)
        print(
            format_table(
                ["query", "strategy", "coverage", "evals", "sec"],
                [(r.query, r.strategy, r.coverage, r.evaluations, r.elapsed) for r in rows],
                title=f"Sec. 4.5.1 DISCOVERMCS ({dataset})",
            )
        )
        print()
    if "fig5" in wanted:
        rows = fig5_priorities(dataset)
        print(
            format_table(
                ["query", "priority", "evaluated", "syntactic"],
                [(r.query, r.priority, r.evaluated, r.best_syntactic) for r in rows],
                title=f"Sec. 5.5.1 priority functions ({dataset})",
            )
        )
        print()
    if "fig5-user" in wanted:
        rows = fig5_user_integration(dataset)
        print(
            format_table(
                ["query", "without model", "with model"],
                [
                    (r.query, r.proposals_without_model, r.proposals_with_model)
                    for r in rows
                ],
                title=f"Sec. 5.5.4 user integration ({dataset})",
            )
        )
        print()
    if "fig6" in wanted:
        rows = fig6_baselines(dataset)
        print(
            format_table(
                ["scenario", "engine", "converged", "distance", "evals"],
                [
                    (r.scenario, r.engine, r.converged, r.distance, r.evaluated)
                    for r in rows
                ],
                title=f"Sec. 6.4.2 baselines ({dataset})",
            )
        )
        print()
    if "fig6-topo" in wanted:
        rows = fig6_topology(dataset)
        print(
            format_table(
                ["scenario", "engine", "converged", "distance"],
                [(r.scenario, r.engine, r.converged, r.distance) for r in rows],
                title=f"Sec. 6.4.3 topology consideration ({dataset})",
            )
        )
        print()
    if "appB" in wanted:
        rows = appB_resources(dataset)
        print(
            format_table(
                [
                    "query",
                    "evaluated",
                    "generated",
                    "cache entries",
                    "steps",
                ],
                [
                    (
                        r.query,
                        r.evaluated,
                        r.generated,
                        r.cache_entries,
                        r.matcher_steps,
                    )
                    for r in rows
                ],
                title=f"App. B.2 resources ({dataset})",
            )
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Why-query support in graph databases (reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="run the quickstart debugging story")
    commands.add_parser("datasets", help="print the data-set inventory")
    serve = commands.add_parser("serve", help="run the protocol server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="also serve Prometheus metrics over HTTP on this port (0 = ephemeral)",
    )
    serve.add_argument(
        "--with-ldbc",
        action="store_true",
        help="preload the generated LDBC graph as 'ldbc'",
    )
    serve.add_argument(
        "--allow-remote-shutdown",
        action="store_true",
        help="honour the protocol 'shutdown' message (CI smoke jobs)",
    )
    slowlog = commands.add_parser(
        "slowlog", help="print a running server's slow-query log"
    )
    slowlog.add_argument("--host", default="127.0.0.1")
    slowlog.add_argument("--port", type=int, default=8642)
    slowlog.add_argument(
        "--limit", type=int, default=None, help="show at most N entries"
    )
    exp = commands.add_parser("experiments", help="regenerate evaluation tables")
    exp.add_argument("--dataset", choices=("ldbc", "dbpedia"), default="ldbc")
    exp.add_argument(
        "ids",
        nargs="*",
        help="experiment ids (tabA, fig4, fig5, fig5-user, fig6, fig6-topo, appB)",
    )

    args = parser.parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "datasets": _cmd_datasets,
        "experiments": _cmd_experiments,
        "serve": _cmd_serve,
        "slowlog": _cmd_slowlog,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
