"""End-to-end benchmark of real why-query explains, with a per-layer ledger.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--out DIR]

With ``--workload`` one workload runs in this interpreter and the last line
of standard output is one JSON object: ``--trace 0`` measures the end-to-end
metrics with tracing off, ``--trace 1`` runs the traced episode and the
per-layer probes.  Without ``--workload`` every workload runs, one fresh
interpreter after another, first untraced and then traced, and the probes
(the same on every workload) run once.  Every run writes a result file to
``--out``; ``compare.py`` reads those.  README.md explains the workloads,
the metrics and the estimator.

A run's length is fixed by the benchmark, not by the clock: ``--seconds``
(the benchmark driver passes BENCHMARK.json's ``run_seconds``) scales the
workload's fixed episode count, so two runs with the same ``--seconds``
take the same samples however fast the machine is.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: graph scale of ``--quick`` (the smoke test): three paper queries are then
#: too small for the too-many rule and drop out of the cardinality half
QUICK_SCALE = 0.25


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def clear_env() -> dict:
    """The benchmark measures the shipped defaults: session-wide switches
    such as REPRO_COMPILED_MATCH and REPRO_TRACE are removed (and recorded)
    before anything is measured; child interpreters inherit the cleared
    environment."""
    return {key: os.environ.pop(key) for key in list(os.environ) if key.startswith("REPRO_")}


def hygiene(args, run) -> dict:
    from repro.matching import PatternMatcher
    from repro.obs import tracing_default

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        sha = ""
    graph = next(iter(run.last_graphs.values()))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha or None,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": run.scale,
        "episodes": run.episodes,
        "bring_ups": len(run.setups),
        "requests_per_episode": len(run.order) * (1 + run.spec.rounds),
        "cleared_env": args.cleared_env,
        "gc": "gc.collect() before each episode, collector left on",
        "effective_config": {
            "compiled_match": PatternMatcher(graph).compiled,
            "tracing_default": tracing_default(),
        },
    }


def run_workload(args, contract: dict) -> int:
    from probes import ProbeEnv, run_probes
    from spans import span_metrics
    from workloads import SPECS, WorkloadRun

    started = time.perf_counter()
    scale = QUICK_SCALE if args.quick else 1.0
    run = WorkloadRun(SPECS[args.workload], args.seed, scale)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}")
    if args.trace:
        # untraced episodes to compare the traced one with: bench.noise_ratio
        # needs two samples per slot, which one episode with rounds has
        run.measure(1 if args.quick or run.spec.rounds else 2)
        run.episode(trace=True)
        measured = {name: {"value": value} for name, value in span_metrics(run.spans).items()}
        if args.probes_from:
            measured.update(load_probes(args.probes_from))
        else:
            env = ProbeEnv(scale=scale, out_dir=args.out)
            if args.quick:
                env.repeats = env.heavy_repeats = 1
            measured.update(run_probes(env))
        for name, value in (
            ("obs.tracing_overhead_ratio", run.traced_request_wall / min(run.episode_request_walls)),
            ("bench.first_candidate_p50_ms", run.first_candidate_p50_ms()),
            ("bench.noise_ratio", run.noise_ratio()),
            ("bench.failed_share", run.oracle.failed / run.oracle.attempted),
            ("rewrite.cache_hit_rate", run.hit_rate()),
            ("service.contexts_evicted", run.contexts_evicted),
        ):
            measured[name] = {"value": value}
        tier = contract["per_layer"]
        with open(stem + "-spans.json", "w", encoding="utf-8") as handle:
            json.dump(run.spans, handle)
    else:
        # a fixed count, scaled by --seconds alone
        episodes = max(1, round(run.spec.episodes * args.seconds / contract["run_seconds"]))
        run.measure(1 if args.quick else episodes)
        measured = {name: {"value": value} for name, value in run.end_to_end().items()}
        tier = contract["end_to_end"]

    metrics = {}
    for entry in tier:
        found = measured.get(entry["name"], {"value": None, "reason": "not emitted"})
        metrics[entry["name"]] = dict(found, unit=entry["unit"])
    note = run.sample_note()
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:.6g}" if value is not None else f"null ({metric['reason']})"
        print(f"{args.workload:16s} {name:36s} {shown:>14s} {metric['unit']:6s} [{note}]")
    for reason in run.oracle.reasons:
        print(f"FAILED {reason}")

    result = {
        "correct": run.oracle.failed == 0,
        "attempted": run.oracle.attempted,
        "failed": run.oracle.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "hygiene": hygiene(args, run),
        "noise_ratio": run.noise_ratio(),
        # times are reported at reference speed; the same from the raw walls:
        "raw_metrics": run.end_to_end(normalised=False),
        "speed_factor": statistics.median(run.speed_factors),
        "samples": note,
        "slots_ms": {str(slot): 1e3 * value for slot, value in run.slot_values().items()},
        "wall_s": time.perf_counter() - started,
        "result": result,
    }
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump({"runs": [record]}, handle, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def descendants() -> dict:
    """``{pid: parent pid}`` of every process below this one (from /proc)."""
    parents = {}
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as handle:
                    # "pid (comm) state ppid ...": comm may hold spaces and brackets
                    state, ppid = handle.read().rpartition(")")[2].split()[:2]
            except OSError:
                continue  # ended meanwhile
            if state != "Z" or ppid == str(os.getpid()):  # a zombie of ours still needs its wait
                parents[int(entry)] = int(ppid)
    below = {os.getpid()}
    while True:
        more = {pid for pid, ppid in parents.items() if ppid in below} - below
        if not more:
            return {pid: parents[pid] for pid in below if pid != os.getpid()}
        below |= more


def stop_children() -> None:
    """Stop every process this interpreter started and wait until each has ended.

    Registered with ``atexit`` before multiprocessing is imported, so that it
    runs after multiprocessing's own exit handler: every way out of the
    program (return, exception, SIGTERM) comes through here, and nothing
    talks to the resource tracker afterwards, which would start it again.

    The process-tier probe shuts its worker pools down, but multiprocessing's
    two helpers (forkserver, resource tracker) live until the interpreter's
    descriptors close, i.e. they outlive it by a moment and nobody reaps
    them.  Workers an abnormal exit left behind are killed first (they hold
    the helpers' pipes open; the forkserver reaps them), then the helpers
    are asked to stop (forkserver first: it holds the tracker's pipe, too),
    then whatever is still a child is killed and waited for."""
    me = os.getpid()
    for pid, ppid in descendants().items():
        if ppid != me:
            os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while any(ppid != me for ppid in descendants().values()) and time.monotonic() < deadline:
        time.sleep(0.01)
    if all(ppid == me for ppid in descendants().values()):  # else they would wait for ever
        for module, attribute in (
            ("multiprocessing.forkserver", "_forkserver"),
            ("multiprocessing.resource_tracker", "_resource_tracker"),
        ):
            stop = getattr(getattr(sys.modules.get(module), attribute, None), "_stop", None)
            try:
                if stop is not None:
                    stop()
            except OSError:
                pass  # the forkserver's socket went with multiprocessing's temporary directory
    for pid in descendants():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass  # not ours to wait for, or ended meanwhile


def load_probes(path: str) -> dict:
    """The probe metrics of an earlier traced run's result file."""
    from probes import PROBES

    with open(path, encoding="utf-8") as handle:
        metrics = json.load(handle)["runs"][0]["result"]["metrics"]
    return {name: metrics[name] for names, _ in PROBES for name in names}


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one at a time.  The
    probes do not depend on the workload: the first traced run takes them
    and the later ones copy its values."""
    from workloads import SPECS

    status = 0
    probes_from = None
    for trace in (0, 1) if args.trace is None else (args.trace,):
        for workload in SPECS:
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload]
            command += ["--trace", str(trace), "--seed", str(args.seed), "--out", args.out]
            command += ["--seconds", str(args.seconds)]
            if args.quick:
                command.append("--quick")
            if trace and probes_from:
                command += ["--probes-from", probes_from]
            status |= subprocess.run(command).returncode
            if trace and not probes_from:
                probes_from = os.path.join(args.out, f"{workload}-seed{args.seed}-trace1.json")
    return status


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    parser.add_argument("--quick", action="store_true", help="smoke-test sizes, not a measurement")
    parser.add_argument("--probes-from", help="traced result file to copy the probe metrics from")
    args = parser.parse_args(argv)
    args.cleared_env = clear_env()
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    atexit.register(stop_children)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # leave through atexit
    if args.workload is None:
        return run_all(args)
    args.trace = args.trace or 0
    return run_workload(args, contract)


if __name__ == "__main__":
    sys.exit(main())
