"""CI perf-trajectory gate over ``BENCH_micro_core.json``.

The committed ``BENCH_micro_core.json`` is the machine-readable record
of the hot-path performance trajectory; every PR regenerates it.  This
script diffs a freshly generated file against the committed baseline and
fails (exit code 1) when the trajectory regressed:

* **structural drift**: the recursive key structure of the two files
  must match exactly -- a section that appears or disappears without the
  committed baseline being regenerated in the same PR is a gate failure,
  not a silent pass.  Drift is reported per offending *section* (the
  shortest diverging key path, not every leaf under it), and the message
  names which side lost it and what to do about it;
* **compiled-match throughput**: the compiled backend's speedup over
  the interpreter on the typed-expansion workload must clear the
  stronger of the committed baseline and the 2x acceptance target,
  within ``--max-regression`` (default 25%).  Single-core, pure CPU --
  *not* core-aware.  The 32-variant rewrite batch may generate at most
  ``REWRITE_BATCH_KERNEL_CEILING`` kernels (an exact count: kernels are
  keyed on plan shape, and a batch of variants that starts compiling
  one program per variant again fails here);
* **process-pool throughput** (core-aware): the pure-CPU
  multi-process speedup is gated against both the baseline's recorded
  ratio and the 1.5x target -- but only when the fresh run had >= 2 CPU
  cores (the section records ``cpu_cores``); a single-core machine
  physically cannot overlap CPU-bound work across processes, so there
  the number is recorded, reported and skipped;
* **delta-sync churn** (``mutate_while_serving``): the CSR patch rate
  (fraction of mutation-triggered refreshes absorbed in place instead
  of rebuilding, floored at the 90% acceptance target).  A
  deterministic count -- *not* core-aware;
* **tracing overhead** (``observability``): traced-over-untraced
  matcher throughput on the span-overhead-heavy rewrite-batch shape,
  one fresh activated tracer per 32-count batch (a request).  A same-machine ratio,
  *not* core-aware; the floor is the stronger of the committed
  baseline and the 0.9 acceptance target -- tracing that stops being
  cheap enough to leave on fails the gate;
* **warm-restart persistence** (``restart_warm``): the unmutated-restart
  warm-hit rate (fraction of the 32-variant batch served from the
  prewarmed result cache after a service restart, floored at the 0.9
  acceptance target), the delta-mutated-restart partial hit rate
  (gated against the committed baseline only -- the conservative
  invalidation scope may legitimately change), and the
  ``counts_identical`` flags (restored counts bit-identical to cold
  computes -- exact, pass/fail).  All deterministic cache-hit counts,
  never wall-clock, so *not* core-aware;
* **candidate identity work** (``rewrite_identity``): whole-query and
  element signature builds, Eq. 3.11 / 3.12 evaluations and path(1) memo
  lookups of one fixed coarse and one fixed fine-grained pass.  The
  passes are deterministic and the counts repeat exactly, so each is an
  *exact ceiling*: the fresh count may not exceed the committed one by
  a single call (no tolerance, no wall-clock ratio).

Speedups are *ratios of two measurements taken on the same machine in
the same process*, so they are comparable across the baseline's machine
and the CI runner; absolute wall-clock numbers are not, and are
deliberately not gated.

Usage::

    python benchmarks/check_trajectory.py BASELINE FRESH [--max-regression 0.25]

CI copies the committed file aside, reruns the benchmarks, and feeds
both files to this script.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Iterable, List, Set, Tuple


#: ``rewrite_identity`` counters gated as exact ceilings, per pass
IDENTITY_COUNTERS = (
    "query_signature_builds",
    "element_signature_builds",
    "distance_evaluations",
    "path1_lookups",
)

#: kernels the 32-variant rewrite batch may generate and ``compile()``:
#: its variants differ in one edge type, i.e. share one plan shape
REWRITE_BATCH_KERNEL_CEILING = 4


def key_paths(obj: object, prefix: str = "") -> Set[str]:
    """Every dict key path in ``obj``, e.g. ``compiled_match.compiled.best_s``."""
    paths: Set[str] = set()
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            paths.add(path)
            paths.update(key_paths(value, path))
    return paths


def structural_diff(baseline: dict, fresh: dict) -> Tuple[Set[str], Set[str]]:
    """(missing-from-fresh, unexpected-in-fresh) key paths."""
    base_keys = key_paths(baseline)
    fresh_keys = key_paths(fresh)
    return base_keys - fresh_keys, fresh_keys - base_keys


def offending_sections(paths: Set[str]) -> List[str]:
    """Collapse a drift set to its shortest diverging key paths.

    When a whole section is gone, every leaf under it is in the diff;
    reporting all of them buries the actionable fact.  A path is an
    *offending section* iff none of its ancestors drifted too.
    """
    out = []
    for path in sorted(paths):
        parts = path.split(".")
        ancestors = {".".join(parts[:i]) for i in range(1, len(parts))}
        if not (ancestors & paths):
            out.append(path)
    return out


def dig(obj: dict, path: str) -> float:
    value = obj
    for part in path.split("."):
        value = value[part]
    return float(value)


class Gate:
    """Collects pass/fail lines for the final report."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.lines: List[str] = []

    def ok(self, message: str) -> None:
        self.lines.append(f"  ok   {message}")

    def fail(self, message: str) -> None:
        self.lines.append(f"  FAIL {message}")
        self.failures.append(message)

    def check_not_below(
        self, name: str, baseline: float, fresh: float, tolerance: float
    ) -> None:
        floor = baseline * (1.0 - tolerance)
        message = (
            f"{name}: baseline {baseline:.3f}, fresh {fresh:.3f} "
            f"(floor {floor:.3f})"
        )
        if fresh >= floor:
            self.ok(message)
        else:
            self.fail(message)

    def check_not_above(
        self, name: str, baseline: float, fresh: float, tolerance: float
    ) -> None:
        ceiling = baseline * (1.0 + tolerance)
        message = (
            f"{name}: baseline {baseline:.3f}, fresh {fresh:.3f} "
            f"(ceiling {ceiling:.3f})"
        )
        if fresh <= ceiling:
            self.ok(message)
        else:
            self.fail(message)


def check_trajectory(
    baseline: dict, fresh: dict, max_regression: float = 0.25
) -> Gate:
    gate = Gate()

    missing, unexpected = structural_diff(baseline, fresh)
    if missing or unexpected:
        for path in offending_sections(missing):
            gate.fail(
                f"structure: section {path!r} is in the committed baseline "
                "but the FRESH run did not produce it -- the benchmark "
                "lost this output; fix the benchmark, or (if the removal "
                "is intentional) regenerate and commit "
                "BENCH_micro_core.json in this PR"
            )
        for path in offending_sections(unexpected):
            gate.fail(
                f"structure: section {path!r} was produced by the fresh "
                "run but the committed BASELINE does not have it -- the "
                "baseline is stale; regenerate and commit "
                "BENCH_micro_core.json in this PR"
            )
        # a gated metric may be among the missing keys; report the
        # structural drift instead of crashing on the lookup
        return gate
    gate.ok(f"structure: {len(key_paths(baseline))} key paths match exactly")

    # pure single-core CPU ratio: the expectation is the stronger of the
    # committed baseline and the 2x acceptance target of the compiled
    # backend
    gate.check_not_below(
        "compiled-match speedup",
        max(dig(baseline, "compiled_match.speedup"), 2.0),
        dig(fresh, "compiled_match.speedup"),
        max_regression,
    )
    gate.check_not_below(
        "compiled-match rewrite-batch speedup",
        max(dig(baseline, "compiled_match.rewrite_batch.speedup"), 2.0),
        dig(fresh, "compiled_match.rewrite_batch.speedup"),
        max_regression,
    )
    # an exact count, not a timing: the ceiling is absolute
    gate.check_not_above(
        "compiled-match rewrite-batch kernels compiled",
        REWRITE_BATCH_KERNEL_CEILING,
        dig(fresh, "compiled_match.program_cache.rewrite_batch.programs_compiled"),
        0.0,
    )
    check_multicore_speedup(
        gate,
        "process-pool speedup @2 workers",
        baseline,
        fresh,
        "process_pool",
        "speedup_2w",
        target=1.5,
        tolerance=max_regression,
    )
    # the 4-worker point exists only when both the hardware and the
    # worker cap allow 4-way overlap; absence on one side only is
    # structural drift (caught above), so both sides have it here
    if "speedup_4w" in fresh.get("process_pool", {}):
        check_multicore_speedup(
            gate,
            "process-pool speedup @4 workers",
            baseline,
            fresh,
            "process_pool",
            "speedup_4w",
            target=2.0,
            tolerance=max_regression,
            min_units=4,
        )
    # delta-sync gate: a deterministic count, never wall-clock, so it
    # does not honour cpu_cores.  The patch-rate floor combines the committed baseline (within tolerance) with the
    # 90% acceptance target -- a patch pipeline that silently degrades
    # to rebuilding fails here even if the baseline already had slack.
    gate.check_not_below(
        "delta-sync csr patch rate",
        max(
            dig(baseline, "mutate_while_serving.csr.patch_rate")
            * (1.0 - max_regression),
            0.9,
        ),
        dig(fresh, "mutate_while_serving.csr.patch_rate"),
        0.0,
    )
    # tracing overhead (ISSUE 9): a same-machine throughput ratio, so
    # not core-aware.  The expectation combines the committed baseline
    # (within tolerance) with the hard 0.9 acceptance floor: tracing
    # that stops being cheap enough to leave on fails even if the
    # baseline itself had slack.
    gate.check_not_below(
        "tracing-enabled throughput ratio",
        max(
            dig(baseline, "observability.enabled_ratio") * (1.0 - max_regression),
            0.9,
        ),
        dig(fresh, "observability.enabled_ratio"),
        0.0,
    )
    # warm-restart gates (ISSUE 10): deterministic cache-hit counts and
    # exact count comparisons, never wall-clock -- not core-aware.  The
    # unmutated floor combines the committed baseline (within tolerance)
    # with the hard 0.9 acceptance target; the delta-mutated rate is
    # deliberately *partial* (the snapshot is one delta behind), so it
    # is gated against the baseline only, with ordinary tolerance.
    gate.check_not_below(
        "restart-warm hit rate (unmutated restart)",
        max(
            dig(baseline, "restart_warm.unmutated.warm_hit_rate")
            * (1.0 - max_regression),
            0.9,
        ),
        dig(fresh, "restart_warm.unmutated.warm_hit_rate"),
        0.0,
    )
    gate.check_not_below(
        "restart-warm hit rate (delta-mutated restart)",
        dig(baseline, "restart_warm.mutated.warm_hit_rate"),
        dig(fresh, "restart_warm.mutated.warm_hit_rate"),
        max_regression,
    )
    for variant in ("unmutated", "mutated"):
        if dig(fresh, f"restart_warm.{variant}.counts_identical") == 1.0:
            gate.ok(f"restart-warm {variant} counts identical to cold computes")
        else:
            gate.fail(
                f"restart-warm {variant} restart DIVERGED from the cold "
                "computes (counts_identical is false) -- a restored cache "
                "entry returned a wrong count"
            )
    # exact work counts of two deterministic passes: a ceiling without
    # tolerance -- one more signature build or distance evaluation than
    # the committed record is a candidate that stopped sharing
    for search in ("coarse", "fine"):
        for counter in IDENTITY_COUNTERS:
            path = f"rewrite_identity.{search}.{counter}"
            gate.check_not_above(
                f"candidate identity work: {search} {counter.replace('_', ' ')}",
                dig(baseline, path),
                dig(fresh, path),
                0.0,
            )
    return gate


def check_multicore_speedup(
    gate: Gate,
    name: str,
    baseline: dict,
    fresh: dict,
    section: str,
    metric: str,
    target: float,
    tolerance: float,
    min_units: int = 2,
) -> None:
    """Ratio-gate a process-parallel speedup, honouring the hardware.

    The expectation is the *stronger* of the baseline's recorded ratio
    and the absolute multi-core target, so a baseline regenerated on a
    single-core box (ratio ~1.0) cannot water the gate down for
    multi-core CI runners.  On a fresh run with < ``min_units`` cores
    -- or with ``REPRO_BENCH_PROCESS_WORKERS`` capped below it (the
    section records it as ``workers_cap``) -- the number is physically
    meaningless as a parallelism signal: recorded + skipped.
    """
    fresh_cores = dig(fresh, f"{section}.cpu_cores")
    fresh_cap = dig(fresh, f"{section}.workers_cap")
    fresh_speedup = dig(fresh, f"{section}.{metric}")
    if fresh_cores < min_units or fresh_cap < min_units:
        reason = (
            f"fresh run had {fresh_cores:.0f} CPU core(s)"
            if fresh_cores < min_units
            else f"REPRO_BENCH_PROCESS_WORKERS capped workers at {fresh_cap:.0f}"
        )
        gate.ok(
            f"{name}: recorded {fresh_speedup:.3f} but SKIPPED the gate "
            f"({reason}; process parallelism needs >= {min_units})"
        )
        return
    expected = max(dig(baseline, f"{section}.{metric}"), target)
    gate.check_not_below(name, expected, fresh_speedup, tolerance)


def main(argv: Iterable[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on hot-path performance-trajectory regressions."
    )
    parser.add_argument("baseline", type=pathlib.Path, help="committed JSON")
    parser.add_argument("fresh", type=pathlib.Path, help="freshly generated JSON")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="tolerated fractional regression (default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    gate = check_trajectory(baseline, fresh, args.max_regression)

    print(
        f"perf-trajectory gate: {args.fresh} vs baseline {args.baseline} "
        f"(tolerance {args.max_regression:.0%})"
    )
    for line in gate.lines:
        print(line)
    if gate.failures:
        print(f"trajectory gate FAILED ({len(gate.failures)} regression(s))")
        return 1
    print("trajectory gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
