"""Smoke test of the end-to-end benchmark (collected by the tier-1 command).

Quick mode -- half-size graphs, one episode, one probe pass -- exercises
every code path of the runner without measuring anything: every metric
named in BENCHMARK.json is emitted with its unit, no request fails, and a
probe whose layer cannot be imported reports ``null`` instead of crashing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import compare
import probes
import run

CONTRACT = run.load_contract()


def run_quick(tmp_path, workload: str, trace: int):
    """The driver's command line, in a fresh interpreter as the driver runs
    it: no worker pool, server thread or cleared environment variable is
    left behind in the test session."""
    command = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload]
    command += ["--trace", str(trace), "--quick", "--out", str(tmp_path)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_result_shape(result: dict, tier: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [entry["name"] for entry in CONTRACT[tier]]
    for entry in CONTRACT[tier]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float)) or metric["reason"]


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_workload_emits_every_end_to_end_metric(tmp_path, workload):
    result = run_quick(tmp_path, workload, trace=0)
    assert_result_shape(result, "end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    (record,) = compare.load_runs(str(tmp_path))
    assert record["workload"] == workload and record["hygiene"]["episodes"] == 1


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    result = run_quick(tmp_path, "why_empty", trace=1)
    assert_result_shape(result, "per_layer")
    assert result["metrics"]["bench.failed_share"]["value"] == 0
    assert 0.5 < result["metrics"]["span.closure_ratio"]["value"] <= 1.0
    with open(tmp_path / "why_empty-seed12-spans.json", encoding="utf-8") as handle:
        kinds = {span["kind"] for span in json.load(handle)}
    assert kinds == {"bench.setup", "bench.request"}


STOP_CHILDREN_SCRIPT = """
import concurrent.futures, multiprocessing, subprocess, sys
sys.path.insert(0, sys.argv[1])
import run
context = multiprocessing.get_context("forkserver")
pool = concurrent.futures.ProcessPoolExecutor(1, mp_context=context)  # never shut down
pool.submit(int).result()
sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
assert len(run.descendants()) == 4  # forkserver, its worker, resource tracker, sleeper
run.stop_children()
sys.exit(len(run.descendants()))
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_stop_children_leaves_no_process_behind():
    """In an interpreter of its own: it kills every process below its own."""
    command = [sys.executable, "-c", STOP_CHILDREN_SCRIPT, run.HERE]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_probe_whose_import_fails_reports_null(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "repro.persist", None)
    monkeypatch.setattr(
        probes, "PROBES", [p for p in probes.PROBES if p[1] is probes.persist_probe]
    )
    results = probes.run_probes(probes.ProbeEnv(scale=run.QUICK_SCALE, repeats=1))
    assert set(results) == {
        "persist.snapshot_ms",
        "persist.snapshot_bytes",
        "persist.restore_ms",
        "persist.restored_share",
    }
    for metric in results.values():
        assert metric["value"] is None and "repro.persist" in metric["reason"]


def test_deleting_the_process_tier_nulls_only_the_shard_metrics(monkeypatch):
    monkeypatch.setitem(sys.modules, "repro.shard", None)
    monkeypatch.setattr(
        probes,
        "PROBES",
        [p for p in probes.PROBES if p[1] in (probes.service_probe, probes.shard_probe)],
    )
    results = probes.run_probes(probes.ProbeEnv(scale=run.QUICK_SCALE, repeats=1))
    for name, metric in results.items():
        if name.startswith("shard."):
            assert metric["value"] is None and "repro.shard" in metric["reason"]
        else:
            assert name.startswith(("why.", "service.")) and metric["value"] > 0


SIZES = {"seconds": 22, "scale": 1.0, "episodes": 2, "bring_ups": 4, "requests_per_episode": 16}


def test_compare_applies_the_bounds():
    def runs(p50: float, **sizes) -> list:
        metrics = {
            entry["name"]: {"value": 1.0, "unit": entry["unit"]}
            for entry in CONTRACT["end_to_end"]
        }
        metrics["explain_p50_ms"] = {"value": p50, "unit": "ms"}
        return [
            {
                "workload": "why_empty",
                "trace": 0,
                "noise_ratio": 1.01,
                "hygiene": dict(SIZES, **sizes),
                "result": {"failed": 0, "metrics": metrics},
            }
        ]

    bound = next(e["bound"] for e in CONTRACT["end_to_end"] if e["name"] == "explain_p50_ms")

    def verdicts(p50: float) -> dict:
        rows = compare.compare(CONTRACT, runs(1.0), runs(p50))
        return {row["metric"]: row["verdict"] for row in rows}

    assert set(verdicts(1.0 + bound / 2).values()) == {"ok"}
    worse = verdicts(1.0 + 2 * bound)
    assert worse.pop("explain_p50_ms") == "regression"
    assert set(worse.values()) == {"ok"}
    with pytest.raises(ValueError, match="same length"):
        compare.compare(CONTRACT, runs(1.0), runs(1.0, episodes=3))
