"""CI perf-trajectory gate: structural-drift reporting + core-aware gates.

Satellite (ISSUE 4): a missing section must produce one clear, actionable
failure naming the offending key *and which side lost it*, instead of a
wall of leaf paths; the new process sections are ratio-gated only on
machines that can physically parallelise CPU work.
"""

from __future__ import annotations

import copy
import importlib.util
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_trajectory",
    pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "check_trajectory.py",
)
check_trajectory_mod = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_trajectory_mod)

check_trajectory = check_trajectory_mod.check_trajectory
offending_sections = check_trajectory_mod.offending_sections


def baseline_payload() -> dict:
    return {
        "compiled_match": {
            "speedup": 11.0,
            "rewrite_batch": {"speedup": 8.0},
            "program_cache": {"rewrite_batch": {"programs_compiled": 1}},
        },
        "process_pool": {
            "cpu_cores": 2,
            "workers_cap": 2,
            "speedup_2w": 1.8,
            "serial_s": 0.2,
        },
        "affine_placement": {
            "cpu_cores": 2,
            "workers_cap": 2,
            "payload_ratio_4s": 3.5,
            "speedup_2s": 1.3,
            "payloads": {},
        },
        "mutate_while_serving": {
            "csr": {"patch_rate": 1.0},
            "catchup": {"warm_hit_rate": 1.0, "reship_ratio": 3000.0},
        },
        "observability": {
            "enabled_ratio": 0.98,
            "heavy_count": {},
            "rewrite_batch": {},
        },
        "restart_warm": {
            "unmutated": {"warm_hit_rate": 1.0, "counts_identical": True},
            "mutated": {"warm_hit_rate": 0.96875, "counts_identical": True},
        },
        "rewrite_identity": {
            search: {
                "candidates": 40,
                "query_signature_builds": 44,
                "element_signature_builds": 35,
                "distance_evaluations": 61,
                "path1_lookups": 43,
            }
            for search in ("coarse", "fine")
        },
    }


class TestOffendingSections:
    def test_collapses_to_shortest_paths(self):
        paths = {
            "process_pool",
            "process_pool.workers",
            "process_pool.workers.2",
            "process_pool.workers.2.speedup",
            "compiled_match.speedup",
        }
        assert offending_sections(paths) == [
            "compiled_match.speedup",
            "process_pool",
        ]

    def test_independent_paths_all_reported(self):
        paths = {"a.x", "b.y"}
        assert offending_sections(paths) == ["a.x", "b.y"]


class TestStructuralDrift:
    def test_section_missing_from_fresh_names_key_and_side(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        del fresh["process_pool"]
        gate = check_trajectory(baseline, fresh)
        assert len(gate.failures) == 1  # one section, one message
        message = gate.failures[0]
        assert "'process_pool'" in message
        assert "FRESH" in message
        assert "fix the benchmark" in message

    def test_section_missing_from_baseline_names_key_and_side(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["brand_new_section"] = {"speedup": 2.0, "nested": {"deep": 1}}
        gate = check_trajectory(baseline, fresh)
        assert len(gate.failures) == 1
        message = gate.failures[0]
        assert "'brand_new_section'" in message
        assert "BASELINE" in message
        assert "regenerate and commit BENCH_micro_core.json" in message

    def test_matching_structure_passes(self):
        baseline = baseline_payload()
        gate = check_trajectory(baseline, copy.deepcopy(baseline))
        assert gate.failures == []


class TestCoreAwareSpeedupGate:
    def test_single_core_fresh_run_is_recorded_not_gated(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"].update(cpu_cores=1, speedup_2w=0.95)
        gate = check_trajectory(baseline, fresh)
        assert gate.failures == []
        skipped = [line for line in gate.lines if "SKIPPED" in line]
        assert len(skipped) == 1

    def test_worker_cap_below_two_is_recorded_not_gated(self):
        """REPRO_BENCH_PROCESS_WORKERS=1 on a multi-core box records a
        1-worker ratio; the gate must not demand a 2-worker speedup the
        configuration made unobservable."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"].update(cpu_cores=8, workers_cap=1, speedup_2w=0.9)
        gate = check_trajectory(baseline, fresh)
        assert gate.failures == []
        assert sum("SKIPPED" in line for line in gate.lines) == 1

    def test_multicore_regression_fails(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"]["speedup_2w"] = 1.0  # below 1.8 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("process-pool" in f for f in gate.failures)

    def test_single_core_baseline_cannot_water_down_the_target(self):
        """A baseline regenerated on a 1-core box records ~1.0; a
        multi-core fresh run must still clear the absolute target."""
        baseline = baseline_payload()
        baseline["process_pool"].update(cpu_cores=1, speedup_2w=1.0)
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"].update(cpu_cores=4, speedup_2w=1.0)
        gate = check_trajectory(baseline, fresh)
        # expected = max(1.0 baseline, 1.5 target) -> floor 1.125 > 1.0
        assert any("process-pool" in f for f in gate.failures)
        fresh["process_pool"]["speedup_2w"] = 1.6
        assert check_trajectory(baseline, fresh).failures == []

    @pytest.mark.parametrize("tolerance", [0.1, 0.25])
    def test_tolerance_applies_to_gated_ratio(self, tolerance):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"]["speedup_2w"] = 1.8 * (1 - tolerance) + 0.01
        assert check_trajectory(baseline, fresh, tolerance).failures == []
        fresh["process_pool"]["speedup_2w"] = 1.8 * (1 - tolerance) - 0.01
        assert check_trajectory(baseline, fresh, tolerance).failures != []


class TestFourWorkerGate:
    def test_absent_on_both_sides_is_not_gated(self):
        baseline = baseline_payload()
        gate = check_trajectory(baseline, copy.deepcopy(baseline))
        assert not any("4 workers" in line for line in gate.lines)

    def test_gated_when_present_and_hardware_allows(self):
        baseline = baseline_payload()
        baseline["process_pool"].update(cpu_cores=4, workers_cap=4, speedup_4w=3.0)
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"]["speedup_4w"] = 1.5  # below 3.0 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("4 workers" in f for f in gate.failures)
        fresh["process_pool"]["speedup_4w"] = 2.8
        assert check_trajectory(baseline, fresh).failures == []

    def test_two_core_fresh_run_is_recorded_not_gated(self):
        """The 4-worker point needs 4 cores, not just the generic 2."""
        baseline = baseline_payload()
        baseline["process_pool"].update(cpu_cores=4, workers_cap=4, speedup_4w=3.0)
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"].update(cpu_cores=2, speedup_4w=0.9)
        gate = check_trajectory(baseline, fresh)
        assert gate.failures == []
        assert any(
            "4 workers" in line and "SKIPPED" in line for line in gate.lines
        )


class TestDeltaSyncGates:
    def test_patch_rate_below_the_absolute_floor_fails(self):
        """0.9 is an acceptance floor, not baseline-relative: tolerance
        must not let the patch pipeline degrade toward rebuilding."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["mutate_while_serving"]["csr"]["patch_rate"] = 0.85
        gate = check_trajectory(baseline, fresh)
        assert any("patch rate" in f for f in gate.failures)
        fresh["mutate_while_serving"]["csr"]["patch_rate"] = 0.92
        assert check_trajectory(baseline, fresh).failures == []

    def test_warm_hit_rate_regression_fails(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["mutate_while_serving"]["catchup"]["warm_hit_rate"] = 0.7
        gate = check_trajectory(baseline, fresh)
        assert any("warm-hit" in f for f in gate.failures)
        fresh["mutate_while_serving"]["catchup"]["warm_hit_rate"] = 0.8
        assert check_trajectory(baseline, fresh).failures == []

    def test_reship_ratio_regression_fails_and_is_not_core_aware(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"]["cpu_cores"] = 1  # byte gates ignore cores
        fresh["mutate_while_serving"]["catchup"]["reship_ratio"] = 2000.0
        gate = check_trajectory(baseline, fresh)
        assert any("reship ratio" in f for f in gate.failures)

    def test_low_baseline_cannot_water_down_the_5x_target(self):
        baseline = baseline_payload()
        baseline["mutate_while_serving"]["catchup"]["reship_ratio"] = 1.0
        fresh = copy.deepcopy(baseline)
        fresh["mutate_while_serving"]["catchup"]["reship_ratio"] = 3.0
        gate = check_trajectory(baseline, fresh)
        assert any("reship ratio" in f for f in gate.failures)
        fresh["mutate_while_serving"]["catchup"]["reship_ratio"] = 6.0
        assert check_trajectory(baseline, fresh).failures == []


class TestCompiledMatchGate:
    def test_regression_fails_even_on_single_core(self):
        """Pure single-core CPU ratio: never skipped, like typed-expansion."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["compiled_match"]["speedup"] = 5.0  # below 11.0 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("compiled-match speedup" in f for f in gate.failures)

    def test_low_baseline_cannot_water_down_the_2x_target(self):
        baseline = baseline_payload()
        baseline["compiled_match"]["speedup"] = 1.0
        fresh = copy.deepcopy(baseline)
        fresh["compiled_match"]["speedup"] = 1.2  # below 2.0 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("compiled-match speedup" in f for f in gate.failures)
        fresh["compiled_match"]["speedup"] = 2.1
        assert check_trajectory(baseline, fresh).failures == []

    def test_rewrite_batch_gated_independently(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["compiled_match"]["rewrite_batch"]["speedup"] = 1.0
        gate = check_trajectory(baseline, fresh)
        assert any("rewrite-batch" in f for f in gate.failures)

    def test_rewrite_batch_kernel_count_has_an_absolute_ceiling(self):
        """One program per variant again (32) fails whatever the baseline
        recorded; a handful of shapes passes."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        counters = fresh["compiled_match"]["program_cache"]["rewrite_batch"]
        counters["programs_compiled"] = 32
        baseline["compiled_match"]["program_cache"]["rewrite_batch"][
            "programs_compiled"
        ] = 32  # a stale baseline cannot water the ceiling down
        gate = check_trajectory(baseline, fresh)
        assert any("kernels compiled" in f for f in gate.failures)
        for allowed in (0, 4):
            counters["programs_compiled"] = allowed
            assert check_trajectory(baseline, fresh).failures == []


class TestObservabilityGate:
    def test_below_the_absolute_floor_fails_even_on_single_core(self):
        """Tracing overhead is a pure single-core CPU ratio: the 0.9
        enabled/disabled throughput floor is never skipped."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["observability"]["enabled_ratio"] = 0.85
        gate = check_trajectory(baseline, fresh)
        assert any("tracing-enabled" in f for f in gate.failures)
        fresh["observability"]["enabled_ratio"] = 0.92
        assert check_trajectory(baseline, fresh).failures == []

    def test_low_baseline_cannot_water_down_the_floor(self):
        """0.9 is an acceptance floor: a slack committed baseline must
        not let tracing overhead creep past it within tolerance."""
        baseline = baseline_payload()
        baseline["observability"]["enabled_ratio"] = 0.5
        fresh = copy.deepcopy(baseline)
        fresh["observability"]["enabled_ratio"] = 0.88  # below the 0.9 floor
        gate = check_trajectory(baseline, fresh)
        assert any("tracing-enabled" in f for f in gate.failures)


class TestRestartWarmGate:
    def test_unmutated_below_the_absolute_floor_fails(self):
        """0.9 is an acceptance floor, not baseline-relative: a restart
        that comes back mostly cold fails even within tolerance."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["restart_warm"]["unmutated"]["warm_hit_rate"] = 0.85
        gate = check_trajectory(baseline, fresh)
        assert any("unmutated restart" in f for f in gate.failures)
        fresh["restart_warm"]["unmutated"]["warm_hit_rate"] = 0.95
        assert check_trajectory(baseline, fresh).failures == []

    def test_low_baseline_cannot_water_down_the_floor(self):
        baseline = baseline_payload()
        baseline["restart_warm"]["unmutated"]["warm_hit_rate"] = 0.5
        fresh = copy.deepcopy(baseline)
        fresh["restart_warm"]["unmutated"]["warm_hit_rate"] = 0.88
        gate = check_trajectory(baseline, fresh)
        assert any("unmutated restart" in f for f in gate.failures)

    def test_mutated_rate_is_baseline_relative_with_tolerance(self):
        """The delta-mutated rate is deliberately partial; it has no
        absolute floor, only the committed baseline within tolerance."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["restart_warm"]["mutated"]["warm_hit_rate"] = 0.8  # within 25%
        assert check_trajectory(baseline, fresh).failures == []
        fresh["restart_warm"]["mutated"]["warm_hit_rate"] = 0.5
        gate = check_trajectory(baseline, fresh)
        assert any("delta-mutated restart" in f for f in gate.failures)

    @pytest.mark.parametrize("variant", ["unmutated", "mutated"])
    def test_count_divergence_fails_exactly(self, variant):
        """Restored-vs-cold count identity is deterministic: any
        divergence is a wrong answer, never noise."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["restart_warm"][variant]["counts_identical"] = False
        gate = check_trajectory(baseline, fresh)
        assert any("DIVERGED" in f and variant in f for f in gate.failures)


class TestRewriteIdentityGate:
    """Exact work counts of deterministic passes: ceilings without
    tolerance, whatever ``--max-regression`` says."""

    COUNTERS = (
        "query_signature_builds",
        "element_signature_builds",
        "distance_evaluations",
        "path1_lookups",
    )

    @pytest.mark.parametrize("search", ["coarse", "fine"])
    @pytest.mark.parametrize("counter", COUNTERS)
    def test_one_more_call_fails(self, search, counter):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["rewrite_identity"][search][counter] += 1
        gate = check_trajectory(baseline, fresh, max_regression=0.5)
        (failure,) = gate.failures
        assert search in failure and counter.replace("_", " ") in failure

    def test_fewer_calls_and_other_candidate_counts_pass(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        for counter in self.COUNTERS:
            fresh["rewrite_identity"]["fine"][counter] -= 1
        fresh["rewrite_identity"]["coarse"]["candidates"] += 5  # recorded, not gated
        assert check_trajectory(baseline, fresh).failures == []


class TestAffinePlacementGate:
    def test_payload_ratio_gated_even_on_single_core(self):
        """Payload bytes are deterministic: a 1-core fresh run skips the
        timing gates but must still clear the payload ratio."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        for section in ("process_pool", "affine_placement"):
            fresh[section]["cpu_cores"] = 1
        fresh["affine_placement"]["payload_ratio_4s"] = 1.2
        gate = check_trajectory(baseline, fresh)
        assert any("payload ratio" in f for f in gate.failures)

    def test_payload_ratio_regression_fails(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["affine_placement"]["payload_ratio_4s"] = 2.0  # below 3.5 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("payload ratio" in f for f in gate.failures)

    def test_low_baseline_cannot_water_down_the_2x_target(self):
        """Even if a committed baseline somehow recorded < 2x, the fresh
        run must clear the absolute acceptance target."""
        baseline = baseline_payload()
        baseline["affine_placement"]["payload_ratio_4s"] = 1.0
        fresh = copy.deepcopy(baseline)
        fresh["affine_placement"]["payload_ratio_4s"] = 1.2  # below 2.0 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("payload ratio" in f for f in gate.failures)
        fresh["affine_placement"]["payload_ratio_4s"] = 2.1
        assert check_trajectory(baseline, fresh).failures == []

    def test_affine_speedup_is_core_aware(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["affine_placement"].update(cpu_cores=1, speedup_2s=0.7)
        gate = check_trajectory(baseline, fresh)
        assert gate.failures == []
        assert any(
            "affine-placement speedup" in line and "SKIPPED" in line
            for line in gate.lines
        )
        fresh["affine_placement"].update(cpu_cores=4)
        gate = check_trajectory(baseline, fresh)
        assert any("affine-placement speedup" in f for f in gate.failures)
