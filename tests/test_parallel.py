"""Tests for the parallel experiment runner and its result cache.

The contract under test: a (protocol, config, seed) triple produces an
identical :class:`RunResult` whether executed in the calling process, in
the worker pool, or replayed from the on-disk cache -- and a crashing
run annotates itself instead of killing the sweep.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro.experiments.executors import create_executor
from repro.experiments.parallel import (
    RunSpec,
    _execute_spec,
    cache_load,
    cache_store,
    execute_runs,
    sweep_specs,
    sweep_stale_cache_tmps,
    verify_parallel_consistency,
)
from repro.experiments.resilience import (
    FailureKind,
    WorkerPool,
    execute_runs_resilient,
)
from repro.experiments.results import RunResult, aggregate_runs
from repro.experiments.runner import compare_protocols
from repro.experiments.scenarios import SimulationScenarioConfig

#: Smallest config that still exercises MAC, fading, probing, and ODMRP.
TINY = SimulationScenarioConfig(
    num_nodes=8,
    area_width_m=450.0,
    area_height_m=450.0,
    num_groups=1,
    members_per_group=3,
    duration_s=12.0,
    warmup_s=4.0,
    topology_seed=1,
)


class TestRunSpec:
    def test_cache_key_is_stable_and_seed_sensitive(self):
        a1 = RunSpec("spp", TINY, 1).cache_key()
        a2 = RunSpec("spp", TINY, 1).cache_key()
        b = RunSpec("spp", TINY, 2).cache_key()
        c = RunSpec("etx", TINY, 1).cache_key()
        assert a1 == a2
        assert len({a1, b, c}) == 3

    def test_cache_key_tracks_config_fields(self):
        base = RunSpec("spp", TINY, 1).cache_key()
        tweaked = RunSpec("spp", replace(TINY, rate_pps=21.0), 1).cache_key()
        nested = RunSpec("spp", TINY.with_probing_rate(5.0), 1).cache_key()
        assert base != tweaked
        assert base != nested

    def test_cache_key_ignores_embedded_topology_seed(self):
        """The spec seed wins over whatever seed the config carries."""
        a = RunSpec("spp", replace(TINY, topology_seed=7), 3).cache_key()
        b = RunSpec("spp", replace(TINY, topology_seed=9), 3).cache_key()
        assert a == b


class TestDeterminismAcrossExecutionModes:
    """Satellite: identical RunResult serially, in a pool of 2, and from
    the warm disk cache."""

    def test_serial_pool_and_cache_agree(self, tmp_path):
        specs = sweep_specs(TINY, ("odmrp", "spp"), (1,))
        serial = execute_runs(specs, jobs=1, use_cache=False)
        pooled = execute_runs(specs, jobs=2, use_cache=True,
                              cache_dir=str(tmp_path))
        cached = execute_runs(specs, jobs=1, use_cache=True,
                              cache_dir=str(tmp_path))
        assert serial == pooled
        assert serial == cached
        assert all(run.error is None for run in serial)
        assert serial[0].delivered_packets > 0

    def test_cached_pass_does_not_recompute(self, tmp_path):
        specs = sweep_specs(TINY, ("odmrp",), (1,))
        first = execute_runs_resilient(specs, jobs=1, use_cache=True,
                                       cache_dir=str(tmp_path))
        second = execute_runs_resilient(specs, jobs=1, use_cache=True,
                                        cache_dir=str(tmp_path))
        assert not first[0].from_cache
        assert second[0].from_cache
        assert first[0].result == second[0].result

    def test_compare_protocols_parallel_matches_serial(self, tmp_path):
        serial = compare_protocols(
            TINY, protocols=("odmrp", "spp"), topology_seeds=(1, 2)
        )
        pooled = compare_protocols(
            TINY, protocols=("odmrp", "spp"), topology_seeds=(1, 2),
            jobs=2, use_cache=True, cache_dir=str(tmp_path),
        )
        assert serial == pooled

    def test_verify_helper_reports_no_divergence(self, tmp_path):
        assert verify_parallel_consistency(
            config=TINY, protocols=("odmrp", "spp"), topology_seeds=(1,),
            jobs=2, cache_dir=str(tmp_path),
        ) == []


class TestWorkerMemory:
    def test_scenario_garbage_collected_after_each_run(self):
        """A pool worker must not carry dead scenarios between runs:
        scenarios are reference cycles, so only the cyclic collector
        frees them, and ``_execute_spec`` runs it before returning."""
        from repro.net.node import Node

        result, _elapsed = _execute_spec(RunSpec("spp", TINY, 1))
        assert result.error is None
        assert not [obj for obj in gc.get_objects() if isinstance(obj, Node)]


class TestFailureContainment:
    def test_bad_spec_yields_error_annotated_result_inline(self):
        specs = [
            RunSpec("odmrp", TINY, 1),
            RunSpec("not-a-protocol", TINY, 1),
        ]
        results = execute_runs(specs, jobs=1)
        assert results[0].error is None
        assert results[1].error is not None
        assert "not-a-protocol" in results[1].error
        assert results[1].delivered_packets == 0

    def test_bad_spec_yields_error_annotated_result_in_pool(self):
        specs = [
            RunSpec("not-a-protocol", TINY, 1),
            RunSpec("odmrp", TINY, 1),
        ]
        results = execute_runs(specs, jobs=2)
        assert results[0].error is not None
        assert results[1].error is None
        assert results[1].delivered_packets > 0

    def test_errored_runs_are_never_cached(self, tmp_path):
        spec = RunSpec("not-a-protocol", TINY, 1)
        execute_runs([spec], jobs=1, use_cache=True, cache_dir=str(tmp_path))
        assert cache_load(str(tmp_path), spec) is None

    def test_aggregate_skips_errored_runs(self):
        good = RunResult(
            protocol="spp", topology_seed=1, duration_s=10.0,
            offered_packets=10, expected_deliveries=20,
            delivered_packets=10, delivered_bytes=5120,
            mean_delay_s=0.01, probe_bytes=100.0,
        )
        bad = replace(good, topology_seed=2, delivered_packets=0,
                      delivered_bytes=0, error="boom")
        aggregates = aggregate_runs([good, bad])
        assert aggregates["spp"].runs == 1
        assert aggregates["spp"].mean_delivery_ratio == pytest.approx(0.5)


class TestCachePlumbing:
    def test_round_trip_preserves_every_field(self, tmp_path):
        spec = RunSpec("spp", TINY, 1)
        result, _elapsed = _execute_spec(spec)
        cache_store(str(tmp_path), spec, result)
        loaded = cache_load(str(tmp_path), spec)
        assert loaded == result
        assert loaded.counters == result.counters

    def test_corrupt_cache_entry_is_a_miss_and_quarantined(self, tmp_path):
        spec = RunSpec("spp", TINY, 1)
        path = tmp_path / f"{spec.cache_key()}.json"
        path.write_text("{not json")
        assert cache_load(str(tmp_path), spec) is None
        # The damaged artifact is moved aside, never silently re-read.
        assert not path.exists()
        assert (tmp_path / f"{spec.cache_key()}.json.corrupt").exists()

    def test_truncated_cache_entry_recovers_on_restore(self, tmp_path):
        """Regression: a truncated artifact (torn write) must behave as
        a miss, and the slot must accept the recomputed result."""
        spec = RunSpec("spp", TINY, 1)
        result = _tiny_result(spec)
        cache_store(str(tmp_path), spec, result)
        path = tmp_path / f"{spec.cache_key()}.json"
        content = path.read_text()
        path.write_text(content[: len(content) // 2])
        assert cache_load(str(tmp_path), spec) is None
        cache_store(str(tmp_path), spec, result)
        assert cache_load(str(tmp_path), spec) == result

    @pytest.mark.parametrize("payload", [
        '"a json string, not an object"',
        '{"schema": 4, "wrong_field": 1}',
    ])
    def test_schema_mismatch_is_quarantined(self, tmp_path, payload):
        spec = RunSpec("spp", TINY, 1)
        path = tmp_path / f"{spec.cache_key()}.json"
        path.write_text(payload)
        assert cache_load(str(tmp_path), spec) is None
        assert (tmp_path / f"{spec.cache_key()}.json.corrupt").exists()

    def test_cache_store_cleans_temp_file_on_error(self, tmp_path,
                                                   monkeypatch):
        import json as json_module

        import repro.experiments.parallel as parallel_module

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(parallel_module.json, "dump", explode)
        spec = RunSpec("spp", TINY, 1)
        with pytest.raises(OSError, match="disk full"):
            cache_store(str(tmp_path), spec, _tiny_result(spec))
        monkeypatch.setattr(parallel_module.json, "dump",
                            json_module.dump)
        assert list(tmp_path.iterdir()) == []  # no orphaned temp

    def test_sweep_stale_cache_tmps(self, tmp_path):
        spec = RunSpec("spp", TINY, 1)
        cache_store(str(tmp_path), spec, _tiny_result(spec))
        entry = tmp_path / f"{spec.cache_key()}.json"
        orphan = tmp_path / f"{spec.cache_key()}.json.tmp.99999"
        orphan.write_text("{torn")
        assert sweep_stale_cache_tmps(str(tmp_path)) == 1
        assert not orphan.exists()
        assert entry.exists()  # real entries are untouched
        assert sweep_stale_cache_tmps(str(tmp_path)) == 0
        assert sweep_stale_cache_tmps(str(tmp_path / "missing")) == 0

    def test_sweep_specs_order_is_seed_major(self):
        specs = sweep_specs(TINY, ("a", "b"), (1, 2))
        assert [(s.seed, s.protocol) for s in specs] == [
            (1, "a"), (1, "b"), (2, "a"), (2, "b"),
        ]


def _tiny_result(spec: RunSpec) -> RunResult:
    return RunResult(
        protocol=spec.protocol, topology_seed=spec.seed, duration_s=1.0,
        offered_packets=10, expected_deliveries=10, delivered_packets=9,
        delivered_bytes=4608, mean_delay_s=0.01, probe_bytes=12.0,
    )


class TestCrashContainment:
    """A worker that dies outright takes down only its own run."""

    def test_crashing_worker_spares_the_rest_of_the_sweep(
        self, monkeypatch
    ):
        import os

        import repro.experiments.runner as runner_module

        specs = sweep_specs(TINY, ("odmrp",), (1, 2, 3, 4, 5, 6))
        reference = [_execute_spec(spec)[0] for spec in specs]
        real_run_protocol = runner_module.run_protocol

        def crash_on_seed_2(protocol, config):
            if config.topology_seed == 2:
                os._exit(1)
            return real_run_protocol(protocol, config)

        monkeypatch.setattr(runner_module, "run_protocol", crash_on_seed_2)
        # The default route every sweep takes: no resilience option set.
        outcomes = create_executor(None, jobs=2).execute(specs)
        for spec, outcome, expected in zip(specs, outcomes, reference):
            if spec.seed == 2:
                assert outcome.result.error.startswith("WORKER_CRASH:")
                assert outcome.failure_kind is FailureKind.WORKER_CRASH
                assert outcome.attempts == 3  # default budget: 2 retries
            else:
                assert outcome.result == expected


class TestInterruptedPoolShutdown:
    """Satellite: a KeyboardInterrupt escaping the collection loop must
    put down live workers -- no orphaned simulations grinding on after
    Ctrl-C."""

    def test_keyboard_interrupt_terminates_pool_workers(
        self, monkeypatch
    ):
        import time

        created = []
        real_spawn = WorkerPool._spawn

        def recording_spawn(pool):
            slot = real_spawn(pool)
            created.append(slot.proc)
            return slot

        monkeypatch.setattr(WorkerPool, "_spawn", recording_spawn)

        def interrupt_immediately(protocol: str, seed: int) -> None:
            raise KeyboardInterrupt

        specs = sweep_specs(TINY, ("odmrp",), (1, 2, 3, 4))
        with pytest.raises(KeyboardInterrupt):
            execute_runs_resilient(
                specs, jobs=2, progress=interrupt_immediately
            )
        assert len(created) == 2
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(
            proc.is_alive() for proc in created
        ):
            time.sleep(0.05)
        assert not any(proc.is_alive() for proc in created)
