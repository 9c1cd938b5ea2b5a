"""Tests for the pluggable sweep-executor layer.

The contract under test: backend URIs parse predictably; the default
``local-pool`` executor runs every sweep on the supervised pool,
bit-identically to the same runs in this process, and journals exactly
when a resilience knob asks for it; and the executor lifecycle (submit
once, collect after submit) fails loudly when misused.  The ``dir://``
backend's own machinery is covered in ``test_distributed.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.executors import (
    Backend,
    BackendError,
    LocalPoolExecutor,
    create_executor,
    parse_backend,
)
from repro.experiments.parallel import RunSpec, _execute_spec
from repro.experiments.resilience import ResilienceConfig
from repro.experiments.results import RunResult
from repro.experiments.scenarios import SimulationScenarioConfig

CFG = SimulationScenarioConfig(
    num_nodes=4, duration_s=1.0, warmup_s=0.1, topology_seed=1
)


def _quick_result(spec: RunSpec) -> RunResult:
    return RunResult(
        protocol=spec.protocol.lower(), topology_seed=spec.seed,
        duration_s=1.0, offered_packets=10, expected_deliveries=10,
        delivered_packets=5, delivered_bytes=5 * 512,
        mean_delay_s=0.01, probe_bytes=1.0,
    )


def ok_worker(spec):
    return _quick_result(spec), 0.01


class TestParseBackend:
    @pytest.mark.parametrize("uri", [None, "", "local-pool", "local",
                                     "pool"])
    def test_local_spellings(self, uri):
        parsed = parse_backend(uri)
        assert parsed.kind == "local-pool"
        assert parsed.root is None
        assert parsed.uri() == "local-pool"

    def test_dir_uri(self):
        parsed = parse_backend("dir:///mnt/shared/sweep")
        assert parsed.kind == "dir"
        assert parsed.root == "/mnt/shared/sweep"
        assert parsed.uri() == "dir:///mnt/shared/sweep"

    def test_dir_relative_path(self):
        parsed = parse_backend("dir://./sweepdir")
        assert parsed.root == "./sweepdir"

    def test_dir_expands_user(self):
        parsed = parse_backend("dir://~/sweeps/a")
        assert "~" not in parsed.root

    def test_dir_without_path_is_rejected(self):
        with pytest.raises(BackendError, match="shared directory"):
            parse_backend("dir://")

    def test_unknown_scheme_is_rejected(self):
        with pytest.raises(BackendError, match="unknown sweep backend"):
            parse_backend("ftp://somewhere")

    def test_backend_error_is_a_value_error(self):
        # Spec validation catches ValueError; a new exception type must
        # stay inside that contract.
        assert issubclass(BackendError, ValueError)


class TestCreateExecutorRouting:
    def test_default_is_plain_local_pool(self):
        """No knob set: the supervised pool with the default retry
        budget and no journal."""
        executor = create_executor(None, jobs=2)
        assert isinstance(executor, LocalPoolExecutor)
        assert executor.journal_path is None
        assert executor.resilience == ResilienceConfig()
        assert executor.jobs == 2

    def test_parsed_backend_object_is_accepted(self):
        executor = create_executor(Backend(kind="local-pool"))
        assert isinstance(executor, LocalPoolExecutor)

    @pytest.mark.parametrize("kwargs", [
        {"run_timeout_s": 30.0},
        {"max_retries": 1},
        {"resume": True},
        {"journal_path": "j.jsonl"},
    ])
    def test_any_resilience_knob_selects_the_supervisor(self, kwargs):
        """Every sweep is supervised; a resilience knob also selects
        the supervisor's journal."""
        executor = create_executor(None, **kwargs)
        assert isinstance(executor, LocalPoolExecutor)
        assert executor.journal_path is not None

    def test_worker_hook_writes_no_journal(self):
        executor = create_executor(None, worker_fn=ok_worker)
        assert executor.worker is ok_worker
        assert executor.journal_path is None

    def test_retry_budget_reaches_the_resilience_config(self):
        executor = create_executor(None, run_timeout_s=12.0, max_retries=5)
        assert executor.resilience.run_timeout_s == 12.0
        assert executor.resilience.retry.max_retries == 5

    def test_dir_backend_builds_dir_executor(self, tmp_path):
        from repro.experiments.distributed import DirExecutor

        executor = create_executor(
            f"dir://{tmp_path}", workers=3, lease_timeout_s=4.0,
            max_retries=1,
        )
        assert isinstance(executor, DirExecutor)
        assert executor.workers == 3
        assert executor.lease.lease_timeout_s == 4.0
        assert executor.lease.max_retries == 1

    def test_dir_workers_default_to_jobs(self, tmp_path):
        executor = create_executor(f"dir://{tmp_path}", jobs=4)
        assert executor.workers == 4


class TestLocalPoolExecutor:
    def test_pool_matches_in_process_reference(self):
        tiny = SimulationScenarioConfig(
            num_nodes=6, area_width_m=400.0, area_height_m=400.0,
            num_groups=1, members_per_group=3, duration_s=4.0,
            warmup_s=1.0, topology_seed=1,
        )
        specs = [RunSpec("odmrp", tiny, 1)]
        direct = [_execute_spec(spec)[0] for spec in specs]
        with LocalPoolExecutor(jobs=1) as executor:
            routed = executor.execute(specs)
        assert [o.result for o in routed] == direct
        assert routed[0].result.error is None

    def test_resilient_path_supervises(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        specs = [RunSpec("odmrp", CFG, 1), RunSpec("odmrp", CFG, 2)]
        executor = LocalPoolExecutor(
            jobs=2, resilience=ResilienceConfig(run_timeout_s=30.0),
            journal_path=journal, worker=ok_worker,
        )
        outcomes = executor.execute(specs)
        assert [o.result for o in outcomes] == [
            _quick_result(spec) for spec in specs
        ]
        from repro.experiments.resilience import SweepJournal

        assert len(SweepJournal.replay(journal)) == len(specs)

    def test_progress_fires_per_run(self):
        seen = []
        executor = LocalPoolExecutor(jobs=1, worker=ok_worker)
        executor.execute(
            [RunSpec("odmrp", CFG, 1), RunSpec("spp", CFG, 2)],
            progress=lambda protocol, seed: seen.append((protocol, seed)),
        )
        assert sorted(seen) == [("odmrp", 1), ("spp", 2)]

    def test_submit_twice_is_an_error(self):
        executor = LocalPoolExecutor(worker=ok_worker)
        executor.submit([RunSpec("odmrp", CFG, 1)])
        with pytest.raises(RuntimeError, match="already"):
            executor.submit([RunSpec("odmrp", CFG, 2)])

    def test_collect_before_submit_is_an_error(self):
        with pytest.raises(RuntimeError, match="before submit"):
            LocalPoolExecutor().collect()


class TestSpecBackendField:
    def test_round_trip_preserves_backend(self):
        from repro.experiments.spec import ExperimentSpec

        spec = ExperimentSpec(
            name="fleet", protocols=("odmrp",), seeds=(1,),
            backend="dir:///mnt/shared/sweep",
        )
        for text, loader in (
            (spec.to_json(), ExperimentSpec.from_json),
            (spec.to_toml(), ExperimentSpec.from_toml),
        ):
            assert loader(text).backend == "dir:///mnt/shared/sweep"

    def test_default_backend_is_omitted_on_write(self):
        from repro.experiments.spec import ExperimentSpec

        spec = ExperimentSpec(protocols=("odmrp",))
        assert "backend" not in spec.to_dict()
        # Exact TOML line check: the serialized config legitimately
        # contains ``phy_backend``, so a substring test would lie.
        assert "\nbackend = " not in spec.to_toml()

    def test_validate_rejects_bad_backend(self):
        from repro.experiments.spec import ExperimentSpec, SpecError

        with pytest.raises(SpecError, match="unknown sweep backend"):
            ExperimentSpec(
                protocols=("odmrp",), backend="ftp://x"
            ).validate()

    def test_describe_mentions_non_default_backend(self):
        from repro.experiments.spec import ExperimentSpec

        text = ExperimentSpec(
            protocols=("odmrp",), backend="dir:///tmp/s"
        ).describe()
        assert "backend=dir:///tmp/s" in text

    def test_with_overrides_sets_backend(self):
        from repro.experiments.spec import ExperimentSpec

        spec = ExperimentSpec(protocols=("odmrp",))
        assert spec.with_overrides(
            backend="dir:///tmp/s"
        ).backend == "dir:///tmp/s"
