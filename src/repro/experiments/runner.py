"""Run protocol variants across topologies and collect results.

Environment knobs (read by the benchmark suite, not by this module) allow
paper-scale runs; the functions here are pure: everything comes in via the
config object.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence

from repro.experiments.results import RunResult
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenario,
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.protocols import protocol_by_name
from repro.telemetry.export import trace_filename, write_trace
from repro.telemetry.manifest import build_manifest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec -> here)
    from repro.experiments.spec import ExperimentSpec

ProgressCallback = Callable[[str, int], None]


def run_protocol(
    protocol_name: str,
    config: Optional[SimulationScenarioConfig] = None,
) -> RunResult:
    """Build, run, and measure one protocol on one topology.

    When the config enables telemetry, the run's JSONL artifact is
    written before results are collected, so even a sweep that dies
    downstream leaves its traces behind.
    """
    scenario = build_simulation_scenario(protocol_name, config)
    start = time.perf_counter()
    scenario.run()
    wall_time_s = time.perf_counter() - start
    telemetry_path = export_run_telemetry(scenario, wall_time_s)
    return collect_result(scenario, telemetry_path=telemetry_path)


def telemetry_export_dir(config: SimulationScenarioConfig) -> str:
    """Where this config's telemetry artifacts land.

    Explicit ``TelemetryConfig.export_dir`` wins; the default is a
    ``telemetry/`` directory next to the cached run results, so one
    sweep's artifacts and cache entries travel together.
    """
    if config.telemetry.export_dir:
        return config.telemetry.export_dir
    from repro.experiments.parallel import resolve_cache_dir

    return os.path.join(resolve_cache_dir(None), "telemetry")


def export_run_telemetry(
    scenario: SimulationScenario, wall_time_s: float
) -> Optional[str]:
    """Write one finished run's manifest + instruments; returns the path."""
    hub = scenario.telemetry
    if hub is None:
        return None
    config = scenario.config
    extra = {
        "num_nodes": config.num_nodes,
        "samples_taken": hub.samples_taken,
        "offered_packets": scenario.offered_packets(),
    }
    attempt = os.environ.get("REPRO_RUN_ATTEMPT")  # resilience.ATTEMPT_ENV
    if attempt is not None:
        # Retry provenance under the supervised pool: attempt 0 is
        # the first dispatch, >0 means this artifact came from a retry.
        try:
            extra["attempt"] = int(attempt)
        except ValueError:
            pass
    # Fleet provenance under the dir:// backend: which worker executed
    # the run, against which shared sweep (distributed.WORKER_ID_ENV /
    # BACKEND_ENV, inherited by the drain's pool worker).
    worker_id = os.environ.get("REPRO_WORKER_ID")
    if worker_id:
        extra["worker_id"] = worker_id
    backend = os.environ.get("REPRO_SWEEP_BACKEND")
    if backend:
        extra["backend"] = backend
    if scenario.spec is not None:
        # Provenance for sweep tooling: which registry binding ran.
        extra["protocol_spec"] = scenario.spec.to_record()
    manifest = build_manifest(
        scenario.protocol_name,
        config,
        seed=config.topology_seed,
        wall_time_s=wall_time_s,
        sim_duration_s=config.duration_s,
        events_executed=scenario.network.sim.events_executed,
        family=scenario.spec.family if scenario.spec is not None else "",
        metric=scenario.spec.metric if scenario.spec is not None else None,
        extra=extra,
    )
    path = os.path.join(telemetry_export_dir(config), trace_filename(manifest))
    return write_trace(path, hub, manifest)


def collect_result(
    scenario: SimulationScenario, telemetry_path: Optional[str] = None
) -> RunResult:
    """Extract a :class:`RunResult` from a finished scenario."""
    probe_bytes = (
        scenario.probing.probe_bytes_sent()
        if scenario.probing is not None
        else 0.0
    )
    interesting_prefixes = (
        "odmrp.", "phy.", "tx.", "channel.", "mobility.", "energy.",
    )
    counters = {}
    for node in scenario.network.nodes:
        for name, value in node.counters.as_dict().items():
            if name.startswith(interesting_prefixes):
                counters[name] = counters.get(name, 0.0) + value
    for name, value in scenario.network.channel.counters.as_dict().items():
        counters[name] = counters.get(name, 0.0) + value
    faults = getattr(scenario.config, "faults", None)
    if faults is not None and not faults.is_empty():
        # Make faulty runs self-describing: the injected-downtime
        # budget rides in the result counters, so reports (and cached
        # or journal-replayed runs) can itemize fault severity without
        # access to the original plan object.  Testbed configs carry
        # no fault plan at all, hence the getattr guard.
        summary = faults.severity_summary()
        counters["faults.injected_downtime_s"] = summary["total_downtime_s"]
        counters["faults.nodes_affected"] = summary["nodes_affected"]
        counters["faults.windows"] = summary["windows"]
    sink = scenario.sink
    seed = getattr(
        scenario.config, "topology_seed", None
    )
    if seed is None:
        seed = getattr(scenario.config, "run_seed", 0)
    return RunResult(
        protocol=scenario.protocol_name,
        topology_seed=seed,
        duration_s=scenario.config.duration_s,
        offered_packets=scenario.offered_packets(),
        expected_deliveries=scenario.expected_deliveries(),
        delivered_packets=sink.total_packets,
        delivered_bytes=sink.total_bytes,
        mean_delay_s=sink.mean_delay_s(),
        probe_bytes=probe_bytes,
        counters=counters,
        telemetry_path=telemetry_path,
    )


def compare_protocols(
    config: Optional[SimulationScenarioConfig] = None,
    protocols: Sequence[str] = PROTOCOL_NAMES,
    topology_seeds: Iterable[int] = (1,),
    progress: Optional[ProgressCallback] = None,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: Optional[str] = None,
    run_timeout_s: Optional[float] = None,
    max_retries: Optional[int] = None,
    resume: bool = False,
    journal_path: Optional[str] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> List[RunResult]:
    """The paper's comparison loop: every protocol on every topology.

    Execution routes through the pluggable executor layer
    (:mod:`repro.experiments.executors`).  The default ``local-pool``
    backend runs the (protocol, seed) grid on ``jobs`` supervised
    worker processes (``jobs<=0`` means one per CPU, ``jobs=1`` one
    worker; see :mod:`repro.experiments.resilience`); every run is
    seed-deterministic, so the returned list is identical to a serial
    loop in both order and content.  ``use_cache`` replays unchanged
    runs from the on-disk result cache (see
    :mod:`repro.experiments.parallel` for the key and its invalidation
    rule).

    A run that raises comes back as an error-annotated
    :class:`RunResult` (``result.error`` holds the traceback) rather
    than aborting the sweep, and a worker that crashes takes down only
    its own run, which is retried in a fresh worker (``max_retries``,
    default 2) before it is quarantined.  ``run_timeout_s`` adds a
    per-run wall-clock deadline.  Setting any of ``run_timeout_s`` /
    ``max_retries`` / ``resume`` / ``journal_path`` also journals
    finished runs, and ``resume=True`` replays previously completed
    runs instead of re-simulating them.

    ``backend="dir://<shared-dir>"`` selects the distributed executor
    (:mod:`repro.experiments.distributed`): the sweep is published into
    the shared directory, ``workers`` local worker processes (plus any
    external ``repro worker`` processes pointed at the same URI) drain
    it via lease claims, and results aggregate incrementally as journal
    records land.  Results stay bit-identical across all backends.
    """
    if config is None:
        config = SimulationScenarioConfig()
    # Resolve every name up front: a typo'd protocol fails here with the
    # registry's valid-name listing instead of deep inside a worker.
    for name in protocols:
        protocol_by_name(name)

    from repro.experiments.executors import create_executor
    from repro.experiments.parallel import sweep_specs

    specs = sweep_specs(config, tuple(protocols), tuple(topology_seeds))
    executor = create_executor(
        backend,
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        run_timeout_s=run_timeout_s,
        max_retries=max_retries,
        resume=resume,
        journal_path=journal_path,
        workers=workers,
    )
    outcomes = executor.execute(specs, progress=progress)
    return [outcome.result for outcome in outcomes]


def run_experiment(
    spec: "ExperimentSpec",
    progress: Optional[ProgressCallback] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    journal_path: Optional[str] = None,
    workers: Optional[int] = None,
) -> List[RunResult]:
    """Execute a declarative :class:`~repro.experiments.spec.ExperimentSpec`.

    The spec is validated (every protocol resolved through the registry)
    before any simulation starts; execution then flows through the same
    :func:`compare_protocols` path as programmatic sweeps, so parallel
    fan-out, the result cache, and telemetry export all apply.  Specs
    that set ``run_timeout_s`` / ``max_retries`` -- or callers passing
    ``resume=True`` -- also journal their runs (see
    :mod:`repro.experiments.resilience`).

    A spec with ``mobility_models`` runs the protocols x seeds grid once
    per listed model (``config.mobility.model`` replaced per cell) and
    relabels each result ``protocol@model``, so reports and result files
    keep the cells apart.  Run caching stays sound: per-model configs
    hash to distinct cache keys, and the shared journal (``resume``)
    records per-run spec keys, so sub-sweeps can share one journal.
    """
    import dataclasses as _dc

    spec.validate()

    def _execute(config, label_suffix: str) -> List[RunResult]:
        results = compare_protocols(
            config,
            protocols=spec.protocols,
            topology_seeds=spec.seeds,
            progress=progress,
            jobs=spec.jobs,
            use_cache=spec.use_cache,
            cache_dir=cache_dir,
            run_timeout_s=spec.run_timeout_s,
            max_retries=spec.max_retries,
            resume=resume,
            journal_path=journal_path,
            backend=spec.backend,
            workers=workers,
        )
        if not label_suffix:
            return results
        return [
            _dc.replace(result, protocol=f"{result.protocol}{label_suffix}")
            for result in results
        ]

    if not spec.mobility_models:
        return _execute(spec.config, "")
    all_results: List[RunResult] = []
    for model in spec.mobility_models:
        config = _dc.replace(
            spec.config,
            mobility=_dc.replace(spec.config.mobility, model=model),
        )
        all_results.extend(_execute(config, f"@{model}"))
    return all_results
