"""The benchmark's workloads: inputs from a seed, timed passes, checks.

A workload turns ``--seed`` into a fixed list of simulation cells and
runs that list as one *pass*.  The benchmark repeats whole passes until
its time budget is spent, so every pass after the first must reproduce
the first bit for bit.  Every run goes through the simulator's public
entry points only: ``build_simulation_scenario`` /
``build_testbed_scenario``, ``.run()`` and ``collect_result`` for the
in-process workloads, and ``run_experiment`` on the paper spec for the
grid.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import sweep_specs
from repro.experiments.results import RunResult
from repro.experiments.runner import collect_result, run_experiment
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
    build_simulation_scenario,
    macro_flood_config,
)
from repro.experiments.spec import load_experiment_spec
from repro.testbed.emulator import TestbedScenarioConfig, build_testbed_scenario

from spans import Patches, Tracer, install_cache, install_layers

ROOT = Path(__file__).resolve().parent.parent
PAPER_SPEC = ROOT / "examples" / "paper_spec.toml"

#: paper_run: Section 4.1 defaults (30 s warmup) cut to 60 simulated s.
#: The topology stays fixed: topology 2 costs ~40% less host time than
#: topology 1, which would swamp any code change.
PAPER_RUN_DURATION_S = 60.0
PAPER_RUN_TOPOLOGY = 1
#: testbed: loss-walk seeds per pass and simulated seconds per run.
TESTBED_RUN_SEEDS = 3
TESTBED_DURATION_S = 200.0
#: city_flood: topologies per pass, mesh size and simulated seconds.
CITY_TOPOLOGIES = 6
CITY_NODES = 1000
CITY_DURATION_S = 20.0
#: paper_grid: the spec's grid narrowed to two fixed topologies and
#: cells just long enough to carry traffic past the spec's 30 s warmup.
GRID_SEEDS = (1, 2)
GRID_DURATION_S = 40.0
#: paper_grid: spec loads timed for setup_s (their median is reported).
GRID_SETUP_REPEATS = 9

Cell = Tuple[str, Any]  # (protocol, scenario config)


@dataclasses.dataclass
class Run:
    """One simulation run and its host-side cost."""

    result: RunResult
    setup_s: float
    run_s: float
    sim_s: float
    events: int
    phy_backend: str


@dataclasses.dataclass
class Measured:
    """Everything one benchmark invocation measured on a workload."""

    digest: str
    #: Simulated seconds per host second of each untraced pass.
    pass_rates: List[float]
    setup_samples: List[float]
    #: Runs of the first untraced pass, in input order.
    runs: List[Run]
    attempted: int
    failed: int
    problems: List[str]
    phy_backends: Dict[str, int]
    #: Set by the traced pass only: metric name -> (value, unit), and
    #: the recorded spans for the trace file.
    trace: Optional[Dict[str, Tuple[float, str]]] = None
    spans: Optional[Dict[str, Any]] = None


def sim_digest(results: Sequence[RunResult]) -> str:
    """Hash over the simulated fields of each result, in order.

    ``error`` and ``telemetry_path`` describe the host, not the
    simulation, and are left out; floats are hashed through ``repr`` (by
    ``json``), so any change in any bit of a statistic changes the digest.
    """
    digest = hashlib.sha256()
    for result in results:
        record = dataclasses.asdict(result)
        record.pop("error")
        record.pop("telemetry_path")
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def result_problems(result: RunResult, positive_pdr: bool) -> List[str]:
    """Why a finished run is not a valid measurement (empty when valid)."""
    label = f"{result.protocol}@{result.topology_seed}"
    if result.error is not None:
        return [f"{label}: run raised: {result.error.strip().splitlines()[-1]}"]
    problems = []
    if result.expected_deliveries <= 0:
        problems.append(f"{label}: no expected deliveries")
    if not 0 <= result.delivered_packets <= result.expected_deliveries:
        problems.append(
            f"{label}: delivered {result.delivered_packets} of "
            f"{result.expected_deliveries} expected"
        )
    if positive_pdr and not 0.0 < result.packet_delivery_ratio <= 1.0:
        problems.append(f"{label}: PDR {result.packet_delivery_ratio} not in (0, 1]")
    return problems


def run_cell(
    build: Callable[..., Any], protocol: str, config: Any, tracer: Optional[Tracer] = None
) -> Run:
    """Build, run and measure one scenario, in spans when ``tracer`` is set."""
    # Scenarios are reference cycles: collect the previous one first, so
    # neither its memory nor a collection of it lands in this run.
    gc.collect()
    clock = time.perf_counter
    start = clock()
    if tracer is None:
        scenario = build(protocol, config)
        built = clock()
        scenario.run()
        ran = clock()
        result = collect_result(scenario)
    else:
        tracer.open("setup.build")
        scenario = build(protocol, config)
        tracer.close()
        built = clock()
        tracer.open("sim.run")
        scenario.run()
        tracer.close()
        ran = clock()
        tracer.open("bench.collect")
        result = collect_result(scenario)
        tracer.close()
    return Run(
        result=result,
        setup_s=built - start,
        run_s=ran - built,
        sim_s=config.duration_s,
        events=scenario.network.sim.events_executed,
        phy_backend=str(scenario.network.channel.phy_backend_resolved),
    )


def traced_cells(
    build: Callable[..., Any], cells: Sequence[Cell]
) -> Tuple[List[Run], Tracer, Patches]:
    """One pass of ``cells`` with every layer wrapped, then unwrapped.

    The pass is the root span ``bench.pass``; the returned patches are
    already restored.
    """
    tracer, patches = Tracer(), Patches()
    tracer.open("bench.pass")
    try:
        install_layers(tracer, patches)
        runs = [run_cell(build, protocol, config, tracer) for protocol, config in cells]
    finally:
        patches.restore()
        tracer.close()
    return runs, tracer, patches


class Workload:
    """Base: a fixed list of in-process cells per seed."""

    name = ""
    #: Whether every run must deliver something.  Where single runs may
    #: legitimately deliver nothing, the pass as a whole must.
    positive_pdr_per_run = True

    def cells(self, seed: int) -> List[Cell]:
        raise NotImplementedError

    def build(self, protocol: str, config: Any) -> Any:
        return build_simulation_scenario(protocol, config)

    def measure(self, seed: int, seconds: float, trace: bool) -> Measured:
        cells = self.cells(seed)
        passes: List[List[Run]] = []
        pass_s: List[float] = []
        started = time.perf_counter()
        while True:
            begin = time.perf_counter()
            passes.append([run_cell(self.build, p, c) for p, c in cells])
            pass_s.append(time.perf_counter() - begin)
            elapsed = time.perf_counter() - started
            if elapsed + 0.5 * statistics.fmean(pass_s) >= seconds:
                break
        measured = self._check_passes(passes)
        measured.pass_rates = [
            sum(run.sim_s for run in runs) / sum(run.run_s for run in runs)
            for runs in passes
        ]
        measured.setup_samples = [run.setup_s for runs in passes for run in runs]
        if trace:
            runs, tracer, patches = traced_cells(self.build, cells)
            measured.attempted += len(runs)
            untraced_s = statistics.fmean(
                sum(run.setup_s + run.run_s for run in runs_) for runs_ in passes
            )
            traced_work_s = sum(run.setup_s + run.run_s for run in runs)
            measured.trace = self._trace_metrics(
                measured, runs, tracer, patches, traced_work_s / untraced_s - 1.0
            )
        return measured

    def _check_passes(self, passes: List[List[Run]]) -> Measured:
        first = passes[0]
        problems: List[str] = []
        failed = 0
        for runs in passes:
            for index, run in enumerate(runs):
                found = result_problems(run.result, self.positive_pdr_per_run)
                if run.result != first[index].result:
                    found.append(f"{run.result.protocol}: repeated run differs")
                if found:
                    failed += 1
                    problems.extend(found)
        if not self.positive_pdr_per_run:
            delivered = sum(run.result.delivered_packets for run in first)
            if delivered <= 0:
                problems.append("the pass delivered no packet at all")
        backends: Dict[str, int] = {}
        for run in first:
            backends[run.phy_backend] = backends.get(run.phy_backend, 0) + 1
        return Measured(
            digest=sim_digest([run.result for run in first]),
            pass_rates=[],
            setup_samples=[],
            runs=first,
            attempted=sum(len(runs) for runs in passes),
            failed=failed,
            problems=problems,
            phy_backends=backends,
        )

    def _trace_metrics(
        self,
        measured: Measured,
        runs: List[Run],
        tracer: Tracer,
        patches: Patches,
        overhead_frac: float,
    ) -> Dict[str, Any]:
        """Per-layer metrics of a traced pass, plus its own checks."""
        digest = sim_digest([run.result for run in runs])
        if digest != measured.digest:
            measured.problems.append(
                f"traced sim_digest {digest} != untraced {measured.digest}"
            )
        if not patches.all_restored():
            measured.problems.append("a traced entry point was not restored")
        layers = tracer.self_by_layer()
        layer_sum = sum(layers.values())
        traced_s = tracer.total_s("bench.pass")
        if abs(layer_sum - traced_s) > 1e-6 * traced_s:
            measured.problems.append(
                f"layer self times sum to {layer_sum} s, traced total is "
                f"{tracer.total_s('bench.pass')} s"
            )
        measured.spans = tracer.report()
        return layer_metrics(tracer, measured.runs, overhead_frac)


def layer_metrics(
    tracer: Tracer, runs: Sequence[Run], overhead_frac: float
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metric values, from a tracer and untraced runs."""
    spans = tracer.spans
    layers = tracer.self_by_layer()
    total = sum(layers.values())
    ledger = [name for name in spans if name.startswith("phy.ledger.")]
    fanout = tracer.self_s("phy.begin_transmission", "event.net")
    ledger_s = tracer.self_s(*ledger)
    fading_s = tracer.self_s("phy.fading", "phy.fading_batch")
    started = tracer.calls("phy.ledger.start_reception")
    delivered = sum(
        tracer.calls(name) for name in spans if name.startswith("deliver.")
    )
    probe_spans = [name for name in spans if name.startswith("deliver.probe")]
    results = [run.result for run in runs]
    control = sum(
        r.counters.get("channel.tx.join_query", 0.0)
        + r.counters.get("channel.tx.join_reply", 0.0)
        for r in results
    )
    data_delivered = sum(r.delivered_packets for r in results)
    events = sum(run.events for run in runs)
    run_s = sum(run.run_s for run in runs)
    return {
        "engine.events": (events, "count"),
        "engine.host_us_per_event": (1e6 * run_s / events, "us"),
        "engine.self_s": (layers.get("sim", 0.0), "s"),
        "phy.transmissions": (tracer.calls("phy.begin_transmission"), "count"),
        "phy.fanout_self_s": (fanout, "s"),
        "phy.ledger_calls": (sum(tracer.calls(name) for name in ledger), "count"),
        "phy.ledger_self_s": (ledger_s, "s"),
        "phy.fading_draws": (
            tracer.calls("phy.fading") + tracer.counts.get("phy.fading_draws_batched", 0),
            "count",
        ),
        "phy.fading_self_s": (fading_s, "s"),
        "phy.receptions_started": (started, "count"),
        "phy.decode_ratio": (delivered / started if started else 0.0, "ratio"),
        "phy.share": (layers.get("phy", 0.0) / total, "ratio"),
        "mac.frames": (tracer.calls("mac.enqueue"), "count"),
        "mac.medium_state_calls": (tracer.calls("mac.on_medium_state"), "count"),
        "mac.self_s": (layers.get("mac", 0.0), "s"),
        "mac.share": (layers.get("mac", 0.0) / total, "ratio"),
        "routing.rx.join_query": (tracer.calls("deliver.join_query"), "count"),
        "routing.rx.join_reply": (tracer.calls("deliver.join_reply"), "count"),
        "routing.rx.data": (tracer.calls("deliver.data"), "count"),
        "routing.self_s": (layers.get("odmrp", 0.0), "s"),
        "routing.control_per_delivered": (
            control / data_delivered if data_delivered else 0.0,
            "ratio",
        ),
        "probing.rx": (sum(tracer.calls(name) for name in probe_spans), "count"),
        "probing.self_s": (layers.get("probing", 0.0), "s"),
        "probing.bytes": (sum(r.probe_bytes for r in results), "bytes"),
        "setup.topology_s": (tracer.total_s("setup.topology"), "s"),
        "setup.finalize_s": (tracer.total_s("setup.finalize"), "s"),
        "executor.utilization": (0.0, "ratio"),
        "executor.overhead_s": (0.0, "s"),
        "cache.store_s": (0.0, "s"),
        "cache.load_s": (0.0, "s"),
        "cache.entry_bytes": (0.0, "bytes"),
        "result.counters_per_run": (
            statistics.fmean(len(r.counters) for r in results),
            "count",
        ),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }


class PaperRun(Workload):
    name = "paper_run"

    def cells(self, seed: int) -> List[Cell]:
        protocols = list(PROTOCOL_NAMES)
        random.Random(seed).shuffle(protocols)
        config = SimulationScenarioConfig(
            duration_s=PAPER_RUN_DURATION_S, topology_seed=PAPER_RUN_TOPOLOGY
        )
        return [(protocol, config) for protocol in protocols]


class Testbed(Workload):
    name = "testbed"

    def cells(self, seed: int) -> List[Cell]:
        rng = random.Random(seed)
        run_seeds = [rng.randrange(1, 2**31) for _ in range(TESTBED_RUN_SEEDS)]
        return [
            (protocol, TestbedScenarioConfig(duration_s=TESTBED_DURATION_S, run_seed=run_seed))
            for run_seed in run_seeds
            for protocol in PROTOCOL_NAMES
        ]

    def build(self, protocol: str, config: Any) -> Any:
        return build_testbed_scenario(protocol, config)


class CityFlood(Workload):
    name = "city_flood"
    #: At this scale the JOIN QUERY flood collides so often that a single
    #: topology can deliver nothing (topology seed 2 does, in 12 s and 30 s); the
    #: pass over several topologies must still deliver.
    positive_pdr_per_run = False

    def cells(self, seed: int) -> List[Cell]:
        rng = random.Random(seed)
        return [
            (
                "odmrp",
                macro_flood_config(
                    num_nodes=CITY_NODES,
                    duration_s=CITY_DURATION_S,
                    topology_seed=rng.randrange(1, 2**31),
                ),
            )
            for _ in range(CITY_TOPOLOGIES)
        ]


class PaperGrid(Workload):
    name = "paper_grid"

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir

    def plan(self, seed: int) -> Tuple[Any, List[Cell]]:
        """Load, narrow and validate the spec; returns it and its cells."""
        protocols = list(PROTOCOL_NAMES)
        random.Random(seed).shuffle(protocols)
        spec = load_experiment_spec(str(PAPER_SPEC)).with_overrides(
            protocols=protocols, seeds=GRID_SEEDS
        )
        spec = dataclasses.replace(
            spec, config=dataclasses.replace(spec.config, duration_s=GRID_DURATION_S)
        )
        spec.validate()
        cells = [
            (run_spec.protocol, run_spec.seeded_config())
            for run_spec in sweep_specs(spec.config, spec.protocols, spec.seeds)
        ]
        return spec, cells

    def cells(self, seed: int) -> List[Cell]:
        return self.plan(seed)[1]

    def grid_pass(
        self, spec: Any, tracer: Optional[Tracer] = None
    ) -> Tuple[List[RunResult], float, List[RunResult], List[int]]:
        """Cold run and warm replay in a fresh cache directory.

        Returns (results, makespan, replayed results, cache entry sizes
        in bytes).
        """
        cache_dir = self.work_dir / f"cache-{os.getpid()}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
        try:
            if tracer is not None:
                tracer.open("experiments.run_experiment")
            start = time.perf_counter()
            results = run_experiment(spec, cache_dir=str(cache_dir))
            makespan = time.perf_counter() - start
            if tracer is not None:
                tracer.close()
                tracer.open("experiments.replay")
            replayed = run_experiment(spec, cache_dir=str(cache_dir))
            if tracer is not None:
                tracer.close()
            sizes = [entry.stat().st_size for entry in cache_dir.glob("*.json")]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return results, makespan, replayed, sizes

    def measure(self, seed: int, seconds: float, trace: bool) -> Measured:
        setup_samples = []
        for _ in range(GRID_SETUP_REPEATS):
            start = time.perf_counter()
            spec, cells = self.plan(seed)
            setup_samples.append(time.perf_counter() - start)
        problems: List[str] = []
        grid_results: List[List[RunResult]] = []
        makespans: List[float] = []
        started = time.perf_counter()
        while True:
            gc.collect()
            results, makespan, replayed, sizes = self.grid_pass(spec)
            grid_results.append(results)
            makespans.append(makespan)
            if replayed != results:
                problems.append("warm cache replay differs from the cold run")
            if len(sizes) != len(cells):
                problems.append(f"{len(sizes)} cache entries for {len(cells)} cells")
            elapsed = time.perf_counter() - started
            if elapsed + 0.5 * statistics.fmean(makespans) >= seconds:
                break
        # The same cells in this process are the reference the pool's
        # results must equal.
        reference = [run_cell(self.build, p, c) for p, c in cells]
        measured = self._check_passes([reference])
        measured.problems[:0] = problems
        for results in grid_results:
            for index, result in enumerate(results):
                found = result_problems(result, True)
                if result != reference[index].result:
                    found.append(f"{result.protocol}@{result.topology_seed}: pool != in-process")
                if found:
                    measured.failed += 1
                    measured.problems.extend(found)
        measured.attempted += sum(len(results) for results in grid_results)
        sim_s = sum(config.duration_s for _p, config in cells)
        measured.pass_rates = [sim_s / makespan for makespan in makespans]
        measured.setup_samples = setup_samples
        if trace:
            measured.trace = self._traced(spec, cells, measured, reference)
        return measured

    def _traced(
        self, spec: Any, cells: List[Cell], measured: Measured, reference: List[Run]
    ) -> Dict[str, Any]:
        cache_tracer, cache_patches = Tracer(), Patches()
        install_cache(cache_tracer, cache_patches)
        try:
            results, makespan, _replayed, sizes = self.grid_pass(spec, cache_tracer)
        finally:
            cache_patches.restore()
        if results != [run.result for run in reference]:
            measured.problems.append("pool results with traced cache calls differ")
        measured.attempted += len(results)
        runs, tracer, patches = traced_cells(self.build, cells)
        measured.attempted += len(runs)
        untraced_s = sum(run.setup_s + run.run_s for run in reference)
        traced_work_s = sum(run.setup_s + run.run_s for run in runs)
        metrics = self._trace_metrics(
            measured, runs, tracer, patches, traced_work_s / untraced_s - 1.0
        )
        if not cache_patches.all_restored():
            measured.problems.append("a traced cache call was not restored")
        # jobs = 0 in the spec means one worker per CPU.
        jobs = min(spec.jobs if spec.jobs > 0 else (os.cpu_count() or 1), len(cells))
        metrics["executor.utilization"] = (untraced_s / (jobs * makespan), "ratio")
        metrics["executor.overhead_s"] = (makespan - untraced_s / jobs, "s")
        metrics["cache.store_s"] = (cache_tracer.total_s("experiments.cache_store"), "s")
        metrics["cache.load_s"] = (cache_tracer.total_s("experiments.cache_load"), "s")
        metrics["cache.entry_bytes"] = (statistics.fmean(sizes), "bytes")
        measured.spans = {"cells": measured.spans, "grid": cache_tracer.report()}
        return metrics


def workloads(work_dir: Path) -> Dict[str, Workload]:
    return {
        workload.name: workload
        for workload in (PaperRun(), Testbed(), PaperGrid(work_dir), CityFlood())
    }
