"""Performance-trajectory benchmark: engine micro + sweep meso.

Unlike the figure benches (which validate *numbers* against the paper),
this file tracks how fast the simulator itself is, so perf work in later
PRs has a recorded trajectory to compare against.  It measures:

* **engine micro** -- raw event churn through ``Simulator.run()`` with
  trivial callbacks: pure engine overhead, in events/second.
* **sweep meso** -- a fixed-seed multi-protocol sweep executed serially
  and through the parallel runner (``jobs=2``), asserting the two
  produce *bit-identical* ``RunResult`` lists before timing them.
* **phy micro** -- one dense-mesh run under the scalar and the
  vectorized reception backends, asserting bit-identical results and
  timing both (``scripts/bench_check.py`` gates on this row).
* **macro flood** -- a 2,000-node JOIN QUERY flood at paper density:
  the workload the spatial grid index and vectorized PHY exist for.
* **mobility flood** -- the same flood at 500 nodes with every node in
  random-waypoint motion: tracks the incremental topology-invalidation
  pipeline's per-tick cost.

Results land in ``BENCH_perf.json`` at the repo root: events/sec,
wall-clock per run, and the parallel speedup.  Speedup tracks the
host's core count; on a single-core box a pool cannot beat serial, so
the sweep row records ``cpu_count`` and replaces the speedup with an
explanatory note rather than reading as a parallel regression (the
identity assertion, not the speedup, is the correctness gate).

Run via pytest (``pytest benchmarks/bench_perf_engine.py -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_perf_engine.py``).
Scale knobs: ``REPRO_PERF_EVENTS`` (micro events), ``REPRO_PERF_SEEDS``
(meso seeds), ``REPRO_JOBS`` (meso pool size), ``REPRO_MACRO_NODES``
(macro flood mesh size), ``REPRO_MOBILITY_NODES`` (mobility flood mesh
size).
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from typing import Dict, List, Tuple

from repro.experiments.executors import create_executor
from repro.experiments.parallel import _execute_spec, sweep_specs
from repro.experiments.results import RunResult
from repro.experiments.runner import run_protocol
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
    macro_flood_config,
)
from repro.sim.engine import Simulator

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")

#: Small but protocol-complete scenario: all six variants finish in
#: seconds per run while still exercising MAC, fading, and probing paths.
MESO_CONFIG = SimulationScenarioConfig(
    num_nodes=16,
    area_width_m=700.0,
    area_height_m=700.0,
    num_groups=1,
    members_per_group=3,
    duration_s=25.0,
    warmup_s=8.0,
)

#: Dense mid-size mesh for the scalar-vs-vectorized micro comparison:
#: 8x the paper's node density, so each transmission batches a few
#: hundred audible receivers -- the regime the numpy path targets.
PHY_MICRO_CONFIG = SimulationScenarioConfig(
    num_nodes=400,
    area_width_m=1000.0,
    area_height_m=1000.0,
    num_groups=1,
    members_per_group=8,
    rate_pps=10.0,
    duration_s=4.0,
    warmup_s=1.0,
)


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def engine_events_per_sec(n_events: int) -> float:
    """Event churn through a self-rescheduling callback chain."""
    sim = Simulator(seed=1)
    remaining = [n_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, tick)

    for i in range(100):
        sim.schedule(0.001 * (i + 1), tick)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    # The 100 seeded chains overshoot slightly (in-flight events drain
    # after the target is hit); rate over what actually executed.
    assert sim.events_executed >= n_events
    return sim.events_executed / elapsed


def _write_report(section: str, payload: Dict) -> None:
    """Merge one section into BENCH_perf.json (sections run independently)."""
    report: Dict = {}
    try:
        with open(BENCH_PATH, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        pass
    report["python"] = platform.python_version()
    report["cpu_count"] = os.cpu_count()
    report[section] = payload
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def bench_engine_micro() -> None:
    """Record serial engine event throughput."""
    n_events = _env_int("REPRO_PERF_EVENTS", 200_000)
    rates = [engine_events_per_sec(n_events) for _ in range(3)]
    best = max(rates)
    _write_report("engine_micro", {
        "events": n_events,
        "events_per_sec_best": round(best),
        "events_per_sec_all": [round(rate) for rate in rates],
    })
    print(f"\nengine micro: {best:,.0f} events/s (best of {len(rates)})")
    assert best > 0


def bench_sweep_parallel_vs_serial() -> None:
    """Time the sweep both ways; identity first, speedup second."""
    seeds = tuple(range(1, _env_int("REPRO_PERF_SEEDS", 2) + 1))
    jobs = _env_int("REPRO_JOBS", 2) or (os.cpu_count() or 1)
    specs = sweep_specs(MESO_CONFIG, PROTOCOL_NAMES, seeds)

    # The serial row runs in this process, so the pool is checked
    # against code that does not go through it.
    start = time.perf_counter()
    serial = [_execute_spec(spec)[0] for spec in specs]
    wall_serial = time.perf_counter() - start

    start = time.perf_counter()
    pooled = [
        outcome.result
        for outcome in create_executor(jobs=jobs).execute(specs)
    ]
    wall_parallel = time.perf_counter() - start

    # The gate: parallel execution must not change a single bit of any
    # result.  Dataclass equality covers every field including counters.
    mismatches: List[str] = [
        f"{spec.protocol}/seed={spec.seed}"
        for spec, a, b in zip(specs, serial, pooled)
        if a != b
    ]
    assert not mismatches, f"parallel results diverged: {mismatches}"
    assert all(run.error is None for run in pooled)

    cpu_count = os.cpu_count() or 1
    payload = {
        "runs": len(specs),
        "protocols": list(PROTOCOL_NAMES),
        "seeds": list(seeds),
        "jobs": jobs,
        "cpu_count": cpu_count,
        "wall_serial_s": round(wall_serial, 3),
        "wall_parallel_s": round(wall_parallel, 3),
        "wall_per_run_serial_s": round(wall_serial / len(specs), 3),
        "results_identical": True,
    }
    if cpu_count < 2:
        # A pool on one core just time-slices it; publishing a sub-1.0
        # "speedup" would read as a parallel regression.  Record why
        # the comparison is meaningless instead of the number.
        payload["speedup_vs_serial"] = None
        payload["speedup_note"] = (
            f"skipped: host has {cpu_count} CPU(s); a worker pool "
            "cannot beat serial on a single core"
        )
        speedup_text = "skipped (single-core host)"
    else:
        speedup = wall_serial / wall_parallel if wall_parallel > 0 else 0.0
        payload["speedup_vs_serial"] = round(speedup, 3)
        speedup_text = f"speedup {speedup:.2f}x"
    _write_report("sweep_meso", payload)
    print(
        f"\nsweep meso: {len(specs)} runs, serial {wall_serial:.1f}s, "
        f"jobs={jobs} {wall_parallel:.1f}s, {speedup_text} "
        f"(identical results)"
    )


def bench_distributed_drain() -> None:
    """Time a dir:// sweep drained by 1 worker vs N; identity first.

    The distributed backend adds supervision, lease, and journal
    overhead per run, so the interesting numbers are the N-worker
    speedup over the 1-worker drain (queue scaling) and the identity
    gate against the plain serial pool (correctness).
    """
    import tempfile

    from repro.experiments.distributed import DirExecutor, LeaseConfig

    workers = _env_int("REPRO_DIST_WORKERS", 2) or (os.cpu_count() or 1)
    seeds = tuple(range(1, _env_int("REPRO_PERF_SEEDS", 2) + 1))
    specs = sweep_specs(MESO_CONFIG, ("odmrp", "spp"), seeds)
    lease = LeaseConfig(lease_timeout_s=60.0, heartbeat_interval_s=1.0,
                        poll_interval_s=0.1)
    serial = [_execute_spec(spec)[0] for spec in specs]

    def drain(n_workers: int) -> Tuple[float, List[RunResult]]:
        with tempfile.TemporaryDirectory(prefix="repro-bench-dir-") as tmp:
            start = time.perf_counter()
            outcomes = DirExecutor(
                os.path.join(tmp, "shared"), workers=n_workers,
                lease=lease, use_cache=False,
            ).execute(specs)
            return time.perf_counter() - start, [
                outcome.result for outcome in outcomes
            ]

    wall_one, results_one = drain(1)
    wall_fleet, results_fleet = drain(workers)

    # The gate: a fleet drain must not change a single bit of any run.
    assert results_one == serial, "1-worker dir:// drain diverged"
    assert results_fleet == serial, f"{workers}-worker dir:// drain diverged"
    assert all(run.error is None for run in results_fleet)

    cpu_count = os.cpu_count() or 1
    payload = {
        "runs": len(specs),
        "protocols": ["odmrp", "spp"],
        "seeds": list(seeds),
        "workers": workers,
        "cpu_count": cpu_count,
        "wall_one_worker_s": round(wall_one, 3),
        "wall_fleet_s": round(wall_fleet, 3),
        "results_identical": True,
    }
    if cpu_count < 2:
        payload["speedup_vs_one_worker"] = None
        payload["speedup_note"] = (
            f"skipped: host has {cpu_count} CPU(s); extra workers "
            "cannot beat one worker on a single core"
        )
        speedup_text = "skipped (single-core host)"
    else:
        speedup = wall_one / wall_fleet if wall_fleet > 0 else 0.0
        payload["speedup_vs_one_worker"] = round(speedup, 3)
        speedup_text = f"speedup {speedup:.2f}x"
    _write_report("distributed_sweep", payload)
    print(
        f"\ndistributed drain: {len(specs)} runs, 1 worker "
        f"{wall_one:.1f}s, {workers} workers {wall_fleet:.1f}s, "
        f"{speedup_text} (identical results)"
    )


def phy_backend_micro() -> Tuple[float, float, RunResult, RunResult]:
    """Time one dense-mesh run per reception backend.

    Returns ``(wall_scalar_s, wall_vectorized_s, result_scalar,
    result_vectorized)``; callers assert identity and gate on the walls
    (``scripts/bench_check.py`` does both).
    """
    walls: Dict[str, float] = {}
    results: Dict[str, RunResult] = {}
    # Vectorized first so the scalar pass cannot look better purely by
    # running on a warmed-up allocator.
    for backend in ("vectorized", "scalar"):
        config = dataclasses.replace(
            PHY_MICRO_CONFIG,
            network=dataclasses.replace(
                PHY_MICRO_CONFIG.network, phy_backend=backend
            ),
        )
        start = time.perf_counter()
        results[backend] = run_protocol("odmrp", config)
        walls[backend] = time.perf_counter() - start
    return (
        walls["scalar"],
        walls["vectorized"],
        results["scalar"],
        results["vectorized"],
    )


def bench_phy_backends() -> None:
    """Record the scalar-vs-vectorized micro row (identity first)."""
    wall_scalar, wall_vectorized, scalar, vectorized = phy_backend_micro()
    assert scalar == vectorized, (
        "scalar and vectorized backends produced different results"
    )
    assert scalar.error is None, scalar.error
    speedup = wall_scalar / wall_vectorized if wall_vectorized > 0 else 0.0
    _write_report("phy_micro", {
        "num_nodes": PHY_MICRO_CONFIG.num_nodes,
        "duration_s": PHY_MICRO_CONFIG.duration_s,
        "protocol": "odmrp",
        "wall_scalar_s": round(wall_scalar, 3),
        "wall_vectorized_s": round(wall_vectorized, 3),
        "vectorized_speedup": round(speedup, 3),
        "results_identical": True,
    })
    print(
        f"\nphy micro: {PHY_MICRO_CONFIG.num_nodes} nodes, scalar "
        f"{wall_scalar:.2f}s, vectorized {wall_vectorized:.2f}s, "
        f"{speedup:.2f}x (identical results)"
    )


def bench_macro_flood() -> None:
    """Record the city-scale flood row: the engine's new top end."""
    num_nodes = _env_int("REPRO_MACRO_NODES", 2000)
    config = macro_flood_config(
        num_nodes=num_nodes, duration_s=4.0, warmup_s=0.5,
        members_per_group=10, rate_pps=2.0,
    )
    start = time.perf_counter()
    result = run_protocol("odmrp", config)
    wall = time.perf_counter() - start
    assert result.error is None, result.error
    queries = result.counters.get("channel.tx.join_query", 0.0)
    assert queries > 0, "flood produced no JOIN QUERY transmissions"
    _write_report("macro_flood", {
        "num_nodes": num_nodes,
        "area_side_m": round(config.area_width_m, 1),
        "duration_s": config.duration_s,
        "protocol": "odmrp",
        "wall_s": round(wall, 3),
        "sim_seconds_per_wall_second": round(config.duration_s / wall, 3)
        if wall > 0 else None,
        "join_query_tx": queries,
        "phy_backend": "auto",
    })
    print(
        f"\nmacro flood: {num_nodes} nodes, {config.duration_s:.0f} sim-s "
        f"in {wall:.1f}s wall ({queries:.0f} JOIN QUERY tx)"
    )


def bench_mobility_flood() -> None:
    """Record the moving-mesh row: 500 nodes under random-waypoint.

    Times the same flood workload as the macro row, but with every node
    in motion -- each mobility tick pays the incremental topology
    pipeline (O(1) grid re-buckets, one pruned audibility re-derivation,
    vectorized fading-state migration), so this row tracks the cost of
    dynamics on top of raw event churn.
    """
    from repro.mobility.config import MobilitySpec

    num_nodes = _env_int("REPRO_MOBILITY_NODES", 500)
    config = dataclasses.replace(
        macro_flood_config(
            num_nodes=num_nodes, duration_s=6.0, warmup_s=0.5,
            members_per_group=10, rate_pps=2.0,
        ),
        mobility=MobilitySpec(
            model="random-waypoint",
            update_interval_s=1.0,
            speed_min_mps=1.0,
            speed_max_mps=20.0,
        ),
    )
    start = time.perf_counter()
    result = run_protocol("odmrp", config)
    wall = time.perf_counter() - start
    assert result.error is None, result.error
    moves = result.counters.get("mobility.moves", 0.0)
    assert moves > 0, "mobility flood produced no moves"
    _write_report("mobility_flood", {
        "num_nodes": num_nodes,
        "area_side_m": round(config.area_width_m, 1),
        "duration_s": config.duration_s,
        "protocol": "odmrp",
        "mobility_model": "random-waypoint",
        "update_interval_s": config.mobility.update_interval_s,
        "wall_s": round(wall, 3),
        "sim_seconds_per_wall_second": round(config.duration_s / wall, 3)
        if wall > 0 else None,
        "position_updates": moves,
        "distance_travelled_m": round(
            result.counters.get("mobility.distance_m", 0.0), 1
        ),
        "phy_backend": "auto",
    })
    print(
        f"\nmobility flood: {num_nodes} nodes moving, "
        f"{config.duration_s:.0f} sim-s in {wall:.1f}s wall "
        f"({moves:.0f} position updates)"
    )


if __name__ == "__main__":
    import sys

    bench_engine_micro()
    bench_sweep_parallel_vs_serial()
    bench_distributed_drain()
    bench_phy_backends()
    bench_macro_flood()
    bench_mobility_flood()
    print(f"wrote {os.path.normpath(BENCH_PATH)}")
    sys.exit(0)
