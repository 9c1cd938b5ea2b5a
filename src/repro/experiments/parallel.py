"""Parallel experiment execution with an on-disk result cache.

The paper's sweeps (6 protocol variants x 10 topology seeds, Section 4)
are embarrassingly parallel: every run is fully determined by its
``(protocol, config, seed)`` triple and shares no state with any other
run.  This module fans such run specs out across a
:class:`concurrent.futures.ProcessPoolExecutor` -- the scenario is built
*inside* the worker so only the small, picklable spec crosses the process
boundary -- and collects results in submission order, so a parallel sweep
returns the exact list the serial loop would.

Determinism is inherited, not re-engineered: every RNG stream in a run is
derived from the spec's seeds (see :mod:`repro.sim.rng`), so a run
produces a bit-identical :class:`RunResult` whether it executes inline,
in a pool worker, or is replayed from the cache.  ``benchmarks/
bench_perf_engine.py`` and ``scripts/bench_check.py`` assert this.

Failure containment: a worker that raises inside a run returns an
*error-annotated* result (``RunResult.error`` holds the traceback and all
measurements are zeroed) instead of killing the sweep; a worker process
that dies outright (segfault, OOM kill) is caught via the broken-pool
exception and annotated the same way.  :func:`repro.experiments.results.
aggregate_runs` skips errored runs.

Caching: results are stored one JSON file per run under ``cache_dir``,
keyed by a SHA-256 over the canonicalized ``(protocol, config fields,
seed)`` triple plus a schema version.  Editing a config field therefore
only invalidates the runs whose behaviour it changes.  The key does NOT
hash the simulator source: after changing model *code*, clear the cache
(delete the directory or pass ``use_cache=False`` / ``--no-cache``).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - cycle guard (resilience -> here)
    from repro.experiments.resilience import FailureKind

from repro.experiments.results import RunResult
from repro.experiments.scenarios import SimulationScenarioConfig
from repro.telemetry.manifest import canonicalize

#: Bump when the RunResult schema or run semantics change, so stale cache
#: entries from older code versions can never be returned.
#: v2: configs gained a ``telemetry`` section and results a
#: ``telemetry_path`` field.
#: v3: protocol names resolve through the protocol registry (router x
#: metric specs; MAODV/WCETT entries joined the namespace) and probing
#: configs gained WCETT pair sizes.
#: v4: scenario configs gained `faults` (declarative outage/flapping
#: plans) and `validation` (invariant monitors) sections.
#: v5: network configs gained `phy_backend` (vectorized PHY reception).
#: v6: scenario configs gained `mobility`, `obstacles`, and `energy`
#: sections (dynamic networks).
#: v7: faulty runs record `faults.*` severity counters in results, and
#: plans that silence a source for the whole traffic interval are
#: rejected instead of reporting zero delivery.
CACHE_SCHEMA_VERSION = 7

#: Default on-disk cache location (override with $REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = os.path.join(".repro_cache", "runs")

ProgressCallback = Callable[[str, int], None]


@dataclass
class RunSpec:
    """Everything a worker needs to reproduce one run, picklable."""

    protocol: str
    config: SimulationScenarioConfig
    seed: int

    def seeded_config(self) -> SimulationScenarioConfig:
        return dataclasses.replace(self.config, topology_seed=self.seed)

    def cache_key(self) -> str:
        """Content hash over (protocol, config fields, seed)."""
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "protocol": self.protocol.lower(),
            "seed": self.seed,
            "config": canonicalize(self.seeded_config()),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RunOutcome:
    """One executed (or cached, or failed) run with its bookkeeping."""

    spec: RunSpec
    result: RunResult
    elapsed_s: float
    from_cache: bool
    #: How many times the run was dispatched (>1 only under the
    #: resilient executor's retry policy).
    attempts: int = 1
    #: Taxonomy classification when the run was quarantined by the
    #: resilient executor; None for successes and plain-executor runs.
    failure_kind: Optional["FailureKind"] = None
    #: True when the result was replayed from the sweep journal by a
    #: ``--resume`` pass instead of being executed or cache-loaded.
    from_journal: bool = False

    @property
    def failed(self) -> bool:
        return self.result.error is not None


def _error_result(spec: RunSpec, error: str) -> RunResult:
    """A zeroed, error-annotated placeholder for a crashed run."""
    return RunResult(
        protocol=spec.protocol.lower(),
        topology_seed=spec.seed,
        duration_s=spec.config.duration_s,
        offered_packets=0,
        expected_deliveries=0,
        delivered_packets=0,
        delivered_bytes=0,
        mean_delay_s=None,
        probe_bytes=0.0,
        counters={},
        error=error,
    )


def _execute_spec(spec: RunSpec) -> tuple:
    """Worker entry point: build, run, and measure one scenario.

    Runs inside the pool process (or inline for ``jobs=1``).  Exceptions
    are converted to error-annotated results here so a bad run reports
    itself instead of poisoning the whole sweep.  Returns
    ``(result, elapsed_s)``.
    """
    # Imported here so the worker does the heavy imports, not the parent.
    from repro.experiments.runner import run_protocol

    start = time.perf_counter()
    try:
        result = run_protocol(spec.protocol, spec.seeded_config())
    except Exception:  # noqa: BLE001 - annotate *any* model failure
        result = _error_result(spec, traceback.format_exc())
    elapsed = time.perf_counter() - start
    # A scenario is a web of reference cycles that outlives the run
    # until the cyclic collector happens by; a long-lived pool worker
    # would otherwise carry several dead scenarios at once.
    gc.collect()
    return result, elapsed


# ----------------------------------------------------------------------
# Cache plumbing


def resolve_cache_dir(cache_dir: Optional[str] = None) -> str:
    return cache_dir or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"{key}.json")


def cache_shard_dir(cache_dir: str, key: str) -> str:
    """The shard directory for one cache key: ``<cache_dir>/<key[:2]>``.

    The ``dir://`` backend keeps its shared result cache sharded by the
    first two hex digits of the content hash (256-way fan-out), so a
    fleet-sized sweep never piles tens of thousands of entries into one
    directory on a network filesystem.  Each shard is an ordinary cache
    directory: :func:`cache_load` / :func:`cache_store` (and their
    atomicity and self-healing behavior) apply unchanged.
    """
    return os.path.join(cache_dir, key[:2])


def _quarantine_cache_entry(path: str) -> None:
    """Move a damaged cache file aside (``<path>.corrupt``) or drop it.

    Either way the bad artifact can never be loaded again, and the slot
    is free for the recomputed result to be stored.
    """
    try:
        os.replace(path, f"{path}.corrupt")
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass


def cache_load(cache_dir: str, spec: RunSpec) -> Optional[RunResult]:
    """Load a cached result, or None on a miss.

    A corrupted or truncated entry (invalid JSON -- the signature of a
    worker killed mid-write by pre-atomic-store versions -- or a record
    that no longer matches the RunResult schema) is treated as a miss
    *and quarantined*: the file is renamed to ``<key>.json.corrupt`` so
    it can be inspected but never re-read, and the run recomputes.
    """
    path = _cache_path(cache_dir, spec.cache_key())
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError:
        return None  # plain miss: no entry
    except ValueError:
        _quarantine_cache_entry(path)
        return None
    if not isinstance(data, dict):
        _quarantine_cache_entry(path)
        return None
    try:
        return RunResult(**data)
    except TypeError:
        _quarantine_cache_entry(path)
        return None


def cache_store(cache_dir: str, spec: RunSpec, result: RunResult) -> None:
    """Atomically persist one result (errored runs are never cached).

    The entry is written to a temp file, flushed and fsync'd, then
    ``os.replace``d into place -- a worker killed at any instant leaves
    either the old entry, the new entry, or an orphaned temp file
    (never a half-written entry).  Orphaned temps are swept by
    :func:`sweep_stale_cache_tmps` at the next resilient sweep start.
    """
    if result.error is not None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, spec.cache_key())
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(dataclasses.asdict(result), handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sweep_stale_cache_tmps(cache_dir: str) -> int:
    """Remove orphaned ``*.json.tmp.<pid>`` files; returns the count.

    Temp files are transient by construction (created, fsync'd, and
    replaced within one ``cache_store`` call), so anything still on
    disk belongs to a killed worker.  Callers should only invoke this
    at sweep start, when no workers are writing to ``cache_dir``.
    """
    try:
        names = os.listdir(cache_dir)
    except OSError:
        return 0
    removed = 0
    for name in names:
        if ".json.tmp." not in name:
            continue
        try:
            os.unlink(os.path.join(cache_dir, name))
            removed += 1
        except OSError:
            pass
    return removed


# ----------------------------------------------------------------------
# Sweep execution


def execute_runs_detailed(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = 1,
    use_cache: bool = False,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[RunOutcome]:
    """Execute run specs, possibly in parallel, returning ordered outcomes.

    ``jobs=None`` or ``jobs<=0`` means one worker per CPU; ``jobs=1``
    runs inline with no pool (and no pickling requirement on the config).
    Results come back in ``specs`` order regardless of completion order.
    """
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    directory = resolve_cache_dir(cache_dir)

    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    misses: List[int] = []
    for index, spec in enumerate(specs):
        cached = cache_load(directory, spec) if use_cache else None
        if cached is not None:
            outcomes[index] = RunOutcome(spec, cached, 0.0, from_cache=True)
        else:
            misses.append(index)

    if misses and jobs == 1:
        for index in misses:
            spec = specs[index]
            if progress is not None:
                progress(spec.protocol, spec.seed)
            result, elapsed = _execute_spec(spec)
            outcomes[index] = RunOutcome(spec, result, elapsed, False)
            if use_cache:
                cache_store(directory, spec, result)
    elif misses:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(misses)))
        try:
            futures = {
                index: pool.submit(_execute_spec, specs[index])
                for index in misses
            }
            for index, future in futures.items():
                spec = specs[index]
                try:
                    result, elapsed = future.result()
                except Exception:  # noqa: BLE001 - worker process died
                    result, elapsed = _error_result(
                        spec, traceback.format_exc()
                    ), 0.0
                if progress is not None:
                    progress(spec.protocol, spec.seed)
                outcomes[index] = RunOutcome(spec, result, elapsed, False)
                if use_cache:
                    cache_store(directory, spec, result)
        except BaseException:
            # KeyboardInterrupt (or anything else escaping the collection
            # loop) must not orphan workers: cancel what never started and
            # put down what did, then re-raise.
            _abort_pool(pool)
            raise
        else:
            pool.shutdown(wait=True)

    return [outcome for outcome in outcomes if outcome is not None]


def _abort_pool(pool: ProcessPoolExecutor) -> None:
    """Emergency pool teardown: cancel pending futures, kill workers.

    ``shutdown(cancel_futures=True)`` only prevents queued work from
    starting; in-flight runs would otherwise keep simulating for
    minutes after a Ctrl-C, so live worker processes are terminated
    outright (runs are deterministic and restartable, so nothing of
    value is lost).
    """
    pool.shutdown(wait=False, cancel_futures=True)
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(2.0)


def execute_runs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = 1,
    use_cache: bool = False,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[RunResult]:
    """Like :func:`execute_runs_detailed` but returns bare results."""
    return [
        outcome.result
        for outcome in execute_runs_detailed(
            specs, jobs=jobs, use_cache=use_cache,
            cache_dir=cache_dir, progress=progress,
        )
    ]


def sweep_specs(
    config: SimulationScenarioConfig,
    protocols: Sequence[str],
    topology_seeds: Sequence[int],
) -> List[RunSpec]:
    """The paper's sweep grid in canonical (seed-major) order."""
    return [
        RunSpec(protocol=protocol, config=config, seed=seed)
        for seed in topology_seeds
        for protocol in protocols
    ]


# ----------------------------------------------------------------------
# Consistency gate (used by scripts/bench_check.py and the perfsmoke test)


def verify_parallel_consistency(
    config: Optional[SimulationScenarioConfig] = None,
    protocols: Sequence[str] = ("odmrp", "spp"),
    topology_seeds: Sequence[int] = (1,),
    jobs: int = 2,
    cache_dir: Optional[str] = None,
) -> List[str]:
    """Run a sweep serially and in a pool; describe any divergence.

    Returns an empty list when every (protocol, seed) pair produced an
    identical :class:`RunResult` both ways -- the property the parallel
    subsystem exists to preserve.  When ``cache_dir`` is given, a third
    pass replays the sweep from the warm cache and is held to the same
    standard.
    """
    if config is None:
        config = SimulationScenarioConfig(
            num_nodes=10,
            area_width_m=500.0,
            area_height_m=500.0,
            num_groups=1,
            members_per_group=3,
            duration_s=15.0,
            warmup_s=5.0,
        )
    specs = sweep_specs(config, protocols, topology_seeds)
    serial = execute_runs(specs, jobs=1, use_cache=False)
    pooled = execute_runs(specs, jobs=jobs, use_cache=cache_dir is not None,
                          cache_dir=cache_dir)
    passes: Dict[str, List[RunResult]] = {f"jobs={jobs}": pooled}
    if cache_dir is not None:
        passes["warm-cache"] = execute_runs(
            specs, jobs=1, use_cache=True, cache_dir=cache_dir
        )

    divergences: List[str] = []
    for label, results in passes.items():
        for spec, baseline, candidate in zip(specs, serial, results):
            where = f"{spec.protocol}/seed={spec.seed} [{label}]"
            if candidate.error is not None:
                divergences.append(f"{where}: run failed: {candidate.error}")
            elif baseline != candidate:
                divergences.append(
                    f"{where}: diverged from serial "
                    f"(serial delivered={baseline.delivered_packets}, "
                    f"got delivered={candidate.delivered_packets})"
                )
    return divergences
