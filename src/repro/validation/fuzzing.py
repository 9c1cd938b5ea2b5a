"""Differential scenario fuzzing: random specs, one oracle, many paths.

The determinism contract says a run is fully determined by its
``(protocol, config, seed)`` triple -- whether it executes in the
calling process, in a pool worker, replayed from the cache, or with
telemetry attached.  This module *hunts* for violations of that
contract instead of asserting it on one hand-picked scenario:

* :func:`random_spec` draws a small random :class:`ExperimentSpec`
  (topology size, metric/protocol mix, seeds, fault schedules) from a
  seeded generator, so every fuzz case is itself replayable.
* :func:`differential_check` runs the spec through the serial path as
  the oracle, then through jobs=N / cold-cache / warm-cache /
  telemetry-enabled paths and reports any result that is not
  bit-identical.
* :func:`run_with_invariants` replays a spec serially with the runtime
  invariant monitors attached (:mod:`repro.validation.invariants`).
* :func:`write_replay_spec` turns a caught
  :class:`~repro.validation.invariants.InvariantViolation` into a
  one-run spec file for ``repro validate --spec``.

The CLI subcommand (``repro validate``) and the ``pytest -m fuzz`` tier
are thin wrappers over these functions.
"""

from __future__ import annotations

import dataclasses
import os
import random
from typing import List, Optional, Sequence, Tuple

from repro.experiments.faults import FaultPlan, FlappingSpec, OutageWindow
from repro.experiments.executors import create_executor
from repro.experiments.parallel import _execute_spec, sweep_specs
from repro.experiments.results import RunResult
from repro.experiments.runner import run_protocol
from repro.experiments.scenarios import SimulationScenarioConfig
from repro.experiments.spec import ExperimentSpec
from repro.mobility.config import EnergySpec, MobilitySpec
from repro.sim.rng import derive_seed
from repro.telemetry.hub import TelemetryConfig
from repro.validation.invariants import InvariantViolation, ValidationConfig

#: Protocol mix the fuzzer draws from: both router families and every
#: paper metric, so the differential paths cover metric-specific state.
FUZZ_PROTOCOLS: Tuple[str, ...] = (
    "odmrp",
    "etx",
    "spp",
    "metx",
    "pp",
    "maodv",
    "maodv-etx",
    "maodv-spp",
)


def random_spec(index: int, master_seed: int = 0) -> ExperimentSpec:
    """Draw fuzz case ``index``: a small, fully replayable sweep spec.

    The generator RNG is derived from ``(master_seed, index)`` alone, so
    ``repro validate --fuzz N`` enumerates the same cases on every
    machine and a failing index can be re-drawn in isolation.
    """
    rng = random.Random(derive_seed(master_seed, f"fuzz.{index}"))
    num_nodes = rng.randint(8, 14)
    duration_s = float(rng.choice((8, 10, 12)))
    warmup_s = float(rng.randint(2, 3))
    protocols = tuple(
        rng.sample(FUZZ_PROTOCOLS, k=rng.randint(1, 2))
    )
    seeds = tuple(sorted(rng.sample(range(1, 64), k=rng.randint(1, 2))))

    outages: List[OutageWindow] = []
    flapping: List[FlappingSpec] = []
    if rng.random() < 0.5:
        start = rng.uniform(warmup_s, 0.6 * duration_s)
        outages.append(
            OutageWindow(
                node_id=rng.randrange(num_nodes),
                start_s=round(start, 3),
                end_s=round(start + rng.uniform(1.0, 3.0), 3),
            )
        )
    if rng.random() < 0.25:
        flapping.append(
            FlappingSpec(
                node_id=rng.randrange(num_nodes),
                start_s=warmup_s,
                period_s=2.0,
                down_fraction=0.3,
                until_s=round(0.8 * duration_s, 3),
            )
        )

    mobility = MobilitySpec()
    if rng.random() < 0.35:
        # A moving mesh exercises the whole invalidation pipeline
        # (set_position -> grid re-bucket -> audibility re-derivation ->
        # vectorized state migration) under every differential path.
        mobility = MobilitySpec(
            model=rng.choice(("random-waypoint", "gauss-markov")),
            update_interval_s=rng.choice((0.5, 1.0)),
            speed_min_mps=1.0,
            speed_max_mps=float(rng.choice((10, 20))),
            pause_s=rng.choice((0.0, 1.0)),
        )
    energy = EnergySpec()
    if rng.random() < 0.15:
        # Small batteries so some nodes actually die mid-run, driving
        # churn through the same path the fault injector uses.
        energy = EnergySpec(enabled=True, initial_j=rng.choice((0.5, 2.0)))

    side = float(rng.randint(450, 650))
    config = SimulationScenarioConfig(
        num_nodes=num_nodes,
        area_width_m=side,
        area_height_m=side,
        num_groups=1,
        members_per_group=rng.randint(2, 3),
        rate_pps=10.0,
        duration_s=duration_s,
        warmup_s=warmup_s,
        faults=FaultPlan(outages=tuple(outages), flapping=tuple(flapping)),
        mobility=mobility,
        energy=energy,
    )
    return ExperimentSpec(
        name=f"fuzz-{master_seed}-{index}",
        description=(
            f"differential fuzz case {index} (master seed {master_seed})"
        ),
        protocols=protocols,
        seeds=seeds,
        config=config,
    )


def _first_difference(
    label: str, baseline: Sequence[RunResult], candidate: Sequence[RunResult]
) -> Optional[str]:
    """Describe the first divergence between two result lists, if any."""
    if len(baseline) != len(candidate):
        return (
            f"{label}: produced {len(candidate)} results, "
            f"expected {len(baseline)}"
        )
    for expected, got in zip(baseline, candidate):
        if expected != got:
            fields = [
                f.name
                for f in dataclasses.fields(expected)
                if getattr(expected, f.name) != getattr(got, f.name)
            ]
            return (
                f"{label}: run ({expected.protocol}, seed "
                f"{expected.topology_seed}) diverged in field(s) "
                f"{fields}: baseline={expected!r} candidate={got!r}"
            )
    return None


def _strip_telemetry_path(results: Sequence[RunResult]) -> List[RunResult]:
    return [
        dataclasses.replace(result, telemetry_path=None) for result in results
    ]


def _pooled(
    specs: Sequence, jobs: int, cache_dir: Optional[str] = None
) -> List[RunResult]:
    """The specs' results through the local supervised pool."""
    executor = create_executor(
        jobs=jobs, use_cache=cache_dir is not None, cache_dir=cache_dir
    )
    return [outcome.result for outcome in executor.execute(specs)]


def differential_check(
    spec: ExperimentSpec,
    jobs: int = 2,
    work_dir: Optional[str] = None,
    phy_backends: Sequence[str] = ("scalar", "vectorized"),
) -> List[str]:
    """Run ``spec`` through every execution path; describe divergences.

    The serial in-process sweep is the oracle.  Each alternate path --
    a process pool, the adaptive sequential planner capped to the same
    seed pool, a one-draw fault campaign, a cold-then-warm cache, a
    telemetry-enabled serial pass, and one forced-``phy_backend``
    serial pass per entry in ``phy_backends`` -- must reproduce the
    oracle's :class:`RunResult` rows bit-for-bit (the telemetry pass
    is compared with its artifact path masked, since the path is the
    one legitimately new field).
    The backend axis is the scalar<->vectorized parity gate: forcing
    either reception path through :class:`NetworkConfig.phy_backend`
    must not move a single bit relative to the spec's own (usually
    "auto") setting.  Backend passes are skipped when numpy is absent
    (the vectorized path cannot be forced without it) or when the spec
    already pins a non-auto backend.  Returns an empty list when every
    path agrees; error strings otherwise.
    """
    spec.validate()
    specs = sweep_specs(spec.config, spec.protocols, spec.seeds)
    baseline = [_execute_spec(spec)[0] for spec in specs]
    errors = [
        f"baseline: run ({r.protocol}, seed {r.topology_seed}) "
        f"errored: {r.error.splitlines()[-1]}"
        for r in baseline
        if r.error is not None
    ]
    if errors:
        # A crashing scenario is a finding in itself; the differential
        # passes would only echo the same traceback four more times.
        return errors

    pooled = _pooled(specs, jobs)
    divergence = _first_difference(f"jobs={jobs}", baseline, pooled)
    if divergence:
        errors.append(divergence)

    errors.extend(_adaptive_differences(spec, baseline))

    errors.extend(_campaign_differences(spec))

    if phy_backends and spec.config.network.phy_backend == "auto":
        try:
            import repro.phy.vectorized  # noqa: F401
        except ImportError:
            backends: Sequence[str] = ()
        else:
            backends = phy_backends
        for backend in backends:
            backend_config = dataclasses.replace(
                spec.config,
                network=dataclasses.replace(
                    spec.config.network, phy_backend=backend
                ),
            )
            forced = [
                run_protocol(s.protocol, s.seeded_config())
                for s in sweep_specs(
                    backend_config, spec.protocols, spec.seeds
                )
            ]
            divergence = _first_difference(
                f"phy-{backend}", baseline, forced
            )
            if divergence:
                errors.append(divergence)

    if work_dir is not None:
        cache_dir = os.path.join(work_dir, "fuzz-cache")
        cold = _pooled(specs, 1, cache_dir)
        divergence = _first_difference("cache-cold", baseline, cold)
        if divergence:
            errors.append(divergence)
        warm = _pooled(specs, 1, cache_dir)
        divergence = _first_difference("cache-warm", baseline, warm)
        if divergence:
            errors.append(divergence)

        telemetry_config = dataclasses.replace(
            spec.config,
            telemetry=TelemetryConfig(
                enabled=True,
                export_dir=os.path.join(work_dir, "fuzz-telemetry"),
            ),
        )
        with_telemetry = [
            run_protocol(s.protocol, s.seeded_config())
            for s in sweep_specs(telemetry_config, spec.protocols, spec.seeds)
        ]
        divergence = _first_difference(
            "telemetry",
            _strip_telemetry_path(baseline),
            _strip_telemetry_path(with_telemetry),
        )
        if divergence:
            errors.append(divergence)

    return errors


def _adaptive_differences(
    spec: ExperimentSpec, baseline: Sequence[RunResult]
) -> List[str]:
    """The adaptive axis: the sequential planner, capped to the spec's
    own seed pool, must agree bit-for-bit with the exhaustive grid on
    every (protocol, seed) cell both of them executed.  The planner may
    legitimately execute *fewer* cells (that is its job); executing a
    cell outside the exhaustive grid, or producing a different result
    for a shared cell, is a determinism violation.
    """
    from repro.experiments.adaptive import (
        AdaptiveConfig,
        run_adaptive_experiment,
    )

    adaptive_spec = dataclasses.replace(
        spec,
        adaptive=AdaptiveConfig(
            target_half_width=0.25,
            batch_size=1,
            min_seeds=1,
            max_seeds=len(spec.seeds),
            paired=True,
        ),
    )
    plan = run_adaptive_experiment(adaptive_spec)
    expected = {
        (run.protocol, run.topology_seed): run for run in baseline
    }
    errors: List[str] = []
    for run in plan.runs:
        cell = (run.protocol, run.topology_seed)
        want = expected.get(cell)
        if want is None:
            errors.append(
                f"adaptive: executed ({run.protocol}, seed "
                f"{run.topology_seed}) which is outside the exhaustive "
                "grid"
            )
            continue
        if run != want:
            fields = [
                f.name
                for f in dataclasses.fields(want)
                if getattr(want, f.name) != getattr(run, f.name)
            ]
            errors.append(
                f"adaptive: run ({run.protocol}, seed "
                f"{run.topology_seed}) diverged in field(s) {fields}: "
                f"baseline={want!r} candidate={run!r}"
            )
    return errors


def _campaign_differences(spec: ExperimentSpec) -> List[str]:
    """The campaign axis: every cell the fault-campaign planner runs --
    the fault-free CRN baseline and each cell of a one-draw importance
    sample -- must equal an independently executed ``run_protocol``
    call on the same (protocol, seed, fault plan) triple bit-for-bit.
    The planner only adds orchestration (severity sampling, journals,
    importance weights) on top of the run layer; none of it may move a
    result bit.  The campaign strips any spec-level fault plan and
    mobility axis first (campaigns sample fault plans themselves and
    reject mobility specs), so this axis checks planner-vs-independent
    execution, not planner-vs-oracle.
    """
    from repro.experiments.campaigns import (
        CampaignConfig,
        run_campaign_experiment,
    )
    from repro.experiments.faults import FaultPlan

    campaign_spec = dataclasses.replace(
        spec,
        adaptive=None,
        mobility_models=(),
        campaign=CampaignConfig(draws=1, master_seed=7),
        config=dataclasses.replace(spec.config, faults=FaultPlan()),
    )
    result = run_campaign_experiment(campaign_spec)
    errors: List[str] = []
    independent_baseline = [
        run_protocol(s.protocol, s.seeded_config())
        for s in sweep_specs(
            campaign_spec.config, campaign_spec.protocols, campaign_spec.seeds
        )
    ]
    divergence = _first_difference(
        "campaign-baseline", independent_baseline, result.baseline_runs
    )
    if divergence:
        errors.append(divergence)
    for draw, runs in zip(result.draws, result.draw_runs):
        independent = [
            run_protocol(s.protocol, s.seeded_config())
            for seed in campaign_spec.seeds
            for s in sweep_specs(
                dataclasses.replace(
                    campaign_spec.config, faults=draw.plans[seed]
                ),
                campaign_spec.protocols,
                (seed,),
            )
        ]
        divergence = _first_difference(
            f"campaign-draw-{draw.index}", independent, runs
        )
        if divergence:
            errors.append(divergence)
    return errors


def run_with_invariants(
    spec: ExperimentSpec,
    monitors: Sequence[str] = (),
    check_interval_s: float = 1.0,
) -> List[RunResult]:
    """Replay every run in ``spec`` with invariant monitors attached.

    Runs serially (monitored runs are about catching bugs, not speed).
    An :class:`InvariantViolation` propagates to the caller with its
    replay triple intact.
    """
    spec.validate()
    config = dataclasses.replace(
        spec.config,
        validation=ValidationConfig(
            enabled=True,
            check_interval_s=check_interval_s,
            monitors=tuple(monitors),
        ),
    )
    results: List[RunResult] = []
    for run_spec in sweep_specs(config, spec.protocols, spec.seeds):
        results.append(run_protocol(run_spec.protocol, run_spec.seeded_config()))
    return results


def write_replay_spec(violation: InvariantViolation, path: str) -> str:
    """Persist a violation's replay triple as a one-run spec file."""
    if violation.protocol is None or violation.config is None:
        raise ValueError(
            "violation carries no replay triple (was it raised outside "
            "an InvariantSuite?)"
        )
    config = violation.config
    if violation.seed is not None:
        config = dataclasses.replace(config, topology_seed=violation.seed)
    spec = ExperimentSpec(
        name=f"replay-{violation.invariant}",
        description=(
            f"replays: {violation.message} "
            f"(t={violation.time} node={violation.node_id})"
        ),
        protocols=(violation.protocol,),
        seeds=(violation.seed,) if violation.seed is not None else (1,),
        config=config,
    )
    return spec.save(path)


def default_validation_spec() -> ExperimentSpec:
    """The paper-protocol mini-sweep ``repro validate`` checks by default."""
    return ExperimentSpec(
        name="paper-mini",
        description="paper protocols, small mesh, full monitor suite",
        protocols=("odmrp", "spp", "metx"),
        seeds=(1,),
        config=SimulationScenarioConfig(
            num_nodes=12,
            area_width_m=600.0,
            area_height_m=600.0,
            num_groups=1,
            members_per_group=3,
            duration_s=15.0,
            warmup_s=5.0,
        ),
    )


def moving_validation_spec() -> ExperimentSpec:
    """A moving-mesh mini-sweep: the default monitors under churn.

    Complements :func:`default_validation_spec`: same small scale, but
    nodes follow random-waypoint trajectories so forwarding state,
    power-conservation, and rng-isolation get checked while audible
    sets churn every tick.
    """
    return ExperimentSpec(
        name="paper-mini-moving",
        description=(
            "paper protocols on a random-waypoint mesh, full monitor suite"
        ),
        protocols=("odmrp", "spp"),
        seeds=(1,),
        config=SimulationScenarioConfig(
            num_nodes=12,
            area_width_m=600.0,
            area_height_m=600.0,
            num_groups=1,
            members_per_group=3,
            duration_s=15.0,
            warmup_s=5.0,
            mobility=MobilitySpec(
                model="random-waypoint",
                update_interval_s=1.0,
                speed_min_mps=2.0,
                speed_max_mps=15.0,
            ),
        ),
    )
