"""Chaos harness for the supervised sweep executor.

Injects real worker faults -- hangs, aborts, SIGKILLs, allocation
failures, raised exceptions, cache corruption -- into supervised sweeps
and asserts the supervisor (:mod:`repro.experiments.resilience`)
recovers: faulted runs are retried to bit-identical results, exhausted
runs are quarantined without aborting the sweep, corrupted cache
entries recompute, and an interrupted sweep resumes from its journal.

Fault injection is *in-band*: the supervised worker loop calls
:func:`maybe_inject_fault` before running the spec, and the fault plan
travels through the :data:`CHAOS_PLAN_ENV` environment variable (a path
to a JSON plan file), so the injected failures exercise the exact
production supervision path -- no mocks between the fault and the
recovery machinery.  With the variable unset (the default, always)
injection is a no-op costing one dict lookup.

Entry points: ``repro chaos [--quick]`` on the CLI and
``pytest -m chaos`` in the test suite, both backed by :func:`run_chaos`.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from contextlib import contextmanager

from repro.experiments.executors import create_executor
from repro.experiments.parallel import (
    ProgressCallback,
    RunOutcome,
    RunSpec,
    _cache_path,
    cache_store,
    sweep_specs,
)
from repro.experiments.resilience import (
    FailureKind,
    PlanJournal,
    SweepJournal,
)
from repro.experiments.results import RunResult, aggregate_runs
from repro.experiments.scenarios import SimulationScenarioConfig

#: Environment variable naming the active chaos plan file (JSON).  Set
#: by :func:`active_plan` in the sweep parent; inherited by workers.
CHAOS_PLAN_ENV = "REPRO_CHAOS_PLAN"

#: Injectable fault actions.
CHAOS_ACTIONS = ("hang", "crash", "oom-kill", "oom", "exception")


class ChaosError(RuntimeError):
    """The exception the ``exception`` fault action raises in-run."""


@dataclass(frozen=True)
class ChaosFault:
    """One scheduled worker fault, keyed by (protocol, seed, attempt).

    ``attempt`` selects which dispatch of the run is sabotaged
    (0 = first execution); ``None`` faults *every* attempt, which is
    how retry-budget exhaustion is provoked.
    """

    protocol: str
    seed: int
    action: str
    attempt: Optional[int] = 0
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.action not in CHAOS_ACTIONS:
            raise ValueError(
                f"unknown chaos action {self.action!r}; "
                f"choose from {CHAOS_ACTIONS}"
            )

    def matches(self, protocol: str, seed: int, attempt: int) -> bool:
        return (
            self.protocol.lower() == protocol.lower()
            and self.seed == seed
            and (self.attempt is None or self.attempt == attempt)
        )


@dataclass
class ChaosPlan:
    """A set of scheduled faults, serializable for worker processes."""

    faults: Tuple[ChaosFault, ...] = ()

    def fault_for(
        self, protocol: str, seed: int, attempt: int
    ) -> Optional[ChaosFault]:
        for fault in self.faults:
            if fault.matches(protocol, seed, attempt):
                return fault
        return None

    def save(self, path: str) -> str:
        payload = [dataclasses.asdict(fault) for fault in self.faults]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        return path

    @classmethod
    def load(cls, path: str) -> "ChaosPlan":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return cls(faults=tuple(ChaosFault(**item) for item in payload))


@contextmanager
def active_plan(plan: ChaosPlan, directory: str) -> Iterator[str]:
    """Arm a chaos plan for every worker spawned inside the block."""
    path = plan.save(os.path.join(directory, "chaos_plan.json"))
    previous = os.environ.get(CHAOS_PLAN_ENV)
    os.environ[CHAOS_PLAN_ENV] = path
    try:
        yield path
    finally:
        if previous is None:
            os.environ.pop(CHAOS_PLAN_ENV, None)
        else:
            os.environ[CHAOS_PLAN_ENV] = previous


def maybe_inject_fault(spec: RunSpec, attempt: int) -> None:
    """Apply the armed fault for this (spec, attempt), if any.

    Called by the supervised worker loop before the run starts.  No-op
    unless :data:`CHAOS_PLAN_ENV` names a readable plan file.
    """
    path = os.environ.get(CHAOS_PLAN_ENV)
    if not path:
        return
    try:
        plan = ChaosPlan.load(path)
    except (OSError, ValueError, TypeError):
        return  # an unreadable plan must never break a real sweep
    fault = plan.fault_for(spec.protocol, spec.seed, attempt)
    if fault is None:
        return
    if fault.action == "hang":
        time.sleep(fault.hang_s)
    elif fault.action == "crash":
        os.kill(os.getpid(), signal.SIGABRT)
    elif fault.action == "oom-kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault.action == "oom":
        raise MemoryError("chaos: injected allocation failure")
    elif fault.action == "exception":
        raise ChaosError("chaos: injected model exception")


def corrupt_cache_entry(
    cache_dir: str, spec: RunSpec, mode: str = "truncate"
) -> bool:
    """Damage one on-disk cache entry (parent-side fault injection).

    ``truncate`` keeps the first half of the file (a torn write);
    ``garbage`` replaces the content with non-JSON.  Returns False when
    the entry does not exist.
    """
    path = _cache_path(cache_dir, spec.cache_key())
    try:
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
    except OSError:
        return False
    damaged = content[: len(content) // 2] if mode == "truncate" else "{not json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(damaged)
    return True


def _victim_worker_main(root: str) -> None:
    """Phase-6 victim: a ``dir://`` worker fated to die holding a lease.

    Runs in its own session (``os.setsid``) so the harness can SIGKILL
    the worker *and* its hung pool worker with one ``os.killpg`` -- the
    exact shape of a host dropping off the fleet.  No run timeout: the
    injected hang must pin the lease until the kill, not trip a
    supervisor timeout.
    """
    os.setsid()
    from repro.experiments.distributed import LeaseConfig, drain_worker

    drain_worker(
        root,
        worker_id="victim-worker",
        lease=LeaseConfig(
            lease_timeout_s=5.0,
            heartbeat_interval_s=0.2,
            poll_interval_s=0.1,
        ),
    )


# ----------------------------------------------------------------------
# The harness


@dataclass
class ChaosCheck:
    """One assertion the harness made, with its verdict."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class ChaosReport:
    """Everything one :func:`run_chaos` invocation verified."""

    checks: List[ChaosCheck] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(ChaosCheck(name, ok, detail))

    def render(self) -> str:
        lines = []
        for check in self.checks:
            status = "ok" if check.ok else "FAIL"
            line = f"  [{status:>4}] {check.name}"
            if check.detail:
                line += f": {check.detail}"
            lines.append(line)
        passed = sum(1 for check in self.checks if check.ok)
        lines.append(f"{passed}/{len(self.checks)} chaos check(s) passed")
        return "\n".join(lines)


def chaos_config(quick: bool = False) -> SimulationScenarioConfig:
    """A deliberately tiny scenario: chaos tests the *executor*, not
    the model, so simulations only need to be real, not big."""
    return SimulationScenarioConfig(
        num_nodes=6,
        area_width_m=400.0,
        area_height_m=400.0,
        num_groups=1,
        members_per_group=3,
        duration_s=6.0 if quick else 10.0,
        warmup_s=2.0,
        topology_seed=1,
    )


def _results(outcomes: Sequence[RunOutcome]) -> List[RunResult]:
    return [outcome.result for outcome in outcomes]


def _sweep(
    specs: Sequence[RunSpec],
    jobs: int,
    cache_dir: str,
    journal_path: str,
    progress: Optional[ProgressCallback] = None,
    **knobs: object,
) -> List[RunOutcome]:
    """One journaled sweep through the local executor (the production
    path: ``repro run`` builds the same executor)."""
    executor = create_executor(
        jobs=jobs, cache_dir=cache_dir, journal_path=journal_path, **knobs
    )
    return executor.execute(specs, progress=progress)


def run_chaos(
    quick: bool = False,
    jobs: int = 2,
    work_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run the full chaos suite; returns the per-check report.

    Phases:

    1. *baseline* -- a clean supervised sweep establishes the reference
       results every later phase must reproduce bit-identically.
    2. *fault recovery* -- one transient fault per retryable kind
       (injected hang -> TIMEOUT, SIGABRT -> WORKER_CRASH, MemoryError
       -> OOM) on the first attempt only; the sweep must retry each to
       a result identical to the baseline.
    3. *quarantine* -- a run that hangs on *every* attempt must exhaust
       its retry budget, surface as a TIMEOUT failure in aggregation
       and the report, and not stop the other runs from completing.
    4. *cache corruption* -- truncated and garbled cache entries must
       quarantine, recompute identically, and a killed ``cache_store``
       (orphaned temp file) must be swept, never loaded.
    5. *interrupt + resume* -- a SIGINT mid-sweep must drain cleanly,
       leave a consistent journal, and a ``resume`` pass must replay
       completed runs and finish the rest, bit-identical to baseline.
    6. *distributed worker kill* -- a ``dir://`` worker SIGKILLed while
       holding a lease (with its pool worker hung) must leave a lease
       that expires, gets reclaimed by a rescue worker, and the rescued
       sweep's results must be bit-identical to the baseline.
    7. *adaptive mid-batch kill* -- an adaptive sweep interrupted while
       a batch is in flight must drain, journal consistently, and a
       ``resume`` pass must replay into the *identical* batch-by-batch
       plan (stopping decisions, seeds spent, and run results all
       bit-identical to a clean adaptive run).
    8. *campaign mid-draw kill* -- a fault campaign interrupted while
       its runs are in flight must drain, and a ``resume`` pass must
       replay into the *identical* sampled plan (generators, severities,
       importance weights, per-seed fault digests) with run results
       bit-identical to a clean campaign; the journaled
       ``campaign-plan`` records must match the resumed plan.
    """
    report = ChaosReport()
    say = log or (lambda message: None)
    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            return run_chaos(quick=quick, jobs=jobs, work_dir=tmp, log=log)

    config = chaos_config(quick)
    protocols = ("odmrp", "spp")
    seeds = (1,) if quick else (1, 2)
    specs = sweep_specs(config, protocols, seeds)
    cache_dir = os.path.join(work_dir, "cache")

    # -- Phase 1: baseline ------------------------------------------------
    say(f"chaos: baseline sweep ({len(specs)} runs, jobs={jobs}) ...")
    baseline = _sweep(
        specs, jobs, cache_dir, os.path.join(work_dir, "baseline.jsonl")
    )
    clean = all(outcome.result.error is None for outcome in baseline)
    report.add(
        "baseline-clean", clean,
        "all runs succeeded" if clean else "baseline sweep had failures",
    )
    if not clean:
        return report  # nothing downstream is meaningful
    # Timeout budget for the faulted phases: generous against the
    # slowest observed clean run, so only injected hangs can trip it.
    slowest = max(outcome.elapsed_s for outcome in baseline)
    timeout_s = max(3.0, 5.0 * slowest)

    # -- Phase 2: transient faults recover to identical results ----------
    faulted = {
        (protocols[0], seeds[0]): "hang",
        (protocols[1], seeds[0]): "oom",
    }
    if not quick:
        faulted[(protocols[0], seeds[1])] = "crash"
        faulted[(protocols[1], seeds[1])] = "oom-kill"
    plan = ChaosPlan(faults=tuple(
        ChaosFault(protocol=protocol, seed=seed, action=action, attempt=0)
        for (protocol, seed), action in faulted.items()
    ))
    say(f"chaos: fault storm ({', '.join(sorted(set(faulted.values())))}) ...")
    journal_path = os.path.join(work_dir, "faulted.jsonl")
    with active_plan(plan, work_dir):
        stormed = _sweep(
            specs, jobs, cache_dir, journal_path,
            run_timeout_s=timeout_s, max_retries=2,
        )
    recovered = all(outcome.result.error is None for outcome in stormed)
    report.add(
        "chaos-recovered", recovered,
        "every faulted run retried to success" if recovered else "; ".join(
            f"{o.spec.protocol}/seed={o.spec.seed}: "
            + o.result.error.splitlines()[-1]
            for o in stormed if o.result.error is not None
        ),
    )
    retried = [
        outcome for outcome in stormed
        if (outcome.spec.protocol, outcome.spec.seed) in faulted
    ]
    all_retried = bool(retried) and all(o.attempts >= 2 for o in retried)
    report.add(
        "chaos-retried", all_retried,
        f"faulted runs took {[o.attempts for o in retried]} attempt(s)",
    )
    identical = _results(stormed) == _results(baseline)
    report.add(
        "chaos-identical", identical,
        "retried results bit-identical to baseline" if identical
        else "retried results diverged from baseline",
    )

    # -- Phase 3: exhausted retries quarantine, sweep degrades gracefully
    victim = specs[0]
    say("chaos: quarantine (hang on every attempt) ...")
    plan = ChaosPlan(faults=(
        ChaosFault(protocol=victim.protocol, seed=victim.seed,
                   action="hang", attempt=None),
    ))
    with active_plan(plan, work_dir):
        degraded = _sweep(
            specs, jobs, cache_dir,
            os.path.join(work_dir, "quarantine.jsonl"),
            run_timeout_s=timeout_s, max_retries=1,
        )
    victim_outcome = next(
        o for o in degraded
        if (o.spec.protocol, o.spec.seed)
        == (victim.protocol, victim.seed)
    )
    quarantined = (
        victim_outcome.failure_kind is FailureKind.TIMEOUT
        and victim_outcome.attempts == 2
        and (victim_outcome.result.error or "").startswith("TIMEOUT")
    )
    report.add(
        "quarantine-surfaces", quarantined,
        f"victim kind={victim_outcome.failure_kind} "
        f"attempts={victim_outcome.attempts}",
    )
    others_ok = all(
        o.result.error is None for o in degraded if o is not victim_outcome
    )
    report.add(
        "quarantine-degrades", others_ok,
        "sweep completed around the quarantined run" if others_ok
        else "healthy runs were dragged down",
    )
    aggregates = aggregate_runs(_results(degraded))
    agg = aggregates[victim.protocol.lower()]
    in_report = (
        agg.failed_runs == 1
        and agg.failure_kinds.get(FailureKind.TIMEOUT.value) == 1
    )
    from repro.experiments.report import render_report

    note = render_report(_results(degraded), title="chaos quarantine")
    in_report = in_report and "timeout" in note and "quarantined" in note
    report.add(
        "quarantine-reported", in_report,
        "TIMEOUT failure visible in aggregation and report"
        if in_report else f"aggregate={agg}",
    )

    # -- Phase 4: cache corruption quarantines and recomputes ------------
    say("chaos: cache corruption ...")
    for spec, outcome in zip(specs, baseline):
        cache_store(cache_dir, spec, outcome.result)
    corrupt_cache_entry(cache_dir, specs[0], mode="truncate")
    if len(specs) > 1:
        corrupt_cache_entry(cache_dir, specs[-1], mode="garbage")
    # A worker killed mid-store leaves only an orphaned temp file:
    orphan = _cache_path(cache_dir, specs[0].cache_key()) + ".tmp.99999"
    with open(orphan, "w", encoding="utf-8") as handle:
        handle.write('{"half": "written')
    rebuilt = _sweep(
        specs, jobs, cache_dir, os.path.join(work_dir, "cache.jsonl"),
        use_cache=True,
    )
    cache_identical = _results(rebuilt) == _results(baseline)
    recomputed = not rebuilt[0].from_cache and rebuilt[0].result.error is None
    quarantine_file = (
        _cache_path(cache_dir, specs[0].cache_key()) + ".corrupt"
    )
    report.add(
        "cache-corruption-recovers",
        cache_identical and recomputed and os.path.exists(quarantine_file)
        and not os.path.exists(orphan),
        f"recomputed={recomputed} identical={cache_identical} "
        f"quarantined={os.path.exists(quarantine_file)} "
        f"tmp-swept={not os.path.exists(orphan)}",
    )

    # -- Phase 5: SIGINT drains; --resume replays bit-identically ---------
    say("chaos: interrupt + resume ...")
    resume_journal = os.path.join(work_dir, "resume.jsonl")
    completions = {"count": 0}

    def interrupt_after_first(protocol: str, seed: int) -> None:
        completions["count"] += 1
        if completions["count"] == 1:
            os.kill(os.getpid(), signal.SIGINT)

    interrupted = False
    try:
        _sweep(
            specs, 1, cache_dir, resume_journal,
            progress=interrupt_after_first,
        )
    except KeyboardInterrupt:
        interrupted = True
    journaled = SweepJournal.replay(resume_journal)
    drained = (
        interrupted
        and 1 <= len(journaled) < len(specs)
        and all(record.ok for record in journaled.values())
    )
    report.add(
        "interrupt-drains", drained,
        f"interrupted={interrupted}, {len(journaled)}/{len(specs)} "
        "run(s) journaled consistently",
    )
    resumed = _sweep(specs, jobs, cache_dir, resume_journal, resume=True)
    replayed = [outcome for outcome in resumed if outcome.from_journal]
    resume_identical = _results(resumed) == _results(baseline)
    report.add(
        "resume-identical",
        resume_identical and len(replayed) == len(journaled),
        f"{len(replayed)} run(s) replayed from the journal, "
        f"{len(specs) - len(replayed)} executed; bit-identical="
        f"{resume_identical}",
    )

    # -- Phase 6: dir:// worker kill -> lease reclaim -> identical results
    say("chaos: distributed worker kill + lease reclaim ...")
    from repro.experiments.distributed import (
        BACKEND_ENV,
        WORKER_ID_ENV,
        LeaseConfig,
        SweepDir,
        drain_worker,
        publish_sweep,
    )

    shared = SweepDir(os.path.join(work_dir, "shared")).ensure()
    publish_sweep(shared, specs)
    keys = [spec.cache_key() for spec in specs]
    victim_key = keys[0]
    # The victim's first claim is specs[0] (claims scan in sweep order);
    # hang its pool worker so the lease stays held until the kill.  The
    # hang bound is a backstop only -- the group kill lands first.
    plan = ChaosPlan(faults=(
        ChaosFault(protocol=specs[0].protocol, seed=specs[0].seed,
                   action="hang", attempt=0, hang_s=120.0),
    ))
    ctx = multiprocessing.get_context()
    with active_plan(plan, work_dir):
        victim = ctx.Process(
            target=_victim_worker_main, args=(shared.root,)
        )
        victim.start()
        lease_file = shared.lease_path(victim_key)
        deadline = time.monotonic() + 60.0
        while not os.path.exists(lease_file):
            if time.monotonic() >= deadline or not victim.is_alive():
                break
            time.sleep(0.05)
        lease_observed = os.path.exists(lease_file)
        # Give the hung pool worker a beat to fork into the victim's
        # session, then kill the whole group -- worker and child die
        # together, heartbeats stop, the lease goes stale.
        time.sleep(0.75)
        try:
            os.killpg(victim.pid, signal.SIGKILL)
        except (OSError, TypeError):
            pass
        victim.join(10.0)
    # Plan disarmed *before* the rescue: the re-issued attempt of the
    # victim's run must execute clean, exactly like a healthy re-run.
    saved_env = {
        name: os.environ.get(name)
        for name in (WORKER_ID_ENV, BACKEND_ENV)
    }
    try:
        rescue_stats = drain_worker(
            shared.root,
            worker_id="rescue-worker",
            lease=LeaseConfig(
                lease_timeout_s=1.5,
                heartbeat_interval_s=0.2,
                poll_interval_s=0.1,
            ),
        )
    finally:
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    stale_leases = os.listdir(shared.stale_dir)
    reclaim_ok = (
        lease_observed
        and rescue_stats.reclaimed >= 1
        and len(stale_leases) >= 1
    )
    report.add(
        "dir-lease-reclaimed", reclaim_ok,
        f"victim lease observed={lease_observed}, rescue reclaimed="
        f"{rescue_stats.reclaimed}, {len(stale_leases)} stale carcass(es)",
    )
    leftover = [
        name for name in os.listdir(shared.leases_dir)
        if name.endswith(".lease")
    ]
    journaled = SweepJournal.replay(shared.journal_path)
    victim_record = journaled.get(victim_key)
    drained = (
        not leftover
        and all(key in journaled for key in keys)
        and all(journaled[key].ok for key in keys)
        and victim_record is not None
        and victim_record.worker == "rescue-worker"
    )
    report.add(
        "dir-queue-drained", drained,
        f"{len(journaled)}/{len(specs)} run(s) journaled ok, "
        f"{len(leftover)} leftover lease(s), victim run finished by "
        f"{victim_record.worker if victim_record else '?'}",
    )
    dir_results = [
        journaled[key].to_run_result()
        for key in keys if key in journaled
    ]
    dir_identical = dir_results == _results(baseline)
    report.add(
        "dir-identical", dir_identical,
        "rescued distributed sweep bit-identical to baseline"
        if dir_identical else "distributed results diverged from baseline",
    )

    # -- Phase 7: adaptive plan survives a mid-batch kill -----------------
    say("chaos: adaptive mid-batch interrupt + resume ...")
    from repro.experiments.adaptive import (
        ADAPTIVE_PLAN_KEY,
        AdaptiveConfig,
        run_adaptive_experiment,
    )
    from repro.experiments.spec import ExperimentSpec

    adaptive_spec = ExperimentSpec(
        name="chaos-adaptive",
        protocols=protocols,
        seeds=seeds,
        jobs=1,
        # A run timeout engages the journal, so the interrupt below
        # leaves a partial journal for the resume pass to replay.
        run_timeout_s=timeout_s,
        adaptive=AdaptiveConfig(
            target_half_width=0.25, batch_size=1, min_seeds=1, max_seeds=2,
        ),
        config=config,
    )
    clean_plan = run_adaptive_experiment(
        adaptive_spec, cache_dir=cache_dir,
        journal_path=os.path.join(work_dir, "adaptive-clean.jsonl"),
    )
    adaptive_journal = os.path.join(work_dir, "adaptive.jsonl")
    adaptive_completions = {"count": 0}

    def adaptive_interrupt(protocol: str, seed: int) -> None:
        adaptive_completions["count"] += 1
        if adaptive_completions["count"] == 1:
            os.kill(os.getpid(), signal.SIGINT)

    adaptive_interrupted = False
    try:
        run_adaptive_experiment(
            adaptive_spec, cache_dir=cache_dir,
            journal_path=adaptive_journal, progress=adaptive_interrupt,
        )
    except KeyboardInterrupt:
        adaptive_interrupted = True
    partial = SweepJournal.replay(adaptive_journal)
    report.add(
        "adaptive-interrupt-drains",
        adaptive_interrupted and len(partial) >= 1
        and all(record.ok for record in partial.values()),
        f"interrupted={adaptive_interrupted}, {len(partial)} run(s) "
        "journaled mid-batch",
    )
    resumed_plan = run_adaptive_experiment(
        adaptive_spec, cache_dir=cache_dir,
        journal_path=adaptive_journal, resume=True,
    )
    plan_identical = (
        resumed_plan.plan_dict() == clean_plan.plan_dict()
        and resumed_plan.runs == clean_plan.runs
    )
    report.add(
        "adaptive-resume-identical", plan_identical,
        "resumed adaptive plan bit-identical to the clean plan"
        if plan_identical else "resumed adaptive plan diverged",
    )
    journaled_plan = PlanJournal(
        adaptive_journal, ADAPTIVE_PLAN_KEY, adaptive_spec.name
    ).replay()
    plan_journaled = [
        {key: record[key] for key in
         ("batch", "seeds", "protocols", "decisions")}
        for record in journaled_plan
    ] == [
        {"batch": batch["batch"], "seeds": batch["seeds"],
         "protocols": batch["protocols"], "decisions": batch["decisions"]}
        for batch in resumed_plan.plan_dict()["batches"]
    ]
    report.add(
        "adaptive-plan-journaled", plan_journaled,
        f"{len(journaled_plan)} per-batch stopping decision(s) in the "
        "journal match the resumed plan"
        if plan_journaled else "journaled plan records diverged",
    )

    # -- Phase 8: campaign plan survives a mid-draw kill ------------------
    say("chaos: campaign mid-draw interrupt + resume ...")
    from repro.experiments.campaigns import (
        CAMPAIGN_PLAN_KEY,
        CampaignConfig,
        run_campaign_experiment,
    )

    campaign_spec = ExperimentSpec(
        name="chaos-campaign",
        protocols=protocols,
        seeds=seeds,
        jobs=1,
        # Same trick as phase 7: the timeout engages the journal the
        # interrupted campaign resumes from.
        run_timeout_s=timeout_s,
        campaign=CampaignConfig(draws=2, master_seed=3),
        config=config,
    )
    clean_campaign = run_campaign_experiment(
        campaign_spec, cache_dir=cache_dir,
        journal_path=os.path.join(work_dir, "campaign-clean.jsonl"),
    )
    campaign_journal = os.path.join(work_dir, "campaign.jsonl")
    campaign_completions = {"count": 0}

    def campaign_interrupt(protocol: str, seed: int) -> None:
        campaign_completions["count"] += 1
        if campaign_completions["count"] == 1:
            os.kill(os.getpid(), signal.SIGINT)

    campaign_interrupted = False
    try:
        run_campaign_experiment(
            campaign_spec, cache_dir=cache_dir,
            journal_path=campaign_journal, progress=campaign_interrupt,
        )
    except KeyboardInterrupt:
        campaign_interrupted = True
    campaign_partial = SweepJournal.replay(campaign_journal)
    report.add(
        "campaign-interrupt-drains",
        campaign_interrupted and len(campaign_partial) >= 1
        and all(record.ok for record in campaign_partial.values()),
        f"interrupted={campaign_interrupted}, {len(campaign_partial)} "
        "run(s) journaled mid-campaign",
    )
    resumed_campaign = run_campaign_experiment(
        campaign_spec, cache_dir=cache_dir,
        journal_path=campaign_journal, resume=True,
    )
    campaign_identical = (
        resumed_campaign.plan_dict() == clean_campaign.plan_dict()
        and resumed_campaign.runs == clean_campaign.runs
    )
    report.add(
        "campaign-resume-identical", campaign_identical,
        "resumed campaign plan and runs bit-identical to the clean run"
        if campaign_identical else "resumed campaign diverged",
    )
    journaled_campaign = PlanJournal(
        campaign_journal, CAMPAIGN_PLAN_KEY, campaign_spec.name
    ).replay()
    campaign_journaled = [
        {key: record[key] for key in
         ("draw", "generator", "theta", "weight", "faults")}
        for record in journaled_campaign
    ] == resumed_campaign.plan_dict()["plan"]
    report.add(
        "campaign-plan-journaled", campaign_journaled,
        f"{len(journaled_campaign)} journaled draw record(s) match the "
        "resumed plan, weights included"
        if campaign_journaled else "journaled campaign records diverged",
    )
    say("chaos: done")
    return report
