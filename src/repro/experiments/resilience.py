"""Supervised sweep execution: one worker pool, retries, a durable journal.

Every local sweep runs here.  A pathological topology can hang a run,
the kernel OOM-killer can shoot a worker, and a Ctrl-C must not throw
away everything computed so far, so the picklable :class:`~repro.
experiments.parallel.RunSpec` runs execute on a pool of *supervised*
persistent workers (:class:`WorkerPool`):

* **Persistent workers, fresh after a failure.**  Up to
  ``min(jobs, len(specs))`` worker processes each receive
  ``(spec, attempt)`` over a pipe and reply with ``(result,
  elapsed_s)``.  A worker that dies, times out, or reports a failed run
  is retired and replaced, so every retry starts in a fresh process
  while healthy runs pay the process start once per worker.
* **Per-run wall-clock timeouts**, enforced from the parent.  A run that
  exceeds ``ResilienceConfig.run_timeout_s`` has its worker terminated
  (SIGTERM, then SIGKILL after a grace period) -- the pool can never
  silently hang on one stuck simulation.
* **A structured failure taxonomy** (:class:`FailureKind`).  Every
  failure is classified -- ``TIMEOUT``, ``WORKER_CRASH`` (worker died
  with a signal / nonzero exit before reporting), ``OOM`` (SIGKILL or a
  ``MemoryError``), ``INVARIANT`` (a validation monitor fired), or
  ``EXCEPTION`` (any other in-run error) -- and the kind is recorded on
  the :class:`~repro.experiments.parallel.RunOutcome` and as a
  ``KIND:`` prefix on ``RunResult.error`` so it survives journaling and
  aggregation.  A crashed worker takes down only its own run.
* **Bounded retry with exponential backoff + deterministic jitter**
  (:class:`RetryPolicy`) for *transient* kinds (``TIMEOUT``,
  ``WORKER_CRASH``, ``OOM``).  Deterministic model failures
  (``EXCEPTION``, ``INVARIANT``) are quarantined immediately: the
  simulation is seed-deterministic, so re-running them can only waste
  the sweep's time budget.  Because runs are seed-deterministic, a
  retried run that succeeds produces a bit-identical
  :class:`~repro.experiments.results.RunResult` -- the chaos harness
  (:mod:`repro.experiments.chaos`) asserts this.
* **A durable sweep journal** (:class:`SweepJournal`): append-only JSONL
  under the cache dir, one fsync'd record per finished (or quarantined)
  run keyed by ``RunSpec.cache_key()``, written whenever the sweep has
  a journal path (see :func:`~repro.experiments.executors.
  resolve_journal_path`).  ``repro run --resume`` replays completed
  runs from the journal and re-dispatches only the failures.  Planner
  records (adaptive batches, campaign draws) share the file through
  :class:`PlanJournal`.
* **Graceful SIGINT/SIGTERM draining**: the first signal stops
  dispatching, terminates active workers, and leaves the journal
  consistent (records are written atomically per line), then raises
  ``KeyboardInterrupt``.  Re-running with ``--resume`` picks up where
  the sweep left off.
* **Graceful degradation**: a run whose retry budget is exhausted is
  *quarantined* -- it comes back as an error-annotated result with its
  failure kind, and the sweep completes.  Aggregation and reporting
  (:mod:`repro.experiments.results` / ``report.py``) surface the
  quarantined runs per protocol instead of aborting.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

# The cache calls go through the module so wrappers installed on
# ``parallel.cache_load`` / ``parallel.cache_store`` see every sweep.
from repro.experiments import parallel
from repro.experiments.parallel import (
    ProgressCallback,
    RunOutcome,
    RunSpec,
    _error_result,
    _execute_spec,
    resolve_cache_dir,
    sweep_stale_cache_tmps,
)
from repro.experiments.results import RunResult

#: Bump when the journal record shape changes incompatibly.
JOURNAL_SCHEMA_VERSION = 1

#: Set in every supervised worker: the run's 0-based attempt number.
#: Telemetry manifests record it (``extra["attempt"]``) and the chaos
#: harness keys attempt-gated faults off it.
ATTEMPT_ENV = "REPRO_RUN_ATTEMPT"

#: A supervised worker: takes a spec, returns ``(result, elapsed_s)``.
#: Exceptions it raises are converted to error-annotated results by the
#: worker loop, so custom workers (tests, chaos probes) can just raise.
WorkerFn = Callable[[RunSpec], Tuple[RunResult, float]]


class FailureKind(Enum):
    """Why a run failed.  The taxonomy drives the retry policy."""

    #: Exceeded the per-run wall-clock budget; worker killed by the
    #: supervisor.  Transient (system load), so retryable.
    TIMEOUT = "timeout"
    #: Worker process died (signal or nonzero exit) before reporting a
    #: result -- segfault, interpreter abort.  Retryable.
    WORKER_CRASH = "worker_crash"
    #: Worker was SIGKILLed (the kernel OOM-killer's signature) or the
    #: run raised ``MemoryError``.  Retryable: memory pressure is a
    #: property of the host at that moment, not of the spec.
    OOM = "oom"
    #: A runtime invariant monitor fired (:mod:`repro.validation`).
    #: Deterministic -- never retried, always quarantined.
    INVARIANT = "invariant"
    #: Any other in-run exception.  Deterministic model failures repeat
    #: bit-for-bit, so retrying only burns the sweep's time budget.
    EXCEPTION = "exception"


#: Kinds the default policy considers transient.
TRANSIENT_KINDS = frozenset(
    {FailureKind.TIMEOUT, FailureKind.WORKER_CRASH, FailureKind.OOM}
)


def classify_failure(error: Optional[str]) -> Optional[FailureKind]:
    """Map a ``RunResult.error`` string to its :class:`FailureKind`.

    Supervisor-annotated errors carry a ``KIND:`` prefix and classify
    exactly.  Raw tracebacks (as a worker reports them) are sniffed:
    ``MemoryError`` means OOM, ``InvariantViolation`` means a validation
    monitor fired, anything else is a plain exception.  ``None`` for a
    successful run.
    """
    if not error:
        return None
    head = error.split(":", 1)[0].strip()
    if head in FailureKind.__members__:
        return FailureKind[head]
    if "MemoryError" in error:
        return FailureKind.OOM
    if "InvariantViolation" in error:
        return FailureKind.INVARIANT
    return FailureKind.EXCEPTION


def classify_exit(exitcode: Optional[int]) -> Tuple[FailureKind, str]:
    """Classify a worker that died before reporting, from its exit code.

    SIGKILL is the kernel OOM-killer's signature; any other death is a
    worker crash.  Returns the kind and a human-readable detail.
    """
    if exitcode == -int(signal.SIGKILL):
        return FailureKind.OOM, (
            "worker killed by SIGKILL before reporting a result "
            "(likely the kernel OOM-killer)"
        )
    return FailureKind.WORKER_CRASH, (
        f"worker process exited with code {exitcode} before reporting "
        "a result"
    )


def _prefixed_error(kind: FailureKind, detail: str) -> str:
    """Annotate an error string with its kind (idempotent)."""
    head = detail.split(":", 1)[0].strip()
    if head in FailureKind.__members__:
        return detail
    return f"{kind.name}: {detail}"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``max_retries`` counts *re*-dispatches: a run is attempted at most
    ``max_retries + 1`` times.  The backoff for attempt ``n`` (0-based,
    i.e. before re-dispatch ``n+1``) is
    ``min(backoff_max_s, backoff_base_s * 2**n)`` stretched by up to
    ``jitter_fraction``; the jitter is derived from a hash of the run's
    cache key and attempt number, so a replayed sweep waits the exact
    same amounts -- no wall-clock randomness leaks into scheduling.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.25
    backoff_max_s: float = 30.0
    jitter_fraction: float = 0.25
    retryable: frozenset = TRANSIENT_KINDS

    def should_retry(self, kind: FailureKind, attempt: int) -> bool:
        """May attempt ``attempt`` (0-based) be re-dispatched?"""
        return kind in self.retryable and attempt < self.max_retries

    def backoff_s(self, key: str, attempt: int) -> float:
        base = min(self.backoff_max_s, self.backoff_base_s * (2 ** attempt))
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / float(2 ** 64)
        return base * (1.0 + self.jitter_fraction * unit)


@dataclass(frozen=True)
class ResilienceConfig:
    """Supervision knobs for one resilient sweep."""

    #: Per-run wall-clock budget; ``None`` disables the timeout (runs
    #: are still isolated in worker processes and crash-contained).
    run_timeout_s: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Seconds between SIGTERM and SIGKILL when putting down a worker.
    kill_grace_s: float = 1.0
    #: Supervisor poll cadence; only affects timeout/backoff resolution.
    poll_interval_s: float = 0.05


# ----------------------------------------------------------------------
# The sweep journal


@dataclass
class JournalRecord:
    """One journaled run, replayable without re-simulation."""

    key: str
    protocol: str
    seed: int
    status: str  # "ok" | "failed"
    attempts: int
    elapsed_s: float
    failure_kind: Optional[str]
    result: Dict[str, Any]
    #: Id of the worker that journaled the record (``dir://`` backend);
    #: None for records written by the in-process supervisor.
    worker: Optional[str] = None
    #: True when the record replayed a shared-cache hit rather than an
    #: execution (``dir://`` workers journal cache hits so the shared
    #: journal is a complete completion ledger).
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_run_result(self) -> Optional[RunResult]:
        """Rebuild the RunResult, or None on schema drift."""
        try:
            return RunResult(**self.result)
        except TypeError:
            return None


class SweepJournal:
    """Append-only JSONL record of finished runs, keyed by cache key.

    Every record is a single ``os.write`` to an ``O_APPEND`` descriptor,
    fsync'd before the supervisor moves on.  On a local filesystem an
    O_APPEND write of one line is atomic, so concurrent writers (the
    ``dir://`` backend's worker fleet sharing one journal) never
    interleave bytes, and a sweep killed at any instant leaves at worst
    one truncated *trailing* line -- which :meth:`replay` skips.
    Records are append-only; on replay the last record per key wins, so
    a resumed sweep that re-runs a previously failed run simply appends
    the new outcome.  :meth:`compact` rewrites the file keeping only
    the surviving record per key.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fd: Optional[int] = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    @staticmethod
    def default_path(cache_dir: Optional[str] = None) -> str:
        """The journal's home: ``<cache_dir>/journal.jsonl``."""
        return os.path.join(resolve_cache_dir(cache_dir), "journal.jsonl")

    @staticmethod
    def build_record(
        spec: RunSpec,
        result: RunResult,
        attempts: int,
        elapsed_s: float,
        failure_kind: Optional[FailureKind] = None,
        worker: Optional[str] = None,
        cached: bool = False,
    ) -> Dict[str, Any]:
        record = {
            "schema": JOURNAL_SCHEMA_VERSION,
            "key": spec.cache_key(),
            "protocol": spec.protocol.lower(),
            "seed": spec.seed,
            "status": "ok" if result.error is None else "failed",
            "attempts": attempts,
            "elapsed_s": elapsed_s,
            "failure_kind": (
                failure_kind.value if failure_kind is not None else None
            ),
            "written_unix": time.time(),
            "result": dataclasses.asdict(result),
        }
        if worker is not None:
            record["worker"] = worker
        if cached:
            record["cached"] = True
        return record

    @staticmethod
    def _encode(record: Dict[str, Any]) -> bytes:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return (line + "\n").encode("utf-8")

    def record(
        self,
        spec: RunSpec,
        result: RunResult,
        attempts: int,
        elapsed_s: float,
        failure_kind: Optional[FailureKind] = None,
        worker: Optional[str] = None,
        cached: bool = False,
    ) -> None:
        if self._fd is None:
            raise ValueError("journal is closed")
        data = self._encode(self.build_record(
            spec, result, attempts, elapsed_s, failure_kind,
            worker=worker, cached=cached,
        ))
        os.write(self._fd, data)
        os.fsync(self._fd)

    @classmethod
    def append_record(cls, path: str, record: Dict[str, Any]) -> None:
        """Append one record with open-write-fsync-close semantics.

        The ``dir://`` workers use this instead of a long-lived handle:
        if another worker :meth:`compact`-replaces the journal inode
        between two of our appends, a fresh open always lands on the
        live file instead of the orphaned old inode.
        """
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, cls._encode(record))
            os.fsync(fd)
        finally:
            os.close(fd)

    @classmethod
    def compact(cls, path: str) -> int:
        """Atomically rewrite the journal keeping only surviving records.

        A long resilient sweep accretes one line per *attempt* (retries
        append, they don't replace) plus possibly one torn trailing
        line; replay cost and disk grow without bound.  Compaction
        keeps exactly the line that :meth:`replay` would surface for
        each key -- the last valid record, byte-for-byte -- and drops
        superseded attempts and damaged lines.  The rewrite goes
        through a temp file + fsync + ``os.replace``, so a crash
        mid-compaction leaves the original journal untouched.

        Returns the number of lines dropped.  Call only when no other
        process is appending (clean sweep completion).
        """
        survivors: Dict[str, bytes] = {}
        total = 0
        for raw, data in _journal_lines(path):
            total += 1
            key = data.get("key") if data is not None else None
            if not isinstance(key, str):
                continue  # damaged line: drop
            # Preserve first-seen order; a retry overwrites in place.
            survivors[key] = raw if raw.endswith(b"\n") else raw + b"\n"
        dropped = total - len(survivors)
        if dropped <= 0:
            return 0
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.writelines(survivors.values())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return dropped

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @classmethod
    def replay(cls, path: str) -> Dict[str, JournalRecord]:
        """Read a journal back; last record per key wins.

        A truncated or garbled line (the signature of a sweep killed
        mid-write) is skipped rather than fatal -- by construction only
        the final line can be damaged, and its run simply re-executes.
        """
        records: Dict[str, JournalRecord] = {}
        for _raw, data in _journal_lines(path):
            if data is None:
                continue  # torn trailing write: re-run that spec
            try:
                record = JournalRecord(
                    key=data["key"],
                    protocol=data["protocol"],
                    seed=data["seed"],
                    status=data["status"],
                    attempts=data["attempts"],
                    elapsed_s=data["elapsed_s"],
                    failure_kind=data.get("failure_kind"),
                    result=data["result"],
                    worker=data.get("worker"),
                    cached=bool(data.get("cached", False)),
                )
            except KeyError:
                continue  # not a run record (e.g. a PlanJournal line)
            records[record.key] = record
        return records


def _journal_lines(
    path: str,
) -> Iterator[Tuple[bytes, Optional[Dict[str, Any]]]]:
    """Every non-blank journal line with its decoded record.

    The record is ``None`` for a line that is torn or garbled, not a
    JSON object, or of another journal schema; a missing journal yields
    nothing.  The one reader behind run replay, compaction, and plan
    replay, so all three tolerate damage the same way.
    """
    try:
        with open(path, "rb") as handle:
            raw_lines = handle.readlines()
    except OSError:
        return
    for raw in raw_lines:
        if not raw.strip():
            continue
        try:
            data = json.loads(raw)
        except ValueError:
            data = None
        if not isinstance(data, dict) \
                or data.get("schema") != JOURNAL_SCHEMA_VERSION:
            data = None
        yield raw, data


class PlanJournal:
    """A planner's per-step records, kept in a sweep journal.

    The adaptive planner journals one record per batch and the fault
    campaign one per draw, keyed ``<kind>:<name>:<index>``.  They share
    the run journal's file and schema: :meth:`SweepJournal.replay`
    skips them (they carry no run fields) and compaction keeps them
    (their keys are unique).  :meth:`replay` returns this plan's
    records in index order, last record per key winning, with the same
    damage tolerance as run replay.
    """

    def __init__(self, path: str, kind: str, name: str) -> None:
        self.path = path
        self.kind = kind
        self.name = name

    def key(self, index: int) -> str:
        return f"{self.kind}:{self.name}:{index:04d}"

    def append(self, index: int, fields: Dict[str, Any]) -> None:
        SweepJournal.append_record(self.path, {
            "schema": JOURNAL_SCHEMA_VERSION,
            "key": self.key(index),
            "kind": self.kind,
            "name": self.name,
            **fields,
        })

    def replay(self) -> List[Dict[str, Any]]:
        by_key: Dict[str, Dict[str, Any]] = {}
        for _raw, data in _journal_lines(self.path):
            if data is None or data.get("kind") != self.kind \
                    or data.get("name") != self.name:
                continue
            key = data.get("key")
            if isinstance(key, str):
                by_key[key] = data
        return [by_key[key] for key in sorted(by_key)]


# ----------------------------------------------------------------------
# The supervised worker pool


def _worker_main(conn: Any, worker: WorkerFn) -> None:
    """Worker process entry: run every ``(spec, attempt)`` it is sent.

    Replies ``(result, elapsed_s)`` per run.  Any exception the worker
    (or an injected chaos fault) raises is converted to an
    error-annotated result here; a worker that dies mid-run is
    classified by the parent from its exit code.  Exits on ``None`` or
    when the parent's end of the pipe closes.
    """
    # The parent owns the signals: a terminal Ctrl-C reaches the whole
    # process group, and the pool drains by putting its workers down.
    # A forked worker also inherits the supervisor's SIGTERM handler;
    # the default action is what lets SIGTERM stop it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        import faulthandler

        # A forked worker inherits the parent's faulthandler (pytest
        # enables one); an injected crash would dump the whole parent
        # test session's stacks. The parent classifies us from the exit
        # signal, so the dump is pure noise.
        faulthandler.disable()
    except Exception:  # noqa: BLE001 - best-effort hygiene only
        pass
    from repro.experiments.chaos import maybe_inject_fault

    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return  # parent gone
        if job is None:
            return
        spec, attempt = job
        os.environ[ATTEMPT_ENV] = str(attempt)
        try:
            maybe_inject_fault(spec, attempt)
            payload = worker(spec)
        except BaseException:  # noqa: BLE001 - annotate anything, incl. chaos
            payload = (_error_result(spec, traceback.format_exc()), 0.0)
        try:
            conn.send(payload)
        except Exception:  # noqa: BLE001 - parent gone; nothing left to do
            return


def _put_down(proc: Any, grace_s: float) -> None:
    """Terminate a worker: SIGTERM, wait ``grace_s``, then SIGKILL."""
    if proc.is_alive():
        proc.terminate()
        proc.join(grace_s)
    if proc.is_alive():
        proc.kill()
        proc.join(5.0)


@dataclass
class _Slot:
    """One worker process and the run it is executing, if any."""

    proc: Any
    conn: Any
    spec: Optional[RunSpec] = None
    tag: Any = None
    attempt: int = 0
    started: float = 0.0


#: What :meth:`WorkerPool.wait` reports per finished run: the caller's
#: tag, the attempt, the result, its elapsed seconds, and the failure
#: kind (``None`` on success; failed results carry a ``KIND:`` prefix).
Finished = Tuple[Any, int, RunResult, float, Optional[FailureKind]]


class WorkerPool:
    """Up to ``size`` persistent worker processes, supervised.

    :meth:`dispatch` hands a run to an idle worker (starting one when
    fewer than ``size`` exist); :meth:`wait` collects finished runs,
    classifies workers that died, and puts down runs past
    ``run_timeout_s``.  A worker that died, timed out, or reported a
    failed run is retired, so the next run -- a retry included -- starts
    in a fresh process.  ``worker`` is handed over at process start.
    """

    def __init__(
        self,
        worker: WorkerFn,
        size: int,
        run_timeout_s: Optional[float] = None,
        kill_grace_s: float = 1.0,
    ) -> None:
        self.worker = worker
        self.size = size
        self.run_timeout_s = run_timeout_s
        self.kill_grace_s = kill_grace_s
        self._ctx = multiprocessing.get_context()
        self._slots: List[_Slot] = []

    @property
    def busy(self) -> int:
        return sum(1 for slot in self._slots if slot.spec is not None)

    def has_room(self) -> bool:
        return self.busy < self.size

    def dispatch(self, tag: Any, spec: RunSpec, attempt: int) -> None:
        """Start ``spec`` on an idle worker (call only while
        :meth:`has_room`); :meth:`wait` reports it."""
        slot = next(
            (slot for slot in self._slots if slot.spec is None), None
        )
        if slot is None:
            slot = self._spawn()
        slot.spec, slot.tag, slot.attempt = spec, tag, attempt
        slot.started = time.monotonic()
        try:
            slot.conn.send((spec, attempt))
        except OSError:
            pass  # worker already dead: wait() classifies its exit

    def _spawn(self) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn, self.worker),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        slot = _Slot(proc=proc, conn=parent_conn)
        self._slots.append(slot)
        return slot

    def _retire(self, slot: _Slot) -> None:
        self._slots.remove(slot)
        _put_down(slot.proc, self.kill_grace_s)
        slot.conn.close()

    def wait(self, timeout: float) -> List[Finished]:
        """Collect runs finished within ``timeout`` seconds."""
        busy = [slot for slot in self._slots if slot.spec is not None]
        if not busy:
            return []
        ready = set(multiprocessing.connection.wait(
            [slot.conn for slot in busy], timeout=timeout
        ))
        finished: List[Finished] = []
        now = time.monotonic()
        for slot in busy:
            if slot.conn in ready:
                finished.append(self._reap(slot))
            elif (
                self.run_timeout_s is not None
                and now - slot.started >= self.run_timeout_s
                and not slot.conn.poll()  # a result racing the deadline
            ):
                finished.append(self._fail(
                    slot, FailureKind.TIMEOUT,
                    f"run exceeded the {self.run_timeout_s:.1f}s "
                    "wall-clock budget; worker terminated by the "
                    "supervisor",
                    now - slot.started,
                ))
        return finished

    def _reap(self, slot: _Slot) -> Finished:
        """One worker whose pipe became readable: a result or its EOF."""
        try:
            result, elapsed = slot.conn.recv()
        except (EOFError, OSError):
            slot.proc.join(5.0)  # died before reporting
            kind, detail = classify_exit(slot.proc.exitcode)
            return self._fail(
                slot, kind, detail, time.monotonic() - slot.started
            )
        if result.error is not None:
            kind = classify_failure(result.error) or FailureKind.EXCEPTION
            return self._fail(slot, kind, result.error, elapsed)
        finished = (slot.tag, slot.attempt, result, elapsed, None)
        slot.spec = slot.tag = None
        return finished

    def _fail(
        self, slot: _Slot, kind: FailureKind, detail: str, elapsed: float
    ) -> Finished:
        assert slot.spec is not None
        self._retire(slot)
        result = _error_result(slot.spec, _prefixed_error(kind, detail))
        return (slot.tag, slot.attempt, result, elapsed, kind)

    def run(
        self,
        spec: RunSpec,
        attempt: int = 0,
        poll_interval_s: float = 0.05,
        on_poll: Optional[Callable[[], None]] = None,
    ) -> Tuple[RunResult, float, Optional[FailureKind]]:
        """Execute one run and wait for it; returns ``(result,
        elapsed_s, failure_kind)``.

        ``on_poll`` runs once per poll tick while the run is in flight
        (the ``dir://`` lease heartbeat); if it raises, the worker is
        put down before the exception propagates.  Retry policy is the
        caller's job.
        """
        self.dispatch(None, spec, attempt)
        try:
            while True:
                for _tag, _attempt, result, elapsed, kind in self.wait(
                    poll_interval_s
                ):
                    return result, elapsed, kind
                if on_poll is not None:
                    on_poll()
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        """Put down every worker, idle or busy."""
        for slot in list(self._slots):
            self._retire(slot)

    def close(self) -> None:
        """Stop idle workers cleanly and put down busy ones."""
        for slot in self._slots:
            if slot.spec is None:
                try:
                    slot.conn.send(None)
                except OSError:
                    pass
        for slot in self._slots:
            if slot.spec is None:
                slot.proc.join(self.kill_grace_s)
        self.abort()


# ----------------------------------------------------------------------
# The supervisor


def execute_runs_resilient(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = 1,
    use_cache: bool = False,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    resilience: Optional[ResilienceConfig] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    worker: WorkerFn = _execute_spec,
) -> List[RunOutcome]:
    """Execute run specs on a supervised pool; returns ordered outcomes.

    ``jobs=None`` or ``jobs<=0`` means one worker per CPU; ``jobs=1``
    means one worker process.  Results come back in ``specs`` order
    regardless of completion order.  A crash or hang is isolated to its
    own run, a wall-clock timeout is enforced from the parent, and
    transient failures retry with backoff (``resilience`` defaults to
    :class:`ResilienceConfig`).

    Finished runs -- including quarantined failures -- are journaled
    when ``journal_path`` is given, or at the cache dir's default path
    when ``resume=True``; with ``resume=True`` previously completed
    runs replay from the journal and only failures (and never-started
    specs) are dispatched.  Without either, no journal is written.

    On SIGINT/SIGTERM the supervisor drains: active workers are
    terminated, the journal stays consistent, and ``KeyboardInterrupt``
    is raised -- re-invoke with ``resume=True`` to continue.

    ``worker`` exists for the chaos harness and tests: any picklable
    top-level function with the :data:`WorkerFn` contract can stand in
    for the real simulation worker.
    """
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    config = resilience if resilience is not None else ResilienceConfig()
    directory = resolve_cache_dir(cache_dir)
    if use_cache:
        sweep_stale_cache_tmps(directory)
    path = journal_path
    if path is None and resume:
        path = SweepJournal.default_path(directory)
    replayed = SweepJournal.replay(path) if resume and path else {}

    keys = [spec.cache_key() for spec in specs]
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    pending: deque = deque()
    for index, spec in enumerate(specs):
        record = replayed.get(keys[index])
        if record is not None and record.ok:
            result = record.to_run_result()
            if result is not None:
                outcomes[index] = RunOutcome(
                    spec, result, record.elapsed_s, from_cache=False,
                    attempts=record.attempts, from_journal=True,
                )
                continue
        if use_cache:
            cached = parallel.cache_load(directory, spec)
            if cached is not None:
                outcomes[index] = RunOutcome(
                    spec, cached, 0.0, from_cache=True
                )
                continue
        pending.append((index, 0))

    if not pending:
        return [outcome for outcome in outcomes if outcome is not None]

    journal = SweepJournal(path) if path else None
    pool = WorkerPool(
        worker, min(jobs, len(pending)),
        run_timeout_s=config.run_timeout_s,
        kill_grace_s=config.kill_grace_s,
    )
    delayed: List[Tuple[float, int, int]] = []  # (ready_at, index, attempt)
    stop: Dict[str, Optional[int]] = {"signal": None}

    def _request_stop(signum: int, frame: Any) -> None:
        stop["signal"] = signum

    # Signal handlers can only be installed from the main thread; a
    # supervisor running elsewhere still works, it just drains only on
    # exceptions.
    in_main = threading.current_thread() is threading.main_thread()
    previous_handlers = {}
    if in_main:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _request_stop)

    def _finalize(
        index: int,
        result: RunResult,
        attempts: int,
        elapsed: float,
        kind: Optional[FailureKind],
    ) -> None:
        spec = specs[index]
        outcomes[index] = RunOutcome(
            spec, result, elapsed, from_cache=False,
            attempts=attempts, failure_kind=kind,
        )
        if journal is not None:
            journal.record(spec, result, attempts, elapsed, kind)
        if use_cache and result.error is None:
            parallel.cache_store(directory, spec, result)
        if progress is not None:
            progress(spec.protocol, spec.seed)

    def _refill() -> None:
        while pending and pool.has_room() and stop["signal"] is None:
            index, attempt = pending.popleft()
            pool.dispatch(index, specs[index], attempt)

    try:
        while (pending or delayed or pool.busy) and stop["signal"] is None:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index, attempt = heapq.heappop(delayed)
                pending.append((index, attempt))
            _refill()
            if not pool.busy:
                # Everything is waiting out a backoff: sleep until the
                # earliest becomes ready (in poll-sized slices so a
                # signal still drains promptly).
                if delayed:
                    time.sleep(min(
                        config.poll_interval_s,
                        max(0.0, delayed[0][0] - time.monotonic()),
                    ))
                continue
            finished = pool.wait(config.poll_interval_s)
            # Refill the freed workers before journaling and caching
            # (fsyncs), so no worker idles on the parent's disk writes.
            _refill()
            for index, attempt, result, elapsed, kind in finished:
                if kind is not None and config.retry.should_retry(
                    kind, attempt
                ):
                    delay = config.retry.backoff_s(keys[index], attempt)
                    heapq.heappush(
                        delayed, (time.monotonic() + delay, index, attempt + 1)
                    )
                else:
                    _finalize(index, result, attempt + 1, elapsed, kind)
    finally:
        pool.close()
        if in_main:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
        if journal is not None:
            journal.close()

    if stop["signal"] is not None:
        done = sum(1 for outcome in outcomes if outcome is not None)
        where = f"journaled to {path}" if path else "finished"
        raise KeyboardInterrupt(
            f"sweep interrupted by signal {stop['signal']}: {done}/"
            f"{len(specs)} run(s) {where}; re-run with resume to continue"
        )
    if path:
        # Clean completion: every spec has a surviving record, so
        # superseded retry lines (and any torn line inherited from a
        # crashed ancestor sweep) are dead weight -- drop them.
        SweepJournal.compact(path)
    return [outcome for outcome in outcomes if outcome is not None]
