"""Pluggable sweep executors: one lifecycle, many backends.

Everything above the run level -- ``runner.compare_protocols``, the
experiment spec runner, and the CLI -- schedules sweeps through the
:class:`SweepExecutor` protocol instead of calling a process pool
directly.  An executor owns the full lifecycle of one sweep:

``submit(specs)``
    Publish the work set.  For the local backend this just records the
    specs; for the ``dir://`` backend it writes the sweep manifest into
    the shared directory so external workers can discover it.
``collect(progress)``
    Drive the sweep to completion and return ordered
    :class:`~repro.experiments.parallel.RunOutcome` objects -- one per
    spec, in spec order.
``abort()`` / ``close()``
    Tear down in-flight work / release resources.  Executors are
    context managers; :meth:`SweepExecutor.execute` is the one-call
    convenience used by ``compare_protocols``.

Backends are addressed by URI:

``local-pool``
    The supervised pool of persistent worker processes on this host
    (:func:`~repro.experiments.resilience.execute_runs_resilient`):
    crash containment, retries, and SIGINT draining on every sweep; a
    journal whenever :func:`resolve_journal_path` names one.
``dir://<shared-dir>``
    The distributed backend (:mod:`repro.experiments.distributed`): a
    lease-based work queue over a shared directory that any number of
    worker processes -- spawned by the coordinator or started by hand
    with ``repro worker`` on other hosts -- drain cooperatively.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.parallel import (
    ProgressCallback,
    RunOutcome,
    RunSpec,
)
from repro.experiments.resilience import (
    ResilienceConfig,
    RetryPolicy,
    SweepJournal,
    WorkerFn,
    _execute_spec,
    execute_runs_resilient,
)

LOCAL_POOL_KIND = "local-pool"
DIR_KIND = "dir"

#: URI spellings accepted for the local backend.
_LOCAL_ALIASES = frozenset({"", "local-pool", "local", "pool"})


class BackendError(ValueError):
    """An unusable backend URI or backend/argument mismatch."""


@dataclass(frozen=True)
class Backend:
    """A parsed sweep backend address."""

    kind: str
    #: Shared sweep directory for ``dir`` backends; None for local.
    root: Optional[str] = None

    def uri(self) -> str:
        if self.kind == DIR_KIND:
            return f"dir://{self.root}"
        return LOCAL_POOL_KIND


def parse_backend(uri: Optional[str]) -> Backend:
    """Parse a backend URI (``local-pool`` or ``dir://<shared-dir>``).

    ``None`` and the empty string mean the default local pool, so specs
    and CLI flags can simply omit the field.
    """
    if uri is None or uri in _LOCAL_ALIASES:
        return Backend(kind=LOCAL_POOL_KIND)
    if uri.startswith("dir://"):
        root = uri[len("dir://"):]
        if not root:
            raise BackendError(
                "dir:// backend needs a shared directory, e.g. "
                "dir:///mnt/shared/sweep or dir://./sweepdir"
            )
        return Backend(kind=DIR_KIND, root=os.path.expanduser(root))
    raise BackendError(
        f"unknown sweep backend {uri!r}; expected 'local-pool' or "
        "'dir://<shared-dir>'"
    )


def resolve_journal_path(
    backend: Optional[object] = None,
    *,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    journal_path: Optional[str] = None,
    run_timeout_s: Optional[float] = None,
    max_retries: Optional[int] = None,
) -> Optional[str]:
    """Where a sweep's journal lives, or ``None`` when it keeps none.

    The shared ``dir://`` journal; else the explicit ``journal_path``;
    else ``<cache_dir>/journal.jsonl`` when the sweep asks for resume,
    a run timeout, or a retry budget.  Executors journal runs there and
    the adaptive and campaign planners journal their plans there.
    """
    parsed = (
        backend if isinstance(backend, Backend)
        else parse_backend(backend if backend is None else str(backend))
    )
    if parsed.kind == DIR_KIND:
        assert parsed.root is not None
        return os.path.join(parsed.root, "journal.jsonl")
    if journal_path is not None:
        return journal_path
    if resume or run_timeout_s is not None or max_retries is not None:
        return SweepJournal.default_path(cache_dir)
    return None


class SweepExecutor:
    """Lifecycle protocol every sweep backend implements.

    Subclasses implement :meth:`submit` and :meth:`collect`;
    :meth:`abort` and :meth:`close` are no-ops unless the backend holds
    external resources (worker processes, claim files).
    """

    def submit(self, specs: Sequence[RunSpec]) -> None:
        raise NotImplementedError

    def collect(
        self, progress: Optional[ProgressCallback] = None
    ) -> List[RunOutcome]:
        raise NotImplementedError

    def abort(self) -> None:  # pragma: no cover - default no-op
        pass

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def execute(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[RunOutcome]:
        """submit + collect + close in one call."""
        self.submit(specs)
        try:
            return self.collect(progress=progress)
        finally:
            self.close()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class LocalPoolExecutor(SweepExecutor):
    """The local backend: the supervised worker pool on this host.

    ``jobs`` worker processes (one per CPU for ``jobs<=0``) execute the
    sweep under :func:`execute_runs_resilient`; ``resilience`` sets the
    timeout and retry policy (default :class:`ResilienceConfig`).  Runs
    are journaled to ``journal_path`` when one is given (or at the
    cache dir's default path under ``resume``), and not at all
    otherwise.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        use_cache: bool = False,
        cache_dir: Optional[str] = None,
        resilience: Optional[ResilienceConfig] = None,
        journal_path: Optional[str] = None,
        resume: bool = False,
        worker: Optional[WorkerFn] = None,
    ) -> None:
        self.jobs = jobs
        self.use_cache = use_cache
        self.cache_dir = cache_dir
        self.resilience = resilience
        self.journal_path = journal_path
        self.resume = resume
        self.worker = worker
        self._specs: Optional[List[RunSpec]] = None

    def submit(self, specs: Sequence[RunSpec]) -> None:
        if self._specs is not None:
            raise RuntimeError("executor already has a submitted sweep")
        self._specs = list(specs)

    def collect(
        self, progress: Optional[ProgressCallback] = None
    ) -> List[RunOutcome]:
        if self._specs is None:
            raise RuntimeError("collect() before submit()")
        return execute_runs_resilient(
            self._specs,
            jobs=self.jobs,
            use_cache=self.use_cache,
            cache_dir=self.cache_dir,
            progress=progress,
            resilience=self.resilience,
            journal_path=self.journal_path,
            resume=self.resume,
            worker=self.worker or _execute_spec,
        )


def create_executor(
    backend: Optional[object] = None,
    *,
    jobs: Optional[int] = 1,
    use_cache: bool = False,
    cache_dir: Optional[str] = None,
    run_timeout_s: Optional[float] = None,
    max_retries: Optional[int] = None,
    resume: bool = False,
    journal_path: Optional[str] = None,
    workers: Optional[int] = None,
    lease_timeout_s: Optional[float] = None,
    worker_fn: Optional[WorkerFn] = None,
) -> SweepExecutor:
    """Build the executor for a backend URI (or parsed :class:`Backend`).

    For ``local-pool`` the sweep runs on the supervised pool with
    ``run_timeout_s`` and ``max_retries`` (default budget when unset),
    journaled where :func:`resolve_journal_path` says.  ``workers`` and
    ``lease_timeout_s`` only apply to ``dir://`` backends.
    """
    parsed = (
        backend if isinstance(backend, Backend)
        else parse_backend(backend if backend is None else str(backend))
    )
    if parsed.kind == LOCAL_POOL_KIND:
        retry = (
            RetryPolicy(max_retries=max_retries)
            if max_retries is not None else RetryPolicy()
        )
        return LocalPoolExecutor(
            jobs=jobs,
            use_cache=use_cache,
            cache_dir=cache_dir,
            resilience=ResilienceConfig(
                run_timeout_s=run_timeout_s, retry=retry
            ),
            journal_path=resolve_journal_path(
                parsed, cache_dir=cache_dir, resume=resume,
                journal_path=journal_path, run_timeout_s=run_timeout_s,
                max_retries=max_retries,
            ),
            resume=resume,
            worker=worker_fn,
        )
    # Imported lazily: distributed pulls in telemetry + manifest
    # machinery the local pool never needs.
    from repro.experiments.distributed import DirExecutor, LeaseConfig

    lease_kwargs = {}
    if lease_timeout_s is not None:
        lease_kwargs["lease_timeout_s"] = lease_timeout_s
    if run_timeout_s is not None:
        lease_kwargs["run_timeout_s"] = run_timeout_s
    if max_retries is not None:
        lease_kwargs["max_retries"] = max_retries
    assert parsed.root is not None
    return DirExecutor(
        root=parsed.root,
        workers=workers if workers is not None else (jobs or 1),
        lease=LeaseConfig(**lease_kwargs),
        use_cache=use_cache,
        resume=resume,
        worker_fn=worker_fn or _execute_spec,
    )
