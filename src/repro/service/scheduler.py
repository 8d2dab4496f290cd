"""Admission control and execution for service jobs.

Three pieces:

:class:`ServiceRuntime`
    The shared compute substrate every job runs on — the campaign
    executor (optionally a persistent process pool that stays warm
    across jobs), **one** unit cache (the units of every campaign kind),
    **one** job-record cache and **one** server-wide
    :class:`~repro.campaign.telemetry.CampaignTelemetry` feeding
    ``/metrics``.  This replaces the per-invocation setup the CLI does:
    a server that has simulated a circuit once answers the next
    overlapping request from cache, whoever asks.

:class:`ExecutorLeasePool`
    A non-blocking lease broker over the runtime's executor.  With N
    scheduler workers, exactly one job at a time fans out over the
    process pool while the others run their units serially in their
    own worker thread — the pool stays contention-free without idling
    the extra workers.

:class:`JobScheduler`
    A bounded FIFO queue in front of ``workers`` worker threads.
    Submissions beyond ``queue_limit`` are rejected with
    :class:`~repro.errors.QueueFullError` (HTTP 429 + ``Retry-After``);
    identical re-submissions of completed deterministic jobs are
    answered instantly from the job-record cache.  Running jobs are
    cancelled cooperatively (the flag is observed between work units)
    and budgeted by a per-job deadline that starts at **submission** —
    time spent queued counts against the budget, and a job whose
    deadline passes while still queued fails immediately without
    running.  :meth:`JobScheduler.shutdown` stops admission and, when
    draining, lets every accepted job finish before the workers exit —
    the graceful-shutdown path SIGTERM takes.

Concurrency model: up to ``workers`` jobs execute at once, each on the
executor lease it could grab (or serially in its worker thread).  All
of them share the unit cache — safe by the
:class:`~repro.campaign.cache.ResultCache` consistency contract — so
concurrent jobs over the same circuit de-duplicate work through the
cache even while racing.
"""

from __future__ import annotations

import collections
import threading
import time
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from ..campaign.cache import ResultCache
from ..campaign.executor import Executor
from ..campaign.telemetry import CampaignTelemetry
from ..errors import (
    JobNotFoundError,
    JobCancelledError,
    JobTimeoutError,
    QueueFullError,
    ReproError,
    ServiceError,
)
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JOB_RECORD,
    Job,
    JobTelemetry,
    JobTombstone,
    execute_job,
    job_record,
    normalize_params,
)


class ExecutorLeasePool:
    """Non-blocking lease broker over the runtime's campaign executor.

    :meth:`acquire` hands out the executor while no running job holds
    it, else ``None`` — it never blocks, because a scheduler worker
    that cannot get the lease is perfectly able to run its job's units
    serially in its own thread.  :meth:`release` returns the lease
    (``None`` is a no-op, so callers can release whatever
    :meth:`acquire` gave them).
    """

    def __init__(self, executor: Optional[Executor] = None):
        self._executor = executor
        self._free = executor is not None
        self._lock = threading.Lock()

    def acquire(self) -> Optional[Executor]:
        """The executor if it is free, or ``None`` (run serially); never
        blocks."""
        with self._lock:
            if self._free:
                self._free = False
                return self._executor
        return None

    def release(self, executor: Optional[Executor]) -> None:
        if executor is None:
            return
        with self._lock:
            if self._free:
                raise ServiceError("executor lease released twice")
            self._free = True

    def close(self) -> None:
        """Release the executor's worker processes."""
        close = getattr(self._executor, "close", None)
        if close is not None:
            close()


class ServiceRuntime:
    """Shared executor, caches and telemetry for every job.

    Parameters
    ----------
    executor:
        Campaign executor shared by all jobs (construct a
        :class:`~repro.campaign.executor.ParallelExecutor` with
        ``persistent=True`` so its process pool outlives individual
        jobs), brokered to at most one running job at a time via
        :class:`ExecutorLeasePool`; ``None`` runs every job serially in
        its scheduler worker thread.
    cache_dir:
        Root directory for the two result caches; ``None`` disables
        persistence (jobs still share the executor and telemetry).
        Layout: ``<dir>/units`` (the unit results of every campaign
        kind), ``<dir>/jobs`` (completed job records).  Stale ``.tmp``
        residue of crashed writers is swept at startup.
    telemetry:
        Server-wide telemetry instance (defaults to a fresh one); give
        it a ``trace_path`` to keep a JSONL event log of every unit the
        server ever simulates.
    """

    def __init__(
        self,
        executor: Optional[Executor] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        telemetry: Optional[CampaignTelemetry] = None,
    ):
        #: the shared executor; jobs under a :class:`JobScheduler` use
        #: the lease their worker acquired instead (see
        #: :func:`repro.service.jobs.job_executor`)
        self.executor = executor
        self.lease_pool = ExecutorLeasePool(executor)
        self.telemetry = telemetry or CampaignTelemetry()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        #: the unit cache every job's campaign reads and writes
        self.cache: Optional[ResultCache] = None
        self.job_cache: Optional[ResultCache] = None
        if self.cache_dir is not None:
            self.cache = ResultCache(self.cache_dir / "units")
            self.job_cache = ResultCache(self.cache_dir / "jobs")
            for cache in (self.cache, self.job_cache):
                cache.sweep_stale()

    def close(self) -> None:
        """Release the executor's workers and close the telemetry."""
        self.lease_pool.close()
        self.telemetry.close()


class JobScheduler:
    """Bounded FIFO job queue in front of a pool of worker threads.

    Parameters
    ----------
    runtime:
        The shared :class:`ServiceRuntime` jobs execute on.
    queue_limit:
        Maximum number of *queued* (not yet running) jobs; the next
        submission beyond it raises
        :class:`~repro.errors.QueueFullError`.
    job_timeout:
        Default per-job time budget in seconds (``None`` = unlimited);
        a job's ``timeout_s`` param takes precedence.  The budget
        starts at submission — queueing time counts — and is enforced
        cooperatively between work units once running (a job that
        expires while still queued fails without running at all).
    retry_after_s:
        Backoff hint carried by queue-full rejections.
    keep_jobs:
        Completed jobs retained for ``GET /jobs`` before the oldest
        terminal records are pruned from memory (their cached results
        survive on disk).  A pruned job leaves a lightweight
        :class:`~repro.service.jobs.JobTombstone` behind so a client
        still polling it sees the terminal state — and can fetch the
        result through the job-record cache — instead of a 404.
    tombstone_ttl:
        Seconds a pruned job's tombstone stays resolvable (default 15
        minutes; ``0`` disables tombstones and restores the old
        prune-to-404 behaviour).
    workers:
        Worker threads executing jobs concurrently.  Each running job
        holds at most one lease on the runtime's executor pool; a job
        that could not get a lease runs its units serially in its
        worker thread.
    """

    def __init__(
        self,
        runtime: ServiceRuntime,
        queue_limit: int = 16,
        job_timeout: Optional[float] = None,
        retry_after_s: float = 1.0,
        keep_jobs: int = 256,
        workers: int = 1,
        tombstone_ttl: float = 900.0,
    ):
        if queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {queue_limit}")
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if tombstone_ttl < 0:
            raise ServiceError(
                f"tombstone_ttl must be >= 0, got {tombstone_ttl:g}"
            )
        self.runtime = runtime
        self.queue_limit = queue_limit
        self.job_timeout = job_timeout
        self.retry_after_s = retry_after_s
        self.keep_jobs = keep_jobs
        self.workers = workers
        self.tombstone_ttl = tombstone_ttl
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queue: Deque[Job] = collections.deque()
        self._jobs: "collections.OrderedDict[str, Job]" = (
            collections.OrderedDict()
        )
        self._tombstones: "collections.OrderedDict[str, JobTombstone]" = (
            collections.OrderedDict()
        )
        self._running: Dict[str, Job] = {}
        self._accepting = True
        self._draining = False
        self._stopped = False
        self._paused = False
        self._threads = [
            threading.Thread(
                target=self._run, name=f"repro-worker-{index}", daemon=True
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # submission / lookup

    def submit(self, kind: str, params: Optional[dict] = None) -> Job:
        """Validate, admit and enqueue one job (or answer it from cache).

        Raises
        ------
        JobValidationError
            Malformed payload (HTTP 400).
        QueueFullError
            Admission control rejected the job (HTTP 429).
        ServiceError
            The scheduler is shutting down (HTTP 503).
        """
        job = Job(kind, normalize_params(kind, params))

        record = None
        if job.cacheable and self.runtime.job_cache is not None:
            record = self.runtime.job_cache.get(job.key, JOB_RECORD)
        if record is not None:
            job.result = record.values["result"]
            job.from_cache = True
            job.started_at = job.finished_at = time.time()
            job.state = DONE
            with self._lock:
                self._remember(job)
            return job

        timeout_s = job.params.get("timeout_s")
        if timeout_s is None:
            timeout_s = self.job_timeout
        if timeout_s is not None:
            # the budget starts now: queueing time counts against it
            job.deadline = time.monotonic() + timeout_s

        with self._lock:
            if not self._accepting:
                raise ServiceError(
                    "the server is shutting down and no longer accepts jobs"
                )
            if len(self._queue) >= self.queue_limit:
                raise QueueFullError(
                    f"job queue is full ({self.queue_limit} queued); "
                    f"retry after {self.retry_after_s:g}s",
                    retry_after_s=self.retry_after_s,
                )
            self._remember(job)
            self._queue.append(job)
            self._wake.notify()
        return job

    def _remember(self, job: Job) -> None:
        """Register a job, pruning the oldest terminal ones (locked).

        Pruned jobs are demoted to :class:`JobTombstone`s rather than
        forgotten: a client that saw its job accepted must never get a
        404 for it just because the server was busy enough to rotate
        the job table before the next poll (the pruning race).
        """
        self._jobs[job.id] = job
        while len(self._jobs) > self.keep_jobs:
            for job_id, old in self._jobs.items():
                if old.done:
                    del self._jobs[job_id]
                    self._entomb(old)
                    break
            else:
                break

    def _entomb(self, job: Job) -> None:
        """Demote one pruned terminal job to a tombstone (locked)."""
        if self.tombstone_ttl <= 0:
            return
        self._prune_tombstones()
        self._tombstones[job.id] = JobTombstone(
            id=job.id,
            kind=job.kind,
            key=job.key,
            state=job.state,
            error=job.error,
            submitted_at=job.submitted_at,
            started_at=job.started_at,
            finished_at=job.finished_at,
            from_cache=job.from_cache,
            cacheable=job.cacheable,
            wall_s=job.wall_s,
            expires_at=time.monotonic() + self.tombstone_ttl,
        )

    def _prune_tombstones(self) -> None:
        """Drop expired tombstones (locked); insertion order = expiry order."""
        now = time.monotonic()
        while self._tombstones:
            oldest = next(iter(self._tombstones.values()))
            if oldest.expires_at > now:
                break
            del self._tombstones[oldest.id]

    def get(self, job_id: str) -> Job:
        """The live :class:`Job`; raises even if only a tombstone remains."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id!r}")
        return job

    def lookup(self, job_id: str) -> Union[Job, JobTombstone]:
        """The live job *or* its tombstone — what the HTTP layer serves."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            self._prune_tombstones()
            tombstone = self._tombstones.get(job_id)
        if tombstone is None:
            raise JobNotFoundError(f"no such job: {job_id!r}")
        return tombstone

    def api_view(self, job_id: str, include_result: bool = False) -> dict:
        """The ``GET /jobs/<id>[/result]`` payload, tombstones resolved.

        A tombstoned ``done`` job's result is re-hydrated from the
        job-record cache under its content key; if the record is gone
        too (cache cleared, non-cacheable job), the lookup raises
        :class:`~repro.errors.JobNotFoundError` naming the cause.
        """
        entry = self.lookup(job_id)
        view = entry.to_api(include_result=include_result)
        if (
            include_result
            and isinstance(entry, JobTombstone)
            and entry.state == DONE
        ):
            record = None
            if entry.cacheable and self.runtime.job_cache is not None:
                record = self.runtime.job_cache.get(entry.key, JOB_RECORD)
            if record is None:
                raise JobNotFoundError(
                    f"job {job_id!r} was pruned and its result record "
                    "is no longer cached"
                )
            view["result"] = record.values["result"]
        return view

    def tombstone_count(self) -> int:
        """Live (unexpired) tombstones, for /metrics."""
        with self._lock:
            self._prune_tombstones()
            return len(self._tombstones)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def busy_count(self) -> int:
        """Workers currently executing a job (for /healthz and metrics)."""
        with self._lock:
            return len(self._running)

    def counts_by_state(self) -> Dict[str, int]:
        """``state -> count`` over every remembered job (for metrics)."""
        counts = {state: 0 for state in (QUEUED, RUNNING, DONE, FAILED,
                                         CANCELLED)}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # cancellation / shutdown

    def cancel(self, job_id: str) -> Union[Job, JobTombstone]:
        """Cancel a queued job immediately or a running one cooperatively.

        Terminal jobs — tombstoned ones included — are returned
        unchanged (cancellation is idempotent and never un-finishes
        work).
        """
        job = self.lookup(job_id)
        if isinstance(job, JobTombstone):
            return job
        with self._lock:
            if job.state == QUEUED:
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass
                job.finished_at = time.time()
                job.error = "cancelled while queued"
                job.state = CANCELLED
                self._idle.notify_all()
                return job
        # running: flip the flag; the job observes it between units
        job.cancel_event.set()
        return job

    def pause(self) -> None:
        """Hold every worker before its next job (testing / maintenance)."""
        with self._lock:
            self._paused = True

    def resume(self) -> None:
        with self._lock:
            self._paused = False
            self._wake.notify_all()

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None):
        """Stop admission and bring every worker to rest.

        ``drain=True`` (the SIGTERM path) lets all running jobs *and*
        everything already queued finish; ``drain=False`` cancels the
        queue and cooperatively cancels every running job.  Returns
        once the worker threads have exited (or ``timeout`` elapsed,
        shared across the joins).
        """
        with self._lock:
            self._accepting = False
            self._draining = drain
            if not drain:
                while self._queue:
                    job = self._queue.popleft()
                    job.finished_at = time.time()
                    job.error = "cancelled by shutdown"
                    job.state = CANCELLED
                running = list(self._running.values())
            else:
                running = []
            self._paused = False
            self._stopped = True
            self._wake.notify_all()
        for job in running:
            job.cancel_event.set()
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            thread.join(timeout=remaining)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for every worker thread to exit; True when all did."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            thread.join(timeout=remaining)
        return not any(thread.is_alive() for thread in self._threads)

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running (for tests)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._queue or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)
        return True

    # ------------------------------------------------------------------
    # the workers

    def _next_job(self) -> Optional[Job]:
        """Block for the next runnable job; ``None`` means exit.

        Jobs whose submission-time deadline already passed while they
        sat in the queue are failed here, without ever running — their
        budget is spent, so starting them would only waste a worker.
        """
        with self._lock:
            while True:
                if self._stopped and (not self._draining or not self._queue):
                    return None
                if self._queue and not self._paused:
                    job = self._queue.popleft()
                    now = time.monotonic()
                    if job.deadline is not None and now > job.deadline:
                        job.started_at = job.finished_at = time.time()
                        job.error = (
                            "timeout: job expired while queued "
                            "(budget starts at submission)"
                        )
                        job.state = FAILED
                        self._idle.notify_all()
                        continue
                    job.state = RUNNING
                    job.started_at = time.time()
                    self._running[job.id] = job
                    return job
                self._wake.wait(timeout=0.1)

    def _run(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            self._execute(job)
            with self._lock:
                self._running.pop(job.id, None)
                self._idle.notify_all()

    def _execute(self, job: Job) -> None:
        telemetry = JobTelemetry(
            job, shared=self.runtime.telemetry, deadline=job.deadline
        )
        job.telemetry = telemetry
        lease = self.runtime.lease_pool.acquire()
        job.executor = lease  # None -> units run serially in this thread
        try:
            telemetry.checkpoint()
            job.result = execute_job(job, self.runtime, telemetry)
            state = DONE
        except JobCancelledError as exc:
            state, job.error = CANCELLED, str(exc)
        except JobTimeoutError as exc:
            state, job.error = FAILED, f"timeout: {exc}"
        except ReproError as exc:
            state, job.error = FAILED, f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 — jobs must not kill the worker
            state, job.error = FAILED, f"{type(exc).__name__}: {exc}"
        finally:
            self.runtime.lease_pool.release(lease)
            telemetry.close()
        # Readers poll without the lock, so the terminal state is
        # published last: no view may show it without finished_at, and
        # a resubmission made after it must find the cached record.
        job.finished_at = time.time()
        if (
            state == DONE
            and job.cacheable
            and self.runtime.job_cache is not None
        ):
            try:
                self.runtime.job_cache.put(job.key, job_record(job))
            except OSError:
                pass  # a full/read-only disk must not fail the job
        job.state = state
