"""Concurrency battery for the multi-worker scheduler.

Covers the failure modes the N-worker pool introduces: parallel job
execution, executor-lease exclusivity, queued-deadline expiry,
cancellation with multiple workers, drain-under-load, and 429
backpressure with concurrent submitters.  Deterministic runners are
injected through ``repro.service.jobs.RUNNERS`` (the ``verify`` slot),
same pattern as ``test_scheduler.py``.
"""

import threading
import time

import pytest

import repro.service.jobs as jobs_module
from repro.errors import QueueFullError, ServiceError
from repro.service.jobs import CANCELLED, DONE, FAILED, job_executor
from repro.service.scheduler import (
    ExecutorLeasePool,
    JobScheduler,
    ServiceRuntime,
)


@pytest.fixture
def runtime(tmp_path):
    runtime = ServiceRuntime(cache_dir=tmp_path / "cache")
    yield runtime
    runtime.close()


def stub_runner(monkeypatch, runner):
    monkeypatch.setitem(jobs_module.RUNNERS, "verify", runner)


def verify_params(seed):
    """Distinct deterministic params per job (distinct cache keys)."""
    return {"circuits": [], "seed": seed}


class TestWorkerPool:
    def test_rejects_bad_workers(self, runtime):
        with pytest.raises(ServiceError):
            JobScheduler(runtime, workers=0)

    def test_n_workers_run_jobs_concurrently(self, runtime, monkeypatch):
        """Three jobs pass a 3-party barrier — impossible unless three
        worker threads execute them at the same time."""
        barrier = threading.Barrier(3, timeout=10.0)

        def runner(job, rt, telemetry):
            barrier.wait()
            return {"ok": True}

        stub_runner(monkeypatch, runner)
        scheduler = JobScheduler(runtime, queue_limit=8, workers=3)
        try:
            jobs = [
                scheduler.submit("verify", verify_params(index))
                for index in range(3)
            ]
            assert scheduler.wait_idle(timeout=10.0)
            assert [job.state for job in jobs] == [DONE] * 3
        finally:
            scheduler.shutdown(drain=False, timeout=5.0)

    def test_busy_count_tracks_running_jobs(self, runtime, monkeypatch):
        release = threading.Event()
        # two runners plus this thread meet at the barrier
        started = threading.Barrier(3, timeout=10.0)

        def runner(job, rt, telemetry):
            started.wait()
            release.wait(timeout=10.0)
            return {}

        stub_runner(monkeypatch, runner)
        scheduler = JobScheduler(runtime, queue_limit=8, workers=2)
        try:
            for index in range(2):
                scheduler.submit("verify", verify_params(10 + index))
            started.wait()
            assert scheduler.busy_count() == 2
            release.set()
            assert scheduler.wait_idle(timeout=10.0)
            assert scheduler.busy_count() == 0
        finally:
            release.set()
            scheduler.shutdown(drain=False, timeout=5.0)


class TestTerminalViews:
    def test_terminal_view_always_carries_finished_at(
        self, runtime, monkeypatch
    ):
        """A poll landing while the job record is written must not see
        a terminal state without its end time, and the stored record's
        wall time must be the job's final one."""
        stub_runner(monkeypatch, lambda job, rt, telemetry: {"ok": True})
        entered, release = threading.Event(), threading.Event()
        put = runtime.job_cache.put
        records = []

        def blocking_put(key, record):
            records.append(record)
            entered.set()
            release.wait(timeout=10.0)
            put(key, record)

        monkeypatch.setattr(runtime.job_cache, "put", blocking_put)
        scheduler = JobScheduler(runtime, queue_limit=8, workers=1)
        try:
            job = scheduler.submit("verify", verify_params(21))
            assert entered.wait(timeout=10.0)
            views = [job.to_api() for _ in range(50)]
            release.set()
            assert scheduler.wait_idle(timeout=10.0)
            views.append(job.to_api())
            terminal = [
                v for v in views if v["state"] in (DONE, FAILED, CANCELLED)
            ]
            assert terminal and terminal[-1]["state"] == DONE
            for view in terminal:
                assert view["finished_at"] is not None, view
            assert records[0].values["wall_s"] == job.wall_s
        finally:
            release.set()
            scheduler.shutdown(drain=False, timeout=5.0)


class TestExecutorLeasePool:
    def test_acquire_release_cycle(self):
        sentinel = object()
        pool = ExecutorLeasePool(sentinel)
        assert pool.acquire() is sentinel
        assert pool.acquire() is None  # exhausted: non-blocking None
        pool.release(sentinel)
        assert pool.acquire() is sentinel
        pool.release(sentinel)

    def test_release_none_is_noop(self):
        pool = ExecutorLeasePool(None)
        pool.release(None)
        assert pool.acquire() is None

    def test_double_release_raises(self):
        sentinel = object()
        pool = ExecutorLeasePool(sentinel)
        lease = pool.acquire()
        pool.release(lease)
        with pytest.raises(ServiceError):
            pool.release(lease)

    def test_close_closes_every_executor(self):
        class Closeable:
            def __init__(self):
                self.closed = False

            def close(self):
                self.closed = True

        executor = Closeable()
        ExecutorLeasePool(executor).close()
        assert executor.closed
        ExecutorLeasePool(None).close()  # no executor: nothing to close

    def test_shared_executor_leased_to_one_job_at_a_time(
        self, tmp_path, monkeypatch
    ):
        """Two workers, one shared executor: of two concurrently running
        jobs exactly one holds the lease, the other runs serially."""

        class FakeExecutor:
            def close(self):
                pass

        shared = FakeExecutor()
        runtime = ServiceRuntime(
            executor=shared, cache_dir=tmp_path / "cache"
        )
        barrier = threading.Barrier(2, timeout=10.0)
        leases = []
        lock = threading.Lock()

        def runner(job, rt, telemetry):
            barrier.wait()  # both jobs provably in flight together
            with lock:
                leases.append(job_executor(job, rt))
            barrier.wait()
            return {}

        stub_runner(monkeypatch, runner)
        scheduler = JobScheduler(runtime, queue_limit=8, workers=2)
        try:
            for index in range(2):
                scheduler.submit("verify", verify_params(20 + index))
            assert scheduler.wait_idle(timeout=10.0)
            assert sorted(leases, key=lambda l: l is shared) == [
                None, shared,
            ]
        finally:
            scheduler.shutdown(drain=False, timeout=5.0)
            runtime.close()


class TestQueuedDeadline:
    def test_queued_job_expires_without_running(
        self, runtime, monkeypatch
    ):
        """The budget starts at submission: a job whose deadline passes
        while paused in the queue fails without its runner ever
        executing."""
        calls = []

        def runner(job, rt, telemetry):
            calls.append(job.id)
            return {}

        stub_runner(monkeypatch, runner)
        scheduler = JobScheduler(runtime, queue_limit=4, workers=2)
        try:
            scheduler.pause()
            job = scheduler.submit(
                "verify", {"circuits": [], "seed": 40, "timeout_s": 0.05}
            )
            time.sleep(0.15)
            scheduler.resume()
            assert scheduler.wait_idle(timeout=10.0)
            assert job.state == FAILED
            assert "expired while queued" in job.error
            assert calls == []  # never ran
        finally:
            scheduler.shutdown(drain=False, timeout=5.0)

    def test_server_default_budget_also_counts_queueing(
        self, runtime, monkeypatch
    ):
        stub_runner(monkeypatch, lambda j, r, t: {})
        scheduler = JobScheduler(
            runtime, queue_limit=4, workers=1, job_timeout=0.05
        )
        try:
            scheduler.pause()
            job = scheduler.submit("verify", verify_params(41))
            time.sleep(0.15)
            scheduler.resume()
            assert scheduler.wait_idle(timeout=10.0)
            assert job.state == FAILED
        finally:
            scheduler.shutdown(drain=False, timeout=5.0)

    def test_unexpired_queued_job_still_runs(self, runtime, monkeypatch):
        stub_runner(monkeypatch, lambda j, r, t: {"ok": True})
        scheduler = JobScheduler(runtime, queue_limit=4, workers=1)
        try:
            scheduler.pause()
            job = scheduler.submit(
                "verify", {"circuits": [], "seed": 42, "timeout_s": 60.0}
            )
            scheduler.resume()
            assert scheduler.wait_idle(timeout=10.0)
            assert job.state == DONE
        finally:
            scheduler.shutdown(drain=False, timeout=5.0)


class TestCancellationWithWorkers:
    def test_cancel_queued_vs_running(self, runtime, monkeypatch):
        """With both workers busy, a third job queues; cancelling it is
        immediate while cancelling a running job is cooperative."""
        started = threading.Barrier(3, timeout=10.0)
        release = threading.Event()

        def runner(job, rt, telemetry):
            started.wait()
            while not release.is_set():
                telemetry.checkpoint()
                time.sleep(0.01)
            # the cancel flag is set before `release`, so this observes it
            telemetry.checkpoint()
            return {"ok": True}

        stub_runner(monkeypatch, runner)
        scheduler = JobScheduler(runtime, queue_limit=4, workers=2)
        try:
            running = [
                scheduler.submit("verify", verify_params(50 + index))
                for index in range(2)
            ]
            queued = scheduler.submit("verify", verify_params(59))
            started.wait()  # both workers are inside their runner

            cancelled_queued = scheduler.cancel(queued.id)
            assert cancelled_queued.state == CANCELLED  # immediate
            assert scheduler.queue_depth() == 0

            scheduler.cancel(running[0].id)
            release.set()
            assert scheduler.wait_idle(timeout=10.0)
            assert running[0].state == CANCELLED
            assert running[1].state == DONE
        finally:
            release.set()
            scheduler.shutdown(drain=False, timeout=5.0)


class TestDrainUnderLoad:
    def test_every_accepted_job_finishes(self, runtime, monkeypatch):
        done = []
        lock = threading.Lock()

        def runner(job, rt, telemetry):
            time.sleep(0.01)
            with lock:
                done.append(job.id)
            return {"ok": True}

        stub_runner(monkeypatch, runner)
        scheduler = JobScheduler(runtime, queue_limit=8, workers=3)
        try:
            scheduler.pause()
            jobs = [
                scheduler.submit("verify", verify_params(60 + index))
                for index in range(6)
            ]
            scheduler.resume()
            scheduler.shutdown(drain=True, timeout=30.0)
            assert [job.state for job in jobs] == [DONE] * 6
            assert len(done) == 6
            with pytest.raises(ServiceError):
                scheduler.submit("verify", verify_params(99))
        finally:
            scheduler.shutdown(drain=False, timeout=5.0)

    def test_no_drain_cancels_all_running_jobs(self, runtime, monkeypatch):
        started = threading.Barrier(3, timeout=10.0)

        def runner(job, rt, telemetry):
            started.wait()
            for _ in range(1000):
                telemetry.checkpoint()
                time.sleep(0.01)
            return {}

        stub_runner(monkeypatch, runner)
        scheduler = JobScheduler(runtime, queue_limit=8, workers=2)
        running = [
            scheduler.submit("verify", verify_params(70 + index))
            for index in range(2)
        ]
        queued = scheduler.submit("verify", verify_params(79))
        started.wait()
        scheduler.shutdown(drain=False, timeout=30.0)
        assert all(job.state == CANCELLED for job in running)
        assert queued.state == CANCELLED


class TestBackpressure:
    def test_429_at_queue_limit_with_concurrent_submitters(
        self, runtime, monkeypatch
    ):
        """With the workers paused, T concurrent submitters against a
        queue of Q slots get exactly Q acceptances and T-Q typed
        rejections — no lost updates, no over-admission."""
        stub_runner(monkeypatch, lambda j, r, t: {"ok": True})
        queue_limit, submitters = 3, 8
        scheduler = JobScheduler(
            runtime,
            queue_limit=queue_limit,
            workers=2,
            retry_after_s=0.25,
        )
        try:
            scheduler.pause()
            barrier = threading.Barrier(submitters, timeout=10.0)
            accepted, rejected = [], []
            lock = threading.Lock()

            def submit(seed):
                barrier.wait()
                try:
                    job = scheduler.submit("verify", verify_params(seed))
                    with lock:
                        accepted.append(job)
                except QueueFullError as exc:
                    with lock:
                        rejected.append(exc)

            threads = [
                threading.Thread(target=submit, args=(80 + index,))
                for index in range(submitters)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)

            assert len(accepted) == queue_limit
            assert len(rejected) == submitters - queue_limit
            assert all(
                exc.retry_after_s == 0.25 for exc in rejected
            )
            scheduler.resume()
            assert scheduler.wait_idle(timeout=10.0)
            assert all(job.state == DONE for job in accepted)
        finally:
            scheduler.shutdown(drain=False, timeout=5.0)
