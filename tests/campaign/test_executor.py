"""Executor behaviour: retries, failures, and graceful degradation."""

import concurrent.futures
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.campaign import (
    ParallelExecutor,
    SerialExecutor,
    plan_campaign,
)
from repro.campaign import executor as executor_module
from repro.errors import CampaignError
from repro.faults import simulate_faults


@pytest.fixture
def plan(campaign_mcc, campaign_faults, campaign_setup):
    return plan_campaign(campaign_mcc, campaign_faults, campaign_setup)


@pytest.fixture
def many_cores(monkeypatch):
    """Four cores, so two workers are effective even on a 1-core host
    and the pooled path runs."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


#: the real worker entry point, for test doubles to delegate to
real_execute_unit = executor_module.execute_unit


class FlakyWorker:
    """Fails the first ``n_failures`` calls, then delegates to the real
    worker."""

    def __init__(self, n_failures):
        self.n_failures = n_failures
        self.calls = 0

    def __call__(self, unit, bases=None):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise RuntimeError("transient failure")
        return real_execute_unit(unit)


class HangingWorker:
    """Hangs (nearly) forever — but only for one unit, and only inside a
    worker process; the parent's in-process retry completes normally."""

    HANG_S = 300.0

    def __init__(self, poison_id):
        self.poison_id = poison_id
        self.parent_pid = os.getpid()

    def __call__(self, unit, bases=None):
        if (
            unit.unit_id == self.poison_id
            and os.getpid() != self.parent_pid
        ):
            time.sleep(self.HANG_S)
        return real_execute_unit(unit)


class TestSerialExecutor:
    def test_executes_in_plan_order(self, plan):
        outcomes = SerialExecutor().execute(plan.units)
        assert [o.unit.unit_id for o in outcomes] == [
            u.unit_id for u in plan.units
        ]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_retry_heals_a_transient_failure(self, plan, monkeypatch):
        flaky = FlakyWorker(n_failures=1)
        monkeypatch.setattr(executor_module, "execute_unit", flaky)
        outcomes = SerialExecutor(retries=1).execute(plan.units[:2])
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts == 2  # failed once, then healed
        assert outcomes[1].attempts == 1

    def test_exhausted_retries_report_the_error(self, plan, monkeypatch):
        flaky = FlakyWorker(n_failures=100)
        monkeypatch.setattr(executor_module, "execute_unit", flaky)
        outcomes = SerialExecutor(retries=1).execute(plan.units[:1])
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, RuntimeError)
        assert outcomes[0].attempts == 2

    def test_engine_raises_campaign_error_on_failure(
        self, campaign_mcc, campaign_faults, campaign_setup, monkeypatch
    ):
        monkeypatch.setattr(
            executor_module, "execute_unit", FlakyWorker(n_failures=100)
        )
        with pytest.raises(CampaignError) as excinfo:
            simulate_faults(
                campaign_mcc,
                campaign_faults,
                campaign_setup,
                executor=SerialExecutor(),
            )
        assert "work unit(s) failed" in str(excinfo.value)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            SerialExecutor(retries=-1)


class TestParallelExecutor:
    def test_defaults(self):
        executor = ParallelExecutor()
        assert executor.jobs >= 1
        assert executor.name == "parallel"

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)

    def test_empty_unit_list(self):
        assert ParallelExecutor(jobs=2).execute([]) == []

    def test_degrades_to_serial_when_pool_unavailable(
        self, plan, monkeypatch, many_cores
    ):
        """If the platform cannot host a process pool, the campaign still
        completes — every unit runs serially in the parent."""

        def refuse(*args, **kwargs):
            raise OSError("no fork for you")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", refuse
        )
        outcomes = ParallelExecutor(jobs=2).execute(plan.units[:3])
        assert all(o.ok for o in outcomes)
        assert all(o.degraded for o in outcomes)

    def test_worker_exception_falls_back_to_parent(self, plan, many_cores):
        """A unit whose worker raises is retried serially in the parent.

        Two units on two workers make one batch each; poisoning one
        batch's future in a subclass exercises the fallback
        deterministically.
        """

        class Poisoned(ParallelExecutor):
            def _harvest_batch(self, batch, future):
                if batch[0].unit_id == "C0":
                    # simulate the worker's crash for this unit
                    poisoned = concurrent.futures.Future()
                    poisoned.set_exception(RuntimeError("worker died"))
                    return super()._harvest_batch(batch, poisoned)
                return super()._harvest_batch(batch, future)

        outcomes = Poisoned(jobs=2, retries=1).execute(plan.units[:2])
        assert all(o.ok for o in outcomes)
        degraded = {o.unit.unit_id: o.degraded for o in outcomes}
        assert degraded["C0"] is True
        assert degraded["C1"] is False

    def test_zero_retries_surface_worker_error(self, plan, many_cores):
        class Poisoned(ParallelExecutor):
            def _harvest_batch(self, batch, future):
                poisoned = concurrent.futures.Future()
                poisoned.set_exception(RuntimeError("worker died"))
                return super()._harvest_batch(batch, poisoned)

        outcomes = Poisoned(jobs=2, retries=0).execute(plan.units[:2])
        assert not any(o.ok for o in outcomes)
        assert isinstance(outcomes[0].error, RuntimeError)

    def test_broken_pool_degrades_remaining_units(self, plan, many_cores):
        class Broken(ParallelExecutor):
            def _harvest_batch(self, batch, future):
                future.cancel()
                broken = concurrent.futures.Future()
                broken.set_exception(
                    concurrent.futures.process.BrokenProcessPool(
                        "pool collapsed"
                    )
                )
                return super()._harvest_batch(batch, broken)

        outcomes = Broken(jobs=2, retries=1).execute(plan.units[:2])
        assert all(o.ok for o in outcomes)
        assert all(o.degraded for o in outcomes)

    def test_hung_worker_does_not_block_shutdown(self, plan, monkeypatch):
        """A worker stuck inside a unit must not hang pool shutdown.

        ``Future.cancel()`` is a no-op once the unit is running, so the
        executor has to abandon the pool (non-blocking shutdown +
        terminate) instead of joining the hung worker.  Before the fix
        this test blocked for ``HANG_S`` seconds at the end of
        ``execute``.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork to share the monkeypatched worker")
        worker = HangingWorker(poison_id="C0")
        monkeypatch.setattr(executor_module, "execute_unit", worker)
        executor = ParallelExecutor(
            jobs=2, timeout=1.0, retries=1, start_method="fork"
        )
        start = time.perf_counter()
        outcomes = executor.execute(plan.units[:3])
        elapsed = time.perf_counter() - start
        assert elapsed < HangingWorker.HANG_S / 4
        assert all(o.ok for o in outcomes)
        hung = {o.unit.unit_id: o for o in outcomes}["C0"]
        assert hung.degraded
        assert hung.attempts >= 2

    def test_callback_sees_every_outcome(self, plan):
        seen = []
        ParallelExecutor(jobs=2).execute(
            plan.units[:3], callback=seen.append
        )
        assert [o.unit.unit_id for o in seen] == [
            u.unit_id for u in plan.units[:3]
        ]


class TestAdaptiveInProcess:
    def test_single_effective_worker_skips_the_pool(self, plan, monkeypatch):
        """jobs=1 (or one core) with no timeout runs in-process: no pool
        is ever created, and outcomes are NOT marked degraded — serial
        is the optimal strategy there, not a fallback."""

        def explode(*args, **kwargs):
            raise AssertionError("pool must not be created")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", explode
        )
        outcomes = ParallelExecutor(jobs=1).execute(plan.units[:3])
        assert all(o.ok for o in outcomes)
        assert all(not o.degraded for o in outcomes)

    def test_timeout_disables_the_adaptive_path(self, plan, monkeypatch):
        """A per-unit isolation timeout requires worker processes, so
        adaptivity must never bypass the pool when one is set."""
        created = []
        real = concurrent.futures.ProcessPoolExecutor

        def record(*args, **kwargs):
            created.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", record
        )
        outcomes = ParallelExecutor(jobs=1, timeout=60.0).execute(
            plan.units[:1]
        )
        assert all(o.ok for o in outcomes)
        assert created, "timeout must force the pooled path"

    def test_matches_serial_results(self, plan):
        serial = SerialExecutor().execute(plan.units[:3])
        adaptive = ParallelExecutor(jobs=1).execute(plan.units[:3])
        assert [o.unit.key for o in serial] == [
            o.unit.key for o in adaptive
        ]
        for left, right in zip(serial, adaptive):
            assert left.result.n_solves == right.result.n_solves
            for name, ours in left.result.arrays.items():
                assert np.array_equal(ours, right.result.arrays[name])


class TestBatchedDispatch:
    def test_explicit_batch_size_preserves_order_and_results(
        self, plan, many_cores
    ):
        """Three units on two workers ship as a pair and a single;
        outcomes still arrive in plan order with per-unit results
        intact."""
        executor = ParallelExecutor(jobs=2)
        assert [len(b) for b in executor._batch_bounds(3)] == [2, 1]
        seen = []
        outcomes = executor.execute(plan.units[:3], callback=seen.append)
        assert [o.unit.unit_id for o in outcomes] == [
            u.unit_id for u in plan.units[:3]
        ]
        assert [o.unit.unit_id for o in seen] == [
            u.unit_id for u in plan.units[:3]
        ]
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        serial = SerialExecutor().execute(plan.units[:3])
        for left, right in zip(serial, outcomes):
            assert left.result.n_solves == right.result.n_solves

    def test_failed_unit_does_not_poison_its_batch(
        self, plan, monkeypatch, many_cores
    ):
        """One raising unit inside a batch is retried in the parent;
        its batch siblings keep their worker results."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork to share the monkeypatched worker")

        poison_id = plan.units[1].unit_id

        class PoisonOne:
            def __call__(self, unit, bases=None):
                if unit.unit_id == poison_id:
                    raise RuntimeError("poisoned unit")
                return real_execute_unit(unit)

        monkeypatch.setattr(executor_module, "execute_unit", PoisonOne())
        executor = ParallelExecutor(
            jobs=2, retries=0, start_method="fork"
        )
        # the pair of the first batch holds the poisoned unit
        outcomes = executor.execute(plan.units[:3])
        by_id = {o.unit.unit_id: o for o in outcomes}
        assert not by_id[poison_id].ok
        assert isinstance(by_id[poison_id].error, RuntimeError)
        others = [o for uid, o in by_id.items() if uid != poison_id]
        assert all(not o.degraded for o in others)

    def test_each_unit_of_a_batch_reports_its_own_time(
        self, plan, monkeypatch, many_cores
    ):
        """The worker times each unit of its batch: a slow unit's
        ``wall_s`` shows its delay, and its batch siblings' do not."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork to share the monkeypatched worker")
        slow_id = plan.units[1].unit_id
        delay_s = 1.0

        def slow_one(unit, bases=None):
            if unit.unit_id == slow_id:
                time.sleep(delay_s)
            return real_execute_unit(unit)

        monkeypatch.setattr(executor_module, "execute_unit", slow_one)
        executor = ParallelExecutor(jobs=2, start_method="fork")
        # the slow unit shares the first batch with the fast C0
        outcomes = executor.execute(plan.units[:3])
        assert all(o.ok and not o.degraded for o in outcomes)
        by_id = {o.unit.unit_id: o for o in outcomes}
        assert by_id[slow_id].wall_s >= delay_s
        for unit_id, outcome in by_id.items():
            if unit_id != slow_id:
                assert outcome.wall_s < delay_s / 2

    def test_auto_batching_covers_every_unit(self, plan, many_cores):
        """Auto batch sizing must partition the unit list exactly."""
        executor = ParallelExecutor(jobs=2)
        for n in (1, 2, 3, 5):
            bounds = executor._batch_bounds(n)
            flat = [i for bound in bounds for i in bound]
            assert flat == list(range(n))

    @pytest.mark.parametrize("batch_size", [None, 1])
    def test_each_batch_without_c0_sweeps_the_basis_once(
        self, plan, batch_size, many_cores
    ):
        """A worker batch shares one basis: the batch holding C0 sweeps
        it as C0's own sweep, every other batch once more.  The executor
        ships one batch per effective worker: several units each
        (``None``: the whole plan on two workers) or one each (``1``:
        as many units as workers)."""
        units = plan.units if batch_size is None else plan.units[:2]
        executor = ParallelExecutor(jobs=2)
        batches = executor._batch_bounds(len(units))
        assert len(batches) == executor.effective_jobs(len(units)) == 2
        if batch_size == 1:
            assert all(len(bounds) == 1 for bounds in batches)
        outcomes = executor.execute(units)
        n_points = plan.setup.grid.n_points
        assert all(o.ok and not o.degraded for o in outcomes)
        assert sum(o.result.n_factorizations for o in outcomes) == (
            (len(units) - 1) * n_points
        )
        assert sum(o.basis_factorizations for o in outcomes) == (
            len(batches) * n_points
        )
