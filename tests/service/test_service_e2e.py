"""End-to-end service tests: a real server on an ephemeral port.

Each test boots :class:`ReproService` in-process (``port=0``), talks to
it exclusively through :class:`ServiceClient` over real HTTP, and runs
real — deliberately tiny — simulation jobs against the benchmark
catalog.  Covered acceptance criteria:

* concurrent faultsim + tolerance submissions both complete;
* queue overflow returns **429 with Retry-After** (typed client error);
* a restarted server on the same cache directory answers an identical
  submission from cache with ``repro_campaign_solves == 0``;
* ``/metrics`` agrees with the runtime telemetry;
* graceful shutdown drains in-flight jobs;
* a persistent :class:`ParallelExecutor` leaves no workers behind.
"""

import json
import os
import pickle
import threading
import time

import pytest

from repro.errors import (
    JobNotFoundError,
    JobValidationError,
    QueueFullError,
    ServiceError,
)
from repro.service import ReproService, ServiceClient, ServiceRuntime
from repro.service.jobs import CANCELLED, DONE

FAULTSIM = {"target": "sallen_key", "ppd": 8}
TOLERANCE = {
    "circuits": ["sallen_key"],
    "samples": 8,
    "ppd": 4,
    "corners": False,
}
DIAGNOSE = {
    "target": "sallen_key",
    "ppd": 6,
    "steps": 2,
    "span": 0.4,
    "component": "R1a",
    "fault_deviation": 0.3,
}


@pytest.fixture
def service(tmp_path):
    svc = ReproService(
        port=0,
        runtime=ServiceRuntime(cache_dir=tmp_path / "cache"),
        queue_limit=2,
        retry_after_s=0.25,
        access_log=tmp_path / "access.jsonl",
    ).start()
    yield svc
    svc.stop(drain=False, timeout=10.0)


@pytest.fixture
def client(service):
    return ServiceClient(service.url, timeout=10.0)


class TestBasics:
    def test_health_and_catalog(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["accepting"] is True
        assert health["queue_depth"] == 0
        assert "sallen_key" in client.catalog()

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(JobNotFoundError):
            client._request("GET", "/nope")

    def test_validation_error_maps_to_400(self, client):
        with pytest.raises(JobValidationError, match="unknown param"):
            client.submit("faultsim", {"target": "sallen_key", "bogus": 1})

    @pytest.mark.parametrize(
        "kind, params",
        [("faultsim", FAULTSIM), ("tolerance", TOLERANCE),
         ("diagnose", DIAGNOSE)],
    )
    def test_removed_kernel_param_is_a_400(self, client, kind, params):
        with pytest.raises(
            JobValidationError, match="unknown param\\(s\\) 'kernel'"
        ):
            client.submit(kind, dict(params, kernel="stacked"))

    def test_removed_engine_param_is_a_400(self, client):
        with pytest.raises(
            JobValidationError, match="unknown param\\(s\\) 'engine'"
        ):
            client.submit("faultsim", dict(FAULTSIM, engine="fast"))

    def test_result_before_done_is_409(self, service, client):
        service.scheduler.pause()
        try:
            job = client.submit("faultsim", FAULTSIM)
            with pytest.raises(ServiceError, match="not ready"):
                client.result(job["id"])
        finally:
            service.scheduler.resume()


class TestJobsOverHttp:
    def test_concurrent_faultsim_and_tolerance(self, client):
        faultsim = client.submit("faultsim", FAULTSIM)
        tolerance = client.submit("tolerance", TOLERANCE)
        assert faultsim["state"] in ("queued", "running")

        done_faultsim = client.wait(faultsim["id"], timeout=120.0)
        done_tolerance = client.wait(tolerance["id"], timeout=120.0)

        assert done_faultsim["state"] == DONE
        result = done_faultsim["result"]
        assert result["target"] == "sallen_key"
        assert 0.0 <= result["fault_coverage"] <= 1.0
        assert result["n_solves"] > 0

        assert done_tolerance["state"] == DONE
        report = done_tolerance["result"]
        assert report["circuits"][0]["name"] == "sallen_key"
        assert report["circuits"][0]["suggested_epsilon"] > 0.0

        listed = {job["id"] for job in client.jobs()}
        assert {faultsim["id"], tolerance["id"]} <= listed

    def test_faultsim_ndetect_cover_uses_labels(self, client):
        params = dict(FAULTSIM, n_detect=2, saturate=True)
        done = client.wait(
            client.submit("faultsim", params)["id"], timeout=120.0
        )
        assert done["state"] == DONE
        result = done["result"]
        assert result["n_detect"] == 2
        assert result["cover_size"] == len(result["cover"]) > 0
        labels = set(result["dataset"]["configurations"])
        assert set(result["cover"]) <= labels
        assert isinstance(result["worst_case_margin"], float)
        assert isinstance(result["fragile_faults"], list)

    def test_diagnose_job_locates_seeded_fault(self, client):
        job = client.submit("diagnose", DIAGNOSE)
        done = client.wait(job["id"], timeout=120.0)
        assert done["state"] == DONE
        result = done["result"]
        assert result["target"] == "sallen_key"
        assert result["n_configs"] == 3
        assert result["n_solves"] > 0
        diagnosis = result["diagnosis"]
        assert diagnosis["injected"]["component"] == "R1a"
        assert diagnosis["injected"]["hit"] is True
        assert (
            diagnosis["injected"]["deviation_error"]
            <= result["deviation_step"]
        )
        assert "R1a" in diagnosis["ambiguity"]
        assert not diagnosis["fault_free"]

    def test_diagnose_rejects_unknown_component(self, client):
        job = client.submit(
            "diagnose",
            {**DIAGNOSE, "component": "R99"},
        )
        done = client.wait(job["id"], timeout=120.0)
        assert done["state"] == "failed"
        assert "R99" in done["error"]

    def test_cancel_queued_job(self, service, client):
        service.scheduler.pause()
        try:
            job = client.submit("faultsim", FAULTSIM)
            view = client.cancel(job["id"])
            assert view["state"] == CANCELLED
        finally:
            service.scheduler.resume()

    def test_metrics_agree_with_runtime_telemetry(self, service, client):
        job = client.submit("faultsim", FAULTSIM)
        client.wait(job["id"], timeout=120.0)
        metrics = client.metrics()
        snapshot = service.runtime.telemetry.snapshot()
        assert metrics["repro_campaign_solves"] == snapshot["solves"]
        assert metrics["repro_campaign_units_done"] == snapshot["units_done"]
        assert metrics["repro_queue_depth"] == 0.0
        assert metrics['repro_jobs{state="done"}'] >= 1.0
        assert (
            'repro_http_requests_total'
            '{method="POST",route="/jobs",status="202"}'
        ) in metrics
        name = "repro_http_request_duration_seconds"
        assert metrics[f'{name}_count{{route="/jobs/{{id}}"}}'] >= 1.0


class TestBackpressure:
    def test_queue_overflow_is_429_with_retry_after(self, service, client):
        service.scheduler.pause()
        try:
            client.submit("faultsim", FAULTSIM)
            client.submit("tolerance", TOLERANCE)
            with pytest.raises(QueueFullError) as info:
                client.submit("faultsim", {"target": "biquad", "ppd": 8})
            assert info.value.retry_after_s == 0.25
            metrics = client.metrics()
            assert metrics[
                'repro_http_requests_total'
                '{method="POST",route="/jobs",status="429"}'
            ] == 1.0
        finally:
            service.scheduler.resume()


class TestWarmRestart:
    def test_restarted_server_answers_from_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"

        cold = ReproService(
            port=0, runtime=ServiceRuntime(cache_dir=cache_dir)
        ).start()
        try:
            client = ServiceClient(cold.url, timeout=10.0)
            first = client.wait(
                client.submit("faultsim", FAULTSIM)["id"], timeout=120.0
            )
            assert first["state"] == DONE
            assert not first["from_cache"]
            cold_solves = client.metrics()["repro_campaign_solves"]
            assert cold_solves > 0
        finally:
            cold.stop(drain=True, timeout=30.0)

        warm = ReproService(
            port=0, runtime=ServiceRuntime(cache_dir=cache_dir)
        ).start()
        try:
            client = ServiceClient(warm.url, timeout=10.0)
            again = client.submit("faultsim", FAULTSIM)
            assert again["state"] == DONE
            assert again["from_cache"]
            result = client.result(again["id"])["result"]
            assert result == first["result"]
            # the restarted server simulated nothing
            metrics = client.metrics()
            assert metrics.get("repro_campaign_solves", 0.0) == 0.0
        finally:
            warm.stop(drain=True, timeout=30.0)


    def test_restarted_server_answers_diagnose_from_cache(self, tmp_path):
        """The acceptance scenario: resubmitting a diagnose job to a
        restarted server answers from cache without a single solve."""
        cache_dir = tmp_path / "cache"

        cold = ReproService(
            port=0, runtime=ServiceRuntime(cache_dir=cache_dir)
        ).start()
        try:
            client = ServiceClient(cold.url, timeout=10.0)
            first = client.wait(
                client.submit("diagnose", DIAGNOSE)["id"], timeout=120.0
            )
            assert first["state"] == DONE
            assert not first["from_cache"]
            assert first["result"]["n_solves"] > 0
            assert client.metrics()["repro_campaign_solves"] > 0
        finally:
            cold.stop(drain=True, timeout=30.0)

        warm = ReproService(
            port=0, runtime=ServiceRuntime(cache_dir=cache_dir)
        ).start()
        try:
            client = ServiceClient(warm.url, timeout=10.0)
            again = client.submit("diagnose", DIAGNOSE)
            assert again["state"] == DONE
            assert again["from_cache"]
            assert (
                client.result(again["id"])["result"] == first["result"]
            )
            metrics = client.metrics()
            assert metrics.get("repro_campaign_solves", 0.0) == 0.0
        finally:
            warm.stop(drain=True, timeout=30.0)


    def test_planted_job_record_pickle_runs_the_job(self, tmp_path):
        """A pickle planted at a job's record path in a served cache
        directory is never unpickled: resubmitting the job runs it."""

        class Planted:
            def __reduce__(self):
                return (os.mkdir, (str(tmp_path / "sentinel"),))

        runtime = ServiceRuntime(cache_dir=tmp_path / "cache")
        served = ReproService(port=0, runtime=runtime).start()
        try:
            client = ServiceClient(served.url, timeout=10.0)
            first = client.wait(
                client.submit("faultsim", FAULTSIM)["id"], timeout=120.0
            )
            assert first["state"] == DONE
            path = runtime.job_cache.path_for(first["key"])
            assert path.exists()
            path.write_bytes(pickle.dumps(Planted()))
            again = client.wait(
                client.submit("faultsim", FAULTSIM)["id"], timeout=120.0
            )
            assert again["state"] == DONE
            assert not again["from_cache"]
            assert not (tmp_path / "sentinel").exists()
            for view in (first, again):  # the rerun hits the unit cache
                view["result"]["dataset"].pop("n_solves")
            assert again["result"]["dataset"] == first["result"]["dataset"]
        finally:
            served.stop(drain=True, timeout=30.0)


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight_jobs(self, tmp_path):
        service = ReproService(
            port=0,
            runtime=ServiceRuntime(cache_dir=tmp_path / "cache"),
            queue_limit=4,
        ).start()
        client = ServiceClient(service.url, timeout=10.0)
        jobs = [
            client.submit("faultsim", {"target": "sallen_key", "ppd": ppd})
            for ppd in (6, 7)
        ]
        assert client.shutdown() == {"status": "draining"}

        deadline = time.monotonic() + 60.0
        while not service._stopped.is_set() or (
            service._thread is not None and service._thread.is_alive()
        ):
            if time.monotonic() > deadline:
                pytest.fail("shutdown did not complete in time")
            time.sleep(0.05)
        assert service.scheduler.join(timeout=30.0)

        for submitted in jobs:
            job = service.scheduler.get(submitted["id"])
            assert job.state == DONE
            assert job.result["fault_coverage"] >= 0.0

    def test_stop_returns_on_a_service_that_never_served(self):
        """``stop()`` waits for a serve loop only once one started: a
        constructed, never started service stops at once and closes its
        socket."""
        service = ReproService(port=0)
        stopper = threading.Thread(target=service.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive(), "stop() blocked on no serve loop"
        assert service._httpd.socket.fileno() == -1

    def test_rejects_submissions_while_draining(self, service, client):
        service.scheduler.shutdown(drain=True, timeout=30.0)
        with pytest.raises(ServiceError):
            client.submit("faultsim", FAULTSIM)


class TestAccessLog:
    def test_structured_jsonl_records(self, tmp_path, service, client):
        client.health()
        job = client.submit("faultsim", FAULTSIM)
        client.wait(job["id"], timeout=120.0)
        service.stop(drain=True, timeout=30.0)

        lines = (tmp_path / "access.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records, "access log is empty"
        for record in records:
            assert {"ts", "method", "path", "route", "status",
                    "duration_ms", "bytes", "client"} <= set(record)
        assert any(
            record["method"] == "POST" and record["route"] == "/jobs"
            and record["status"] == 202
            for record in records
        )
        assert any(
            record["route"] == "/jobs/{id}" for record in records
        )


class TestPersistentExecutor:
    def test_parallel_pool_is_released_on_stop(self, tmp_path, monkeypatch):
        import os

        from repro.campaign import ParallelExecutor

        # four cores force the pooled path even on a 1-core host — this
        # test is about warm-pool lifecycle, not scheduling policy
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        executor = ParallelExecutor(jobs=2, persistent=True)
        service = ReproService(
            port=0,
            runtime=ServiceRuntime(
                executor=executor, cache_dir=tmp_path / "cache"
            ),
        ).start()
        try:
            client = ServiceClient(service.url, timeout=10.0)
            done = client.wait(
                client.submit("faultsim", FAULTSIM)["id"], timeout=180.0
            )
            assert done["state"] == DONE
            assert executor._pool is not None  # warm between jobs
        finally:
            service.stop(drain=True, timeout=30.0)
        assert executor._pool is None  # released, no orphaned workers
