"""The loadtest harness: deterministic mixes, percentile math, and an
end-to-end closed-loop run against an in-process multi-worker server.
"""

import threading
import time

import pytest

import repro.service.jobs as jobs_module
from repro.errors import ServiceError
from repro.service.loadtest import (
    MIXES,
    LoadTestReport,
    ReplicatedReport,
    build_mix,
    loadtest_document,
    percentile,
    run_loadtest,
    run_replicated_loadtest,
)
from repro.service.scheduler import ServiceRuntime
from repro.service.server import ReproService


class TestBuildMix:
    def test_same_inputs_same_list(self):
        first = build_mix("smoke", n_jobs=12, seed=3)
        second = build_mix("smoke", n_jobs=12, seed=3)
        assert first == second

    def test_seed_changes_order_not_contents(self):
        a = build_mix("smoke", n_jobs=12, seed=0)
        b = build_mix("smoke", n_jobs=12, seed=1)
        assert a != b
        key = lambda job: repr(job)  # noqa: E731
        assert sorted(a, key=key) == sorted(b, key=key)

    def test_weighted_kind_distribution(self):
        jobs = build_mix("smoke", n_jobs=10, seed=0)
        kinds = [kind for kind, _ in jobs]
        weights = {kind: weight for kind, _, weight in MIXES["smoke"]}
        total = sum(weights.values())
        # two full cycles of the weighted entries
        assert len(jobs) == 10
        for kind, weight in weights.items():
            assert kinds.count(kind) == weight * (10 // total)

    def test_variants_create_distinct_identities(self):
        jobs = build_mix("smoke", n_jobs=15, seed=0)
        faultsim_epsilons = {
            params["epsilon"]
            for kind, params in jobs
            if kind == "faultsim"
        }
        assert len(faultsim_epsilons) == 3

    def test_one_pass_over_the_weighted_entries_has_no_duplicates(self):
        """Every copy of a weighted entry takes its own variant, so no
        job of one pass is a cache hit for another."""
        for mix, entries in MIXES.items():
            n_jobs = sum(weight for _, _, weight in entries)
            jobs = build_mix(mix, n_jobs=n_jobs, seed=0)
            assert len({repr(job) for job in jobs}) == n_jobs, mix

    def test_rejects_unknown_mix_and_bad_count(self):
        with pytest.raises(ServiceError):
            build_mix("warp-speed")
        with pytest.raises(ServiceError):
            build_mix("smoke", n_jobs=0)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 95.0) == 0.0

    def test_single_sample_is_every_percentile(self):
        assert percentile([7.0], 50.0) == 7.0
        assert percentile([7.0], 99.0) == 7.0

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 95.0) == 95.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 100.0) == 100.0


class TestRunValidation:
    def test_rejects_bad_concurrency_and_rps(self):
        with pytest.raises(ServiceError):
            run_loadtest("http://127.0.0.1:9", concurrency=0)
        with pytest.raises(ServiceError):
            run_loadtest("http://127.0.0.1:9", rps=0.0)


@pytest.fixture(scope="class")
def live_service(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("loadtest") / "cache"
    service = ReproService(
        port=0,
        runtime=ServiceRuntime(cache_dir=cache_dir),
        queue_limit=16,
        workers=2,
    ).start()
    try:
        yield service
    finally:
        service.stop(drain=False, timeout=10.0)


class TestEndToEnd:
    """One cold run and one warm run against a real 2-worker server."""

    N_JOBS = 4

    def test_cold_run_completes_the_mix(self, live_service):
        report = run_loadtest(
            live_service.url,
            mix="smoke",
            n_jobs=self.N_JOBS,
            concurrency=2,
            seed=11,
        )
        assert isinstance(report, LoadTestReport)
        assert report.ok
        assert report.states == {"done": self.N_JOBS}
        assert report.workers == 2
        assert report.jobs_per_s > 0
        assert report.duration_s > 0
        assert set(report.latency_ms) == {
            "p50",
            "p95",
            "p99",
            "mean",
            "max",
        }
        assert report.latency_ms["p50"] <= report.latency_ms["max"]
        # a cold cache means real simulation happened
        assert report.campaign_deltas["solves"] > 0

    def test_warm_run_is_answered_from_the_job_cache(self, live_service):
        report = run_loadtest(
            live_service.url,
            mix="smoke",
            n_jobs=self.N_JOBS,
            concurrency=2,
            seed=11,
        )
        assert report.ok
        assert report.job_cache_hits == self.N_JOBS
        assert report.campaign_deltas["solves"] == 0

    def test_document_shape(self, live_service):
        runs = [
            run_loadtest(
                live_service.url,
                mix="smoke",
                n_jobs=self.N_JOBS,
                concurrency=c,
                seed=11,
            )
            for c in (1, 2)
        ]
        document = loadtest_document(
            live_service.url, runs, started_at=123.0
        )
        assert document["benchmark"] == "service-loadtest"
        assert document["started_at"] == 123.0
        assert document["saturation_jobs_per_s"] == round(
            max(run.jobs_per_s for run in runs), 6
        )
        assert len(document["runs"]) == 2
        assert document["runs"][0]["concurrency"] == 1
        assert document["machine"]["cpus"] >= 1
        for run_payload in document["runs"]:
            assert run_payload["ok"] is True


class TestPacedRun:
    def test_rps_pacing_slows_submission(self, tmp_path):
        """4 warm (cached) jobs at 2 rps cannot finish in under ~1.5 s,
        while the unpaced closed loop answers them in milliseconds."""
        service = ReproService(
            port=0,
            runtime=ServiceRuntime(cache_dir=tmp_path / "cache"),
            workers=2,
        ).start()
        try:
            warmup = run_loadtest(
                service.url, mix="smoke", n_jobs=4, concurrency=4
            )
            assert warmup.ok
            paced = run_loadtest(
                service.url,
                mix="smoke",
                n_jobs=4,
                concurrency=4,
                rps=2.0,
            )
            assert paced.ok
            assert paced.job_cache_hits == 4
            assert paced.duration_s >= 1.4
        finally:
            service.stop(drain=False, timeout=10.0)


class TestBounded429Retries:
    def test_saturated_server_rejections_are_bounded_by_the_deadline(
        self, monkeypatch
    ):
        """The PR 9 satellite bugfix: against a server that never stops
        answering 429, each client gives up at its job deadline and
        records ``rejected_429`` — the old loop retried forever."""
        release = threading.Event()

        def blocker(job, runtime, telemetry):
            release.wait(30.0)
            return {}

        for kind in ("faultsim", "tolerance", "diagnose", "verify"):
            monkeypatch.setitem(jobs_module.RUNNERS, kind, blocker)
        service = ReproService(
            port=0, workers=1, queue_limit=1, retry_after_s=0.05
        ).start()
        try:
            # saturate: one running (blocked) + one queued = queue full;
            # job 1 must leave the queue before job 2 can take its slot
            running = service.scheduler.submit(
                "verify", {"circuits": [], "seed": 1}
            )
            deadline = time.monotonic() + 10.0
            while running.state != jobs_module.RUNNING:
                assert time.monotonic() < deadline, running.state
                time.sleep(0.01)
            service.scheduler.submit("verify", {"circuits": [], "seed": 2})

            report = run_loadtest(
                service.url,
                mix="smoke",
                n_jobs=2,
                concurrency=2,
                job_timeout=0.6,
            )
            assert report.states == {"rejected_429": 2}
            assert report.rejected_429 >= 2
            assert not report.ok
            assert report.duration_s < 10.0  # gave up, did not spin
            for outcome in report.outcomes:
                assert "429 backpressure" in outcome["error"]
        finally:
            release.set()
            service.stop(drain=False, timeout=10.0)


class TestReplicatedRun:
    def test_two_replicas_behind_a_router(self):
        replicated = run_replicated_loadtest(
            replicas=2,
            mix="smoke",
            n_jobs=4,
            concurrency=2,
            workers=1,
            seed=7,
            baseline=False,
        )
        assert isinstance(replicated, ReplicatedReport)
        assert replicated.report.ok
        assert replicated.routing_hit_ratio == 1.0
        assert sum(replicated.routed_by_replica.values()) == 4
        assert len(replicated.per_replica_jobs_per_s) == 2
        assert replicated.scale_out_efficiency is None  # no baseline
        payload = replicated.to_json()
        assert payload["replicas"] == 2
        assert payload["routing_hit_ratio"] == 1.0
        assert payload["run"]["ok"] is True

    def test_rejects_bad_replica_count(self):
        with pytest.raises(ServiceError):
            run_replicated_loadtest(replicas=0)
