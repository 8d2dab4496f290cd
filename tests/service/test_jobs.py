"""Job model tests: validation, content keys, records, telemetry."""

import pytest

from repro.campaign import ResultCache
from repro.errors import JobCancelledError, JobTimeoutError, JobValidationError
from repro.service.jobs import (
    DONE,
    JOB_KINDS,
    PARAM_SPECS,
    JOB_RECORD,
    QUEUED,
    Job,
    JobTelemetry,
    is_cacheable,
    job_key,
    job_record,
    normalize_params,
)


class TestNormalizeParams:
    def test_defaults_filled(self):
        params = normalize_params("faultsim", {"target": "biquad"})
        assert params["epsilon"] == 0.10
        assert params["deviation"] == 0.20
        assert params["ppd"] == 50
        assert "engine" not in params

    def test_unknown_kind(self):
        with pytest.raises(JobValidationError, match="unknown job kind"):
            normalize_params("mine-bitcoin", {})

    def test_unknown_param(self):
        with pytest.raises(JobValidationError, match="unknown param"):
            normalize_params("faultsim", {"target": "biquad", "bogus": 1})

    def test_removed_chunk_param(self):
        """One unit per configuration: ``chunk`` is no param."""
        params = normalize_params("faultsim", {"target": "biquad"})
        assert "chunk" not in params
        with pytest.raises(
            JobValidationError, match="unknown param\\(s\\) 'chunk'"
        ):
            normalize_params("faultsim", {"target": "biquad", "chunk": 2})

    def test_type_coercion_and_mismatch(self):
        params = normalize_params(
            "faultsim", {"target": "biquad", "ppd": "25", "epsilon": "0.2"}
        )
        assert params["ppd"] == 25
        assert params["epsilon"] == 0.2
        with pytest.raises(JobValidationError, match="expects int"):
            normalize_params("faultsim", {"target": "biquad", "ppd": "many"})

    def test_faultsim_ndetect_params(self):
        params = normalize_params(
            "faultsim",
            {"target": "biquad", "n_detect": 2, "saturate": True},
        )
        assert params["n_detect"] == 2
        assert params["saturate"] is True
        defaults = normalize_params("faultsim", {"target": "biquad"})
        assert defaults["n_detect"] == 1
        assert defaults["saturate"] is False

    def test_faultsim_requires_exactly_one_target(self):
        with pytest.raises(JobValidationError, match="exactly one"):
            normalize_params("faultsim", {})
        with pytest.raises(JobValidationError, match="exactly one"):
            normalize_params(
                "faultsim", {"target": "biquad", "netlist": "* x\n.end"}
            )

    def test_domain_checks(self):
        with pytest.raises(JobValidationError, match="engine"):
            normalize_params(
                "faultsim", {"target": "biquad", "engine": "fast"}
            )
        with pytest.raises(JobValidationError, match="kernel"):
            normalize_params(
                "faultsim", {"target": "biquad", "kernel": "quantum"}
            )
        with pytest.raises(JobValidationError, match="epsilon must be > 0"):
            normalize_params(
                "faultsim", {"target": "biquad", "epsilon": -1}
            )
        with pytest.raises(JobValidationError, match="n_detect"):
            normalize_params(
                "faultsim", {"target": "biquad", "n_detect": 0}
            )
        with pytest.raises(JobValidationError, match="distribution"):
            normalize_params("tolerance", {"distribution": "cauchy"})
        with pytest.raises(JobValidationError, match="timeout_s"):
            normalize_params(
                "verify", {"circuits": [], "timeout_s": 0}
            )

    def test_diagnose_requires_exactly_one_target(self):
        with pytest.raises(JobValidationError, match="exactly one"):
            normalize_params("diagnose", {})
        with pytest.raises(JobValidationError, match="exactly one"):
            normalize_params(
                "diagnose", {"target": "biquad", "netlist": "* x\n.end"}
            )

    def test_diagnose_domain_checks(self):
        good = normalize_params("diagnose", {"target": "sallen_key"})
        assert good["span"] == 0.5
        assert good["steps"] == 4
        assert good["distance"] == "relative"
        with pytest.raises(JobValidationError, match="distance"):
            normalize_params(
                "diagnose", {"target": "biquad", "distance": "hamming"}
            )
        with pytest.raises(JobValidationError, match="span"):
            normalize_params(
                "diagnose", {"target": "biquad", "span": 1.0}
            )
        with pytest.raises(JobValidationError, match="steps"):
            normalize_params(
                "diagnose", {"target": "biquad", "steps": 0}
            )
        with pytest.raises(JobValidationError, match="ambiguity"):
            normalize_params(
                "diagnose", {"target": "biquad", "ambiguity": -0.1}
            )
        with pytest.raises(JobValidationError, match="kernel"):
            normalize_params(
                "diagnose", {"target": "biquad", "kernel": "quantum"}
            )

    def test_diagnose_seeded_fault_is_all_or_nothing(self):
        both = normalize_params(
            "diagnose",
            {"target": "biquad", "component": "R2",
             "fault_deviation": 0.33},
        )
        assert both["component"] == "R2"
        with pytest.raises(JobValidationError, match="together"):
            normalize_params(
                "diagnose", {"target": "biquad", "component": "R2"}
            )
        with pytest.raises(JobValidationError, match="together"):
            normalize_params(
                "diagnose", {"target": "biquad", "fault_deviation": 0.33}
            )
        with pytest.raises(JobValidationError, match="deviation"):
            normalize_params(
                "diagnose",
                {"target": "biquad", "component": "R2",
                 "fault_deviation": 0.0},
            )
        with pytest.raises(JobValidationError, match="deviation"):
            normalize_params(
                "diagnose",
                {"target": "biquad", "component": "R2",
                 "fault_deviation": -1.0},
            )

    def test_circuits_accepts_list_and_csv(self):
        as_list = normalize_params(
            "tolerance", {"circuits": ["biquad", "leapfrog"]}
        )
        as_csv = normalize_params(
            "tolerance", {"circuits": "biquad, leapfrog"}
        )
        assert as_list["circuits"] == as_csv["circuits"]

    def test_every_kind_has_a_timeout_param(self):
        for kind in JOB_KINDS:
            assert "timeout_s" in PARAM_SPECS[kind]


class TestJobKey:
    def test_identical_params_same_key(self):
        a = normalize_params("faultsim", {"target": "biquad"})
        b = normalize_params("faultsim", {"target": "biquad"})
        assert job_key("faultsim", a) == job_key("faultsim", b)

    def test_different_params_different_key(self):
        a = normalize_params("faultsim", {"target": "biquad"})
        b = normalize_params("faultsim", {"target": "biquad", "ppd": 12})
        assert job_key("faultsim", a) != job_key("faultsim", b)

    def test_timeout_budget_is_not_identity(self):
        a = normalize_params("faultsim", {"target": "biquad"})
        b = normalize_params(
            "faultsim", {"target": "biquad", "timeout_s": 5.0}
        )
        assert job_key("faultsim", a) == job_key("faultsim", b)

    def test_kind_is_identity(self):
        params = {"circuits": ["biquad"]}
        assert job_key(
            "tolerance", normalize_params("tolerance", params)
        ) != job_key("verify", normalize_params("verify", params))


class TestCacheability:
    def test_deterministic_jobs_are_cacheable(self):
        assert is_cacheable(
            "faultsim", normalize_params("faultsim", {"target": "biquad"})
        )
        assert is_cacheable("tolerance", normalize_params("tolerance", {}))

    def test_fresh_entropy_verify_is_not(self):
        params = normalize_params("verify", {"random": 5})
        assert not is_cacheable("verify", params)
        seeded = normalize_params("verify", {"random": 5, "seed": 0})
        assert is_cacheable("verify", seeded)


class TestJobRecordCache:
    def test_round_trip_through_result_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        params = normalize_params("faultsim", {"target": "biquad"})
        job = Job("faultsim", params)
        job.result = {"fault_coverage": 1.0, "cover": ["C0", "C3"]}
        cache.put(job.key, job_record(job))
        loaded = cache.get(job.key, JOB_RECORD)
        assert loaded is not None
        assert loaded.values == {
            "params": job.params, "result": job.result, "wall_s": 0.0,
        }
        assert list(loaded.values["result"]) == ["fault_coverage", "cover"]

    def test_wrong_payload_type_is_a_miss(self, tmp_path):
        """A job record read as a unit result is corruption, not a hit."""
        cache = ResultCache(tmp_path)
        job = Job("verify", normalize_params("verify", {"circuits": []}))
        job.result = {}
        cache.put(job.key, job_record(job))
        assert cache.get(job.key, "faultsim") is None
        assert cache.corrupt == 1


class TestJobLifecycle:
    def test_new_job_is_queued(self):
        job = Job("faultsim", normalize_params(
            "faultsim", {"target": "biquad"}
        ))
        assert job.state == QUEUED
        assert not job.done
        view = job.to_api()
        assert view["state"] == QUEUED
        assert "result" not in view

    def test_api_view_with_result(self):
        job = Job("verify", normalize_params("verify", {"circuits": []}))
        job.state = DONE
        job.result = {"passed": True}
        view = job.to_api(include_result=True)
        assert view["result"] == {"passed": True}


class TestJobTelemetry:
    def test_checkpoint_raises_on_cancel(self):
        job = Job("verify", normalize_params("verify", {"circuits": []}))
        telemetry = JobTelemetry(job)
        telemetry.checkpoint()  # clean
        job.cancel_event.set()
        with pytest.raises(JobCancelledError):
            telemetry.checkpoint()

    def test_checkpoint_raises_past_deadline(self):
        job = Job("verify", normalize_params("verify", {"circuits": []}))
        telemetry = JobTelemetry(job, deadline=0.0)  # long past
        with pytest.raises(JobTimeoutError):
            telemetry.checkpoint()

    def test_outcomes_tee_into_shared_telemetry(self):
        from repro.campaign import CampaignTelemetry, UnitOutcome, UnitResult

        shared = CampaignTelemetry()
        job = Job("verify", normalize_params("verify", {"circuits": []}))
        telemetry = JobTelemetry(job, shared=shared)

        class _Unit:
            unit_id = "u0"
            label = "C0"
            key = "k" * 64
            size = 1

        result = UnitResult(kind="faultsim", key="k" * 64, n_solves=7)
        outcome = UnitOutcome(unit=_Unit(), result=result)
        telemetry.unit_outcome(outcome)
        assert telemetry.snapshot()["solves"] == 7
        assert shared.snapshot()["solves"] == 7
