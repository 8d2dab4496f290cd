"""Telemetry: JSONL traces, counters and the progress line."""

import io
import json

import pytest

from repro.campaign import (
    CampaignTelemetry,
    ParallelExecutor,
    ResultCache,
)
from repro.faults import simulate_faults


def read_trace(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


class TestTrace:
    def test_event_stream_shape(
        self, tmp_path, campaign_mcc, campaign_faults, campaign_setup
    ):
        trace = tmp_path / "trace.jsonl"
        telemetry = CampaignTelemetry(trace_path=trace)
        simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            telemetry=telemetry,
        )
        telemetry.close()
        events = read_trace(trace)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_end"
        assert kinds.count("unit_done") == 7

        start = events[0]
        assert start["units"] == 7
        assert start["plan"] == (
            f"campaign plan: 7 configuration(s) x {len(campaign_faults)} "
            "fault(s) -> 7 unit(s)"
        )
        assert "engine" not in start
        assert start["executor"] == "serial"

        done = [e for e in events if e["event"] == "unit_done"]
        assert all(e["solves"] == 9 for e in done)  # 8 faults + nominal
        assert all(not e["cache_hit"] for e in done)
        assert {e["config"] for e in done} == {
            f"C{i}" for i in range(7)
        }
        # one unit per configuration, named after it
        assert [e["unit"] for e in done] == [e["config"] for e in done]

        end = events[-1]
        assert end["units_done"] == end["units_total"] == 7
        assert end["solves"] == 63
        assert end["failures"] == 0
        assert end["wall_s"] > 0

    def test_warm_cache_trace_proves_zero_solves(
        self, tmp_path, campaign_mcc, campaign_faults, campaign_setup
    ):
        """The acceptance check: a warm re-run's trace records 100%
        cache hits and zero new AC solves."""
        cache = ResultCache(tmp_path / "cache")
        simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        trace = tmp_path / "warm.jsonl"
        telemetry = CampaignTelemetry(trace_path=trace)
        simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            cache=cache,
            telemetry=telemetry,
        )
        telemetry.close()
        events = read_trace(trace)
        end = events[-1]
        assert end["event"] == "campaign_end"
        assert end["cache_hits"] == end["units_total"] == 7
        assert end["solves"] == 0
        assert all(
            e["cache_hit"] for e in events if e["event"] == "unit_done"
        )

    def test_trace_appends_across_campaigns(
        self, tmp_path, campaign_mcc, campaign_faults, campaign_setup
    ):
        trace = tmp_path / "trace.jsonl"
        for _ in range(2):
            telemetry = CampaignTelemetry(trace_path=trace)
            simulate_faults(
                campaign_mcc,
                campaign_faults,
                campaign_setup,
                telemetry=telemetry,
            )
            telemetry.close()
        events = read_trace(trace)
        assert [e["event"] for e in events].count("campaign_start") == 2

    def test_parallel_trace_covers_every_unit(
        self, tmp_path, campaign_mcc, campaign_faults, campaign_setup
    ):
        trace = tmp_path / "trace.jsonl"
        with CampaignTelemetry(trace_path=trace) as telemetry:
            simulate_faults(
                campaign_mcc,
                campaign_faults,
                campaign_setup,
                executor=ParallelExecutor(jobs=2),
                telemetry=telemetry,
            )
        events = read_trace(trace)
        done = [e for e in events if e["event"] == "unit_done"]
        assert len(done) == 7
        assert events[0]["jobs"] == 2


class TestFallbackCounter:
    def test_fallbacks_reach_dataset_trace_and_counters(self, tmp_path):
        """R1 and R3 a hair from −50 % leave configuration C6 of the
        state-variable filter nearly singular: the certificate re-sweeps
        both pairs, and every report of the work counts the re-solves."""
        from repro.analysis import decade_grid
        from repro.circuits import build
        from repro.faults import DeviationFault, SimulationSetup

        bench = build("state_variable")
        setup = SimulationSetup(
            grid=decade_grid(bench.f0_hz, 2, 2, points_per_decade=10)
        )
        faults = [
            DeviationFault("R1", -0.5 * (1 + 1e-9)),
            DeviationFault("R3", -0.5 * (1 + 1e-9)),
        ]
        trace = tmp_path / "fallbacks.jsonl"
        telemetry = CampaignTelemetry(trace_path=trace)
        dataset = simulate_faults(
            bench.dft(), faults, setup, telemetry=telemetry
        )
        telemetry.close()
        n_points = setup.grid.n_points
        assert dataset.sm_fallbacks == 2 * n_points
        assert dataset.n_factorizations == (
            len(dataset.configs) * n_points + dataset.sm_fallbacks
        )
        events = read_trace(trace)
        done = [e for e in events if e["event"] == "unit_done"]
        assert sum(e["sm_fallbacks"] for e in done) == dataset.sm_fallbacks
        assert events[-1]["sm_fallbacks"] == dataset.sm_fallbacks
        assert telemetry.snapshot()["sm_fallbacks"] == dataset.sm_fallbacks


class TestCountersAndProgress:
    def test_counters_without_trace(
        self, campaign_mcc, campaign_faults, campaign_setup
    ):
        telemetry = CampaignTelemetry()
        simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            telemetry=telemetry,
        )
        counters = telemetry.snapshot()
        assert counters["units_done"] == counters["units_total"] == 7
        assert counters["solves"] == 63
        assert counters["failures"] == 0

    def test_progress_line_paints_and_finishes(
        self, campaign_mcc, campaign_faults, campaign_setup
    ):
        stream = io.StringIO()
        telemetry = CampaignTelemetry(progress=True, stream=stream)
        simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            telemetry=telemetry,
        )
        telemetry.close()
        painted = stream.getvalue()
        assert "[campaign] 7/7 units" in painted
        assert painted.endswith("\n")

    def test_summary_includes_wall_and_cpu(
        self, campaign_mcc, campaign_faults, campaign_setup
    ):
        telemetry = CampaignTelemetry()
        simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            telemetry=telemetry,
        )
        summary = telemetry.summary()
        assert summary["wall_s"] >= 0
        assert summary["cpu_s"] >= 0
        assert summary["units_done"] == 7
