"""Metrics tests: histogram math, exposition format, the parser."""

from repro.service.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    ServiceMetrics,
    format_float,
    parse_metrics,
)


class TestHistogram:
    def test_observations_land_in_first_fitting_bucket(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)  # beyond every bound -> +Inf
        assert histogram.counts == [1, 1]
        assert histogram.inf_count == 1
        assert histogram.count == 3
        assert histogram.total == 5.55

    def test_cumulative_rows_include_inf(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert histogram.cumulative() == [
            ("0.1", 1), ("1", 2), ("+Inf", 3),
        ]

    def test_boundary_is_inclusive(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        histogram.observe(0.1)
        assert histogram.counts == [1, 0]

    def test_buckets_are_sorted(self):
        histogram = Histogram(buckets=(1.0, 0.1))
        assert histogram.buckets == (0.1, 1.0)

    def test_default_buckets_cover_api_latencies(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 10.0


class TestFormatFloat:
    def test_compact(self):
        assert format_float(0.25) == "0.25"
        assert format_float(1.0) == "1"
        assert format_float(0.001) == "0.001"


class TestRender:
    def test_campaign_counters_and_gauges(self):
        metrics = ServiceMetrics()
        text = metrics.render(
            telemetry_counters={"solves": 39, "cache_hits": 4},
            queue_depth=2,
            jobs_by_state={"done": 3, "queued": 2},
        )
        values = parse_metrics(text)
        assert values["repro_campaign_solves"] == 39.0
        assert values["repro_campaign_cache_hits"] == 4.0
        assert values["repro_queue_depth"] == 2.0
        assert values['repro_jobs{state="done"}'] == 3.0
        assert values['repro_jobs{state="queued"}'] == 2.0
        assert values["repro_uptime_seconds"] >= 0.0

    def test_help_and_type_preambles(self):
        metrics = ServiceMetrics()
        text = metrics.render(
            telemetry_counters={"solves": 1, "sm_fallbacks": 0}
        )
        assert "# HELP repro_campaign_solves" in text
        assert "# TYPE repro_campaign_solves counter" in text
        assert "# TYPE repro_uptime_seconds gauge" in text
        assert "# HELP repro_campaign_sm_fallbacks Grid points" in text
        assert parse_metrics(text)["repro_campaign_sm_fallbacks"] == 0.0

    def test_request_series_keyed_by_route_template(self):
        metrics = ServiceMetrics()
        metrics.observe_request("GET", "/jobs/{id}", 200, 0.004)
        metrics.observe_request("GET", "/jobs/{id}", 200, 0.006)
        metrics.observe_request("POST", "/jobs", 429, 0.001)
        values = parse_metrics(metrics.render())
        key = (
            'repro_http_requests_total'
            '{method="GET",route="/jobs/{id}",status="200"}'
        )
        assert values[key] == 2.0
        key429 = (
            'repro_http_requests_total'
            '{method="POST",route="/jobs",status="429"}'
        )
        assert values[key429] == 1.0

    def test_latency_histogram_series(self):
        metrics = ServiceMetrics()
        metrics.observe_request("GET", "/healthz", 200, 0.002)
        metrics.observe_request("GET", "/healthz", 200, 0.2)
        text = metrics.render()
        values = parse_metrics(text)
        name = "repro_http_request_duration_seconds"
        assert values[
            f'{name}_bucket{{le="+Inf",route="/healthz"}}'
        ] == 2.0
        assert values[f'{name}_count{{route="/healthz"}}'] == 2.0
        assert abs(
            values[f'{name}_sum{{route="/healthz"}}'] - 0.202
        ) < 1e-9
        # cumulative counts never decrease across buckets
        rows = [
            value for key, value in values.items()
            if key.startswith(f"{name}_bucket") and "/healthz" in key
        ]
        assert rows == sorted(rows)

    def test_empty_render_is_still_valid(self):
        text = ServiceMetrics().render()
        assert text.endswith("\n")
        assert parse_metrics(text)["repro_uptime_seconds"] >= 0.0


class TestParseMetrics:
    def test_skips_comments_and_blanks(self):
        text = "# HELP x y\n# TYPE x counter\n\nx 3\n"
        assert parse_metrics(text) == {"x": 3.0}

    def test_keeps_labels_in_key(self):
        text = 'x{a="b"} 1\nx{a="c"} 2\n'
        parsed = parse_metrics(text)
        assert parsed['x{a="b"}'] == 1.0
        assert parsed['x{a="c"}'] == 2.0
