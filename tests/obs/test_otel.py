"""OTLP export: the pure snapshot converters.

No OpenTelemetry package is imported anywhere; the converters map a
snapshot onto OTLP-JSON-shaped dictionaries.
"""

import pytest

from repro import obs


def _snapshot() -> "obs.TelemetrySnapshot":
    telemetry = obs.Telemetry()
    with obs.session(telemetry):
        with obs.span("engine.batch"):
            with obs.span("engine.simulate"):
                pass
            with obs.span("engine.simulate"):
                pass
        obs.add("engine.jobs.completed", 3,
                labels={"scheme": "TEG_Original"})
        obs.gauge_max("sim.peak_temp_c", 61.5)
        obs.observe("teg.power_w", [0.7, 3.8], buckets=(1.0, 4.0))
    return telemetry.snapshot()


class TestPureConverters:
    def test_payload_shape(self):
        payload = obs.telemetry_to_otlp(_snapshot(),
                                        resource={"run": "r1"})
        spans = payload["resourceSpans"][0]["scopeSpans"][0]["spans"]
        metrics = (payload["resourceMetrics"][0]
                   ["scopeMetrics"][0]["metrics"])
        assert {span["name"] for span in spans} \
            == {"engine.batch", "engine.simulate"}
        resource = payload["resourceSpans"][0]["resource"]["attributes"]
        assert {"key": "service.name",
                "value": {"stringValue": "repro"}} in resource
        assert {"key": "run", "value": {"stringValue": "r1"}} in resource
        assert {metric["name"] for metric in metrics} \
            == {"engine.jobs.completed", "sim.peak_temp_c",
                "teg.power_w"}

    def test_spans_nest_and_are_deterministic(self):
        a = obs.telemetry_to_otlp(_snapshot())
        b = obs.telemetry_to_otlp(_snapshot())
        spans_a = a["resourceSpans"][0]["scopeSpans"][0]["spans"]
        spans_b = b["resourceSpans"][0]["scopeSpans"][0]["spans"]
        # blake2b ids from the span path: identical across conversions.
        assert [s["spanId"] for s in spans_a] \
            == [s["spanId"] for s in spans_b]
        by_name = {span["name"]: span for span in spans_a}
        root = by_name["engine.batch"]
        child = by_name["engine.simulate"]
        assert root["parentSpanId"] == ""
        assert child["parentSpanId"] == root["spanId"]
        assert {"key": "repro.span.count",
                "value": {"stringValue": "2"}} in child["attributes"]

    def test_counter_is_cumulative_monotonic_with_labels(self):
        payload = obs.telemetry_to_otlp(_snapshot())
        metrics = (payload["resourceMetrics"][0]
                   ["scopeMetrics"][0]["metrics"])
        counter = next(m for m in metrics
                       if m["name"] == "engine.jobs.completed")
        assert counter["sum"]["isMonotonic"] is True
        assert counter["sum"]["aggregationTemporality"] == 2
        point = counter["sum"]["dataPoints"][0]
        assert point["asDouble"] == 3.0
        assert point["attributes"] == [
            {"key": "scheme", "value": {"stringValue": "TEG_Original"}}]

    def test_histogram_converts_losslessly(self):
        payload = obs.telemetry_to_otlp(_snapshot())
        metrics = (payload["resourceMetrics"][0]
                   ["scopeMetrics"][0]["metrics"])
        hist = next(m for m in metrics if m["name"] == "teg.power_w")
        point = hist["histogram"]["dataPoints"][0]
        assert point["explicitBounds"] == [1.0, 4.0]
        assert point["bucketCounts"] == ["1", "1", "0"]
        assert point["count"] == "2"
        assert point["sum"] == pytest.approx(4.5)

    def test_base_time_shifts_span_clock(self):
        shifted = obs.telemetry_to_otlp(_snapshot(),
                                        base_time_unix_nano=10**9)
        span = shifted["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        assert int(span["startTimeUnixNano"]) >= 10**9
