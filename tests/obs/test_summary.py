"""End-to-end coverage for ``repro.obs.summary`` over real telemetry."""

import json

import pytest

from repro import CampaignConfig, ClusterSpec, RunOptions, run_campaign
from repro.obs import (
    Telemetry,
    check_stream_well_formed,
    find_telemetry_files,
    iter_event_dicts,
    load_snapshot,
    summarize,
)
from repro.obs.telemetry import EVENTS_SUFFIX, METRICS_SUFFIX
from repro.runtime import TraceCache


@pytest.fixture(scope="module")
def telemetry_dir(tmp_path_factory):
    """A telemetry directory produced the way the CLI produces one."""
    directory = tmp_path_factory.mktemp("telemetry")
    spec = ClusterSpec.rsc1_like(n_nodes=16, campaign_days=5)
    config = CampaignConfig(cluster_spec=spec, duration_days=5, seed=3)
    telemetry = Telemetry.to_directory(directory, stem="seed-0003")
    cache = TraceCache(root=tmp_path_factory.mktemp("cache"), enabled=True)
    cache.telemetry = telemetry
    assert cache.get(config) is None  # miss
    trace = run_campaign(config, RunOptions(telemetry=telemetry))
    cache.put(config, trace)
    assert cache.get(config) is not None  # hit
    telemetry.finalize()
    return directory


def test_find_telemetry_files_pairs_stream_with_metrics(telemetry_dir):
    [(stream, metrics)] = find_telemetry_files(telemetry_dir)
    assert stream.name == f"seed-0003{EVENTS_SUFFIX}"
    assert metrics is not None and metrics.name == f"seed-0003{METRICS_SUFFIX}"
    # a single stream path resolves too
    [(same_stream, same_metrics)] = find_telemetry_files(stream)
    assert same_stream == stream and same_metrics == metrics


def test_find_telemetry_files_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        find_telemetry_files(tmp_path / "missing")
    with pytest.raises(FileNotFoundError):
        find_telemetry_files(tmp_path)  # empty dir: no streams


def test_summarize_aggregates_the_run(telemetry_dir):
    summary = summarize(telemetry_dir)
    assert summary.n_events > 100
    assert summary.streams == [
        str(next(iter(telemetry_dir.glob(f"*{EVENTS_SUFFIX}"))))
    ]
    assert summary.engine_events_executed > 0
    assert summary.by_category["span.end"] == sum(
        len(durations) for durations in summary.span_durations.values()
    )
    assert sum(summary.failures_by_component.values()) == (
        summary.failures_attributed + summary.failures_unattributed
    )
    assert summary.sched_attempts_by_state  # jobs ran to some final state
    assert summary.label_timings  # per-group timing accumulated
    assert summary.events_per_sec is None or summary.events_per_sec > 0


def test_summary_cache_hit_ratio(telemetry_dir):
    summary = summarize(telemetry_dir)
    # The fixture drove exactly one miss and one hit through the cache;
    # the metrics snapshot is the one record of them.
    assert summary.cache_hits == 1
    assert summary.cache_misses == 1
    assert summary.cache_hit_ratio == pytest.approx(0.5)
    assert "hit ratio 50.0%" in summary.render()


def test_render_contains_all_sections(telemetry_dir):
    report = summarize(telemetry_dir).render(top_labels=5)
    assert "Telemetry summary" in report
    assert "Events by category" in report
    assert "Top event labels by wall time" in report
    assert "Failure injections" in report
    assert "Scheduler attempts by final state" in report
    assert "Span phases (wall time)" in report


def test_check_stream_well_formed(telemetry_dir):
    [(stream, _)] = find_telemetry_files(telemetry_dir)
    n = check_stream_well_formed(stream)
    assert n == sum(1 for _ in iter_event_dicts(stream))
    assert n > 100


def test_malformed_line_raises_with_line_number(tmp_path):
    path = tmp_path / f"bad{EVENTS_SUFFIX}"
    good = json.dumps({"category": "c", "sim_time": 1.0})
    path.write_text(good + "\nnot json\n")
    with pytest.raises(ValueError, match=r":2: malformed"):
        list(iter_event_dicts(path))


def test_missing_fields_raise(tmp_path):
    path = tmp_path / f"bad{EVENTS_SUFFIX}"
    path.write_text(json.dumps({"sim_time": 1.0}) + "\n")
    with pytest.raises(ValueError, match="missing"):
        list(iter_event_dicts(path))


def test_sim_time_regression_detected(tmp_path):
    path = tmp_path / f"regress{EVENTS_SUFFIX}"
    lines = [
        json.dumps({"category": "c", "sim_time": 5.0}),
        json.dumps({"category": "other", "sim_time": 1.0}),  # fine: own category
        json.dumps({"category": "c", "sim_time": 4.0}),  # regression
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="regression"):
        check_stream_well_formed(path)


def test_stream_and_snapshot_account_for_the_whole_run(tmp_path):
    """Every emitted record reaches the stream, the stream carries the
    campaign phases as spans, and the metrics snapshot carries the
    engine's executed-event count."""
    spec = ClusterSpec.rsc1_like(n_nodes=16, campaign_days=5)
    config = CampaignConfig(cluster_spec=spec, duration_days=5, seed=17)
    telemetry = Telemetry.to_directory(tmp_path, stem="run")
    trace = run_campaign(config, RunOptions(telemetry=telemetry))
    emitted = telemetry.tracer.events_emitted
    telemetry.finalize()

    stream = tmp_path / f"run{EVENTS_SUFFIX}"
    metrics_path = tmp_path / f"run{METRICS_SUFFIX}"
    assert stream.is_file() and metrics_path.is_file()
    n_records = check_stream_well_formed(stream)
    assert n_records == emitted
    assert n_records > 100

    phases = {
        event["label"]
        for event in iter_event_dicts(stream)
        if event["category"] == "span.end"
    }
    assert {"phase:generate", "phase:simulate", "phase:build_trace"} <= phases
    snapshot = load_snapshot(metrics_path)
    executed = sum(
        int(h["count"])
        for h in snapshot["histograms"]
        if h["name"] == "sim_event_duration_seconds"
    )
    assert executed == trace.metadata["runtime"]["events_executed"]
    assert summarize(tmp_path).engine_events_executed == executed
