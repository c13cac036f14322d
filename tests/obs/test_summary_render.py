"""Golden-text checks for ``repro obs summary`` rendering.

The summary is an operator-facing report; these tests pin the exact
text of the edge cases (nothing observed, telemetry off, missing
directory) and the presence/shape of each data-driven section, so a
rendering regression shows up as a readable diff rather than a vague
downstream failure.
"""

import pytest

from repro import CampaignConfig, ClusterSpec, RunOptions
from repro.campaign import run_campaign
from repro.obs import Telemetry, summarize
from repro.obs.summary import ObsSummary


def test_zero_events_renders_header_only():
    assert ObsSummary().render() == "Telemetry summary — 0 events from 0 streams"


def test_empty_stream_counts_the_stream(tmp_path):
    stream = tmp_path / "t.events.jsonl"
    stream.write_text("")
    summary = summarize(stream)
    assert summary.render() == "Telemetry summary — 0 events from 1 stream"


def test_missing_path_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError, match="no telemetry at"):
        summarize(tmp_path / "nope")


def test_telemetry_off_directory_has_no_streams(tmp_path):
    # A run with a disabled bundle writes nothing; summarizing its empty
    # output directory is a FileNotFoundError, not a silent zero report.
    spec = ClusterSpec.rsc1_like(n_nodes=8, campaign_days=3)
    run_campaign(
        CampaignConfig(cluster_spec=spec, duration_days=3, seed=2),
        options=RunOptions(telemetry=Telemetry.disabled()),
    )
    out = tmp_path / "empty"
    out.mkdir()
    with pytest.raises(FileNotFoundError):
        summarize(out)


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    out = tmp_path_factory.mktemp("tel")
    telemetry = Telemetry.to_directory(out, stem="seed0")
    spec = ClusterSpec.rsc1_like(n_nodes=16, campaign_days=6)
    run_campaign(
        CampaignConfig(cluster_spec=spec, duration_days=6, seed=11),
        options=RunOptions(telemetry=telemetry),
    )
    telemetry.finalize()
    return summarize(out).render()


def test_instrumented_run_renders_every_section(rendered):
    assert rendered.startswith("Telemetry summary — ")
    assert "engine executed" in rendered
    assert "\nEvents by category\n" in rendered
    assert "span.end" in rendered
    assert "\nSpan phases (wall time)\n" in rendered
    # The span table carries the full campaign hierarchy.
    for name in ("campaign", "phase:simulate", "phase:generate",
                 "phase:build_trace", "sched.pass"):
        assert name in rendered


def test_span_table_columns(rendered):
    section = rendered.split("Span phases (wall time)\n", 1)[1]
    header = section.splitlines()[0]
    for column in ("span", "count", "total", "p50", "p95"):
        assert column in header


def test_healthy_run_shows_no_tracer_degradation(rendered):
    assert "tracer_self_disabled" not in rendered
    assert "tracer_sink_errors_total" not in rendered


def test_tracer_degradation_rows_render():
    summary = ObsSummary()
    summary.add_metrics_snapshot(
        {
            "counters": [
                {"name": "tracer_sink_errors_total", "value": 9},
            ],
            "gauges": [
                {"name": "tracer_self_disabled", "value": 1.0},
            ],
        }
    )
    text = summary.render()
    assert "\nResilience (recovery actions)\n" in text
    assert "tracer_sink_errors_total" in text
    assert "tracer_self_disabled" in text
