"""The read memo never answers from a stale session state.

``ReliabilityService`` keeps the rendered 200 bodies of ``/v1/health``,
``/v1/ettr``, ``/v1/mttf`` and ``/v1/lemons`` per path and query until
the session state changes.  Under Hypothesis, a sequence interleaves
ingested stream items (and rejected ones), ``finish``, reassignment of
each estimator setting the documents read, a tracer self-disable and
``/metrics`` scrapes; after each step every read, with and without
query parameters, is polled twice.  Every read must equal, byte
for byte, the answer of a fresh service over the same analytics, which
has never memoized anything; a repeated read with no change in between
must be a memo hit; and every read, hit or not, must still be counted in
``serve_requests_total`` and timed in ``serve_request_seconds``.
``/metrics`` is never memoized.
"""

import asyncio

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CampaignConfig, ClusterSpec
from repro.campaign import run_campaign
from repro.jobtypes import QosTier
from repro.live import LiveAnalytics, LiveConfig, replay_trace
from repro.live.replay import iter_trace_stream
from repro.obs import Telemetry
from repro.runtime.cache import TraceCache
from repro.serve import ReliabilityService, Request
from repro.sim.timeunits import HOUR, MINUTE

#: Reads drawn by the sequence: bare, with query variants, and ones
#: that answer 400.
READS = (
    ("/v1/health", {}),
    ("/v1/ettr", {}),
    ("/v1/ettr", {"gpus": "64"}),
    ("/v1/ettr", {"gpus": "512", "rf_per_1k": "5"}),
    ("/v1/ettr", {"simple": "true", "gpus": "64", "queue_hours": "2"}),
    ("/v1/ettr", {"gpus": "4"}),
    ("/v1/mttf", {}),
    ("/v1/mttf", {"min_records": "5"}),
    ("/v1/mttf", {"min_records": "many"}),
    ("/v1/lemons", {}),
)

#: (estimator, attribute) -> values it is reassigned to.
SETTINGS = {
    ("ettr", "checkpoint_interval"): (30 * MINUTE, HOUR, 3 * HOUR),
    ("ettr", "restart_overhead"): (0.0, 5 * MINUTE, 20 * MINUTE),
    ("ettr", "min_total_runtime"): (0.0, 6 * HOUR, 24 * HOUR),
    ("ettr", "qos"): (None, int(QosTier.LOW), int(QosTier.HIGH)),
    ("ettr", "min_runs_per_bucket"): (1, 2, 3),
    ("mttf", "rf_min_gpus"): (None, 64, 128),
}

# One branch per setting, so most steps reassign one: each reassignment
# meets a memo warmed by the poll before it.
actions = st.one_of(
    st.tuples(st.just("ingest"), st.sampled_from((1, 7, 300))),
    st.tuples(st.just("reject"), st.none()),
    st.tuples(st.just("finish"), st.none()),
    st.tuples(st.just("self_disable"), st.none()),
    st.tuples(st.just("metrics"), st.none()),
    *(
        st.tuples(
            st.just("set"),
            st.tuples(st.just(target), st.sampled_from(values)),
        )
        for target, values in SETTINGS.items()
    ),
)


class BrokenSink:
    def write(self, event):
        raise OSError("sink gone")

    def close(self):
        pass


#: Where in the stream a sequence starts, as a fraction of its items.
STARTS = (0.0, 0.5, 1.0)


@pytest.fixture(scope="module")
def stream():
    """The stream items of a 32-node, 20-day RSC-1 campaign."""
    spec = ClusterSpec.rsc1_like(n_nodes=32, campaign_days=20)
    trace = run_campaign(
        CampaignConfig(cluster_spec=spec, duration_days=20, seed=3)
    )
    return trace, list(iter_trace_stream(trace))


@pytest.fixture(scope="module")
def starts(stream):
    """STARTS -> (stream position, snapshot of the session there)."""
    trace, items = stream
    out = {}
    for start in STARTS:
        analytics = LiveAnalytics(LiveConfig.for_trace(trace))
        position = int(start * len(items))
        for item in items[:position]:
            analytics.ingest(*item)
        out[start] = (position, analytics.snapshot())
    return out


def request(path, query):
    return Request("GET", path, path, dict(query), {})


def counted(service, path, status):
    return (
        service.metrics.counter(
            "serve_requests_total", endpoint=path, status=str(status)
        ).value,
        service.metrics.histogram("serve_request_seconds", endpoint=path).count,
    )


def wire(response):
    return (response.status, response.content_type, response.headers,
            response.body)


@given(start=st.sampled_from(STARTS), steps=st.lists(actions, max_size=8))
# Each input the memo keys on besides the version, changed once from a
# mid-stream state.
@example(start=0.5, steps=[("self_disable", None)])
@example(start=0.5, steps=[("set", (("ettr", "checkpoint_interval"), 3 * HOUR))])
@example(start=0.5, steps=[("set", (("ettr", "restart_overhead"), 0.0))])
@example(start=0.5, steps=[("set", (("ettr", "min_total_runtime"), 0.0))])
@example(start=0.5, steps=[("set", (("ettr", "qos"), None))])
@example(start=0.5, steps=[("set", (("ettr", "min_runs_per_bucket"), 1))])
@example(start=0.5, steps=[("set", (("mttf", "rf_min_gpus"), 64))])
@settings(max_examples=40, deadline=None)
def test_reads_equal_a_fresh_service(stream, starts, start, steps):
    trace, items = stream
    position, snapshot = starts[start]
    analytics = LiveAnalytics.from_snapshot(snapshot)
    analytics.telemetry = Telemetry.in_memory()
    service = ReliabilityService(analytics, trace_cache=TraceCache(enabled=False))
    loop = asyncio.new_event_loop()

    def read(path, query):
        fresh = ReliabilityService(
            analytics, trace_cache=TraceCache(enabled=False)
        )
        expected = loop.run_until_complete(fresh.dispatch(request(path, query)))
        before = counted(service, path, expected.status)
        hits = service._read_memo.hits
        answer = loop.run_until_complete(service.dispatch(request(path, query)))
        assert wire(answer) == wire(expected)
        count, timed = counted(service, path, expected.status)
        assert (count, timed) == (before[0] + 1, before[1] + 1)
        return answer, service._read_memo.hits - hits

    def poll():
        # A dashboard reads every panel after each step, and again at
        # once: a 200 is then a memo hit, an error is recomputed (and
        # equal) again.
        for path, query in READS:
            answer, _ = read(path, query)
            again, hit = read(path, query)
            assert again.body == answer.body
            assert hit == (1 if answer.status == 200 else 0)

    try:
        poll()
        for kind, arg in steps:
            if kind == "ingest":
                for item in items[position:position + arg]:
                    analytics.ingest(*item)
                position += arg
            elif kind == "reject":
                with pytest.raises(ValueError):
                    analytics.ingest(0.0, "bogus", {})
            elif kind == "finish":
                analytics.finish()
            elif kind == "self_disable":
                tracer = analytics.telemetry.tracer
                tracer.sink = BrokenSink()
                while not tracer.self_disabled:
                    tracer.emit("test", "drop", 0.0)
            elif kind == "set":
                (estimator, name), value = arg
                setattr(getattr(analytics, estimator), name, value)
            elif kind == "metrics":
                first = loop.run_until_complete(
                    service.dispatch(request("/metrics", {}))
                )
                second = loop.run_until_complete(
                    service.dispatch(request("/metrics", {}))
                )
                # The second scrape counts the first one.
                assert first.body != second.body
                assert ("/metrics", ()) not in service._read_memo
            poll()
    finally:
        loop.close()


def test_version_bumps_on_every_ingest_and_finish(stream):
    trace, items = stream
    analytics = LiveAnalytics(LiveConfig.for_trace(trace))
    assert analytics.version == 0
    analytics.ingest(*items[0])
    with pytest.raises(ValueError):
        analytics.ingest(0.0, "bogus", {})
    with pytest.raises(ValueError):
        analytics.ingest(0.0, "job", None)
    assert analytics.version == 3
    analytics.finish()
    assert analytics.version == 4
    assert "version" not in analytics.snapshot()
    restored = LiveAnalytics.from_snapshot(analytics.snapshot())
    assert restored.snapshot() == analytics.snapshot()


def test_hit_counts_no_votes_and_lemons_counts_them_once(stream, monkeypatch):
    trace, items = stream
    analytics = LiveAnalytics(LiveConfig.for_trace(trace))
    replay_trace(trace, analytics)
    lemons = analytics.lemons
    calls = []
    scores = lemons.provisional_scores

    def counting():
        calls.append(1)
        return scores()

    monkeypatch.setattr(lemons, "provisional_scores", counting)
    service = ReliabilityService(analytics, trace_cache=TraceCache(enabled=False))
    first = asyncio.run(service.dispatch(request("/v1/lemons", {})))
    assert first.status == 200 and len(calls) == 1
    again = asyncio.run(service.dispatch(request("/v1/lemons", {})))
    assert again.body == first.body and len(calls) == 1
    asyncio.run(service.dispatch(request("/v1/health", {})))
    assert len(calls) == 2


def test_a_swapped_session_is_not_answered_from_the_old_memo(stream):
    trace, items = stream
    half = LiveAnalytics(LiveConfig.for_trace(trace))
    for item in items[: len(items) // 2]:
        half.ingest(*item)
    full = LiveAnalytics(LiveConfig.for_trace(trace))
    replay_trace(trace, full)
    service = ReliabilityService(half, trace_cache=TraceCache(enabled=False))
    before = asyncio.run(service.dispatch(request("/v1/mttf", {})))
    service.analytics = full
    after = asyncio.run(service.dispatch(request("/v1/mttf", {})))
    fresh = ReliabilityService(full, trace_cache=TraceCache(enabled=False))
    assert after.body != before.body
    assert after.body == asyncio.run(
        fresh.dispatch(request("/v1/mttf", {}))
    ).body
