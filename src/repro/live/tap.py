"""Tap a running campaign into a live analytics session.

:func:`tap_campaign` attaches to a :class:`~repro.campaign.Campaign`'s
two production hooks — the scheduler's ``on_record`` (fires as each
accounting row is appended) and the event log's ``listener`` (fires on
every emitted event) — and ingests each fact as it happens.  After the
run it feeds the end-of-campaign node records and closes the stream.

Because both hooks fire at the exact code points the trace lists are
built from, the tapped stream carries the same items, in the same
per-channel order, as a later replay of the finished trace — the
estimator-state-equivalence test in ``tests/live/test_tap.py`` holds
the two ingestion modes to bit-identical final snapshots.
"""

from typing import Callable, Optional

from repro.campaign import Campaign
from repro.live.analytics import (
    CHANNEL_EVENT,
    CHANNEL_JOB,
    CHANNEL_NODE,
    LiveAnalytics,
)
from repro.workload.trace import Trace


def tap_campaign(
    campaign: Campaign,
    analytics: LiveAnalytics,
    on_item: Optional[Callable[[], None]] = None,
) -> Trace:
    """Run ``campaign`` with ``analytics`` ingesting its stream live.

    Refuses hooks another consumer already holds, and detaches its own
    even if the run raises.  ``on_item`` runs after each ingested item.
    """
    scheduler, event_log = campaign.scheduler, campaign.event_log
    if scheduler.on_record is not None:
        raise RuntimeError("scheduler.on_record is already taken")
    if event_log.listener is not None:
        raise RuntimeError("event_log.listener is already taken")

    def ingest(time, channel, payload) -> None:
        analytics.ingest(time, channel, payload)
        if on_item is not None:
            on_item()

    scheduler.on_record = lambda record: ingest(
        record.end_time, CHANNEL_JOB, record
    )
    event_log.listener = lambda event: ingest(event.time, CHANNEL_EVENT, event)
    try:
        trace = campaign.run()
    finally:
        scheduler.on_record = None
        event_log.listener = None
    for node in trace.node_records:
        ingest(trace.end, CHANNEL_NODE, node)
    analytics.finish(trace.end)
    return trace
