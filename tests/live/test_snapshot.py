"""Snapshot/restore: an interrupted session must be indistinguishable.

The acceptance contract: snapshot mid-stream, serialize through real
JSON (bytes on disk), restore, continue the replay — the final snapshot
must be **bit-identical** to a session that never stopped.  Python's
``json`` round-trips finite floats exactly (repr shortest-round-trip),
so no tolerance is needed or used.
"""

import json

import pytest

from repro.live import (
    LIVE_SNAPSHOT_VERSION,
    LiveAnalytics,
    LiveConfig,
    replay_trace,
)
from repro.live.replay import iter_trace_stream


def _uninterrupted(trace):
    analytics = LiveAnalytics(LiveConfig.for_trace(trace))
    replay_trace(trace, analytics)
    return analytics.snapshot()


def _partial(trace, fraction):
    """Ingest a prefix of the stream and return the analytics."""
    analytics = LiveAnalytics(LiveConfig.for_trace(trace))
    items = list(iter_trace_stream(trace))
    for item in items[: int(len(items) * fraction)]:
        analytics.ingest(*item)
    return analytics


@pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
def test_snapshot_restore_continue_is_bit_identical(rsc1_trace, tmp_path, fraction):
    reference = _uninterrupted(rsc1_trace)

    partial = _partial(rsc1_trace, fraction)
    snap_path = tmp_path / "live.json"
    partial.save_snapshot(snap_path)  # through real bytes on disk

    restored = LiveAnalytics.load_snapshot(snap_path)
    replay_trace(rsc1_trace, restored)  # resumes via per-channel counts

    assert json.dumps(restored.snapshot(), sort_keys=True) == json.dumps(
        reference, sort_keys=True
    )


def test_snapshot_restore_at_zero_and_at_end(rsc1_trace):
    reference = _uninterrupted(rsc1_trace)
    # restore-before-anything degenerates to a plain replay
    empty = LiveAnalytics(LiveConfig.for_trace(rsc1_trace))
    restored = LiveAnalytics.from_snapshot(
        json.loads(json.dumps(empty.snapshot()))
    )
    replay_trace(rsc1_trace, restored)
    assert restored.snapshot() == reference
    # restoring a finished snapshot and replaying again is a no-op
    done = LiveAnalytics.from_snapshot(json.loads(json.dumps(reference)))
    replay_trace(rsc1_trace, done)
    assert done.snapshot() == reference


def test_snapshot_schema_is_versioned(rsc1_trace):
    analytics = LiveAnalytics(LiveConfig.for_trace(rsc1_trace))
    snap = analytics.snapshot()
    assert snap["schema"] == LIVE_SNAPSHOT_VERSION
    snap["schema"] = LIVE_SNAPSHOT_VERSION + 1
    with pytest.raises(ValueError, match="schema"):
        LiveAnalytics.from_snapshot(snap)


def test_snapshot_is_json_clean(rsc1_trace):
    """Every value must survive JSON: no numpy scalars, tuples, objects."""
    partial = _partial(rsc1_trace, 0.5)
    payload = json.dumps(partial.snapshot())
    assert json.loads(payload) == partial.snapshot()


def test_an_older_snapshot_with_settings_keys_restores(rsc1_trace):
    """Snapshots of the same schema once also carried the tolerant
    ingest's ``malformed`` count and the estimators' fixed settings;
    restore ignores those keys."""
    partial = _partial(rsc1_trace, 0.5)
    current = partial.snapshot()
    older = json.loads(json.dumps(current))
    older["malformed"] = 0
    estimators = older["estimators"]
    rolling = estimators["rolling"]
    rolling.update(start=0.0, allowed_lateness=rolling["window"])
    estimators["mttf"]["confidence"] = 0.9
    estimators["lemons"]["min_signals"] = 2
    assert LiveAnalytics.from_snapshot(older).snapshot() == current
