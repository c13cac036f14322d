"""The work queue's result store: a plain ``TraceCache`` shared by hosts.

The store is what makes backends interchangeable mid-sweep: a shard
completed by anyone, anywhere, under any backend serves every later
reader.  It is ``<root>/store`` of the queue, an always-on
:class:`~repro.runtime.TraceCache` that keeps the provenance its writer
stamped.  These tests pin the three guarantees — content addressing,
integrity (torn entries quarantine, never poison), and multi-writer
safety through the per-key lock in ``TraceCache.put_by_digest``.
"""

import multiprocessing

import pytest

from repro import run_campaign
from repro.runtime import TraceCache, config_digest, trace_digest


def _store(root):
    """The queue store's posture: always on, provenance preserved."""
    return TraceCache(root, enabled=True, source_label=None)


@pytest.fixture(scope="module")
def tiny_trace(tiny_configs):
    return run_campaign(tiny_configs[0])


def test_round_trip_by_config_and_by_digest(tmp_path, tiny_configs, tiny_trace):
    store = _store(tmp_path)
    config = tiny_configs[0]
    digest = config_digest(config)
    assert store.get(config) is None
    assert store.get_by_digest(digest) is None

    store.put(config, tiny_trace)
    for loaded in (store.get(config), store.get_by_digest(digest)):
        assert loaded is not None
        assert trace_digest(loaded) == trace_digest(tiny_trace)


def test_store_preserves_provenance_unlike_the_cache(
    tmp_path, tiny_configs, tiny_trace
):
    """The default cache stamps loads ``source="cache"``; the queue's
    store stamps nothing — a shard a drainer simulated stays
    ``"simulated"``."""
    config = tiny_configs[0]
    original = tiny_trace.metadata["runtime"]["source"]

    store = _store(tmp_path / "store")
    store.put(config, tiny_trace)
    assert store.get(config).metadata["runtime"]["source"] == original

    cache = TraceCache(root=tmp_path / "cache", enabled=True)
    cache.put(config, tiny_trace)
    assert cache.get(config).metadata["runtime"]["source"] == "cache"


def test_torn_entry_quarantines_and_reads_as_miss(
    tmp_path, tiny_configs, tiny_trace
):
    store = _store(tmp_path)
    config = tiny_configs[0]
    store.put(config, tiny_trace)

    victim = store.path_for(config)
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])

    assert store.get(config) is None
    assert store.stats()["quarantined"] == 1
    assert any(store.quarantine_dir().iterdir())
    # The torn entry was moved out, so the key is free to rewrite.
    store.put(config, tiny_trace)
    assert store.get(config) is not None


def test_cache_entries_serve_through_the_queue_store(
    tmp_path, tiny_configs, tiny_trace
):
    """One entry format everywhere: a directory a user's cache wrote
    serves a queue store rooted there, and the other way round."""
    config = tiny_configs[0]
    TraceCache(root=tmp_path / "a", enabled=True).put(config, tiny_trace)
    loaded = _store(tmp_path / "a").get(config)
    assert loaded is not None
    assert trace_digest(loaded) == trace_digest(tiny_trace)

    _store(tmp_path / "b").put(config, tiny_trace)
    loaded = TraceCache(root=tmp_path / "b", enabled=True).get(config)
    assert loaded is not None
    assert trace_digest(loaded) == trace_digest(tiny_trace)


def _hammer_same_key(root, digest, trace, rounds):
    store = _store(root)
    for _ in range(rounds):
        store.put_by_digest(digest, trace)


def test_racing_writers_never_tear_an_entry(tmp_path, tiny_configs, tiny_trace):
    """Regression for the multi-writer story: three processes hammering
    the same key through ``put_by_digest`` leave exactly one complete,
    verified entry."""
    digest = config_digest(tiny_configs[0])
    procs = [
        multiprocessing.Process(
            target=_hammer_same_key,
            args=(str(tmp_path), digest, tiny_trace, 10),
        )
        for _ in range(3)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0

    store = _store(tmp_path)
    loaded = store.get_by_digest(digest)
    assert loaded is not None
    assert trace_digest(loaded) == trace_digest(tiny_trace)
    assert store.stats()["quarantined"] == 0
    entry = store.path_for(tiny_configs[0])
    assert [p.name for p in entry.parent.iterdir()] == [entry.name]
