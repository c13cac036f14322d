"""The filesystem work queue: claims, acks, drainers, and the CLI worker.

Exercises the queue mechanics directly (the parity suite covers
digest equality): atomic claims under contention, the STOP sentinel,
store dedupe at submit, kill semantics, and — the distributed story —
an external ``repro worker`` process draining a queue it did not create.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backends import TaskSpec, WorkQueueBackend, drain_queue
from repro.backends.workqueue import STOP_SENTINEL
from repro.runtime import config_digest, trace_digest


def _specs(configs):
    return [
        TaskSpec(config=config, digest=config_digest(config))
        for config in configs
    ]


def test_embedded_drain_resolves_every_task(tmp_path, tiny_configs, tiny_digests):
    backend = WorkQueueBackend(root=tmp_path, workers=2)
    try:
        handle = backend.submit_wave(_specs(tiny_configs))
        outcomes = backend.poll(handle, timeout_s=120.0)
    finally:
        backend.close()
    assert [o.kind for o in outcomes] == ["ok"] * len(tiny_configs)
    assert [trace_digest(o.trace) for o in outcomes] == tiny_digests
    # Queue is drained clean: no pending tasks, no orphaned claims.
    assert list((tmp_path / "tasks").iterdir()) == []
    assert list((tmp_path / "claims").iterdir()) == []


def test_submit_dedupes_against_the_store(tmp_path, tiny_configs):
    backend = WorkQueueBackend(root=tmp_path, workers=1)
    try:
        first = backend.poll(
            backend.submit_wave(_specs(tiny_configs[:2])), timeout_s=120.0
        )
        assert [o.kind for o in first] == ["ok", "ok"]
        # Same shards again: resolved from the store at submit, nothing
        # re-queued, and the outcome says so.
        handle = backend.submit_wave(_specs(tiny_configs[:2]))
        assert handle["tasks"] == {}
        second = backend.poll(handle, timeout_s=5.0)
    finally:
        backend.close()
    assert [o.kind for o in second] == ["ok", "ok"]
    assert all(o.attrs.get("deduped") for o in second)
    assert [trace_digest(a.trace) for a in first] == [
        trace_digest(b.trace) for b in second
    ]


def test_external_worker_drains_a_queue_it_did_not_create(
    tmp_path, tiny_configs, tiny_digests
):
    """The acceptance criterion: ``repro worker <dir>`` in a separate
    process drains tasks submitted by a dispatcher that spawned no
    drainers of its own."""
    backend = WorkQueueBackend(root=tmp_path, embedded=False)
    try:
        handle = backend.submit_wave(_specs(tiny_configs[:2]))
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[2] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            repo_src + os.pathsep + existing if existing else repo_src
        )
        env["REPRO_TRACE_CACHE"] = "off"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "worker", str(tmp_path), "--once"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stdout.strip().splitlines()[-1])
        assert stats["drained"] == 2
        assert stats["failed"] == 0
        outcomes = backend.poll(handle, timeout_s=30.0)
    finally:
        backend.close()
    assert [o.kind for o in outcomes] == ["ok", "ok"]
    assert [trace_digest(o.trace) for o in outcomes] == tiny_digests[:2]


def test_stop_sentinel_halts_drainers(tmp_path):
    (tmp_path / STOP_SENTINEL).touch()
    stats = drain_queue(tmp_path, worker_id="w0")
    assert stats == {"worker": "w0", "drained": 0, "failed": 0}


def test_drain_stop_when_empty_returns_immediately(tmp_path):
    stats = drain_queue(tmp_path, worker_id="w0", stop_when_empty=True)
    assert stats["drained"] == 0 and stats["failed"] == 0


def test_concurrent_drainers_never_double_claim(tmp_path, tiny_configs):
    """Two drainers racing one queue: every task runs exactly once —
    the ``os.rename`` claim is the test-and-set."""
    backend = WorkQueueBackend(root=tmp_path, embedded=False)
    try:
        backend.submit_wave(_specs(tiny_configs))
    finally:
        backend.close()

    with multiprocessing.get_context().Pool(2) as pool:
        stats = pool.starmap(
            drain_queue,
            [(str(tmp_path), f"w{i}", 0.01, None, True) for i in range(2)],
        )
    assert sum(s["drained"] for s in stats) == len(tiny_configs)
    assert sum(s["failed"] for s in stats) == 0
    assert len(list((tmp_path / "done").glob("*.json"))) == len(tiny_configs)
    assert list((tmp_path / "tasks").iterdir()) == []
    assert list((tmp_path / "claims").iterdir()) == []


def test_kill_cancels_pending_but_keeps_finished_work(tmp_path, tiny_configs):
    backend = WorkQueueBackend(root=tmp_path, workers=1)
    try:
        done = backend.poll(
            backend.submit_wave(_specs(tiny_configs[:1])), timeout_s=120.0
        )
        assert done[0].kind == "ok"
        backend.kill()
        # Queue a task with no drainers left to run it, then kill again:
        # the pending file is cancelled, the stored result survives.
        stale = WorkQueueBackend(root=tmp_path, embedded=False)
        stale.submit_wave(_specs(tiny_configs[1:2]))
        stale.kill()
        assert list((tmp_path / "tasks").iterdir()) == []
        assert stale.store.get(tiny_configs[0]) is not None
        stale.close()
    finally:
        backend.close()
