"""The ``ExecutionBackend`` protocol and its registry.

The protocol is the PR's compatibility promise: the pool only ever
touches ``name``/``executor_label``/``capabilities`` plus the four
methods, so anything satisfying the structural check here is a valid
backend — including third-party ones registered at runtime.
"""

import pytest

from repro.backends import (
    BACKENDS,
    BackendCapabilities,
    DEFAULT_BACKEND,
    ExecutionBackend,
    InlineBackend,
    LocalPoolBackend,
    TaskOutcome,
    TaskSpec,
    WorkQueueBackend,
    backend_names,
    create_backend,
    execute_task,
    register_backend,
)
from repro.resilience import ChaosPolicy, WorkerKilled
from repro.runtime import config_digest, trace_digest


def test_builtin_backends_are_registered():
    assert backend_names() == ["inline", "local-pool", "work-queue"]
    assert DEFAULT_BACKEND in BACKENDS


def test_create_backend_unknown_name_lists_registered():
    with pytest.raises(ValueError, match="unknown execution backend"):
        create_backend("teleport")
    with pytest.raises(ValueError, match="inline, local-pool, work-queue"):
        create_backend("teleport")


def test_instances_satisfy_the_structural_protocol(tmp_path):
    backends = [
        InlineBackend(),
        LocalPoolBackend(workers=1),
        WorkQueueBackend(root=tmp_path, embedded=False),
    ]
    try:
        for backend in backends:
            assert isinstance(backend, ExecutionBackend)
            assert isinstance(backend.capabilities, BackendCapabilities)
            assert backend.name
            assert backend.executor_label
    finally:
        for backend in backends:
            backend.close()


def test_capability_flags_match_each_backend_story(tmp_path):
    assert InlineBackend().capabilities.serial is True
    pool = LocalPoolBackend(workers=1)
    assert pool.capabilities.supports_timeout is True
    queue = WorkQueueBackend(root=tmp_path, embedded=False)
    try:
        assert queue.capabilities.supports_timeout is True
    finally:
        queue.close()
        pool.close()


def test_outcome_kind_is_validated():
    with pytest.raises(ValueError, match="outcome kind"):
        TaskOutcome(index=0, digest="d", kind="exploded")


def test_ok_outcome_requires_a_trace():
    with pytest.raises(ValueError, match="must carry a trace"):
        TaskOutcome(index=0, digest="d", kind="ok")
    # Non-ok kinds are fine without one.
    TaskOutcome(index=0, digest="d", kind="lost", error="worker died")


def test_register_backend_shadows_and_restores():
    @register_backend("inline")
    class _Fake:
        name = "inline"
        executor_label = "fake"
        capabilities = BackendCapabilities(serial=True)

        def __init__(self, workers=None, telemetry=None):
            pass

        def submit_wave(self, tasks):
            return tasks

        def poll(self, handle, timeout_s=None):
            return []

        def kill(self):
            pass

        def close(self):
            pass

    try:
        backend = create_backend("inline")
        assert backend.executor_label == "fake"
        assert isinstance(backend, ExecutionBackend)
    finally:
        from repro.backends.inline import _make_inline

        register_backend("inline")(_make_inline)
    assert create_backend("inline").executor_label == "inline"


def test_execute_task_is_the_shared_worker_body(tiny_configs, tiny_digests):
    config = tiny_configs[0]
    trace = execute_task(
        TaskSpec(config=config, digest=config_digest(config))
    )
    assert trace_digest(trace) == tiny_digests[0]


def test_execute_task_in_process_chaos_raises_worker_killed(tiny_configs):
    config = tiny_configs[0]
    chaos = ChaosPolicy(seed=1, worker_kill_rate=1.0)
    with pytest.raises(WorkerKilled):
        execute_task(
            TaskSpec(
                config=config, digest=config_digest(config), chaos=chaos
            ),
            in_process=True,
        )


def test_inline_backend_reports_error_outcomes_not_exceptions(tiny_configs):
    """A raising attempt comes back as kind='error' so the pool's retry
    policy — not an exception unwinding the dispatch loop — decides."""
    config = tiny_configs[0]
    chaos = ChaosPolicy(seed=1, worker_kill_rate=1.0)
    backend = InlineBackend()
    handle = backend.submit_wave(
        [TaskSpec(config=config, digest=config_digest(config), chaos=chaos)]
    )
    outcomes = backend.poll(handle)
    assert len(outcomes) == 1
    assert outcomes[0].kind == "error"
    assert outcomes[0].error == "WorkerKilled"
