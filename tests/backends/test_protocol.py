"""The ``ExecutionBackend`` protocol and the three backends that implement it.

The pool only ever touches ``name``/``executor_label``/``capabilities``
plus the four methods, so each backend must satisfy the structural
check here.  ``RunOptions.backend`` names one of the three.
"""

import pytest

from repro import RunOptions
from repro.backends import (
    BackendCapabilities,
    DEFAULT_BACKEND,
    ExecutionBackend,
    InlineBackend,
    LocalPoolBackend,
    TaskOutcome,
    TaskSpec,
    WorkQueueBackend,
    execute_task,
)
from repro.resilience import ChaosPolicy, WorkerKilled
from repro.options import BACKEND_NAMES
from repro.runtime import config_digest, trace_digest
from repro.runtime.pool import _BACKENDS


def test_builtin_backends_are_registered(tmp_path):
    assert BACKEND_NAMES == ("inline", "local-pool", "work-queue")
    assert DEFAULT_BACKEND in BACKEND_NAMES
    assert sorted(_BACKENDS) == list(BACKEND_NAMES)
    # Each name builds its own backend; only work-queue takes options.
    backends = [
        _BACKENDS["inline"](None, None),
        _BACKENDS["local-pool"](1, None),
        _BACKENDS["work-queue"](None, None, root=tmp_path, embedded=False),
    ]
    try:
        assert [b.name for b in backends] == list(BACKEND_NAMES)
        with pytest.raises(TypeError):
            _BACKENDS["local-pool"](1, None, root=tmp_path)
    finally:
        for backend in backends:
            backend.close()


def test_unknown_backend_name_lists_the_three():
    # Rejected when the options are built, before any dispatch (a sweep
    # whose every config is a cache hit never dispatches).
    with pytest.raises(ValueError, match="unknown execution backend"):
        RunOptions(backend="teleport")
    with pytest.raises(ValueError, match="inline, local-pool, work-queue"):
        RunOptions(backend="teleport")


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
