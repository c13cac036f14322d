"""Pluggable execution backends for campaign dispatch.

:class:`~repro.runtime.pool.CampaignPool` owns dispatch *policy*
(waves, retries, the circuit breaker, the inline fallback); a backend
owns the *mechanism* — where an attempt actually executes.  There are
three, chosen by name with ``RunOptions(backend=...)`` and
``repro campaign --backend ...``:

============  ==========================================================
``inline``    Serial, in the dispatcher's process.  The determinism
              reference, and the pool's only fallback: one-worker
              sweeps, an open breaker and spent retry budgets all
              finish here.
``local-pool``  A ``ProcessPoolExecutor`` on this machine (the
              default): hard-kill/respawn of hung or dead workers,
              per-wave timeouts.
``work-queue``  A filesystem queue drained by embedded children or
              external ``repro worker`` processes on any host; results
              flow through the queue's shared
              :class:`~repro.runtime.cache.TraceCache`.
============  ==========================================================

The backend never affects simulated content: the same
:class:`~repro.options.RunOptions` produces bit-identical traces
(equal ``trace_digest``) on every backend, chaos injection included —
``tests/backends/test_backend_parity.py`` holds the line.

See ``docs/BACKENDS.md`` for the protocol contract.
"""

from repro.backends.base import (
    BackendCapabilities,
    BackendError,
    BackendUnavailable,
    ExecutionBackend,
    OUTCOME_KINDS,
    TaskOutcome,
    TaskSpec,
    execute_task,
)
from repro.backends.inline import InlineBackend
from repro.backends.local_pool import LocalPoolBackend
from repro.backends.workqueue import WorkQueueBackend, drain_queue
from repro.options import DEFAULT_BACKEND

__all__ = [
    "BackendCapabilities",
    "BackendError",
    "BackendUnavailable",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "InlineBackend",
    "LocalPoolBackend",
    "OUTCOME_KINDS",
    "TaskOutcome",
    "TaskSpec",
    "WorkQueueBackend",
    "drain_queue",
    "execute_task",
]
