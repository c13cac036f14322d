"""``LocalPoolBackend``: this machine's cores behind the backend protocol.

Today's ``ProcessPoolExecutor`` dispatch, extracted from
:class:`~repro.runtime.pool.CampaignPool` and put behind
:class:`~repro.backends.base.ExecutionBackend`.  Semantics preserved:

* A wave's tasks are submitted as futures and collected in task order
  under one shared wall-clock deadline (``poll(timeout_s=...)``).
* An attempt that raises is an ``"error"`` (the worker survives); a
  worker that dies mid-attempt (OOM-kill, chaos ``os._exit``) breaks
  the executor and every unresolved task reports ``"lost"``; an
  attempt past the deadline reports ``"timeout"``.
* ``kill()`` tears the executor down *hard* — hung workers are
  SIGTERMed — and the next ``submit_wave`` builds a fresh one.

Hard-kill no longer reaches into ``executor._processes`` (a private
attr of the stdlib executor): each worker announces its PID through a
multiprocessing queue from the executor's ``initializer`` hook, and
``kill()`` signals exactly the PIDs that announced — public API only.
"""

import concurrent.futures
import multiprocessing
import os
import signal
import time
from typing import Any, List, Optional, Sequence

from repro.backends.base import (
    BackendCapabilities,
    BackendUnavailable,
    TaskOutcome,
    TaskSpec,
    execute_task,
    register_backend,
)


def _announce_pid(pid_queue) -> None:
    """Executor initializer: each worker reports its PID to the parent.

    Runs once per worker process at spawn; the queue travels to workers
    through the executor's ``initargs`` (multiprocessing's picklers
    handle queues), so the parent learns every worker's identity
    without touching executor internals.
    """
    pid_queue.put(os.getpid())


class LocalPoolBackend:
    """Process-pool execution on the local machine."""

    name = "local-pool"
    executor_label = "process"
    capabilities = BackendCapabilities(
        supports_timeout=True,
        serial=False,
    )

    def __init__(self, workers: Optional[int] = None):
        """
        Args:
            workers: Worker process count (default: CPU count).
        """
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor = None
        self._pid_queue = None
        self._pids: set = set()

    # ------------------------------------------------------------------
    # executor lifecycle
    # ------------------------------------------------------------------
    def _ensure_executor(self):
        if self._executor is not None:
            return self._executor
        try:
            self._pid_queue = multiprocessing.SimpleQueue()
            self._pids = set()
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers or os.cpu_count() or 1,
                initializer=_announce_pid,
                initargs=(self._pid_queue,),
            )
        except (OSError, ValueError, RuntimeError) as err:
            # e.g. sandboxed environments without /dev/shm
            self._executor = None
            self._pid_queue = None
            raise BackendUnavailable(
                f"cannot start a local process pool: {err}"
            ) from err
        return self._executor

    def _drain_pids(self) -> None:
        queue = self._pid_queue
        if queue is None:
            return
        try:
            while not queue.empty():
                self._pids.add(queue.get())
        except (OSError, ValueError):  # pragma: no cover - closed queue
            pass

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def submit_wave(self, tasks: Sequence[TaskSpec]) -> Any:
        executor = self._ensure_executor()
        try:
            return [executor.submit(execute_task, task) for task in tasks]
        except (OSError, ValueError, RuntimeError) as err:
            raise BackendUnavailable(
                f"local process pool rejected the wave: {err}"
            ) from err

    def poll(
        self, handle: Any, timeout_s: Optional[float] = None
    ) -> List[TaskOutcome]:
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        outcomes: List[TaskOutcome] = []
        for index, future in enumerate(handle):
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                trace = future.result(timeout=remaining)
                outcome = TaskOutcome(
                    index=index, digest="", kind="ok", trace=trace
                )
            except concurrent.futures.TimeoutError:
                outcome = TaskOutcome(
                    index=index, digest="", kind="timeout",
                    error="wave deadline exceeded",
                )
            except concurrent.futures.BrokenExecutor as err:
                outcome = TaskOutcome(
                    index=index, digest="", kind="lost",
                    error=type(err).__name__,
                )
            except Exception as err:
                outcome = TaskOutcome(
                    index=index, digest="", kind="error",
                    error=type(err).__name__,
                )
            outcomes.append(outcome)
        return outcomes

    def kill(self) -> None:
        """Tear the executor down hard, terminating hung workers."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        self._drain_pids()
        executor.shutdown(wait=False, cancel_futures=True)
        for pid in self._pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except (OSError, ProcessLookupError):  # pragma: no cover
                pass  # already gone — exactly what we wanted
        self._pids = set()
        self._pid_queue = None

    def close(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        self._pid_queue = None
        self._pids = set()


@register_backend("local-pool")
def _make_local_pool(workers=None, telemetry=None):
    return LocalPoolBackend(workers=workers)


__all__ = ["LocalPoolBackend"]
