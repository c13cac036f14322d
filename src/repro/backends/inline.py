"""``InlineBackend``: serial, in-process, chaos-compatible execution.

The reference backend: every attempt runs in the dispatcher's own
process, one at a time, in wave order.  No concurrency, no IPC, no
teardown — which makes it the backend of record for determinism
(parity suites compare the others against it), the only backend whose
attempts can observe into a live :class:`repro.obs.Telemetry` bundle,
and the degradation target when pooled environments break.

Chaos compatibility: a :class:`~repro.resilience.chaos.ChaosPolicy`
worker-kill draw lands as :class:`~repro.resilience.chaos.WorkerKilled`
(an ``"error"`` outcome — the "worker", this process, survives), so
retry accounting is exercised without taking the caller down.
"""

from typing import Any, List, Optional, Sequence

from repro.backends.base import (
    BackendCapabilities,
    TaskOutcome,
    TaskSpec,
    execute_task,
    register_backend,
)


class InlineBackend:
    """Runs every attempt serially in the calling process."""

    name = "inline"
    executor_label = "inline"
    capabilities = BackendCapabilities(
        supports_timeout=False,
        serial=True,
    )

    def __init__(self, telemetry=None):
        """
        Args:
            telemetry: Optional :class:`repro.obs.Telemetry`; attempts
                observe into it (spans, cache traffic) since they share
                the caller's process.
        """
        self.telemetry = telemetry

    def submit_wave(self, tasks: Sequence[TaskSpec]) -> Any:
        return list(tasks)

    def poll(
        self, handle: Any, timeout_s: Optional[float] = None
    ) -> List[TaskOutcome]:
        outcomes: List[TaskOutcome] = []
        for index, task in enumerate(handle):
            try:
                trace = execute_task(
                    task, telemetry=self.telemetry, in_process=True
                )
            except Exception as err:
                outcomes.append(
                    TaskOutcome(
                        index=index,
                        digest=task.digest,
                        kind="error",
                        error=type(err).__name__,
                    )
                )
            else:
                outcomes.append(
                    TaskOutcome(
                        index=index, digest=task.digest, kind="ok", trace=trace
                    )
                )
        return outcomes

    def kill(self) -> None:
        """Nothing to tear down: attempts run to completion in-process."""

    def close(self) -> None:
        """Nothing to release."""


@register_backend("inline")
def _make_inline(workers=None, telemetry=None):
    return InlineBackend(telemetry=telemetry)


__all__ = ["InlineBackend"]
