"""The ``ExecutionBackend`` protocol: where campaign attempts actually run.

:class:`~repro.runtime.pool.CampaignPool` owns *policy* — wave-based
dispatch, retry accounting, the circuit breaker, checkpoint resume —
and delegates *mechanism* (where an attempt executes) to a backend.
The boundary is four methods and a capability record:

* :meth:`ExecutionBackend.submit_wave` — hand the backend one wave of
  :class:`TaskSpec` attempts; returns an opaque wave handle.
* :meth:`ExecutionBackend.poll` — block (up to a timeout) until every
  task in the wave resolves; returns one :class:`TaskOutcome` per task.
* :meth:`ExecutionBackend.kill` — hard-stop the current wave, tearing
  down any workers; the next ``submit_wave`` revives them.
* :meth:`ExecutionBackend.close` — release every resource; idempotent.

Outcome *kinds* carry the recovery semantics the pool keys on:

* ``"ok"`` — the attempt produced a trace.
* ``"error"`` — the attempt raised but the worker survived; retry
  without tearing anything down.
* ``"lost"`` — the worker died mid-attempt (OOM-kill, chaos ``os._exit``,
  dead queue drainer); the pool kills + respawns the backend.
* ``"timeout"`` — the attempt exceeded its wall-clock budget; treated
  like a dead worker (hung processes must be reclaimed).

Backends register by name in :data:`BACKENDS` (see
:func:`register_backend`), so ``RunOptions(backend="work-queue")`` and
``repro campaign --backend work-queue`` resolve through one registry
that downstream code can extend.  See ``docs/BACKENDS.md``.
"""

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    TYPE_CHECKING,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.campaign import CampaignConfig
    from repro.resilience.chaos import ChaosPolicy
    from repro.workload.trace import Trace

#: The default backend name everywhere one is not chosen explicitly —
#: today's process-pool behavior.
DEFAULT_BACKEND = "local-pool"

#: Outcome kinds a backend may report (see module docstring).
OUTCOME_KINDS = ("ok", "error", "lost", "timeout")


class BackendError(RuntimeError):
    """Base class for backend-layer failures."""


class BackendUnavailable(BackendError):
    """The backend cannot accept work right now (e.g. a sandbox without
    ``/dev/shm``, an unreachable queue directory).  The pool degrades to
    inline execution instead of failing the sweep."""


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can promise the dispatch loop.

    Attributes:
        supports_timeout: ``poll(timeout_s=...)`` is honored; attempts
            past the deadline come back as ``"timeout"`` outcomes.
            Backends without it simply run every attempt to completion.
        serial: Attempts run one at a time in the calling process; the
            pool reports ``workers=1`` and skips concurrency-only paths.
    """

    supports_timeout: bool = False
    serial: bool = False


@dataclass(frozen=True)
class TaskSpec:
    """One dispatchable simulation attempt (picklable for any backend).

    ``digest`` is the config's content address
    (:func:`repro.runtime.hashing.config_digest`); ``attempt`` is the
    0-based retry index, which chaos policies key their deterministic
    fault draws on — the same attempt makes the same draw on every
    backend, which is what keeps chaos runs digest-identical across
    inline, local-pool, and work-queue execution.
    """

    config: "CampaignConfig"
    digest: str
    attempt: int = 0
    chaos: Optional["ChaosPolicy"] = None


@dataclass
class TaskOutcome:
    """Resolution of one submitted task within its wave.

    ``index`` is the task's position in the submitted wave (the pool
    maps it back to the sweep-level config index); ``kind`` is one of
    :data:`OUTCOME_KINDS`.
    """

    index: int
    digest: str
    kind: str
    trace: Optional["Trace"] = None
    error: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in OUTCOME_KINDS:
            raise ValueError(
                f"outcome kind {self.kind!r} not in {OUTCOME_KINDS}"
            )
        if self.kind == "ok" and self.trace is None:
            raise ValueError("an 'ok' outcome must carry a trace")


@runtime_checkable
class ExecutionBackend(Protocol):
    """Structural protocol every execution backend satisfies.

    Implementations are plain classes — no inheritance required; the
    pool only touches this surface.  ``name`` identifies the backend in
    metrics labels and ``backend.wave`` spans; ``executor_label`` is
    stamped into each trace's ``metadata["runtime"]["executor"]``.
    """

    name: str
    executor_label: str
    capabilities: BackendCapabilities

    def submit_wave(self, tasks: Sequence[TaskSpec]) -> Any:
        """Accept one wave of attempts; returns an opaque wave handle.

        Raises :class:`BackendUnavailable` when the backend cannot take
        work (the pool falls back to inline execution).
        """
        ...  # pragma: no cover - protocol

    def poll(
        self, handle: Any, timeout_s: Optional[float] = None
    ) -> List[TaskOutcome]:
        """Resolve a wave: one :class:`TaskOutcome` per submitted task."""
        ...  # pragma: no cover - protocol

    def kill(self) -> None:
        """Hard-stop in-flight work; the next submit revives workers."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release all resources; must be idempotent."""
        ...  # pragma: no cover - protocol


def execute_task(task: TaskSpec, telemetry=None, in_process: bool = False):
    """Run one attempt: the worker body shared by every backend.

    Chaos worker-death injection happens here — inside the attempt, the
    way a real OOM-kill lands — so dispatchers only ever observe the
    dead worker (subprocess) or :class:`~repro.resilience.chaos.WorkerKilled`
    (``in_process=True``).

    ``telemetry`` is only ever passed on in-process paths: worker
    processes cannot stream telemetry back (and a live bundle does not
    pickle), but in-process attempts observe into the caller's bundle,
    so an instrumented serial sweep profiles as the full
    sweep → campaign → phase span tree.
    """
    from repro.campaign import run_campaign

    if task.chaos is not None:
        task.chaos.kill_worker(task.digest, task.attempt, not in_process)
    if telemetry is not None:
        from repro.options import RunOptions

        return run_campaign(task.config, options=RunOptions(telemetry=telemetry))
    return run_campaign(task.config)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

#: name -> factory(workers=..., telemetry=..., **options)
BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {}


def register_backend(name: str):
    """Decorator registering a backend factory under ``name``.

    The factory is called as ``factory(workers=..., telemetry=...,
    **backend_options)`` and must return an object
    satisfying :class:`ExecutionBackend`.  Registering an existing name
    replaces it (tests and downstream packages may shadow built-ins).
    """

    def wrap(factory: Callable[..., ExecutionBackend]):
        BACKENDS[name] = factory
        return factory

    return wrap


def backend_names() -> List[str]:
    """Registered backend names, sorted (the CLI's ``--backend`` choices)."""
    return sorted(BACKENDS)


def create_backend(
    name: str,
    workers: Optional[int] = None,
    telemetry=None,
    options: Optional[Dict[str, Any]] = None,
) -> ExecutionBackend:
    """Instantiate a registered backend by name.

    ``options`` is the free-form ``RunOptions.backend_options`` mapping
    (e.g. ``{"root": "/shared/queue"}`` for ``work-queue``); unknown
    keys surface as the factory's own ``TypeError`` so typos fail loudly.
    """
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"registered: {', '.join(backend_names())}"
        ) from None
    return factory(
        workers=workers,
        telemetry=telemetry,
        **dict(options or {}),
    )


__all__ = [
    "BACKENDS",
    "BackendCapabilities",
    "BackendError",
    "BackendUnavailable",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "OUTCOME_KINDS",
    "TaskOutcome",
    "TaskSpec",
    "backend_names",
    "create_backend",
    "execute_task",
    "register_backend",
]
