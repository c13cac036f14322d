"""``RunOptions``: the one object that configures *how* things run.

:class:`RunOptions` is the single frozen, versioned surface for
execution knobs -- telemetry, caching, pooled workers, resilience,
checkpoints and the execution backend.  ``run_campaign``,
``run_campaigns``, ``CampaignPool`` and ``repro.live`` all accept it
uniformly::

    from repro import RunOptions, run_campaign

    opts = RunOptions(telemetry=tel, workers=4)
    trace = run_campaign(config, options=opts)

**None of these knobs may influence simulated content.**  Every field
here selects an execution strategy (pooled vs inline, cached vs fresh,
observed vs dark, which backend); the resulting traces are
bit-identical across all settings, which is why ``RunOptions`` never
enters a cache key or a trace digest.  The figure analyses take no
options: each has a single implementation.
"""

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs.telemetry import Telemetry
    from repro.resilience.config import ResilienceConfig
    from repro.runtime.cache import TraceCache


#: Bump when the meaning of an existing field changes or a field is
#: removed (new fields with backward-compatible defaults do not require a
#: bump).
RUN_OPTIONS_VERSION = 2


@dataclass(frozen=True)
class RunOptions:
    """Execution strategy for campaigns, sweeps, and live sessions.

    Attributes:
        telemetry: Optional :class:`repro.obs.Telemetry` bundle observing
            the run.  Never affects simulated content.
        cache: A :class:`repro.runtime.TraceCache`, ``None`` for the
            default cache (honoring ``REPRO_TRACE_CACHE``), or ``False``
            to disable caching.
        cache_dir: Root directory for the default cache when ``cache``
            is ``None`` (overrides the environment resolution).
        workers: Max worker processes for pooled sweeps (``None`` =
            CPU count, ``1`` = inline).
        resilience: A :class:`repro.resilience.ResilienceConfig`
            controlling retry/backoff, chaos injection, and the circuit
            breaker; ``None`` uses the default policy.
        checkpoint_dir: Directory for crash-safe sweep checkpoints
            (completed-seed manifest + partial results); ``None``
            disables checkpointing.
        backend: Execution backend name for sweeps — ``"local-pool"``
            (process pool on this machine, the default), ``"inline"``
            (serial, in-process), ``"work-queue"`` (filesystem queue
            drained by ``repro worker`` processes on any host), or any
            name registered via
            :func:`repro.backends.register_backend`.  Backends never
            affect simulated content: traces are bit-identical across
            all of them.
        backend_options: Free-form keyword options for the backend
            factory (e.g. ``{"root": "/shared/queue"}`` for
            ``work-queue``); normalized to a plain dict.
    """

    telemetry: Optional["Telemetry"] = None
    cache: Union["TraceCache", bool, None] = None
    cache_dir: Optional[str] = None
    workers: Optional[int] = None
    resilience: Optional["ResilienceConfig"] = None
    checkpoint_dir: Optional[str] = None
    backend: str = "local-pool"
    backend_options: Optional[Mapping[str, Any]] = None

    def __post_init__(self):
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError(
                f"backend must be a non-empty backend name, "
                f"got {self.backend!r}"
            )
        if self.backend_options is not None and not isinstance(
            self.backend_options, dict
        ):
            object.__setattr__(
                self, "backend_options", dict(self.backend_options)
            )

    def replace(self, **changes: Any) -> "RunOptions":
        """Frozen-dataclass update (``dataclasses.replace`` convenience)."""
        return replace(self, **changes)

    def resolved_cache(self) -> Optional["TraceCache"]:
        """Materialize the cache these options describe (or ``None``)."""
        from repro.runtime.cache import TraceCache

        if self.cache is False:
            return None
        if self.cache is None or self.cache is True:
            return TraceCache(root=self.cache_dir)
        return self.cache


#: The implicit default everywhere an ``options=None`` is accepted.
DEFAULT_OPTIONS = RunOptions()

__all__ = [
    "DEFAULT_OPTIONS",
    "RUN_OPTIONS_VERSION",
    "RunOptions",
]
