"""``RunOptions``: the one object that configures *how* things run.

:class:`RunOptions` is the single frozen, versioned surface for
execution knobs -- telemetry, caching, pooled workers, resilience
and the execution backend.  ``run_campaign``,
``run_campaigns`` and ``CampaignPool`` all accept it uniformly::

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
RUN_OPTIONS_VERSION = 4

#: The execution backends ``RunOptions.backend`` and ``repro campaign
#: --backend`` accept.
BACKEND_NAMES = ("inline", "local-pool", "work-queue")

#: The backend wherever none is chosen: the process pool on this machine.
DEFAULT_BACKEND = "local-pool"


@dataclass(frozen=True)
class RunOptions:
    """Execution strategy for campaigns and sweeps.

    Attributes:
        telemetry: Optional :class:`repro.obs.Telemetry` bundle observing
            the run.  Never affects simulated content.
        cache: A :class:`repro.runtime.TraceCache`, ``None`` for the
            default cache (honoring ``REPRO_TRACE_CACHE``), or ``False``
            to disable caching.  The cache is also the resume point: an
            interrupted sweep re-run against the same cache simulates
            only the configs it had not finished.
        workers: Max worker processes for pooled sweeps (``None`` =
            CPU count, ``1`` = inline).
        resilience: A :class:`repro.resilience.ResilienceConfig`
            controlling retry/backoff, chaos injection, and the circuit
            breaker; ``None`` uses the default policy.
        backend: Execution backend name for sweeps — ``"local-pool"``
            (process pool on this machine, the default), ``"inline"``
            (serial, in-process), ``"work-queue"`` (filesystem queue
            drained by ``repro worker`` processes on any host); any
            other name is a ``ValueError``.  Backends never affect
            simulated content: traces are bit-identical across all of
            them.
        backend_options: Free-form keyword options for the backend
            factory (e.g. ``{"root": "/shared/queue"}`` for
            ``work-queue``); normalized to a plain dict.
    """

    telemetry: Optional["Telemetry"] = None
    cache: Union["TraceCache", bool, None] = None
    workers: Optional[int] = None
    resilience: Optional["ResilienceConfig"] = None
    backend: str = DEFAULT_BACKEND
    backend_options: Optional[Mapping[str, Any]] = None

    def __post_init__(self):
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown execution backend {self.backend!r}; "
                f"expected one of: {', '.join(BACKEND_NAMES)}"
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
            return TraceCache()
        return self.cache


#: The implicit default everywhere an ``options=None`` is accepted.
DEFAULT_OPTIONS = RunOptions()

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_OPTIONS",
    "RUN_OPTIONS_VERSION",
    "RunOptions",
]
