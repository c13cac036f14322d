"""``ResilienceConfig``: one object describing the recovery posture.

Bundles the retry budget, the optional chaos-injection policy, and the
circuit-breaker threshold that the execution layer consumes.
Handed to :class:`repro.runtime.CampaignPool` directly or through
:class:`repro.RunOptions(resilience=...) <repro.options.RunOptions>`.

Like every :class:`~repro.options.RunOptions` field, nothing here may
change simulated content: retries re-run the same seeded campaign,
chaos faults are absorbed by recovery, and the acceptance tests assert
bit-identical traces against a fault-free run.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.resilience.chaos import ChaosPolicy
from repro.resilience.retry import RetryPolicy


@dataclass(frozen=True)
class ResilienceConfig:
    """Recovery posture for the execution layer.

    Attributes:
        retry: Per-config retry budget + backoff + per-attempt timeout.
        chaos: Optional fault-injection policy (None = no injection;
            production posture).
        circuit_threshold: Consecutive pool-level failures before the
            pooled path is abandoned for inline execution.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    chaos: Optional[ChaosPolicy] = None
    circuit_threshold: int = 3

    def __post_init__(self):
        if self.circuit_threshold < 1:
            raise ValueError("circuit_threshold must be >= 1")


#: The implicit posture when no config is supplied: retries on, no
#: chaos.
DEFAULT_RESILIENCE = ResilienceConfig()

__all__ = ["DEFAULT_RESILIENCE", "ResilienceConfig"]
