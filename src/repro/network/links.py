"""Fabric links: capacity, error state, and effective bandwidth.

A link's *effective* capacity degrades with its bit error rate: errored
packets are retransmitted at the transport layer, so goodput falls roughly
with the packet success probability.  A downed link has zero capacity.
This is the knob the Fig. 12a experiment turns (the paper used ``mlxreg``
to force BER on real switch ports).
"""

import enum
from dataclasses import dataclass
from typing import Tuple

#: HDR InfiniBand per-rail link speed, Gb/s (DGX A100 class).
DEFAULT_LINK_CAPACITY_GBPS = 200.0

#: Packet size used to convert BER into a packet loss probability.
PACKET_BITS = 4096 * 8


class LinkState(enum.Enum):
    UP = "up"
    DOWN = "down"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class Link:
    """One directed fabric link between two endpoints."""

    src: str
    dst: str
    capacity_gbps: float = DEFAULT_LINK_CAPACITY_GBPS
    state: LinkState = LinkState.UP
    bit_error_rate: float = 0.0

    def __post_init__(self):
        if self.capacity_gbps <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= self.bit_error_rate < 1:
            raise ValueError("bit_error_rate must be in [0, 1)")

    @property
    def key(self) -> Tuple[str, str]:
        return (self.src, self.dst)

    @property
    def packet_success_probability(self) -> float:
        """Probability a packet crosses without a bit error."""
        if self.bit_error_rate == 0:
            return 1.0
        return (1.0 - self.bit_error_rate) ** PACKET_BITS

    @property
    def effective_capacity_gbps(self) -> float:
        """Capacity after retransmission losses; 0 when down.

        Goodput under stop-and-retransmit is capacity times the packet
        success probability (each corrupted packet consumes a slot).
        """
        if self.state is LinkState.DOWN:
            return 0.0
        return self.capacity_gbps * self.packet_success_probability

    @property
    def healthy(self) -> bool:
        """Healthy enough for adaptive routing to prefer it."""
        return (
            self.state is LinkState.UP
            and self.effective_capacity_gbps >= 0.5 * self.capacity_gbps
        )

    def set_bit_error_rate(self, ber: float) -> None:
        if not 0 <= ber < 1:
            raise ValueError("bit_error_rate must be in [0, 1)")
        self.bit_error_rate = ber

    def bring_down(self) -> None:
        self.state = LinkState.DOWN

    def reset(self) -> None:
        self.state = LinkState.UP
        self.bit_error_rate = 0.0

    def __repr__(self) -> str:
        return (
            f"Link({self.src}->{self.dst}, {self.capacity_gbps:.0f}Gb/s, "
            f"{self.state.value}, ber={self.bit_error_rate:g})"
        )
