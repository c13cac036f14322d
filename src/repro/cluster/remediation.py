"""Remediation workflow: tickets, repairs, swaps, return-to-service.

When a node fails a health check it transitions to a remediation state and
is unavailable for scheduling "until it is fixed and all checks are
passing" (Section II-C).  We model two repair classes:

* **Transient** faults (link flap, stuck service, recoverable ECC burst):
  a reset/triage cycle of a few hours.
* **Permanent** faults: a vendor repair ticket with a multi-day turnaround;
  GPU-domain permanent faults additionally count as a GPU swap (the paper
  uses fleet GPU-swap rates to corroborate the RSC-1 vs RSC-2 failure-rate
  gap).

Every pass through remediation increments the node's ``tickets`` and
``out_count`` lemon signals.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.components import ComponentType, FailureClass
from repro.cluster.failures import FailureIncident
from repro.cluster.node import Node, NodeState
from repro.sim.engine import Engine
from repro.sim.events import EventLog
from repro.sim.timeunits import HOUR, DAY

#: Median repair time of a permanent failure (vendor repair or a part
#: swap).
PERMANENT_REPAIR_MEDIAN = 2 * DAY

#: Median repair time of a transient failure.
TRANSIENT_REPAIR_MEDIAN = 4 * HOUR
#: Log-space spread of the lognormal repair durations.
REPAIR_SIGMA = 0.6

#: Permanent faults in these domains are resolved by swapping the GPU tray.
GPU_SWAP_COMPONENTS = {
    ComponentType.GPU,
    ComponentType.GPU_MEMORY,
    ComponentType.NVLINK,
    ComponentType.PCIE,
}


@dataclass
class RepairTicket:
    """One repair-shop visit for a node."""

    ticket_id: int
    node_id: int
    component: ComponentType
    failure_class: FailureClass
    opened_at: float
    closed_at: Optional[float] = None
    gpu_swapped: bool = False

    @property
    def open(self) -> bool:
        return self.closed_at is None

    @property
    def duration(self) -> float:
        if self.closed_at is None:
            raise ValueError(f"ticket {self.ticket_id} is still open")
        return self.closed_at - self.opened_at


class RemediationWorkflow:
    """Owns the repair queue and node return-to-service."""

    def __init__(
        self,
        engine: Engine,
        nodes: Dict[int, Node],
        rng: np.random.Generator,
        event_log: Optional[EventLog] = None,
        on_node_restored: Optional[Callable[[Node], None]] = None,
    ):
        self.engine = engine
        self.nodes = nodes
        self._rng = rng
        self.event_log = event_log if event_log is not None else EventLog()
        self.on_node_restored = on_node_restored
        self.tickets: List[RepairTicket] = []
        self._ticket_seq = itertools.count()

    def begin_remediation(self, node: Node, incident: FailureIncident) -> RepairTicket:
        """Take a node out of capacity and schedule its repair."""
        if node.state is NodeState.REMEDIATION:
            raise RuntimeError(
                f"{node.name}: already in remediation; a second concurrent "
                "ticket would double return-to-service"
            )
        node.enter_remediation()
        node.counters.tickets += 1
        node.counters.out_count += 1
        ticket = RepairTicket(
            ticket_id=next(self._ticket_seq),
            node_id=node.node_id,
            component=incident.component,
            failure_class=incident.failure_class,
            opened_at=self.engine.now,
        )
        self.tickets.append(ticket)
        median = (
            TRANSIENT_REPAIR_MEDIAN
            if incident.failure_class is FailureClass.TRANSIENT
            else PERMANENT_REPAIR_MEDIAN
        )
        duration = float(self._rng.lognormal(np.log(median), REPAIR_SIGMA))
        self.event_log.emit(
            self.engine.now,
            "remediation.ticket_opened",
            node.name,
            node_id=node.node_id,
            ticket_id=ticket.ticket_id,
            incident_id=incident.incident_id,
            component=incident.component.value,
            failure_class=incident.failure_class.value,
        )
        self.engine.schedule_after(
            duration,
            lambda: self._complete(node, ticket),
            label=f"repair:{node.node_id}",
        )
        return ticket

    def _complete(self, node: Node, ticket: RepairTicket) -> None:
        ticket.closed_at = self.engine.now
        if (
            ticket.failure_class is FailureClass.PERMANENT
            and ticket.component in GPU_SWAP_COMPONENTS
        ):
            ticket.gpu_swapped = True
            node.gpu_swaps += 1
        node.return_to_service()
        self.event_log.emit(
            self.engine.now,
            "remediation.ticket_closed",
            node.name,
            node_id=node.node_id,
            ticket_id=ticket.ticket_id,
            gpu_swapped=ticket.gpu_swapped,
        )
        if self.on_node_restored is not None:
            self.on_node_restored(node)
