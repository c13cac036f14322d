"""Node model: GPU slots, availability state machine, lemon counters.

A node is a DGX-style server with 8 GPU slots.  Jobs smaller than a server
share a node's GPUs (the >40% of 1-GPU jobs in Fig. 6 must pack, or the
cluster could never reach 83% utilization); jobs of a server or larger take
whole nodes.  Availability follows the paper's health-check policy:

* ``HEALTHY``     — passing all checks; schedulable (may be running jobs).
* ``DRAINING``    — failed a *low-severity* check; resident jobs finish,
  no new work lands, then the node goes to remediation.
* ``REMEDIATION`` — out of capacity, being repaired; high-severity check
  failures jump here immediately, killing resident jobs.

Nodes also accumulate the per-node counters that feed lemon detection
(Section IV-A): XID counts, repair tickets, times taken out of the
scheduler, exclusions by jobs, and single-/multi-node job failures blamed
on them.
"""

import enum
from dataclasses import dataclass
from typing import Dict, Set

from repro.cluster.components import GPUS_PER_NODE


class NodeState(enum.Enum):
    HEALTHY = "healthy"
    DRAINING = "draining"
    REMEDIATION = "remediation"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class LemonCounters:
    """The seven detection signals of Section IV-A, accumulated per node."""

    excl_jobid_count: int = 0
    xid_cnt: int = 0
    tickets: int = 0
    out_count: int = 0
    multi_node_node_fails: int = 0
    single_node_node_fails: int = 0
    single_node_jobs_seen: int = 0

    @property
    def single_node_node_failure_rate(self) -> float:
        if self.single_node_jobs_seen == 0:
            return 0.0
        return self.single_node_node_fails / self.single_node_jobs_seen

    def as_dict(self) -> Dict[str, float]:
        return {
            "excl_jobid_count": self.excl_jobid_count,
            "xid_cnt": self.xid_cnt,
            "tickets": self.tickets,
            "out_count": self.out_count,
            "multi_node_node_fails": self.multi_node_node_fails,
            "single_node_node_fails": self.single_node_node_fails,
            "single_node_node_failure_rate": self.single_node_node_failure_rate,
        }


class Node:
    """One server: identity, topology position, GPU slots, and counters.

    ``__slots__``: an RSC-scale fleet holds thousands of long-lived nodes
    whose attributes are read on every scheduling decision — fixed slots
    drop the per-instance dict and its lookups.

    Availability transitions (state changes and quarantine flips) notify
    ``on_transition(node)`` when set; the owning
    :class:`~repro.cluster.cluster.Cluster` keeps its schedulable index in
    sync through it, without fleet rescans.
    """

    __slots__ = (
        "node_id",
        "rack_id",
        "pod_id",
        "state",
        "total_gpus",
        "free_gpus",
        "running_jobs",
        "gpu_swaps",
        "counters",
        "excluded_by_jobs",
        "_quarantined",
        "on_transition",
    )

    def __init__(self, node_id: int, rack_id: int, pod_id: int):
        if node_id < 0 or rack_id < 0 or pod_id < 0:
            raise ValueError("node/rack/pod ids must be non-negative")
        self.node_id = node_id
        self.rack_id = rack_id
        self.pod_id = pod_id
        self.state = NodeState.HEALTHY
        self.total_gpus = GPUS_PER_NODE
        self.free_gpus = GPUS_PER_NODE
        self.running_jobs: Dict[int, int] = {}  # job_id -> gpus held
        self.gpu_swaps = 0
        self.counters = LemonCounters()
        self.excluded_by_jobs: Set[int] = set()
        #: set by lemon detection when the node is quarantined
        self._quarantined = False
        #: availability observer (set by the owning Cluster; may stay None)
        self.on_transition = None

    @property
    def quarantined(self) -> bool:
        return self._quarantined

    @quarantined.setter
    def quarantined(self, value: bool) -> None:
        value = bool(value)
        if value == self._quarantined:
            return
        self._quarantined = value
        if self.on_transition is not None:
            self.on_transition(self)

    def _transition(self, new_state: NodeState) -> None:
        old = self.state
        self.state = new_state
        if self.on_transition is not None and old is not new_state:
            self.on_transition(self)

    @property
    def name(self) -> str:
        return f"node-{self.node_id:05d}"

    @property
    def busy(self) -> bool:
        return bool(self.running_jobs)

    @property
    def fully_free(self) -> bool:
        return self.free_gpus == self.total_gpus

    def can_host(self, gpus: int) -> bool:
        """Whether a new allocation of ``gpus`` GPUs may land here now."""
        return (
            self.state is NodeState.HEALTHY
            and not self.quarantined
            and self.free_gpus >= gpus
        )

    def is_schedulable(self) -> bool:
        return self.state is NodeState.HEALTHY and not self.quarantined

    def allocate(self, job_id: int, gpus: int) -> None:
        if not self.can_host(gpus):
            raise RuntimeError(
                f"{self.name}: cannot allocate {gpus} GPUs "
                f"(state={self.state.value}, free={self.free_gpus}, "
                f"quarantined={self.quarantined})"
            )
        if job_id in self.running_jobs:
            raise RuntimeError(f"{self.name}: job {job_id} already resident")
        self.running_jobs[job_id] = gpus
        self.free_gpus -= gpus

    def release(self, job_id: int) -> None:
        """Free the GPUs held by ``job_id`` (job ended or was killed)."""
        gpus = self.running_jobs.pop(job_id, None)
        if gpus is not None:
            self.free_gpus += gpus

    def start_drain(self) -> None:
        """Low-severity check failed: finish resident jobs, then remediate."""
        if self.state is NodeState.HEALTHY:
            self._transition(NodeState.DRAINING)

    def enter_remediation(self) -> None:
        """Remove the node from capacity; any residual allocation is voided."""
        self._transition(NodeState.REMEDIATION)
        self.running_jobs.clear()
        self.free_gpus = self.total_gpus

    def return_to_service(self) -> None:
        if self.state is not NodeState.REMEDIATION:
            raise RuntimeError(
                f"{self.name}: return_to_service from {self.state.value} is invalid"
            )
        self._transition(NodeState.HEALTHY)

    def record_exclusion(self, job_id: int) -> None:
        """A job's submitter listed this node in its exclude list."""
        if job_id not in self.excluded_by_jobs:
            self.excluded_by_jobs.add(job_id)
            self.counters.excl_jobid_count += 1

    def __repr__(self) -> str:
        return (
            f"Node({self.name}, pod={self.pod_id}, rack={self.rack_id}, "
            f"state={self.state.value}, free_gpus={self.free_gpus})"
        )
