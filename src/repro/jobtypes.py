"""Shared job vocabulary: states, QoS tiers, intents, and the trace row.

This is a dependency-leaf module: both the workload layer (which *intends*
jobs) and the scheduler layer (which *runs* them) speak these types, and
the analysis layer consumes :class:`JobAttemptRecord` rows without needing
either.  Keeping them here breaks what would otherwise be a
workload <-> scheduler import cycle.
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sim.timeunits import DAY

#: The clusters' hard per-job lifetime cap (Section II-A).
MAX_JOB_LIFETIME = 7 * DAY


class QosTier(enum.IntEnum):
    """Priority tiers; higher tiers may preempt lower ones."""

    LOW = 1
    NORMAL = 2
    HIGH = 3

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


class IntendedOutcome(enum.Enum):
    """A job's fate absent any infrastructure interference."""

    COMPLETED = "completed"
    FAILED_USER = "failed_user"  # application bug -> non-zero exit
    CANCELLED = "cancelled"  # user scancel
    OOM = "oom"  # host out-of-memory kill
    TIMEOUT = "timeout"  # runs into its time limit

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class JobState(enum.Enum):
    """Slurm job states tracked in Fig. 3."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    NODE_FAIL = "NODE_FAIL"
    CANCELLED = "CANCELLED"
    TIMEOUT = "TIMEOUT"
    OUT_OF_MEMORY = "OUT_OF_MEMORY"
    PREEMPTED = "PREEMPTED"
    REQUEUED = "REQUEUED"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Terminal state of an attempt that resolves the job's own intent.
FINAL_OUTCOME_BY_INTENT = {
    IntendedOutcome.COMPLETED: JobState.COMPLETED,
    IntendedOutcome.FAILED_USER: JobState.FAILED,
    IntendedOutcome.CANCELLED: JobState.CANCELLED,
    IntendedOutcome.OOM: JobState.OUT_OF_MEMORY,
    IntendedOutcome.TIMEOUT: JobState.TIMEOUT,
}

#: Attempt-terminal states caused by infrastructure (auto-requeue eligible).
INTERRUPTION_STATES = frozenset(
    {JobState.NODE_FAIL, JobState.REQUEUED, JobState.PREEMPTED}
)


@dataclass(frozen=True)
class JobAttemptRecord:
    """One completed scheduling attempt — one accounting-log row.

    ``hw_component``/``hw_incident_id``/``hw_attributed`` are populated when
    the attempt was terminated by a hardware/system incident.
    ``instigator_job_id`` is set on PREEMPTED rows to the job whose
    (re)scheduling forced the preemption — the causal edge Fig. 8's
    second-order analysis reconstructs.
    """

    job_id: int
    attempt: int
    jobrun_id: int
    project: str
    qos: QosTier
    n_gpus: int
    n_nodes: int
    enqueue_time: float
    start_time: float
    end_time: float
    state: JobState
    node_ids: Tuple[int, ...]
    hw_component: Optional[str] = None
    hw_incident_id: Optional[int] = None
    hw_attributed: bool = False
    failing_node_id: Optional[int] = None
    instigator_job_id: Optional[int] = None

    def __post_init__(self):
        # NaN slips through every ordering check below, so test first.
        if not (
            math.isfinite(self.enqueue_time)
            and math.isfinite(self.start_time)
            and math.isfinite(self.end_time)
        ):
            raise ValueError(
                f"job {self.job_id} attempt {self.attempt}: non-finite time "
                f"(enqueue {self.enqueue_time}, start {self.start_time}, "
                f"end {self.end_time})"
            )
        if self.end_time < self.start_time:
            raise ValueError(
                f"job {self.job_id} attempt {self.attempt}: "
                f"end {self.end_time} before start {self.start_time}"
            )
        if self.start_time < self.enqueue_time:
            raise ValueError(
                f"job {self.job_id} attempt {self.attempt}: "
                f"start {self.start_time} before enqueue {self.enqueue_time}"
            )

    @property
    def runtime(self) -> float:
        return self.end_time - self.start_time

    @property
    def queue_wait(self) -> float:
        return self.start_time - self.enqueue_time

    @property
    def gpu_seconds(self) -> float:
        return self.runtime * self.n_gpus

    @property
    def is_hw_interruption(self) -> bool:
        """Infrastructure-caused termination (NODE_FAIL or attributed)."""
        if self.state is JobState.NODE_FAIL:
            return True
        return self.hw_incident_id is not None

    def is_hw_failure(self, use_ground_truth: bool = True) -> bool:
        """The MTTF hardware-failure rule (Figs. 7 and 9, r_f).

        Ground truth: any hardware interruption.  Observable: NODE_FAIL,
        or FAILED/REQUEUED with an attributed health check.
        """
        if use_ground_truth:
            return self.is_hw_interruption
        if self.state is JobState.NODE_FAIL:
            return True
        return (
            self.state in (JobState.FAILED, JobState.REQUEUED)
            and self.hw_attributed
        )
