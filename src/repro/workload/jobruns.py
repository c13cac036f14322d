"""Job runs: chains of attempts belonging to one logical training task.

"A job run consists of one or more scheduler jobs related to the same
logical job" (Section II-D).  In our traces the chain is explicit — every
attempt row carries a ``jobrun_id`` — so grouping is exact rather than the
heuristic reconstruction the paper had to perform on raw Slurm logs.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.jobtypes import JobAttemptRecord, JobState
from repro.jobtypes import QosTier


@dataclass
class JobRun:
    """All attempts of one logical job, in time order."""

    jobrun_id: int
    attempts: List[JobAttemptRecord]

    def __post_init__(self):
        if not self.attempts:
            raise ValueError(f"job run {self.jobrun_id} has no attempts")
        self.attempts = sorted(self.attempts, key=lambda r: r.start_time)

    @property
    def n_gpus(self) -> int:
        return self.attempts[0].n_gpus

    @property
    def n_nodes(self) -> int:
        return self.attempts[0].n_nodes

    @property
    def qos(self) -> QosTier:
        return self.attempts[0].qos

    @property
    def total_runtime(self) -> float:
        """Total scheduled (wallclock-on-nodes) seconds across attempts."""
        return sum(a.runtime for a in self.attempts)

    @property
    def total_queue_time(self) -> float:
        """Wait before the first attempt plus waits between attempts."""
        return sum(a.queue_wait for a in self.attempts)

    @property
    def wallclock(self) -> float:
        """First-eligible to final end (queue + scheduled time)."""
        return self.attempts[-1].end_time - self.attempts[0].enqueue_time

    @property
    def n_interruptions(self) -> int:
        """Attempts that ended without resolving the job's own intent."""
        interrupting = {
            JobState.NODE_FAIL,
            JobState.REQUEUED,
            JobState.PREEMPTED,
        }
        count = sum(1 for a in self.attempts if a.state in interrupting)
        # A FAILED attempt followed by another attempt was an interruption
        # too (hardware-attributed app crash that auto-requeued).
        for attempt in self.attempts[:-1]:
            if attempt.state is JobState.FAILED and attempt.is_hw_interruption:
                count += 1
        return count

    @property
    def n_hw_interruptions(self) -> int:
        return sum(1 for a in self.attempts if a.is_hw_interruption)

    @property
    def final_state(self) -> JobState:
        return self.attempts[-1].state

    def mean_requeue_wait(self) -> float:
        """Average queue wait of non-first attempts (0 if none)."""
        waits = [a.queue_wait for a in self.attempts[1:]]
        return sum(waits) / len(waits) if waits else 0.0


def group_job_runs(records: Iterable[JobAttemptRecord]) -> List[JobRun]:
    """Group attempt rows into job runs, ordered by first start time."""
    by_run: Dict[int, List[JobAttemptRecord]] = {}
    for record in records:
        by_run.setdefault(record.jobrun_id, []).append(record)
    runs = [JobRun(jobrun_id=rid, attempts=atts) for rid, atts in by_run.items()]
    runs.sort(key=lambda run: run.attempts[0].start_time)
    return runs
