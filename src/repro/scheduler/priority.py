"""Multifactor priority, after Slurm's priority/multifactor plugin.

The paper: "the scheduler attempts to schedule jobs based on priority
order, which is a function of many variables, including the project's
allocation and the job's age".  We implement the three factors that drive
the dynamics the paper measures: QoS tier (dominant — large training runs
are high priority), job age (so nothing starves), and a small size factor
(Slurm's job-size factor, which nudges large gangs forward so they do not
wait forever behind trickles of small jobs).
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.scheduler.job import Job
from repro.sim.timeunits import DAY


@dataclass(frozen=True)
class PriorityPolicy:
    """Weights for the multifactor priority sum.

    ``age_norm`` is the age at which the age factor saturates at 1.0
    (Slurm's PriorityMaxAge, typically a few days).
    """

    qos_weight: float = 1000.0
    age_weight: float = 100.0
    size_weight: float = 20.0
    age_norm: float = 2 * DAY

    def __post_init__(self):
        if self.age_norm <= 0:
            raise ValueError("age_norm must be positive")
        if min(self.qos_weight, self.age_weight, self.size_weight) < 0:
            raise ValueError("priority weights must be non-negative")

    def priority(self, job: Job, now: float) -> float:
        """Compute the job's current priority (higher schedules first)."""
        return -self._sort_keys((job,), now)[0][0]

    def sort_pending(self, jobs, now: float):
        """Priority order with deterministic job-id tie-breaking.

        The scheduler keeps this order incrementally in
        :class:`~repro.scheduler.pending.PendingQueue`; this full sort is
        its reference.
        """
        jobs = list(jobs)
        keys = self._sort_keys(jobs, now)
        return [jobs[i] for i in sorted(range(len(jobs)), key=keys.__getitem__)]

    def static_terms(self, qos: int, n_gpus: int) -> Tuple[float, float]:
        """The QoS and size terms, shared by every job of one ``(qos, n_gpus)``."""
        return (
            self.qos_weight * int(qos),
            # 4096 GPUs -> size factor 1.0
            self.size_weight * (math.log2(n_gpus) / 12.0),
        )

    def neg_priority(
        self, terms: Tuple[float, float], enqueue_time: float, now: float
    ) -> float:
        """``-priority`` of a job with these static terms: the one copy of
        the formula.

        The sum keeps the order ``(qos + age) + size``.  Every operation
        is monotone in ``enqueue_time``, so among jobs with the same terms
        a later enqueue never has a higher priority (the pending queue's
        bucket order relies on it).
        """
        # max(0.0, age) and min(factor, 1.0), without the calls
        age = now - enqueue_time
        if not age > 0.0:
            age = 0.0
        age_factor = age / self.age_norm
        if age_factor > 1.0:
            age_factor = 1.0
        return -(terms[0] + self.age_weight * age_factor + terms[1])

    def _sort_keys(self, jobs: Sequence[Job], now: float) -> List[Tuple[float, int]]:
        """``(-priority, job_id)`` per job, with the static terms computed
        once per ``(qos, n_gpus)``."""
        static: Dict[Tuple[int, int], Tuple[float, float]] = {}
        keys = []
        for job in jobs:
            spec = job.spec
            pair = (spec.qos, spec.n_gpus)
            terms = static.get(pair)
            if terms is None:
                terms = static[pair] = self.static_terms(*pair)
            keys.append(
                (self.neg_priority(terms, job.enqueue_time, now), spec.job_id)
            )
        return keys
