"""Lost goodput: first-order failures plus second-order preemption cascades.

Fig. 8's accounting: assuming hourly checkpoints (so a failure wastes on
average half an hour of work), the goodput lost to one terminated attempt
is ``min(runtime, 30 minutes) * n_gpus``.  The loss is charged to

* the failing job itself (NODE_FAIL or hardware-attributed FAILED), and
* every job **preempted because of** a failing job's requeue — the
  second-order cascade, reconstructed here through the PREEMPTED rows'
  ``instigator_job_id`` edge (the paper: ~16% of total lost goodput).

Also included: crash-loop detection — the pathological requeue chains the
paper illustrates with a 1024-GPU job that NODE_FAILed and requeued 35
times, preempting 548 jobs.
"""

from dataclasses import dataclass
from typing import Iterable, List, TYPE_CHECKING

import numpy as np

from repro.sim.timeunits import HOUR, MINUTE

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.columns import JobColumns

#: Expected wasted work per interruption under hourly checkpointing.
DEFAULT_LOST_WORK_CAP = 30 * MINUTE


@dataclass(frozen=True)
class GoodputLoss:
    """Lost GPU-time for one job-size bucket (one bar of Fig. 8)."""

    gpus: int
    direct_gpu_hours: float
    second_order_gpu_hours: float
    n_direct: int
    n_second_order: int

    @property
    def total_gpu_hours(self) -> float:
        return self.direct_gpu_hours + self.second_order_gpu_hours


def lost_goodput_by_size(
    columns: "JobColumns",
    lost_work_cap: float = DEFAULT_LOST_WORK_CAP,
) -> List[GoodputLoss]:
    """Fig. 8: lost goodput by instigating-failure job size.

    Direct losses bucket by the failing job's size.  Second-order losses —
    preemptions whose instigator had a hardware interruption — are charged
    to the *preempted* job's own size bucket on the x-axis, matching the
    figure's per-size stacking of total cluster impact.  The per-bucket
    sums accumulate sequentially in record order (``np.bincount``).
    """
    from repro.core.columns import STATE_CODE_PREEMPTED

    if len(columns) == 0:
        return []
    direct = columns.is_hw_interruption
    hw_jobs = np.unique(columns.job_id[direct])
    # An hw-interrupted row is never double-charged as second-order even
    # if it is also a PREEMPTED row.
    second = (
        (columns.state_code == STATE_CODE_PREEMPTED)
        & ~columns.instigator_null
        & np.isin(columns.instigator_job_id, hw_jobs)
        & ~direct
    )
    loss = np.minimum(columns.runtime, lost_work_cap) * columns.n_gpus.astype(
        np.float64
    )
    buckets = columns.size_bucket()
    uniq, inverse = np.unique(buckets, return_inverse=True)
    n = len(uniq)
    direct_sum = np.bincount(
        inverse, weights=np.where(direct, loss, 0.0), minlength=n
    )
    second_sum = np.bincount(
        inverse, weights=np.where(second, loss, 0.0), minlength=n
    )
    n_direct = np.bincount(inverse[direct], minlength=n)
    n_second = np.bincount(inverse[second], minlength=n)
    out = []
    for i, gpus in enumerate(uniq):  # np.unique is sorted ascending
        if n_direct[i] == 0 and n_second[i] == 0:
            continue  # bucket untouched by losses
        out.append(
            GoodputLoss(
                gpus=int(gpus),
                direct_gpu_hours=float(direct_sum[i]) / HOUR,
                second_order_gpu_hours=float(second_sum[i]) / HOUR,
                n_direct=int(n_direct[i]),
                n_second_order=int(n_second[i]),
            )
        )
    return out


def second_order_fraction(losses: Iterable[GoodputLoss]) -> float:
    """Share of total lost goodput due to cascaded preemptions (~16%)."""
    losses = list(losses)
    total = sum(l.total_gpu_hours for l in losses)
    if total <= 0:
        raise ValueError("no lost goodput in the supplied buckets")
    return sum(l.second_order_gpu_hours for l in losses) / total


@dataclass(frozen=True)
class CrashLoop:
    """A job that kept requeueing through hardware failures."""

    job_id: int
    n_gpus: int
    hw_interruptions: int
    preemptions_caused: int
    gpus_preempted: int


def find_crash_loops(
    columns: "JobColumns",
    min_interruptions: int = 5,
) -> List[CrashLoop]:
    """Identify requeue loops and tally the churn they caused.

    ``preemptions_caused`` counts PREEMPTED rows whose instigator is the
    looping job; ``gpus_preempted`` sums their GPU counts (the paper's
    "548 preemptions (over 7k GPUs)" style of accounting).  Loops are
    listed by descending interruption count, ties in order of each job's
    first hardware interruption.
    """
    from repro.core.columns import STATE_CODE_PREEMPTED

    if len(columns) == 0:
        return []
    hw = columns.is_hw_interruption
    hw_ids = columns.job_id[hw]
    if len(hw_ids) == 0:
        return []
    uniq, first_idx, counts = np.unique(
        hw_ids, return_index=True, return_counts=True
    )
    # First-hw-occurrence order, so the stable sort below breaks
    # interruption-count ties by it.
    order = np.argsort(first_idx, kind="stable")
    uniq, first_idx, counts = uniq[order], first_idx[order], counts[order]
    # n_gpus is constant per job, so the first occurrence carries it.
    gpus_by_job = columns.n_gpus[hw][first_idx]

    pre = (columns.state_code == STATE_CODE_PREEMPTED) & ~columns.instigator_null
    instigators = columns.instigator_job_id[pre]
    pre_gpus = columns.n_gpus[pre]

    loops = []
    for job_id, count, n_gpus in zip(uniq, counts, gpus_by_job):
        if count < min_interruptions:
            continue
        caused = instigators == job_id
        loops.append(
            CrashLoop(
                job_id=int(job_id),
                n_gpus=int(n_gpus),
                hw_interruptions=int(count),
                preemptions_caused=int(np.count_nonzero(caused)),
                gpus_preempted=int(pre_gpus[caused].sum()),
            )
        )
    loops.sort(key=lambda l: -l.hw_interruptions)
    return loops
