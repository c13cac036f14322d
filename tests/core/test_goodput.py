import pytest

from repro.core.columns import JobColumns
from repro.core.goodput import (
    find_crash_loops,
    lost_goodput_by_size,
    second_order_fraction,
)
from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.sim.timeunits import HOUR, MINUTE


as_columns = JobColumns.from_records


def record(job_id, n_gpus, runtime, state, attempt=0, **kwargs):
    return JobAttemptRecord(
        job_id=job_id,
        attempt=attempt,
        jobrun_id=job_id,
        project="p",
        qos=QosTier.NORMAL,
        n_gpus=n_gpus,
        n_nodes=max(1, n_gpus // 8),
        enqueue_time=0.0,
        start_time=1000.0,
        end_time=1000.0 + runtime,
        state=state,
        node_ids=(0,),
        **kwargs,
    )


def test_direct_loss_is_capped_at_thirty_minutes():
    records = [
        record(1, 512, 5 * HOUR, JobState.NODE_FAIL),
    ]
    [loss] = lost_goodput_by_size(as_columns(records))
    assert loss.gpus == 512
    assert loss.direct_gpu_hours == pytest.approx(0.5 * 512)
    assert loss.n_direct == 1


def test_short_attempt_loses_only_its_runtime():
    records = [record(1, 8, 10 * MINUTE, JobState.NODE_FAIL)]
    [loss] = lost_goodput_by_size(as_columns(records))
    assert loss.direct_gpu_hours == pytest.approx(8 * 10 / 60)


def test_second_order_preemption_charged_when_instigator_failed():
    records = [
        record(1, 512, 5 * HOUR, JobState.NODE_FAIL),
        record(2, 8, 3 * HOUR, JobState.PREEMPTED, instigator_job_id=1),
        record(3, 8, 3 * HOUR, JobState.PREEMPTED, instigator_job_id=99),
    ]
    losses = lost_goodput_by_size(as_columns(records))
    by_gpus = {l.gpus: l for l in losses}
    # Job 2's preemption cascades from the failed job 1; job 3's instigator
    # never failed, so it is not charged.
    assert by_gpus[8].n_second_order == 1
    assert by_gpus[8].second_order_gpu_hours == pytest.approx(4.0)


def test_second_order_fraction():
    records = [
        record(1, 512, 5 * HOUR, JobState.NODE_FAIL),
        record(2, 512, 5 * HOUR, JobState.PREEMPTED, instigator_job_id=1),
    ]
    losses = lost_goodput_by_size(as_columns(records))
    assert second_order_fraction(losses) == pytest.approx(0.5)


def test_second_order_fraction_requires_losses():
    with pytest.raises(ValueError):
        second_order_fraction([])


def test_hw_attributed_failed_counts_as_direct():
    records = [
        record(1, 64, 2 * HOUR, JobState.FAILED, hw_incident_id=5,
               hw_attributed=True),
        record(2, 64, 2 * HOUR, JobState.FAILED),  # user failure: no loss
    ]
    [loss] = lost_goodput_by_size(as_columns(records))
    assert loss.n_direct == 1


def test_crash_loop_detection():
    records = []
    for i in range(6):
        records.append(
            record(1, 1024, HOUR, JobState.NODE_FAIL, attempt=i)
        )
    for j in range(10):
        records.append(
            record(100 + j, 8, 3 * HOUR, JobState.PREEMPTED, instigator_job_id=1)
        )
    [loop] = find_crash_loops(as_columns(records), min_interruptions=5)
    assert loop.job_id == 1
    assert loop.hw_interruptions == 6
    assert loop.preemptions_caused == 10
    assert loop.gpus_preempted == 80


def test_no_crash_loop_below_threshold():
    records = [record(1, 8, HOUR, JobState.NODE_FAIL, attempt=i) for i in range(3)]
    assert find_crash_loops(as_columns(records), min_interruptions=5) == []
