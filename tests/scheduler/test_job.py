import pytest

from repro.jobtypes import (
    FINAL_OUTCOME_BY_INTENT,
    IntendedOutcome,
    JobAttemptRecord,
    JobState,
    QosTier,
)
from repro.scheduler.job import Job
from repro.workload.spec import JobSpec


def make_spec(**kwargs):
    defaults = dict(
        job_id=1,
        jobrun_id=1,
        project="p",
        n_gpus=16,
        qos=QosTier.HIGH,
        submit_time=0.0,
        work_seconds=3600.0,
    )
    defaults.update(kwargs)
    return JobSpec(**defaults)


def test_new_job_pending_with_full_work():
    job = Job(make_spec())
    assert job.state is JobState.PENDING
    assert job.remaining_work == 3600.0
    assert job.attempt == 0


def test_close_attempt_produces_record_and_resets():
    job = Job(make_spec())
    job.state = JobState.RUNNING
    job.start_time = 10.0
    job.node_ids = [0, 1]
    record = job.close_attempt(end_time=110.0, state=JobState.COMPLETED)
    assert record.runtime == 100.0
    assert record.node_ids == (0, 1)
    assert job.start_time is None
    assert job.node_ids == []
    assert job.records == [record]


def test_close_attempt_without_start_raises():
    job = Job(make_spec())
    with pytest.raises(RuntimeError, match="no running attempt"):
        job.close_attempt(end_time=1.0, state=JobState.FAILED)


def test_reenqueue_bumps_attempt():
    job = Job(make_spec())
    job.reenqueue(now=50.0)
    assert job.attempt == 1
    assert job.enqueue_time == 50.0
    assert job.state is JobState.PENDING


def test_can_requeue_honours_cap_and_remaining_work():
    job = Job(make_spec(max_requeues=1))
    assert job.can_requeue()
    job.requeues_used = 1
    assert not job.can_requeue()
    job.requeues_used = 0
    job.remaining_work = 0.0
    assert not job.can_requeue()


def test_record_time_ordering_validated():
    with pytest.raises(ValueError, match="end .* before start"):
        JobAttemptRecord(
            job_id=1, attempt=0, jobrun_id=1, project="p", qos=QosTier.LOW,
            n_gpus=1, n_nodes=1, enqueue_time=0.0, start_time=10.0,
            end_time=5.0, state=JobState.COMPLETED, node_ids=(0,),
        )
    with pytest.raises(ValueError, match="start .* before enqueue"):
        JobAttemptRecord(
            job_id=1, attempt=0, jobrun_id=1, project="p", qos=QosTier.LOW,
            n_gpus=1, n_nodes=1, enqueue_time=10.0, start_time=5.0,
            end_time=20.0, state=JobState.COMPLETED, node_ids=(0,),
        )


@pytest.mark.parametrize("field", ["enqueue_time", "start_time", "end_time"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_record_rejects_non_finite_times(field, bad):
    times = {"enqueue_time": 0.0, "start_time": 5.0, "end_time": 10.0}
    times[field] = bad
    with pytest.raises(ValueError, match="non-finite time"):
        JobAttemptRecord(
            job_id=1, attempt=0, jobrun_id=1, project="p", qos=QosTier.LOW,
            n_gpus=1, n_nodes=1, state=JobState.COMPLETED, node_ids=(0,),
            **times,
        )


def test_record_hw_interruption_flag():
    base = dict(
        job_id=1, attempt=0, jobrun_id=1, project="p", qos=QosTier.LOW,
        n_gpus=8, n_nodes=1, enqueue_time=0.0, start_time=0.0, end_time=10.0,
        node_ids=(0,),
    )
    assert JobAttemptRecord(state=JobState.NODE_FAIL, **base).is_hw_interruption
    assert JobAttemptRecord(
        state=JobState.FAILED, hw_incident_id=4, **base
    ).is_hw_interruption
    assert not JobAttemptRecord(state=JobState.FAILED, **base).is_hw_interruption


def test_final_outcome_mapping_is_total():
    for intent in IntendedOutcome:
        assert intent in FINAL_OUTCOME_BY_INTENT


def test_running_elapsed_requires_running():
    job = Job(make_spec())
    with pytest.raises(RuntimeError):
        job.running_elapsed(5.0)
