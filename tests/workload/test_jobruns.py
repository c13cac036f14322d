import pytest

from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.workload.jobruns import JobRun, group_job_runs


def attempt(
    jobrun_id,
    attempt_no,
    enqueue,
    start,
    end,
    state=JobState.COMPLETED,
    n_gpus=16,
    qos=QosTier.HIGH,
    **kwargs,
):
    return JobAttemptRecord(
        job_id=jobrun_id,
        attempt=attempt_no,
        jobrun_id=jobrun_id,
        project="p",
        qos=qos,
        n_gpus=n_gpus,
        n_nodes=max(1, n_gpus // 8),
        enqueue_time=enqueue,
        start_time=start,
        end_time=end,
        state=state,
        node_ids=(0, 1),
        **kwargs,
    )


@pytest.fixture()
def run():
    return JobRun(
        jobrun_id=1,
        attempts=[
            attempt(1, 0, 0.0, 100.0, 3700.0, state=JobState.NODE_FAIL),
            attempt(1, 1, 3700.0, 3800.0, 7400.0, state=JobState.PREEMPTED),
            attempt(1, 2, 7400.0, 7600.0, 11200.0, state=JobState.COMPLETED),
        ],
    )


def test_run_totals(run):
    assert run.total_runtime == pytest.approx(3600.0 * 3)
    assert run.total_queue_time == pytest.approx(100.0 + 100.0 + 200.0)
    assert run.wallclock == pytest.approx(11200.0)
    assert run.n_interruptions == 2
    assert run.final_state is JobState.COMPLETED
    assert run.n_gpus == 16


def test_hw_interruption_counting(run):
    assert run.n_hw_interruptions == 1  # only the NODE_FAIL


def test_failed_then_requeued_counts_as_interruption():
    run = JobRun(
        jobrun_id=2,
        attempts=[
            attempt(2, 0, 0.0, 10.0, 100.0, state=JobState.FAILED,
                    hw_incident_id=3, hw_attributed=True),
            attempt(2, 1, 100.0, 110.0, 200.0, state=JobState.COMPLETED),
        ],
    )
    assert run.n_interruptions == 1
    assert run.n_hw_interruptions == 1


def test_attempts_sorted_by_start():
    run = JobRun(
        jobrun_id=3,
        attempts=[
            attempt(3, 1, 200.0, 210.0, 300.0),
            attempt(3, 0, 0.0, 10.0, 100.0, state=JobState.REQUEUED),
        ],
    )
    assert [a.attempt for a in run.attempts] == [0, 1]


def test_empty_run_rejected():
    with pytest.raises(ValueError):
        JobRun(jobrun_id=1, attempts=[])


def test_mean_requeue_wait(run):
    assert run.mean_requeue_wait() == pytest.approx(150.0)
    single = JobRun(jobrun_id=4, attempts=[attempt(4, 0, 0.0, 1.0, 10.0)])
    assert single.mean_requeue_wait() == 0.0


def test_group_job_runs_partitions_by_id():
    records = [
        attempt(1, 0, 0.0, 1.0, 10.0, state=JobState.REQUEUED),
        attempt(2, 0, 0.0, 2.0, 20.0),
        attempt(1, 1, 10.0, 11.0, 30.0),
    ]
    runs = group_job_runs(records)
    assert len(runs) == 2
    assert {r.jobrun_id for r in runs} == {1, 2}
    assert len(runs[0].attempts) + len(runs[1].attempts) == 3
