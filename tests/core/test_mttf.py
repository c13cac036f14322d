import pytest

from repro.core.columns import JobColumns
from repro.core.mttf import (
    empirical_mttf_by_size,
    mttf_projection_curve,
    node_failure_rate,
    project_mttf,
    size_bucket,
)
from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.sim.timeunits import HOUR


as_columns = JobColumns.from_records


def record(job_id, n_gpus, runtime_hours, state=JobState.COMPLETED, **kwargs):
    return JobAttemptRecord(
        job_id=job_id,
        attempt=0,
        jobrun_id=job_id,
        project="p",
        qos=QosTier.NORMAL,
        n_gpus=n_gpus,
        n_nodes=max(1, (n_gpus + 7) // 8),
        enqueue_time=0.0,
        start_time=0.0,
        end_time=runtime_hours * HOUR,
        state=state,
        node_ids=tuple(range(max(1, (n_gpus + 7) // 8))),
        **kwargs,
    )


@pytest.mark.parametrize(
    "gpus,bucket",
    [(1, 8), (7, 8), (8, 8), (9, 16), (16, 16), (17, 32), (100, 128), (4096, 4096)],
)
def test_size_bucket_rounds_to_eight_then_pow2(gpus, bucket):
    assert size_bucket(gpus) == bucket


def test_size_bucket_rejects_nonpositive():
    with pytest.raises(ValueError):
        size_bucket(0)


def test_empirical_mttf_pools_exposure():
    records = [
        record(1, 8, 100.0),
        record(2, 8, 100.0, state=JobState.NODE_FAIL),
        record(3, 8, 100.0),
        record(4, 8, 100.0),
    ]
    [bucket] = empirical_mttf_by_size(as_columns(records))
    assert bucket.gpus == 8
    assert bucket.failures == 1
    assert bucket.runtime_hours == pytest.approx(400.0)
    assert bucket.mttf_hours == pytest.approx(400.0)
    assert bucket.mttf_hours_lo < 400.0 < bucket.mttf_hours_hi


def test_zero_failure_bucket_has_infinite_mttf():
    [bucket] = empirical_mttf_by_size(as_columns([record(1, 16, 10.0)]))
    assert bucket.mttf_hours == float("inf")
    assert bucket.mttf_hours_lo < float("inf")  # upper rate bound is finite


def test_observable_mode_needs_attribution():
    records = [
        record(1, 8, 100.0, state=JobState.FAILED),  # user failure
        record(2, 8, 100.0, state=JobState.FAILED, hw_incident_id=1,
               hw_attributed=True),
    ]
    [gt] = empirical_mttf_by_size(as_columns(records), use_ground_truth=True)
    [obs] = empirical_mttf_by_size(as_columns(records), use_ground_truth=False)
    assert gt.failures == 1
    assert obs.failures == 1


def test_node_failure_rate_units():
    # 2-node job runs 24h and fails once: 2 node-days -> rate 0.5/node-day.
    records = [record(1, 16, 24.0, state=JobState.NODE_FAIL)]
    est = node_failure_rate(as_columns(records), min_gpus=8)
    assert est.rate == pytest.approx(0.5)


def test_node_failure_rate_excludes_small_jobs():
    records = [
        record(1, 8, 1000.0, state=JobState.NODE_FAIL),
        record(2, 256, 24.0),
    ]
    est = node_failure_rate(as_columns(records), min_gpus=128)
    assert est.events == 0
    assert est.exposure == pytest.approx(32.0)  # 32 nodes x 1 day


def test_node_failure_rate_requires_large_jobs():
    with pytest.raises(ValueError, match="no runtime"):
        node_failure_rate(as_columns([record(1, 8, 10.0)]), min_gpus=128)


def test_project_mttf_paper_numbers():
    assert project_mttf(16_384, 6.5e-3) == pytest.approx(1.80, abs=0.02)
    assert project_mttf(131_072, 6.5e-3) == pytest.approx(0.225, abs=0.005)
    assert project_mttf(4096, 6.5e-3) == pytest.approx(7.2, abs=0.1)


def test_projection_scales_inverse_with_size():
    assert project_mttf(1024, 6.5e-3) == pytest.approx(
        2 * project_mttf(2048, 6.5e-3)
    )


def test_projection_curve_keys():
    curve = mttf_projection_curve([8, 16384], 6.5e-3)
    assert set(curve) == {8, 16384}
    assert curve[8] > curve[16384]


def test_zero_rate_projection_infinite():
    assert project_mttf(1024, 0.0) == float("inf")
