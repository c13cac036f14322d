"""Unit behavior of the online estimators on handcrafted streams."""

import pytest

from repro.core.estimators import (
    ETTRForecaster,
    FleetGauges,
    LiveLemonEstimator,
    OnlineMTTFEstimator,
    RollingFailureRateEstimator,
)
from repro.core.mttf import rf_floor
from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.sim.events import EventRecord
from repro.sim.timeunits import DAY, HOUR


def incident(time, component="gpu"):
    return EventRecord(
        time, "cluster.incident", "node-00000", {"component": component}
    )


def job(
    end,
    runtime=HOUR,
    n_gpus=8,
    state=JobState.COMPLETED,
    job_id=1,
    jobrun_id=1,
    attempt=0,
    queue_wait=60.0,
    qos=QosTier.HIGH,
    node_ids=(0,),
    failing_node_id=None,
):
    start = end - runtime
    return JobAttemptRecord(
        job_id=job_id,
        attempt=attempt,
        jobrun_id=jobrun_id,
        project="p",
        qos=qos,
        n_gpus=n_gpus,
        n_nodes=max(1, n_gpus // 8),
        enqueue_time=start - queue_wait,
        start_time=start,
        end_time=end,
        state=state,
        node_ids=tuple(node_ids),
        failing_node_id=failing_node_id,
    )


# ----------------------------------------------------------------------
# RollingFailureRateEstimator
# ----------------------------------------------------------------------
def test_rolling_finalizes_behind_lateness_and_counts_windows():
    # A grid point stays open for one window (2d) past its time.
    est = RollingFailureRateEstimator(
        window=2 * DAY, step=DAY, exposure_per_time=1.0
    )
    est.observe_event(incident(0.5 * DAY))
    est.observe_event(incident(1.5 * DAY))
    est.advance(2.1 * DAY)
    assert est.overall == [0.0]  # t=0: window (-2d, 0] is empty
    est.advance(4.1 * DAY)  # finalizes t=1d and t=2d
    # t=1d: one incident in (-1d, 1d]; t=2d: both in (0, 2d]
    denom = 2 * DAY
    assert est.overall == [0.0, 1.0 / denom, 2.0 / denom]


def test_rolling_lateness_holds_points_open_for_backdated_events():
    est = RollingFailureRateEstimator(
        window=2 * DAY, step=DAY, exposure_per_time=1.0
    )
    est.advance(2.5 * DAY)
    assert est.overall == [0.0]  # only t=0 cleared 0 + window < 2.5d
    # a backdated incident for the t=1d window arrives late but in time
    est.observe_event(incident(0.9 * DAY))
    assert est.late_events == 0
    est.advance(3.5 * DAY)
    assert est.overall[1] == 1.0 / (2 * DAY)


def test_rolling_counts_truly_late_events():
    est = RollingFailureRateEstimator(
        window=DAY, step=DAY, exposure_per_time=1.0
    )
    est.advance(2.5 * DAY)  # finalizes t=0 and t=1d
    est.observe_event(incident(0.5 * DAY))  # t=1d already closed
    assert est.late_events == 1


def test_rolling_finish_matches_arange_point_count():
    est = RollingFailureRateEstimator(
        window=DAY, step=DAY, exposure_per_time=1.0
    )
    est.finish(10 * DAY)
    # np.arange(0, 10d + 0.5d, 1d) has 11 points
    assert len(est.overall) == 11
    assert len(est.times_days()) == 11


def test_rolling_component_series_backfills_zeros():
    est = RollingFailureRateEstimator(
        window=DAY, step=DAY, exposure_per_time=1.0
    )
    est.observe_event(incident(0.2 * DAY, component="gpu"))
    est.advance(2.5 * DAY)
    est.observe_event(incident(2.8 * DAY, component="nic"))
    est.finish(3 * DAY)
    series = est.component_series()
    assert set(series) == {"gpu", "nic"}
    assert len(series["nic"]) == len(series["gpu"]) == len(est.overall)
    # nic points before its first incident are exactly zero
    assert series["nic"][0] == series["nic"][1] == 0.0


def test_rolling_validates_parameters():
    with pytest.raises(ValueError, match="window"):
        RollingFailureRateEstimator(window=0, step=1, exposure_per_time=1)
    with pytest.raises(ValueError, match="step"):
        RollingFailureRateEstimator(window=1, step=0, exposure_per_time=1)
    with pytest.raises(ValueError, match="exposure"):
        RollingFailureRateEstimator(window=1, step=1, exposure_per_time=0)


# ----------------------------------------------------------------------
# OnlineMTTFEstimator
# ----------------------------------------------------------------------
def test_mttf_buckets_accumulate_and_derive_rates():
    est = OnlineMTTFEstimator()
    est.observe_job(job(end=10 * HOUR, runtime=4 * HOUR, n_gpus=8))
    est.observe_job(
        job(
            end=20 * HOUR,
            runtime=6 * HOUR,
            n_gpus=8,
            state=JobState.NODE_FAIL,
            job_id=2,
            jobrun_id=2,
        )
    )
    est.observe_job(job(end=30 * HOUR, runtime=2 * HOUR, n_gpus=64, job_id=3, jobrun_id=3))
    buckets = est.buckets()
    assert [b.gpus for b in buckets] == [8, 64]
    b8 = buckets[0]
    assert b8.n_records == 2 and b8.runtime_hours == 10.0
    # NODE_FAIL without ground-truth flag: observable rule counts it
    est_obs = OnlineMTTFEstimator(use_ground_truth=False)
    est_obs.observe_job(
        job(end=HOUR, runtime=HOUR, state=JobState.NODE_FAIL)
    )
    assert est_obs.buckets()[0].failures == 1


def test_mttf_rf_pinned_vs_auto_floor():
    est = OnlineMTTFEstimator(rf_min_gpus=32)
    auto = OnlineMTTFEstimator()
    for i, gpus in enumerate((8, 64, 256)):
        record = job(
            end=(i + 1) * DAY, runtime=DAY, n_gpus=gpus, job_id=i, jobrun_id=i
        )
        est.observe_job(record)
        auto.observe_job(record)
    # pinned: jobs with > 32 GPUs -> 64 (8 nodes) + 256 (32 nodes)
    failures, node_days = est.rf_inputs()
    assert failures == 0
    assert node_days == 8.0 + 32.0
    # auto floor with largest=256 -> min rule max(8, 128) = 128
    assert est.auto_floor() == 128
    assert auto.rf_floor_gpus == 128
    _f, nd_auto = auto.rf_inputs()
    assert nd_auto == 32.0
    assert rf_floor(est.largest_gpus) == 128


def test_mttf_failure_rate_requires_exposure():
    est = OnlineMTTFEstimator(rf_min_gpus=128)
    with pytest.raises(ValueError):
        est.failure_rate()


# ----------------------------------------------------------------------
# ETTRForecaster
# ----------------------------------------------------------------------
def test_ettr_measured_cohort_and_forecast():
    est = ETTRForecaster(min_total_runtime=0.0, qos=None, min_runs_per_bucket=1)
    # one run, two attempts: first interrupted, then completes
    est.observe_job(
        job(
            end=10 * HOUR,
            runtime=10 * HOUR,
            n_gpus=64,
            state=JobState.NODE_FAIL,
            job_id=1,
            jobrun_id=5,
            attempt=0,
        )
    )
    est.observe_job(
        job(
            end=30 * HOUR,
            runtime=19 * HOUR,
            n_gpus=64,
            job_id=2,
            jobrun_id=5,
            attempt=1,
        )
    )
    rows = est.comparison(rf=0.001)
    assert len(rows) == 1
    row = rows[0]
    assert row["gpus"] == 64 and row["n_runs"] == 1
    assert 0.0 < row["measured_mean"] <= 1.0
    assert 0.0 < row["expected"] <= 1.0
    # forecast accepts both floats and RateEstimate-like objects
    class FakeRate:
        rate = 0.001

    assert est.forecast(64, FakeRate(), 60.0, DAY) == est.forecast(
        64, 0.001, 60.0, DAY
    )


def test_ettr_cohort_filters_by_runtime_and_qos():
    est = ETTRForecaster(
        min_total_runtime=24 * HOUR, qos=int(QosTier.HIGH), min_runs_per_bucket=1
    )
    est.observe_job(job(end=HOUR, runtime=HOUR, jobrun_id=1))  # too short
    est.observe_job(
        job(end=30 * HOUR, runtime=30 * HOUR, jobrun_id=2, qos=QosTier.LOW)
    )  # wrong tier
    assert est.comparison(rf=0.001) == []
    assert est.cohort_runs == 0
    est.observe_job(job(end=30 * HOUR, runtime=30 * HOUR, jobrun_id=3))
    assert len(est.comparison(rf=0.001)) == 1
    assert est.cohort_runs == 1
    # The per-bucket minimum drops rows, not cohort members.
    est.min_runs_per_bucket = 2
    assert est.comparison(rf=0.001) == []
    assert est.cohort_runs == 1


# ----------------------------------------------------------------------
# LiveLemonEstimator
# ----------------------------------------------------------------------
def test_lemon_live_signals_and_suspects():
    est = LiveLemonEstimator()
    # node 3: repeated single-node failures -> fails + rate signals
    for i in range(3):
        est.observe_job(
            job(
                end=(i + 1) * HOUR,
                state=JobState.NODE_FAIL,
                job_id=i,
                jobrun_id=i,
                node_ids=(3,),
                failing_node_id=3,
            )
        )
    signals = est.live_signals(3)
    assert signals["single_node_node_fails"] == 3.0
    assert signals["single_node_node_failure_rate"] == 1.0
    assert est.suspects() == [3]
    # tickets accumulate from remediation events
    for _ in range(4):
        est.observe_event(
            EventRecord(0.0, "remediation.ticket_opened", "node-00007", {"node_id": 7})
        )
    assert est.live_signals(7)["tickets"] == 4.0


def test_lemon_report_requires_node_records():
    est = LiveLemonEstimator()
    with pytest.raises(ValueError, match="node records"):
        est.report()


# ----------------------------------------------------------------------
# FleetGauges
# ----------------------------------------------------------------------
def test_fleet_gauges_track_capacity_and_goodput():
    g = FleetGauges(n_nodes=10, n_gpus=80)
    g.observe_job(job(end=DAY, runtime=DAY, n_gpus=8))
    assert g.gpu_seconds == 8 * DAY
    assert g.utilization(DAY) == pytest.approx(8 * DAY / (80 * DAY))
    g.observe_event(
        EventRecord(0.0, "remediation.ticket_opened", "n", {"node_id": 4})
    )
    assert g.nodes_down == 1 and g.availability() == 0.9
    # duplicate open is idempotent on the down set
    g.observe_event(
        EventRecord(1.0, "remediation.ticket_opened", "n", {"node_id": 4})
    )
    assert g.nodes_down == 1
    g.observe_event(
        EventRecord(2.0, "remediation.ticket_closed", "n", {"node_id": 4})
    )
    assert g.nodes_down == 0 and g.availability() == 1.0
    g.observe_event(
        EventRecord(3.0, "lemon.quarantined", "n", {"node_id": 2})
    )
    assert g.nodes_quarantined == 1
    assert g.utilization(0.0) == 0.0
