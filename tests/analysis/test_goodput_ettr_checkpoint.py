import pytest

from repro.analysis.checkpoint_sweep import RSC1_RF, RSC2_RF, checkpoint_sweep
from repro.analysis.ettr_analysis import ettr_comparison
from repro.analysis.goodput_loss import goodput_loss_analysis
from repro.core.checkpoint import required_checkpoint_interval
from repro.core.metrics import ETTRAssumptions
from repro.sim.timeunits import HOUR, MINUTE


def test_goodput_losses_present_and_bucketed(rsc1_trace):
    result = goodput_loss_analysis(rsc1_trace)
    assert result.losses, "campaign should lose some goodput to failures"
    assert result.total_gpu_hours_lost > 0
    assert 0.0 <= result.second_order_share <= 1.0
    sizes = [l.gpus for l in result.losses]
    assert sizes == sorted(sizes)


def test_goodput_larger_jobs_lose_more_per_event(rsc1_trace):
    result = goodput_loss_analysis(rsc1_trace)
    big = [l for l in result.losses if l.gpus >= 128]
    small = [l for l in result.losses if l.gpus <= 16]
    if big and small:
        big_per_event = sum(l.direct_gpu_hours for l in big) / max(
            1, sum(l.n_direct for l in big)
        )
        small_per_event = sum(l.direct_gpu_hours for l in small) / max(
            1, sum(l.n_direct for l in small)
        )
        assert big_per_event > small_per_event


def test_goodput_render(rsc1_trace):
    assert "Fig. 8" in goodput_loss_analysis(rsc1_trace).render()


def test_ettr_comparison_buckets(rsc1_trace):
    result = ettr_comparison(
        rsc1_trace,
        min_total_runtime=12 * HOUR,
        qos=None,  # widen the cohort for the small test campaign
        min_runs_per_bucket=3,
    )
    assert result.buckets, "expected at least one ETTR bucket"
    for bucket in result.buckets:
        assert 0.0 <= bucket.measured_mean <= 1.0
        assert bucket.measured_lo <= bucket.measured_mean <= bucket.measured_hi
        assert 0.0 <= bucket.expected <= 1.0


def test_ettr_measured_close_to_expected(rsc1_trace):
    """Fig. 9's claim: E[ETTR] and measured agree fairly well (>=64 GPUs)."""
    result = ettr_comparison(
        rsc1_trace, min_total_runtime=12 * HOUR, qos=None, min_runs_per_bucket=3
    )
    for bucket in result.buckets:
        if bucket.gpus >= 64 and bucket.n_runs >= 5:
            assert bucket.measured_mean == pytest.approx(bucket.expected, abs=0.15)


def test_ettr_high_for_long_runs(rsc1_trace):
    result = ettr_comparison(
        rsc1_trace, min_total_runtime=12 * HOUR, qos=None, min_runs_per_bucket=2
    )
    means = [b.measured_mean for b in result.buckets]
    assert max(means) > 0.85  # Observation 10's spirit at test scale


def test_ettr_empty_cohort_raises(rsc1_trace):
    with pytest.raises(ValueError, match="cohort"):
        ettr_comparison(rsc1_trace, min_total_runtime=1000 * HOUR)


def test_ettr_render(rsc1_trace):
    text = ettr_comparison(
        rsc1_trace, min_total_runtime=12 * HOUR, qos=None, min_runs_per_bucket=2
    ).render()
    assert "Fig. 9" in text


def test_checkpoint_sweep_paper_callouts():
    sweep = checkpoint_sweep()
    # ETTR 0.5 at RSC-1 rate needs single-digit-minute checkpointing.
    dt = sweep.required_interval(RSC1_RF, 0.5)
    assert 5 * MINUTE < dt < 12 * MINUTE
    # RSC-2's lower rate relaxes the requirement substantially.
    assert sweep.required_interval(RSC2_RF, 0.5) > 2 * dt
    # Hourly checkpointing at 100k GPUs is untenable (ETTR ~ 0).
    assert sweep.ettr_at(RSC1_RF, 60 * MINUTE) == 0.0


def test_checkpoint_sweep_grid_monotone():
    sweep = checkpoint_sweep(intervals_minutes=(2, 30))
    for rf in sweep.failure_rates:
        assert sweep.ettr_at(rf, 2 * MINUTE) >= sweep.ettr_at(rf, 30 * MINUTE)


def test_checkpoint_render():
    assert "Fig. 10" in checkpoint_sweep().render()


def test_fig8_paper_loss_shape(paper_rsc1_trace):
    """Fig. 8 RSC-1 at figure scale (paper: losses dominated by the
    largest jobs; ~16% of total lost goodput is second-order preemptions
    from much smaller jobs)."""
    result = goodput_loss_analysis(paper_rsc1_trace)
    assert result.total_gpu_hours_lost > 0
    # Large buckets carry most of the direct loss.
    direct = {l.gpus: l.direct_gpu_hours for l in result.losses}
    small = [v for k, v in direct.items() if k <= 16]
    if small:
        assert direct[max(direct)] >= max(small)
    # Second-order share is material but minority.
    assert 0.02 <= result.second_order_share <= 0.60
    # Second-order losses come from smaller jobs than the direct ones.
    second = [l for l in result.losses if l.n_second_order > 0]
    if second:
        assert min(l.gpus for l in second) <= 64


def test_fig8_rsc2_smaller_normalized_loss(paper_rsc1_trace, paper_rsc2_trace):
    """Fig. 8 RSC-2 (paper: absolute loss an order of magnitude lower),
    normalized by capacity-time to compare across cluster sizes."""
    rsc1 = goodput_loss_analysis(paper_rsc1_trace)
    rsc2 = goodput_loss_analysis(paper_rsc2_trace)
    r1 = rsc1.total_gpu_hours_lost / (
        paper_rsc1_trace.n_gpus * paper_rsc1_trace.span_seconds
    )
    r2 = rsc2.total_gpu_hours_lost / (
        paper_rsc2_trace.n_gpus * paper_rsc2_trace.span_seconds
    )
    assert r2 < r1


def test_fig9_paper_agreement(paper_rsc1_trace):
    """Fig. 9 RSC-1 at figure scale (paper: E[ETTR] and measured agree
    except the smallest runs; the largest runs exceed 0.9).  All QoS
    tiers: the scaled campaign needs the wider cohort."""
    result = ettr_comparison(
        paper_rsc1_trace, min_total_runtime=24 * HOUR, qos=None,
        min_runs_per_bucket=2,
    )
    assert result.buckets
    for bucket in result.buckets:
        if bucket.n_runs >= 5:
            assert abs(bucket.measured_mean - bucket.expected) < 0.15
    # Long runs are efficient (Observation 10's spirit).  The scaled
    # campaign's shared queue is more congested than the paper's
    # highest-priority cohort, so the bar sits slightly below 0.9.
    assert max(b.measured_mean for b in result.buckets) > 0.85


def test_fig9_rsc2_in_range(paper_rsc2_trace):
    result = ettr_comparison(
        paper_rsc2_trace, min_total_runtime=24 * HOUR, qos=None,
        min_runs_per_bucket=2,
    )
    assert result.buckets
    for bucket in result.buckets:
        assert 0.0 <= bucket.measured_mean <= 1.0


def test_fig10_paper_requirements():
    """Fig. 10 (paper: at 100k GPUs an RSC-1-like rate implies MTTF
    ~15 min; ETTR 0.5 needs ~7-minute checkpointing, ~21 minutes at
    RSC-2 rates; ETTR 0.9 at RSC-2 rates needs ~2-minute checkpoint +
    restart)."""
    sweep = checkpoint_sweep()
    dt_rsc1 = sweep.required_interval(RSC1_RF, 0.5)
    dt_rsc2 = sweep.required_interval(RSC2_RF, 0.5)
    assert 5 * MINUTE <= dt_rsc1 <= 12 * MINUTE  # paper: ~7 min
    assert 18 * MINUTE <= dt_rsc2 <= 45 * MINUTE  # paper: ~21 min
    # The requirement tightens monotonically with rate.
    assert dt_rsc2 > dt_rsc1
    assert sweep.ettr_at(RSC1_RF, 60 * MINUTE) == 0.0
    # ETTR 0.9 at RSC-2 rates: single-digit minutes with a 2-min restart.
    dt_09 = required_checkpoint_interval(
        0.9, n_nodes=12_500, failure_rate_per_node_day=RSC2_RF,
        restart_overhead=2 * MINUTE,
    )
    assert dt_09 < 10 * MINUTE
