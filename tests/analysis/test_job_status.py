import pytest

from repro.analysis.job_status import job_status_breakdown
from repro.jobtypes import JobState
from repro.workload.trace import Trace


def test_fractions_sum_to_one(rsc1_trace):
    result = job_status_breakdown(rsc1_trace)
    assert sum(result.job_fraction.values()) == pytest.approx(1.0)
    assert sum(result.gpu_time_fraction.values()) == pytest.approx(1.0)


def test_fig3_shape_completed_dominates(rsc1_trace):
    result = job_status_breakdown(rsc1_trace)
    # Paper: ~60% completed, ~24% failed, small everything else.
    assert 0.5 <= result.job_fraction[JobState.COMPLETED] <= 0.8
    assert 0.15 <= result.job_fraction[JobState.FAILED] <= 0.35
    assert result.job_fraction.get(JobState.NODE_FAIL, 0.0) < 0.01
    assert result.job_fraction.get(JobState.OUT_OF_MEMORY, 0.0) < 0.01


def test_observation4_hw_failures_rare_but_runtime_heavy(rsc1_trace):
    result = job_status_breakdown(rsc1_trace)
    # <1% of jobs, but an order of magnitude more of the GPU runtime.
    assert result.hw_job_fraction < 0.01
    assert result.hw_gpu_time_fraction > 3 * result.hw_job_fraction


def test_render_contains_all_states(rsc1_trace):
    text = job_status_breakdown(rsc1_trace).render()
    assert "COMPLETED" in text and "(HW)" in text


def test_empty_trace_rejected():
    trace = Trace(cluster_name="x", n_nodes=1, n_gpus=8, start=0.0, end=1.0)
    with pytest.raises(ValueError):
        job_status_breakdown(trace)


def test_fig3_paper_ordering(paper_rsc1_trace):
    """Fig. 3 at figure scale (paper: COMPLETED 60%, FAILED 24%,
    PREEMPTED 10%, REQUEUED 2%, TIMEOUT 0.6%, OOM 0.1%, NODE_FAIL 0.1%;
    HW: 0.2% of jobs, 18.7% of runtime)."""
    result = job_status_breakdown(paper_rsc1_trace)
    jf = result.job_fraction
    assert jf[JobState.COMPLETED] > jf[JobState.FAILED] > jf.get(
        JobState.CANCELLED, 0.0
    )
    assert jf.get(JobState.NODE_FAIL, 0.0) < 0.01
    assert result.hw_job_fraction < 0.01
    assert result.hw_gpu_time_fraction > 5 * result.hw_job_fraction
