import pytest

from repro.analysis.failure_rates import attributed_failure_rates
from repro.core.attribution import FailureAttributor


def test_rates_positive_and_sorted(rsc1_trace):
    result = attributed_failure_rates(rsc1_trace)
    values = list(result.rates.values())
    assert values, "expected attributed failures in the campaign"
    assert all(v > 0 for v in values)
    assert values == sorted(values, reverse=True)


def test_fig4_dominant_components(rsc1_trace):
    result = attributed_failure_rates(rsc1_trace)
    # Paper: IB links / mounts / GPU memory / PCIe dominate on RSC-1.
    top3 = list(result.rates)[:4]
    assert any(
        c in top3 for c in ("ib_link", "filesystem_mount", "gpu_memory", "gpu")
    )


def test_attribution_agrees_with_ground_truth(rsc1_trace):
    """The observable pipeline should recover most simulator-truth failures."""
    attributor = FailureAttributor(rsc1_trace)
    observable = {r.job_id for r in attributor.hw_failure_records()}
    truth = {r.job_id for r in rsc1_trace.hw_failure_records()}
    if truth:
        recall = len(observable & truth) / len(truth)
        assert recall > 0.8


def test_render(rsc1_trace):
    text = attributed_failure_rates(rsc1_trace).render()
    assert "Fig. 4" in text
    assert "per 1M GPU-hours" in text


def test_fig4_rsc1_paper_components(paper_rsc1_trace):
    """Fig. 4a at figure scale (paper: IB links, filesystem mounts, GPU
    memory, PCIe dominate; 43% of PCIe co-occur with XID 79)."""
    result = attributed_failure_rates(paper_rsc1_trace)
    top4 = list(result.rates)[:4]
    assert any(
        c in top4 for c in ("ib_link", "filesystem_mount", "gpu_memory")
    )
    assert result.co_occurrence_pcie_xid79 > 0.2


def test_fig4_rsc2_rates_lower(paper_rsc1_trace, paper_rsc2_trace):
    """Fig. 4b (paper: RSC-2 rates lower overall)."""
    rsc2 = attributed_failure_rates(paper_rsc2_trace)
    rsc1 = attributed_failure_rates(paper_rsc1_trace)
    assert sum(rsc2.rates.values()) < sum(rsc1.rates.values())
