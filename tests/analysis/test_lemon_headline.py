import pytest

from repro.analysis.headline import headline_numbers
from repro.analysis.lemon_analysis import lemon_analysis
from repro.core.lemon import root_cause_table


def test_lemon_analysis_detects_ground_truth(rsc1_trace):
    result = lemon_analysis(rsc1_trace)
    assert result.report.true_lemon_ids, "campaign should seed lemons"
    assert result.report.recall >= 0.5
    # Lemon nodes accumulate clearly elevated signals.
    assert (
        result.lemon_signal_means["tickets"]
        > 3 * result.fleet_signal_means["tickets"]
    )


def test_lemon_cdfs_cover_all_signals(rsc1_trace):
    result = lemon_analysis(rsc1_trace)
    from repro.core.lemon import LEMON_SIGNALS

    assert set(result.signal_cdfs) == set(LEMON_SIGNALS)
    for values, fracs in result.signal_cdfs.values():
        assert fracs[-1] == pytest.approx(1.0)


def test_root_cause_table_fractions(rsc1_trace):
    result = lemon_analysis(rsc1_trace)
    if result.root_causes:
        assert sum(result.root_causes.values()) == pytest.approx(1.0)


def test_lemon_render(rsc1_trace):
    text = lemon_analysis(rsc1_trace).render()
    assert "Fig. 11" in text
    assert "Table II" in text


def test_headline_numbers_in_band(rsc1_trace):
    result = headline_numbers(rsc1_trace)
    assert 0.7 <= result.utilization <= 1.0
    assert result.hw_job_fraction < 0.01
    assert result.small_job_fraction > 0.85
    assert result.small_job_gpu_time_fraction < 0.15
    assert 3.0 < result.rf_per_1000_node_days < 20.0


def test_headline_render(rsc1_trace):
    text = headline_numbers(rsc1_trace).render()
    assert "paper" in text and "measured" in text


def test_rsc2_has_lower_failure_rate(rsc1_trace, rsc2_trace):
    r1 = headline_numbers(rsc1_trace)
    r2 = headline_numbers(rsc2_trace)
    assert r2.rf_per_1000_node_days < r1.rf_per_1000_node_days


def test_fig11_paper_signals(paper_rsc1_trace):
    """Fig. 11 at figure scale (paper: signals are highly sparse
    fleet-wide; excl_jobid_count does NOT separate lemons; detection
    flagged 1.2% of RSC-1 at >85% accuracy)."""
    result = lemon_analysis(paper_rsc1_trace)
    # Lemons separate from the fleet on failure-derived signals.
    for signal in ("tickets", "out_count", "xid_cnt"):
        assert (
            result.lemon_signal_means[signal]
            > 2 * result.fleet_signal_means[signal]
        )
    # Detection quality: high recall, small flagged share.
    assert result.report.recall >= 0.5
    assert result.report.flagged_fraction < 0.10
    # Sparsity: the median node has zero failure events.
    values, fracs = result.signal_cdfs["single_node_node_fails"]
    assert values[int(0.5 * len(values))] == 0.0


def test_headline_rsc1_paper_bands(paper_rsc1_trace):
    result = headline_numbers(paper_rsc1_trace)
    assert 0.75 <= result.utilization <= 1.0  # paper: 83%
    assert result.hw_job_fraction < 0.01  # paper: <1% of jobs
    assert result.hw_gpu_time_fraction > 0.03  # runtime impact much larger
    assert result.small_job_fraction > 0.88  # paper: >90%
    assert result.small_job_gpu_time_fraction < 0.12  # paper: <10%
    assert 4.0 < result.rf_per_1000_node_days < 15.0  # paper: 6.50


def test_headline_rsc2_paper_bands(paper_rsc1_trace, paper_rsc2_trace):
    result = headline_numbers(paper_rsc2_trace)
    rsc1 = headline_numbers(paper_rsc1_trace)
    assert result.rf_per_1000_node_days < rsc1.rf_per_1000_node_days
    assert 1.0 < result.rf_per_1000_node_days < 7.0  # paper: 2.34
    assert result.small_job_fraction > 0.90


def test_table2_root_causes_gpu_domain_leads(paper_rsc1_trace, paper_rsc2_trace):
    """Table II over both clusters' lemons (paper: GPU 28.2%, DIMM
    20.5%, PCIe 15.4%, EUD 10.3%, NIC/BIOS 7.7%, PSU 5.1%, CPU/Optics
    2.6%)."""
    nodes = paper_rsc1_trace.node_records + paper_rsc2_trace.node_records
    causes = root_cause_table(nodes)
    assert abs(sum(causes.values()) - 1.0) < 1e-9
    # GPU-domain causes lead the table, as in the paper.
    assert next(iter(causes)) in ("gpu", "host_memory", "pcie")
