import numpy as np
import pytest

from repro.jobtypes import IntendedOutcome
from repro.sim.rng import RngStreams
from repro.sim.timeunits import DAY
from repro.workload.generator import LONG_RUN_MIN_GPUS, WorkloadGenerator
from repro.workload.profiles import rsc1_profile


def make_generator(cluster_gpus=512, **kwargs):
    return WorkloadGenerator(
        rsc1_profile(), RngStreams(0), cluster_gpus=cluster_gpus, **kwargs
    )


def test_offered_load_matches_target():
    gen = make_generator(target_utilization=0.9)
    specs = gen.generate(0.0, 60 * DAY)
    offered = sum(s.n_gpus * s.effective_work for s in specs)
    capacity = 512 * 60 * DAY
    assert offered / capacity == pytest.approx(0.9, rel=0.12)


def test_job_ids_unique_and_increasing():
    gen = make_generator()
    specs = gen.generate(0.0, 5 * DAY)
    ids = [s.job_id for s in specs]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_sizes_respect_cluster_cap():
    gen = make_generator(cluster_gpus=128)
    specs = gen.generate(0.0, 30 * DAY)
    assert max(s.n_gpus for s in specs) <= 64


def test_submit_times_ordered_within_span():
    gen = make_generator()
    specs = gen.generate(10 * DAY, 20 * DAY)
    times = [s.submit_time for s in specs]
    assert times == sorted(times)
    assert all(10 * DAY <= t < 20 * DAY for t in times)


def test_timeout_jobs_have_limits_below_work():
    gen = make_generator()
    specs = gen.generate(0.0, 120 * DAY)
    timeouts = [s for s in specs if s.intended_outcome is IntendedOutcome.TIMEOUT]
    assert timeouts, "timeouts should occur at ~0.75% of jobs over 120 days"
    for s in timeouts:
        assert s.time_limit < s.work_seconds


def test_outcome_mix_roughly_matches_profile():
    gen = make_generator()
    specs = gen.generate(0.0, 60 * DAY)
    frac_completed = sum(
        1 for s in specs if s.intended_outcome is IntendedOutcome.COMPLETED
    ) / len(specs)
    assert frac_completed == pytest.approx(0.688, abs=0.05)


def test_generation_is_reproducible():
    a = make_generator().generate(0.0, 5 * DAY)
    b = make_generator().generate(0.0, 5 * DAY)
    assert [s.job_id for s in a] == [s.job_id for s in b]
    assert [s.n_gpus for s in a] == [s.n_gpus for s in b]
    assert [s.submit_time for s in a] == [s.submit_time for s in b]


def test_invalid_args_rejected():
    with pytest.raises(ValueError):
        make_generator(target_utilization=0.0)
    with pytest.raises(ValueError):
        make_generator(target_utilization=2.0)
    with pytest.raises(ValueError):
        WorkloadGenerator(rsc1_profile(), RngStreams(0), cluster_gpus=4)


def test_long_runs_chain_segments_under_one_jobrun():
    gen = make_generator(cluster_gpus=4096)
    specs = gen.generate(0.0, 60 * DAY)
    assert gen.continuations, "large completed jobs should spawn chains"
    stream_ids = {s.job_id for s in specs}
    for predecessor_id, segment in gen.continuations.items():
        # Continuations are not in the arrival stream...
        assert segment.job_id not in stream_ids
        # ...share their run id with the chain head, and are large jobs.
        assert segment.n_gpus >= LONG_RUN_MIN_GPUS
        assert segment.intended_outcome is IntendedOutcome.COMPLETED


def test_long_run_chain_ids_resolve_to_stream_heads():
    gen = make_generator(cluster_gpus=4096)
    specs = gen.generate(0.0, 60 * DAY)
    by_id = {s.job_id: s for s in specs}
    for segment in gen.continuations.values():
        head = by_id.get(segment.jobrun_id)
        if head is not None:  # head is in the stream (not itself a segment)
            assert head.n_gpus == segment.n_gpus
            assert head.jobrun_id == segment.jobrun_id
