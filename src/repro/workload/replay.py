"""Trace-driven workload replay.

Turn a saved :class:`~repro.workload.trace.Trace` back into a submission
stream: each logical job's first attempt becomes a
:class:`~repro.workload.spec.JobSpec` with the same size, QoS, submit
time, and realized work.  This supports the classic what-if loop —
"replay last quarter's workload against a cluster with half the failure
rate / a different placement policy" — without access to the original
generator or its seed.

Interruption-driven attempts are folded back into their job's total work;
intent is reconstructed from the final state of the chain.
"""

from typing import Dict, List

from repro.jobtypes import IntendedOutcome, JobAttemptRecord, JobState, MAX_JOB_LIFETIME
from repro.workload.spec import JobSpec
from repro.workload.trace import Trace

#: Final chain states mapped back to the intent that produced them.
_INTENT_BY_FINAL_STATE = {
    JobState.COMPLETED: IntendedOutcome.COMPLETED,
    JobState.CANCELLED: IntendedOutcome.CANCELLED,
    JobState.OUT_OF_MEMORY: IntendedOutcome.OOM,
    JobState.TIMEOUT: IntendedOutcome.TIMEOUT,
    JobState.FAILED: IntendedOutcome.FAILED_USER,
}


def specs_from_trace(trace: Trace) -> List[JobSpec]:
    """Reconstruct submission specs from a trace's attempt records.

    Each job id yields one spec whose ``work_seconds`` is the job's total
    scheduled runtime (its realized demand).  Jobs whose chains ended in an
    infrastructure interruption (NODE_FAIL/REQUEUED/PREEMPTED at the
    horizon) are truncated observations; they are replayed as COMPLETED
    jobs of the observed length.
    """
    by_job: Dict[int, List[JobAttemptRecord]] = {}
    for record in trace.job_records:
        by_job.setdefault(record.job_id, []).append(record)

    specs: List[JobSpec] = []
    for job_id, records in sorted(by_job.items()):
        records.sort(key=lambda r: r.start_time)
        first, last = records[0], records[-1]
        total_work = sum(r.runtime for r in records)
        if total_work <= 0:
            continue
        # A chain cut off by the horizon or infrastructure replays as
        # COMPLETED.
        intent = _INTENT_BY_FINAL_STATE.get(last.state, IntendedOutcome.COMPLETED)
        time_limit = MAX_JOB_LIFETIME
        if intent is IntendedOutcome.TIMEOUT:
            # The observed runtime *is* the limit the user set.
            time_limit = min(MAX_JOB_LIFETIME, max(60.0, last.runtime))
            total_work = max(total_work, time_limit * 1.1)
        specs.append(
            JobSpec(
                job_id=job_id,
                jobrun_id=first.jobrun_id,
                project=first.project,
                n_gpus=first.n_gpus,
                qos=first.qos,
                submit_time=first.enqueue_time,
                work_seconds=min(total_work, MAX_JOB_LIFETIME * 0.95),
                time_limit=time_limit,
                intended_outcome=intent,
                outcome_fraction=1.0,
            )
        )
    specs.sort(key=lambda s: s.submit_time)
    return specs


def replay_trace(
    trace: Trace,
    cluster_spec,
    seed: int = 0,
    **campaign_kwargs,
) -> Trace:
    """Re-run a trace's workload on a (possibly different) cluster.

    Builds a campaign around ``cluster_spec``, replaces its generated
    stream with the replayed specs, and runs for the original span.
    """
    from repro.campaign import Campaign, CampaignConfig
    from repro.sim.timeunits import DAY

    duration_days = trace.span_seconds / DAY
    config = CampaignConfig(
        cluster_spec=cluster_spec,
        duration_days=duration_days,
        seed=seed,
        **campaign_kwargs,
    )
    campaign = Campaign(config)
    for spec in specs_from_trace(trace):
        campaign.scheduler.submit(spec)
    campaign.cluster.start()
    campaign.engine.run_until(
        trace.span_seconds, max_events=config.max_events
    )
    campaign.scheduler.stop()
    return campaign._build_trace(trace.span_seconds)
