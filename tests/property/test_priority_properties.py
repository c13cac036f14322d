"""Priority keys built per pass equal the per-job multifactor formula.

``PriorityPolicy.sort_pending`` computes the QoS and size terms once per
``(qos, n_gpus)`` and the age term inline.  The reference below is the
per-job ``priority`` method as it was before, kept verbatim.  Every
priority must be bit-identical (``==``) to it, and ``sort_pending`` must
equal ``sorted`` by ``(-reference_priority, job_id)`` — across zero ages,
enqueue times in the future, ages of exactly ``age_norm``, saturated
ages, equal-priority ties broken by job id, and non-default weights.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler.job import Job
from repro.scheduler.priority import PriorityPolicy
from repro.sim.timeunits import DAY
from repro.workload.spec import JobSpec, QosTier


def reference_priority(policy: PriorityPolicy, job: Job, now: float) -> float:
    """Compute the job's current priority (higher schedules first)."""
    age = max(0.0, now - job.enqueue_time)
    age_factor = min(age / policy.age_norm, 1.0)
    size_factor = math.log2(job.n_gpus) / 12.0  # 4096 GPUs -> 1.0
    return (
        policy.qos_weight * int(job.qos)
        + policy.age_weight * age_factor
        + policy.size_weight * size_factor
    )


SIZES = [1, 2, 4, 8, 16, 64, 512, 4096]
NOW = 10 * DAY

weights = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
policies = st.one_of(
    st.just(PriorityPolicy()),
    st.builds(
        PriorityPolicy,
        qos_weight=weights,
        age_weight=weights,
        size_weight=weights,
        age_norm=st.floats(min_value=1e-3, max_value=30 * DAY),
    ),
)


@st.composite
def queues(draw):
    """Pending jobs with ages drawn at and around the formula's corners."""
    policy = draw(policies)
    n = draw(st.integers(min_value=0, max_value=30))
    ages = st.one_of(
        st.just(0.0),  # enqueued right now
        st.just(policy.age_norm),  # exactly saturating
        st.just(10 * policy.age_norm),  # saturated
        st.floats(min_value=-DAY, max_value=-1e-9),  # enqueue time in the future
        st.floats(min_value=0.0, max_value=3 * policy.age_norm),
    )
    jobs = []
    for job_id in draw(st.permutations(range(1, n + 1))):
        spec = JobSpec(
            job_id=job_id,
            jobrun_id=job_id,
            project="p",
            n_gpus=draw(st.sampled_from(SIZES)),
            qos=draw(st.sampled_from(list(QosTier))),
            submit_time=0.0,
            work_seconds=3600.0,
        )
        job = Job(spec)
        job.enqueue_time = NOW - draw(ages)
        jobs.append(job)
    return policy, jobs


@given(queues())
@settings(deadline=None, max_examples=300)
def test_sort_pending_matches_reference_order(case):
    policy, jobs = case
    for job in jobs:
        assert policy.priority(job, NOW) == reference_priority(policy, job, NOW)
    want = sorted(jobs, key=lambda j: (-reference_priority(policy, j, NOW), j.job_id))
    assert policy.sort_pending(jobs, NOW) == want
    assert policy.sort_pending(iter(jobs), NOW) == want


def test_equal_priorities_break_ties_by_job_id():
    """Same QoS, size and a saturated age: only the job id orders them."""
    policy = PriorityPolicy()
    jobs = []
    for job_id in (5, 2, 9, 1):
        job = Job(
            JobSpec(
                job_id=job_id,
                jobrun_id=job_id,
                project="p",
                n_gpus=8,
                qos=QosTier.NORMAL,
                submit_time=0.0,
                work_seconds=60.0,
            )
        )
        job.enqueue_time = NOW - (3 + job_id) * policy.age_norm
        jobs.append(job)
    assert len({policy.priority(j, NOW) for j in jobs}) == 1
    assert [j.job_id for j in policy.sort_pending(jobs, NOW)] == [1, 2, 5, 9]
