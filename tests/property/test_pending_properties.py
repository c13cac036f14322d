"""The pending queue against a full sort of its jobs.

``PendingQueue`` keeps jobs in ``(qos, n_gpus)`` buckets sorted by
``(enqueue_time, job_id)`` and merges the bucket heads lazily.  The
reference is ``PriorityPolicy.sort_pending`` over the same jobs: every
pass must yield exactly that order.  Enqueue times are drawn to make
equal keys from distinct times: ties, ``math.nextafter`` neighbours,
times far from the clock (where ``now - t`` rounds), ages at and past
``age_norm``, and times in the future.  The clock mostly moves forward
but may step back.  Jobs are removed and re-added with new times, as a
requeue does.

A pass may park the bucket of the job it just yielded and later wake
every parked bucket; the reference walks the full sort and drops the
jobs of a parked bucket until the next wake.  Jobs started in a pass
leave the queue when it ends, and jobs added during it join then.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler.job import Job
from repro.scheduler.pending import PendingQueue
from repro.scheduler.priority import PriorityPolicy
from repro.sim.timeunits import DAY
from repro.workload.spec import JobSpec, QosTier

NOW = 10 * DAY

weights = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
policies = st.one_of(
    st.just(PriorityPolicy()),
    st.just(PriorityPolicy(qos_weight=10.0)),
    st.builds(
        PriorityPolicy,
        qos_weight=weights,
        age_weight=weights,
        size_weight=weights,
        age_norm=st.floats(min_value=1e-3, max_value=30 * DAY),
    ),
)


def neighbours(t, steps):
    """``t`` moved ``steps`` floats up (or down, when negative)."""
    direction = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        t = math.nextafter(t, direction)
    return t


@st.composite
def enqueue_times(draw, policy):
    base = draw(
        st.sampled_from(
            [
                NOW,  # enqueued right now
                NOW - 60.0,
                NOW - policy.age_norm,  # exactly saturating
                NOW - 3 * policy.age_norm,  # saturated
                1.0,  # far from the clock: now - t rounds
                NOW * 0.3,
                NOW + 60.0,  # in the future
            ]
        )
    )
    return neighbours(base, draw(st.integers(-3, 3)))


def make_job(job_id, n_gpus, qos, enqueue_time):
    job = Job(
        JobSpec(
            job_id=job_id,
            jobrun_id=job_id,
            project="p",
            n_gpus=n_gpus,
            qos=qos,
            submit_time=0.0,
            work_seconds=60.0,
        )
    )
    job.enqueue_time = enqueue_time
    return job


@st.composite
def scenarios(draw):
    """A policy, and steps over a queue: adds, removals, re-adds and passes."""
    policy = draw(policies)
    times = enqueue_times(policy)
    steps = []
    n_jobs = 0
    for _ in range(draw(st.integers(1, 40))):
        op = draw(st.sampled_from(["add", "add", "add", "remove", "readd", "pass"]))
        if op == "add":
            n_jobs += 1
            steps.append(
                (
                    "add",
                    n_jobs,
                    draw(st.sampled_from([1, 8, 16, 64])),
                    draw(st.sampled_from(list(QosTier))),
                    draw(times),
                )
            )
        elif op in ("remove", "readd"):
            steps.append((op, draw(st.integers(0, 1_000)), draw(times)))
        else:
            # A step forward, or a jump to any clock, which may be back.
            jump = draw(
                st.one_of(
                    st.none(),
                    st.just(NOW),
                    st.sampled_from([60.0, 2 * DAY, policy.age_norm]),
                    st.floats(min_value=0.0, max_value=3 * DAY),
                )
            )
            decisions = st.sampled_from(["-", "-", "park", "wake", "start"])
            steps.append(
                (
                    "pass",
                    jump,
                    draw(st.lists(decisions)),
                    draw(st.lists(st.sampled_from([1, 8, 16]), max_size=3)),
                )
            )
    return policy, steps


def reference_walk(order, decisions):
    """The full sort with parked buckets dropped until the next wake."""
    parked = set()
    out = []
    for job in order:
        bucket = (job.qos, job.n_gpus)
        if bucket in parked:
            continue
        decision = decisions[len(out)] if len(out) < len(decisions) else "-"
        out.append(job)
        if decision == "park":
            parked.add(bucket)
        elif decision == "wake":
            parked.clear()
    return out


@given(scenarios())
@settings(deadline=None, max_examples=400)
def test_queue_passes_match_a_full_sort(case):
    policy, steps = case
    queue = PendingQueue(policy)
    pending = {}  # job id -> job: the model
    clock = NOW
    next_id = 10_000
    for step in steps:
        if step[0] == "add":
            _op, job_id, n_gpus, qos, enqueue_time = step
            job = make_job(job_id, n_gpus, qos, enqueue_time)
            queue.add(job)
            pending[job_id] = job
        elif step[0] in ("remove", "readd"):
            op, pick, enqueue_time = step
            if not pending:
                continue
            job = pending.pop(sorted(pending)[pick % len(pending)])
            queue.remove(job)
            if op == "readd":
                job.enqueue_time = enqueue_time
                queue.add(job)
                pending[job.job_id] = job
        else:
            _op, jump, decisions, arrivals = step
            clock = clock + 30.0 if jump is None else jump
            want = policy.sort_pending(pending.values(), clock)
            assert queue.ordered(clock) == want
            assert len(queue) == len(pending)
            # A pass that parks, wakes, starts jobs and takes arrivals.
            merge = queue.begin_pass(clock)
            seen, started, arrived = [], [], []
            for job in merge:
                decision = decisions[len(seen)] if len(seen) < len(decisions) else "-"
                seen.append(job)
                if decision == "park":
                    merge.park()
                elif decision == "wake":
                    merge.wake()
                elif decision == "start":
                    started.append(job)
                    if len(arrived) < len(arrivals):
                        # As a preemption victim is requeued mid-pass.
                        next_id += 1
                        late = make_job(
                            next_id, arrivals[len(arrived)], QosTier.HIGH, clock
                        )
                        queue.add(late)
                        arrived.append(late)
            assert seen == reference_walk(want, decisions)
            queue.end_pass(started)
            for job in started:
                del pending[job.job_id]
            for job in arrived:
                pending[job.job_id] = job
            assert sorted(j.job_id for j in queue) == sorted(pending)
            assert len(queue) == len(pending)
    assert queue.ordered(clock) == policy.sort_pending(pending.values(), clock)


def test_rounded_ties_are_ordered_by_job_id():
    """Distinct enqueue times that give one key order by job id."""
    # The key is -age / 2**40: exact near the enqueue times, rounded
    # far from them, and never saturated.
    policy = PriorityPolicy(
        qos_weight=0.0, age_weight=1.0, size_weight=0.0, age_norm=2.0**40
    )
    queue = PendingQueue(policy)
    for job_id, steps in zip((7, 3, 9, 1), range(4)):
        queue.add(make_job(job_id, 8, QosTier.NORMAL, neighbours(1.0, steps)))
    assert len({policy.priority(job, 1.5) for job in queue}) == 4
    assert [j.job_id for j in queue.ordered(1.5)] == [7, 3, 9, 1]
    assert len({policy.priority(job, 1e9) for job in queue}) == 1
    assert [j.job_id for j in queue.ordered(1e9)] == [1, 3, 7, 9]


def test_saturated_jobs_are_ordered_by_job_id():
    policy = PriorityPolicy()
    queue = PendingQueue(policy)
    for job_id, age in ((4, 3.0), (2, 5.0), (8, 2.5), (6, 0.5)):
        queue.add(make_job(job_id, 8, QosTier.NORMAL, NOW - age * policy.age_norm))
    assert [j.job_id for j in queue.ordered(NOW)] == [2, 4, 8, 6]
    # Later every age is saturated.
    assert [j.job_id for j in queue.ordered(NOW + 2 * policy.age_norm)] == [
        2, 4, 6, 8
    ]


def test_a_job_added_during_a_pass_joins_after_it():
    queue = PendingQueue(PriorityPolicy())
    first = make_job(1, 8, QosTier.NORMAL, 0.0)
    queue.add(first)
    merge = queue.begin_pass(10.0)
    late = make_job(2, 8, QosTier.HIGH, 10.0)
    assert list(merge) == [first]
    queue.add(late)
    assert len(queue) == 2
    queue.end_pass([first])
    assert queue.ordered(10.0) == [late]
