"""``ETTRForecaster.comparison`` never answers from stale memoized rows.

The forecaster keeps the rf-independent part of Fig. 9's rows until the
next ``observe_job``, keyed by every attribute those rows read.  Under
Hypothesis, a sequence interleaves observed attempts, ``comparison``
calls at varying ``rf`` and mutation of each keyed attribute; every
``comparison`` must equal the answer of a fresh forecaster restored from
``state_dict()``, which has never memoized anything.  Mutating a returned
row must not reach the next answer, and the memo must leave no trace in
``state_dict()`` or ``LiveAnalytics.snapshot()``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.live import LiveAnalytics, LiveConfig, replay_trace
from repro.core.estimators import ETTRForecaster
from repro.sim.timeunits import HOUR, MINUTE

#: Values each keyed attribute is mutated to.
KEYED_VALUES = {
    "checkpoint_interval": (30 * MINUTE, HOUR, 3 * HOUR),
    "restart_overhead": (0.0, 5 * MINUTE, 20 * MINUTE),
    "min_total_runtime": (0.0, 6 * HOUR, 24 * HOUR),
    "qos": (None, int(QosTier.LOW), int(QosTier.HIGH)),
    "min_runs_per_bucket": (1, 2, 3),
}


@st.composite
def attempts(draw):
    start = draw(st.floats(min_value=0.0, max_value=400 * HOUR))
    runtime = draw(st.floats(min_value=0.0, max_value=40 * HOUR))
    queue_wait = draw(st.floats(min_value=0.0, max_value=6 * HOUR))
    n_gpus = draw(st.sampled_from((8, 16, 64, 128, 256, 1024)))
    return JobAttemptRecord(
        job_id=draw(st.integers(0, 10**6)),
        attempt=draw(st.integers(0, 3)),
        jobrun_id=draw(st.integers(0, 7)),
        project="p",
        qos=draw(st.sampled_from(list(QosTier))),
        n_gpus=n_gpus,
        n_nodes=max(1, n_gpus // 8),
        enqueue_time=start - queue_wait,
        start_time=start,
        end_time=start + runtime,
        state=draw(st.sampled_from((JobState.COMPLETED, JobState.NODE_FAIL))),
        node_ids=(0,),
    )


actions = st.one_of(
    st.tuples(st.just("observe"), attempts()),
    st.tuples(st.just("read"), st.none()),
    st.sampled_from(sorted(KEYED_VALUES)).flatmap(
        lambda name: st.tuples(
            st.just("mutate"),
            st.tuples(st.just(name), st.sampled_from(KEYED_VALUES[name])),
        )
    ),
)
steps = st.lists(
    st.tuples(actions, st.floats(min_value=0.0, max_value=0.05)), max_size=40
)


def state_bytes(est: ETTRForecaster) -> bytes:
    return json.dumps(est.state_dict(), sort_keys=True).encode()


def fresh_comparison(est: ETTRForecaster, rf: float):
    return ETTRForecaster.from_state(est.state_dict()).comparison(rf)


@given(steps=steps)
@settings(max_examples=200, deadline=None)
def test_comparison_equals_a_fresh_forecaster(steps):
    est = ETTRForecaster(min_total_runtime=0.0, qos=None, min_runs_per_bucket=1)
    for (kind, arg), rf in steps:
        if kind == "observe":
            est.observe_job(arg)
        elif kind == "mutate":
            setattr(est, *arg)
        # Every step ends with a read, so each observe and each mutation
        # meets a warm memo.
        before = state_bytes(est)
        rows = est.comparison(rf)
        assert rows == fresh_comparison(est, rf)
        assert state_bytes(est) == before
        for row in rows:
            row["measured_mean"] = -1.0
            row["gpus"] = 0
        rows.clear()
        assert est.comparison(rf) == fresh_comparison(est, rf)


def test_snapshot_is_the_same_with_a_warm_memo(rsc1_trace):
    def replayed():
        analytics = LiveAnalytics(LiveConfig.for_trace(rsc1_trace))
        replay_trace(rsc1_trace, analytics)
        return analytics

    cold = json.dumps(replayed().snapshot(), sort_keys=True)
    warm = replayed()
    rf = warm.mttf.failure_rate()
    assert warm.ettr.comparison(rf)
    assert json.dumps(warm.snapshot(), sort_keys=True) == cold
