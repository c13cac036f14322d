import pytest

from repro.sim.events import EventLog


@pytest.fixture()
def log():
    log = EventLog()
    log.emit(1.0, "health.check_failed", "node-1", check="pcie")
    log.emit(2.0, "health.check_failed", "node-2", check="ib_link")
    log.emit(3.0, "sched.job_start", "job-9", n_gpus=8)
    log.emit(4.0, "health.node_fail_heartbeat", "node-1")
    return log


def test_emit_appends_records(log):
    assert len(log) == 4
    assert log[0].kind == "health.check_failed"


def test_kinds_histogram(log):
    kinds = log.kinds()
    assert kinds["health.check_failed"] == 2
    assert kinds["sched.job_start"] == 1


def test_iteration_preserves_order(log):
    times = [e.time for e in log]
    assert times == sorted(times)
