import threading
import time
from collections import Counter

from loadgen import READ_PATHS, Request, build_schedule, run_open_loop


class SlowSender:
    """Answers every request after a fixed service time."""

    def __init__(self, service_s):
        self.service_s = service_s
        self.sent = []
        self.lock = threading.Lock()

    def send(self, request):
        with self.lock:
            self.sent.append(request)
        time.sleep(self.service_s)
        return 200, b"ok"

    def close(self):
        pass


def test_latency_counts_from_due_time_and_lateness_is_reported():
    # One connection, a request due every 10 ms, 30 ms to answer each:
    # the server falls behind, so later requests leave late and their
    # latency includes the wait.
    schedule = [Request(i * 0.01, "GET", "/v1/health") for i in range(12)]
    sender = SlowSender(0.03)
    _, outcomes = run_open_loop(schedule, 1, lambda: sender)
    assert len(outcomes) == len(schedule)
    assert outcomes[0].late < 0.02
    assert outcomes[-1].late > 0.15
    for outcome in outcomes:
        assert outcome.latency >= outcome.late + 0.03 - 1e-3
        assert outcome.status == 200
    lates = [o.late for o in outcomes]
    assert lates == sorted(lates)


def test_on_time_requests_are_not_late():
    schedule = [Request(i * 0.02, "GET", "/v1/mttf") for i in range(5)]
    _, outcomes = run_open_loop(schedule, 2, lambda: SlowSender(0.001))
    assert max(o.late for o in outcomes) < 0.015
    assert max(o.latency for o in outcomes) < 0.02


def test_schedule_is_seeded_evenly_spaced_and_exactly_mixed():
    a = build_schedule(7, 10.0, 50.0)
    assert a == build_schedule(7, 10.0, 50.0)
    assert a != build_schedule(8, 10.0, 50.0)
    assert len(a) == 500
    gaps = {round(b.due - c.due, 9) for b, c in zip(a[1:], a)}
    assert gaps == {0.02}
    kinds = Counter(r.kind for r in a)
    assert kinds == {"read": 400, "whatif": 100}
    paths = Counter(r.path for r in a if r.kind == "read")
    assert paths == {path: 80 for path in READ_PATHS}
    payloads = Counter(r.payload for r in a if r.kind == "whatif")
    assert max(payloads.values()) > 1  # repeats, so the response cache hits
