"""Open-loop request client for the ``serve-mixed`` workload.

Requests follow a fixed schedule of due times at a constant offered
rate, whatever the server's speed: an open loop, as independent users
produce.  At most ``connections`` keep-alive connections to the local
benchmark server carry the requests; a request whose connection is
still busy at its due time is sent late.  Latency is timed from the due
time, so a stall is charged to every request it delays, and ``late``
records how far behind schedule each request left.

Runs as a child process of the benchmark (``python3 loadgen.py ...``)
so the client does not share an interpreter lock with the server.
Standard library only.
"""

import argparse
import hashlib
import http.client
import json
import random
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

WHATIF_PATH = "/v1/whatif/checkpoint-cadence"

#: Read endpoints, polled evenly as a dashboard refreshes each of its
#: panels at one cadence.  The serving smoke test
#: (``benchmarks/bench_serve.py``) cycles its reads the same way; this
#: list adds ``/v1/lemons``, the one read endpoint it leaves out.
READ_PATHS = ("/v1/health", "/v1/ettr", "/v1/mttf", "/v1/lemons", "/metrics")

#: One request in five is a what-if, as in the serving smoke test.
WHATIF_EVERY = 5

#: Distinct what-if payloads, drawn uniformly: more than the service's
#: 256-entry response cache, and few enough that a run repeats some,
#: so both hits and misses occur.
N_PAYLOADS = 384

#: Seconds between starting the client threads and the first due time.
LEAD_S = 0.05


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the schedule starts
    method: str
    path: str
    body: Optional[bytes] = None
    payload: int = -1  # index into the what-if payload set, -1 for reads

    @property
    def kind(self) -> str:
        return "whatif" if self.payload >= 0 else "read"


@dataclass
class Outcome:
    kind: str
    path: str
    payload: int
    status: int
    due: float  # seconds after the schedule starts
    late: float  # seconds the send started after its due time
    latency: float  # seconds from due time to the last response byte
    body_sha: str


def whatif_payloads(seed: int, count: int = N_PAYLOADS) -> List[bytes]:
    """``count`` distinct analytic what-if bodies drawn from ``seed``."""
    rng = random.Random(seed)
    seen = set()
    payloads = []
    while len(payloads) < count:
        body = json.dumps(
            {
                "n_gpus": rng.choice((4096, 8192, 16384, 32768, 65536, 100000)),
                "failure_rates_per_1k": [round(rng.uniform(1.0, 10.0), 2)],
                "targets": [0.5, 0.9],
            },
            sort_keys=True,
        ).encode()
        if body not in seen:
            seen.add(body)
            payloads.append(body)
    return payloads


def build_schedule(seed: int, seconds: float, rps: float) -> List[Request]:
    """Evenly spaced requests; kinds, endpoints and payloads from ``seed``.

    The mix is exact (one request in five a what-if, reads split evenly
    over ``READ_PATHS``, then shuffled), so every seed offers the same
    work in a different order.
    """
    rng = random.Random(seed)
    total = round(rps * seconds)
    n_whatif = total // WHATIF_EVERY
    n_read = total - n_whatif
    paths = [READ_PATHS[i % len(READ_PATHS)] for i in range(n_read)]
    rng.shuffle(paths)
    payloads = whatif_payloads(seed)
    picks = [rng.randrange(len(payloads)) for _ in range(n_whatif)]
    kinds = ["read"] * n_read + ["whatif"] * n_whatif
    rng.shuffle(kinds)
    interval = seconds / max(1, len(kinds))
    schedule = []
    reads, whatifs = iter(paths), iter(picks)
    for i, kind in enumerate(kinds):
        if kind == "read":
            schedule.append(Request(i * interval, "GET", next(reads)))
        else:
            index = next(whatifs)
            schedule.append(
                Request(i * interval, "POST", WHATIF_PATH, payloads[index], index)
            )
    return schedule


def run_open_loop(
    schedule: Sequence[Request],
    connections: int,
    make_sender: Callable[[], object],
) -> Tuple[float, List[Outcome]]:
    """Issue ``schedule`` over ``connections`` senders.

    A sender has ``send(request) -> (status, body)`` and ``close()``.
    Returns the ``time.perf_counter`` reading at which the schedule
    started (``LEAD_S`` after the call) and one outcome per request, in
    schedule order.
    """
    clock = time.perf_counter
    start = clock() + LEAD_S
    outcomes: List[Optional[Outcome]] = [None] * len(schedule)
    cursor = [0]
    lock = threading.Lock()
    errors: List[Exception] = []

    def worker() -> None:
        sender = make_sender()
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(schedule):
                    return
                request = schedule[i]
                due = start + request.due
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                sent = clock()
                status, body = sender.send(request)
                done = clock()
                outcomes[i] = Outcome(
                    kind=request.kind,
                    path=request.path,
                    payload=request.payload,
                    status=status,
                    due=request.due,
                    late=max(0.0, sent - due),
                    latency=done - due,
                    body_sha=hashlib.sha256(body).hexdigest(),
                )
        except Exception as err:  # re-raised after the join below
            errors.append(err)
        finally:
            sender.close()

    threads = [
        threading.Thread(target=worker, name=f"client-{i}", daemon=True)
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return start, [o for o in outcomes if o is not None]


class HttpSender:
    """One keep-alive connection to the benchmark's local server."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def send(self, request: Request) -> Tuple[int, bytes]:
        """Status and body; status 0 when the connection failed."""
        try:
            self.conn.request(request.method, request.path, body=request.body)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60
            )
            return 0, b""

    def close(self) -> None:
        self.conn.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rps", type=float, required=True)
    parser.add_argument("--connections", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    schedule = build_schedule(args.seed, args.seconds, args.rps)
    started, outcomes = run_open_loop(
        schedule, args.connections, lambda: HttpSender(args.port)
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {"started": started, "outcomes": [o.__dict__ for o in outcomes]},
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
