"""Outside-in probes: time calls into repro's public objects.

Nothing here edits ``src/``.  A probe replaces a bound method on one
instance (or a module attribute, for the duration of a ``with`` block)
by a wrapper that times the original and delegates to it unchanged, so
the simulated trace is the same with or without probes; the benchmark
checks that by digest on every traced run.
"""

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict

perf = time.perf_counter

#: Engine callback group (the label prefix before ``:``) -> metric stem.
GROUP_METRICS = {
    "sched-pass": "scheduler.pass",
    "sched-tick": "scheduler.tick",
    "end": "scheduler.end",
    "timeout": "scheduler.timeout",
    "submit": "scheduler.submit",
    "preflight": "scheduler.preflight",
    "failure": "cluster.failure",
    "hazard-regime-boundary": "cluster.hazard_boundary",
    "repair": "cluster.repair",
    "drain-repair": "cluster.drain_repair",
    "health-false-positive": "cluster.health_fp",
    "lemon-sweep": "campaign.lemon_sweep",
}


class Timer:
    """Accumulated wall seconds and call count of one probed call site."""

    __slots__ = ("seconds", "calls")

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def add(self, elapsed: float) -> None:
        self.seconds += elapsed
        self.calls += 1


class Ledger:
    """Named timers collected by one traced run."""

    def __init__(self):
        self.timers: Dict[str, Timer] = defaultdict(Timer)

    def timed(self, name: str, fn):
        """``fn`` wrapped so every call adds its wall time to ``name``."""
        timer = self.timers[name]

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                timer.add(perf() - start)

        return wrapper

    def seconds(self, name: str) -> float:
        timer = self.timers.get(name)
        return timer.seconds if timer is not None else 0.0

    def calls(self, name: str) -> int:
        timer = self.timers.get(name)
        return timer.calls if timer is not None else 0


@contextmanager
def patched(owner, name: str, value):
    """Set ``owner.name = value`` for the block, then restore it."""
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield original
    finally:
        setattr(owner, name, original)


class CampaignProbe:
    """Phase and per-event-group timing of :class:`repro.Campaign` runs.

    ``attach`` wraps, on one campaign instance, ``generator.generate``,
    ``scheduler.submit``, ``cluster.start``, ``engine.run_until``,
    ``scheduler.stop`` and ``engine.schedule_at``.  Every engine callback
    is scheduled through ``schedule_at``, so wrapping it times each
    callback under its label group.  The one exception is the first
    ``sched-tick``, armed inside ``Campaign(...)`` before a probe can
    attach; its time lands in ``sim.dispatch_s``.
    """

    def __init__(self):
        self.ledger = Ledger()
        self.groups: Dict[str, Timer] = defaultdict(Timer)
        self.useful_passes = 0
        self.events = 0
        self._in_run_until = False

    def attach(self, campaign) -> None:
        ledger = self.ledger
        engine = campaign.engine
        scheduler = campaign.scheduler
        groups = self.groups
        schedule_at = engine.schedule_at

        def timed_schedule_at(at, callback, label=""):
            group = label.partition(":")[0] or "unlabeled"
            timer = groups[group]
            if group == "sched-pass":

                def timed():
                    running = len(scheduler.running)
                    records = len(scheduler.records)
                    start = perf()
                    try:
                        callback()
                    finally:
                        timer.add(perf() - start)
                        # Within a pass, running grows by starts minus
                        # preempted victims, and each victim closes one
                        # attempt record.
                        started = (
                            len(scheduler.running) - running
                            + len(scheduler.records) - records
                        )
                        if started > 0:
                            self.useful_passes += 1

            else:

                def timed():
                    start = perf()
                    try:
                        callback()
                    finally:
                        timer.add(perf() - start)

            return schedule_at(at, timed, label)

        engine.schedule_at = timed_schedule_at

        generate = campaign.generator.generate
        generate_timer = ledger.timers["workload.generate"]

        def timed_generate(*args, **kwargs):
            specs = iter(generate(*args, **kwargs))
            while True:
                start = perf()
                try:
                    spec = next(specs)
                except StopIteration:
                    generate_timer.add(perf() - start)
                    return
                generate_timer.add(perf() - start)
                yield spec

        campaign.generator.generate = timed_generate

        submit = scheduler.submit
        handover_timer = ledger.timers["scheduler.handover"]

        def timed_submit(spec):
            if self._in_run_until:
                # Continuations submitted from inside an ``end`` callback
                # are already in that callback's time.
                return submit(spec)
            start = perf()
            try:
                return submit(spec)
            finally:
                handover_timer.add(perf() - start)

        scheduler.submit = timed_submit

        run_until = ledger.timed("sim.run_until", engine.run_until)

        def timed_run_until(*args, **kwargs):
            executed = engine.executed_events
            self._in_run_until = True
            try:
                return run_until(*args, **kwargs)
            finally:
                self._in_run_until = False
                self.events += engine.executed_events - executed

        engine.run_until = timed_run_until
        campaign.cluster.start = ledger.timed(
            "cluster.start", campaign.cluster.start
        )
        scheduler.stop = ledger.timed("scheduler.stop", scheduler.stop)

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics, summed over every attached campaign."""
        ledger = self.ledger
        out: Dict[str, float] = {}
        callbacks_s = 0.0
        other = Timer()
        for group, timer in self.groups.items():
            callbacks_s += timer.seconds
            if group not in GROUP_METRICS:
                other.seconds += timer.seconds
                other.calls += timer.calls
        for group, name in GROUP_METRICS.items():
            timer = self.groups.get(group, Timer())
            out[f"{name}_s"] = timer.seconds
            out[f"{name}_n"] = timer.calls
        passes = self.groups.get("sched-pass", Timer())
        out["scheduler.pass_us"] = (
            passes.seconds / passes.calls * 1e6 if passes.calls else 0.0
        )
        out["scheduler.pass_useful_ratio"] = (
            self.useful_passes / passes.calls if passes.calls else 0.0
        )
        out["scheduler.handover_s"] = ledger.seconds("scheduler.handover")
        out["scheduler.stop_s"] = ledger.seconds("scheduler.stop")
        out["workload.generate_s"] = ledger.seconds("workload.generate")
        out["cluster.start_s"] = ledger.seconds("cluster.start")
        run_until_s = ledger.seconds("sim.run_until")
        out["sim.events_n"] = self.events
        out["sim.run_until_s"] = run_until_s
        out["sim.callbacks_s"] = callbacks_s
        out["sim.dispatch_s"] = run_until_s - callbacks_s
        out["sim.other_s"] = other.seconds
        out["sim.other_n"] = other.calls
        build_s = ledger.seconds("campaign.build")
        run_s = ledger.seconds("campaign.run")
        out["campaign.build_s"] = build_s
        out["campaign.run_s"] = run_s
        out["campaign.trace_build_s"] = run_s - sum(
            ledger.seconds(name)
            for name in (
                "workload.generate",
                "scheduler.handover",
                "cluster.start",
                "sim.run_until",
                "scheduler.stop",
            )
        )
        return out


def probed_run_campaign(probe: CampaignProbe):
    """A stand-in for ``repro.campaign.run_campaign`` that attaches
    ``probe`` to the campaign it builds; patch it in with
    :func:`patched` so callers such as ``cached_run_campaign`` keep
    their own code path."""
    from repro.campaign import Campaign

    ledger = probe.ledger

    def run_campaign(config, options=None):
        start = perf()
        campaign = Campaign(config, options=options)
        ledger.timers["campaign.build"].add(perf() - start)
        probe.attach(campaign)
        start = perf()
        trace = campaign.run()
        ledger.timers["campaign.run"].add(perf() - start)
        return trace

    return run_campaign
