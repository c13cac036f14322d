"""The benchmark workloads.

Each workload function takes a :class:`Run`, sets up, calls
``run.begin()`` just before its first timed operation, repeats that
operation until ``run.seconds`` have passed, checks every output, and
fills ``run.e2e`` (the end-to-end metrics) and ``run.layers`` (per-layer
metrics, traced runs only).  ``run.notes`` collects the workload's own
figures (``campaign_s``, ``read_p95_ms``, ...) for the human-readable
report.

Why each workload exists, and what each number explains, is in
``README.md`` beside this file.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from hostspeed import HostSpeed
from probes import CampaignProbe, Ledger, patched, perf, probed_run_campaign
from stats import percentile, tail

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

#: The repository's benchmark seed; golden digests are recorded for it.
DEFAULT_SEED = 2025

#: Latency limit for one ``serve-mixed`` request, from its due time.
SLO_MS = 250.0


class Run:
    """State of one benchmark run: arguments, checks and metrics."""

    def __init__(self, seed: int, seconds: float, traced: bool, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.op_seconds: List[float] = []
        self.created = perf()
        self.began = None
        #: Set-up seconds after imports; a workload whose set-up is long
        #: states it at the reference host speed (hostspeed.py).
        self.setup_s = None
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}

    def begin(self) -> None:
        """Mark the end of set-up: the first timed operation starts now."""
        if self.began is None:
            self.began = perf()
            if self.setup_s is None:
                self.setup_s = self.began - self.created

    def more(self) -> bool:
        """Whether another timed operation fits in the measured window."""
        return not self.op_seconds or (perf() - self.began) < self.seconds

    def record(self, problems: Sequence[str]) -> None:
        """Count one operation; it failed if any of its checks did."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def scratch(self, name: str) -> Path:
        path = self.workdir / name
        path.mkdir(parents=True, exist_ok=True)
        return path


def expect(problems: List[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# ----------------------------------------------------------------------
# campaigns and figures
# ----------------------------------------------------------------------
def rsc1_config(nodes: int, days: float, seed: int):
    from repro import CampaignConfig, ClusterSpec

    spec = ClusterSpec.rsc1_like(n_nodes=nodes, campaign_days=days)
    return CampaignConfig(cluster_spec=spec, duration_days=days, seed=seed)


def figure_entries() -> List[Tuple[str, Callable]]:
    """``(name, fn(trace))`` for every per-trace figure entry point."""
    from repro.analysis import (
        attributed_failure_rates,
        ettr_comparison,
        failure_rate_timeline,
        fleet_report,
        goodput_loss_analysis,
        headline_numbers,
        job_size_distribution,
        job_status_breakdown,
        lemon_analysis,
        mttf_analysis,
        queue_wait_analysis,
        swap_rate_summary,
    )
    from repro.sim.timeunits import HOUR
    from repro.workload.profiles import rsc1_profile

    def job_sizes(trace):
        return job_size_distribution(trace, rsc1_profile())

    def ettr(trace):
        return ettr_comparison(
            trace, min_total_runtime=24 * HOUR, qos=None, min_runs_per_bucket=2
        )

    return [
        ("fig3", job_status_breakdown),
        ("fig4", attributed_failure_rates),
        ("fig5", failure_rate_timeline),
        ("fig6", job_sizes),
        ("fig7", mttf_analysis),
        ("fig8", goodput_loss_analysis),
        ("fig9", ettr),
        ("fig11", lemon_analysis),
        ("queue_waits", queue_wait_analysis),
        ("swaps", swap_rate_summary),
        ("headline", headline_numbers),
        ("fleet_report", fleet_report),
    ]


def run_figures(trace, ledger: Ledger) -> str:
    """Every figure analysis of ``trace``; returns the output digest.

    Each figure's time (analysis plus rendering) accumulates in
    ``ledger`` under ``analysis.<name>``.
    """
    from repro.analysis import checkpoint_sweep

    digest = hashlib.sha256()
    for name, fn in figure_entries():
        start = perf()
        try:
            text = _render(fn(trace))
        except ValueError as err:  # a cohort too small for the figure
            text = f"n/a: {err}"
        ledger.timers[f"analysis.{name}"].add(perf() - start)
        digest.update(f"{trace.cluster_name}/{name}\n{text}\n".encode())
    start = perf()
    text = checkpoint_sweep().render()
    ledger.timers["analysis.fig10"].add(perf() - start)
    digest.update(f"fig10\n{text}\n".encode())
    return digest.hexdigest()


def _render(result) -> str:
    render = getattr(result, "render", None)
    return render() if render is not None else repr(result)


def figure_metrics(ledger: Ledger) -> Dict[str, float]:
    return {
        f"{name}_s": timer.seconds
        for name, timer in ledger.timers.items()
        if name.startswith("analysis.")
    }


def runtime_metrics(ledger: Ledger) -> Dict[str, float]:
    return {
        "runtime.digest_s": ledger.seconds("runtime.digest"),
        "runtime.digest_n": ledger.calls("runtime.digest"),
        "runtime.cache_put_s": ledger.seconds("runtime.cache_put"),
        "runtime.cache_get_s": ledger.seconds("runtime.cache_get"),
        "columns.build_s": ledger.seconds("columns.build"),
    }


def stored_digest(cache, config) -> str:
    """The trace digest a cache entry was stamped with by ``put``."""
    from repro.core.columns import ColumnarTrace

    stamps = ColumnarTrace.read_extra(cache.path_for(config)) or {}
    return stamps.get("trace_sha", "")


def runtime_probes(ledger: Ledger):
    """Time ``trace_digest`` (as the cache calls it), ``TraceCache.get``
    and ``put``, and ``ColumnarTrace.from_trace`` for a block."""
    from contextlib import ExitStack

    from repro.core.columns import ColumnarTrace
    from repro.runtime import TraceCache
    from repro.runtime import cache as cache_module

    stack = ExitStack()
    stack.enter_context(patched(
        cache_module, "trace_digest",
        ledger.timed("runtime.digest", cache_module.trace_digest),
    ))
    stack.enter_context(patched(
        TraceCache, "get", ledger.timed("runtime.cache_get", TraceCache.get)
    ))
    stack.enter_context(patched(
        TraceCache, "put", ledger.timed("runtime.cache_put", TraceCache.put)
    ))
    build = ledger.timed("columns.build", ColumnarTrace.from_trace.__func__)
    stack.enter_context(patched(ColumnarTrace, "from_trace", classmethod(build)))
    return stack


# ----------------------------------------------------------------------
# sim-512n
# ----------------------------------------------------------------------
def sim_512n(run: Run) -> None:
    """One cold RSC-1-like 512-node x 10-day campaign on the user path.

    ``cached_run_campaign`` into a fresh, empty cache directory, then
    the full figure pipeline.  The campaign seed is 2025 whatever the
    workload seed (README.md, "Seeds").
    """
    from contextlib import nullcontext

    from repro import RunOptions
    from repro import campaign as campaign_module
    from repro.campaign import Campaign
    from repro.obs import Telemetry
    from repro.runtime import TraceCache, cached_run_campaign, trace_digest

    golden = GOLDEN["sim-512n"]
    config = rsc1_config(512, 10, DEFAULT_SEED)

    def one_campaign(ledger: Ledger, speed):
        cache = TraceCache(root=run.scratch(f"cache-{run.attempted}"))
        with speed:
            start = perf()
            trace = cached_run_campaign(config, cache=cache)
            figures = run_figures(trace, ledger)
            wall = perf() - start
        problems: List[str] = []
        digest = stored_digest(cache, config)
        expect(problems, digest == golden["trace"],
               f"sim-512n trace digest {digest[:12]} != golden")
        expect(problems, figures == golden["figures"],
               f"sim-512n figure digest {figures[:12]} != golden")
        run.record(problems)
        return trace, digest, figures, wall

    # Each campaign is timed at the reference host's speed (hostspeed.py);
    # Campaign.run() is timed alike over the samples taken while it ran,
    # which ends as run_campaign returns.
    run_campaign = campaign_module.run_campaign
    returned: List[float] = []

    def marked_run_campaign(*args, **kwargs):
        trace = run_campaign(*args, **kwargs)
        returned.append(perf())
        return trace

    run.begin()
    walls, own_walls, run_walls, rates, slowness = [], [], [], [], []
    with patched(campaign_module, "run_campaign", marked_run_campaign):
        while run.more():
            speed = HostSpeed()
            trace, digest, figures, wall = one_campaign(Ledger(), speed)
            runtime = trace.metadata["runtime"]
            span = runtime["wall_time_s"]
            window = (returned[-1] - span, returned[-1])
            run.op_seconds.append(speed.adjust(wall))
            rates.append(
                runtime["events_executed"] / speed.adjust(span, window)
            )
            walls.append(wall)
            own_walls.append(speed.own(wall))
            run_walls.append(speed.own(span, window))
            slowness.append(speed.slowness())
    campaign_s = percentile(run.op_seconds, 50)
    run.e2e["op_time_ms"] = campaign_s * 1e3
    run.layers["sim.events_per_s"] = percentile(rates, 50)
    run.notes.update(
        campaign_s=campaign_s,
        sim_events_per_s=percentile(rates, 50),
        campaign_wall_s=percentile(walls, 50),
        host_slowness=percentile(slowness, 50),
        engine_events=runtime["events_executed"],
        event_log_rows=len(trace.events),
        trace_digest=digest,
        figure_digest=figures,
    )
    if not run.traced:
        return

    # The same campaign once more with every probe attached ...
    probe = CampaignProbe()
    ledger = probe.ledger
    with runtime_probes(ledger), patched(
        campaign_module, "run_campaign", probed_run_campaign(probe)
    ):
        traced_s = one_campaign(ledger, nullcontext())[-1]
    # ... and once with the repository's own telemetry on.
    observed = Campaign(
        config, options=RunOptions(telemetry=Telemetry.in_memory())
    ).run()
    problems: List[str] = []
    expect(problems, trace_digest(observed) == golden["trace"],
           "telemetry-on campaign digest != golden")
    run.record(problems)
    run.layers.update(sweep_layers(run))

    run.layers.update(probe.metrics())
    run.layers.update(runtime_metrics(ledger))
    run.layers.update(figure_metrics(ledger))
    run.layers["obs.trace_overhead_ratio"] = traced_s / percentile(own_walls, 50)
    run.layers["obs.telemetry_overhead_ratio"] = (
        observed.metadata["runtime"]["wall_time_s"] / percentile(run_walls, 50)
    )


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
#: Offered rate.  With the smoke test's mix (``loadgen.py``) one request
#: in six is ``/v1/ettr``, whose 70-100 ms handler holds the event loop;
#: at 20 requests/s that keeps the loop about a quarter busy, so queues
#: stay short and the median request is one that did not wait.
RPS = 20.0


def warm_service(run: Run, connections: int):
    """The ``serve-mixed`` deploy path: simulate the RSC-1 128n x 60d
    fixture into a trace cache, read it back with a verified ``get``,
    replay it into a ``LiveAnalytics``, save its snapshot and warm-start
    a ``ReliabilityService`` from it.

    Returns the service, the runtime ledger (filled on traced runs) and
    the live layer's timings.
    """
    from contextlib import nullcontext

    from repro.live import LiveAnalytics, LiveConfig, replay_trace
    from repro.runtime import TraceCache, cached_run_campaign
    from repro.serve import ReliabilityService

    config = rsc1_config(128, 60, DEFAULT_SEED)
    cache = TraceCache(root=run.scratch("cache"))
    ledger = Ledger()
    with runtime_probes(ledger) if run.traced else nullcontext():
        cached_run_campaign(config, cache=cache)
        trace = cache.get(config)
    problems: List[str] = []
    expect(problems, trace is not None, "verified cache get missed")
    expect(problems, stored_digest(cache, config) == GOLDEN["serve-mixed"]["trace"],
           "fixture trace digest != golden")
    warm = LiveAnalytics(LiveConfig.for_trace(trace))
    start = perf()
    replay_trace(trace, warm)
    replay_s = perf() - start
    start = perf()
    snapshot = warm.save_snapshot(run.scratch("serve") / "warm.json")
    analytics = LiveAnalytics.load_snapshot(snapshot)
    snapshot_s = perf() - start
    expect(problems, analytics.snapshot() == warm.snapshot(),
           "live snapshot round trip changed state")
    run.record(problems)
    service = ReliabilityService(
        analytics,
        trace_cache=TraceCache(enabled=False),
        max_concurrent_whatif=connections,
    )
    return service, ledger, {
        "live.replay_s": replay_s,
        "live.items_per_s": sum(warm.counts.values()) / replay_s,
        "live.snapshot_roundtrip_s": snapshot_s,
    }


def serve_mixed(run: Run) -> None:
    """Open-loop reads and analytic what-ifs against a warm service.

    Set-up is the deploy path: simulate the RSC-1 128n x 60d fixture
    into a trace cache, read it back with a verified ``get``, replay it
    into a ``LiveAnalytics``, and warm-start the service from a saved
    snapshot.  The client runs in its own process (``loadgen.py``).
    """
    from contextlib import nullcontext

    from repro.serve import BackgroundServer

    connections = max(1, min(2, os.cpu_count() or 1))
    # Dark runs state the deploy path at the reference host speed
    # (hostspeed.py); traced runs leave it unsampled for the probes.
    speed = nullcontext() if run.traced else HostSpeed()
    start = perf()
    with speed:
        service, ledger, live = warm_service(run, connections)
    deployed = perf()
    deploy_s = deployed - start
    if not run.traced:
        deploy_s = speed.adjust(deploy_s)
    handler: Dict[str, List[float]] = {}
    if run.traced:
        dispatch = service.dispatch

        async def timed_dispatch(request):
            start = perf()
            response = await dispatch(request)
            handler.setdefault(request.path, []).append(perf() - start)
            return response

        service.dispatch = timed_dispatch
    out = run.scratch("serve") / "client.json"
    # The server's threads and the host-speed samples share one vCPU, so
    # that the samples measure the speed the requests were served at;
    # the client runs on another when there is one.
    affinity = os.sched_getaffinity(0)
    server_cpu, client_cpu = {min(affinity)}, {max(affinity)}
    sampling = nullcontext() if run.traced else HostSpeed()
    try:
        os.sched_setaffinity(0, server_cpu)
        with BackgroundServer(service) as server:
            os.sched_setaffinity(0, client_cpu)
            client = subprocess.Popen([
                sys.executable, str(HERE / "loadgen.py"),
                "--port", str(server.bound_port),
                "--seed", str(run.seed),
                "--seconds", repr(run.seconds),
                "--rps", repr(RPS),
                "--connections", str(connections),
                "--out", str(out),
            ])
            os.sched_setaffinity(0, server_cpu)
            cpu_start = time.process_time()
            with sampling:
                try:
                    code = client.wait(timeout=run.seconds + 120)
                finally:
                    if client.poll() is None:
                        client.kill()
                        client.wait()
            # The server runs in this process; the client is another one.
            cpu_s = time.process_time() - cpu_start
    finally:
        os.sched_setaffinity(0, affinity)
    slowness = 1.0
    if not run.traced:
        slowness = sampling.slowness()
        cpu_s = sampling.own(cpu_s)
    if code != 0:
        raise RuntimeError(f"request client exited with code {code}")
    report = json.loads(out.read_text(encoding="utf-8"))
    run.began = report["started"]
    run.setup_s = (start - run.created) + deploy_s + (run.began - deployed)
    outcomes = report["outcomes"]

    bodies: Dict[int, str] = {}
    latency_ms: Dict[str, List[float]] = {"read": [], "whatif": []}
    misses = 0
    for o in outcomes:
        problems: List[str] = []
        expect(problems, o["status"] == 200, f"{o['path']} -> {o['status']}")
        if o["payload"] >= 0 and o["status"] == 200:
            first = bodies.setdefault(o["payload"], o["body_sha"])
            expect(problems, first == o["body_sha"],
                   f"what-if {o['payload']} answered with different bodies")
        run.record(problems)
        latency_ms[o["kind"]].append(o["latency"] * 1e3)
        if problems or o["latency"] * 1e3 > SLO_MS:
            misses += 1
    every_ms = latency_ms["read"] + latency_ms["whatif"]
    run.op_seconds = [ms / 1e3 for ms in every_ms]
    rps = len(outcomes) / max(o["due"] + o["latency"] for o in outcomes)
    # Server CPU per request, at the reference speed: what the service's
    # capacity rests on.  Latency is not bounded (README.md, "Metrics").
    run.e2e["op_time_ms"] = cpu_s / slowness / len(outcomes) * 1e3
    serve = {
        "serve.read_p50_ms": percentile(latency_ms["read"], 50),
        "serve.read_p95_ms": percentile(latency_ms["read"], 95),
        "serve.whatif_p50_ms": percentile(latency_ms["whatif"], 50),
        "serve.whatif_p90_ms": percentile(latency_ms["whatif"], 90),
        "serve.achieved_rps": rps,
        "serve.requests_per_cpu_s": len(outcomes) / cpu_s,
        "serve.slo_miss_frac": misses / len(outcomes),
    }
    run.notes.update({k.split(".", 1)[1]: v for k, v in serve.items()})
    run.notes["latency_p50_ms"] = percentile(every_ms, 50)
    run.notes["latency_mean_ms"] = sum(every_ms) / len(every_ms)
    run.notes["host_slowness"] = slowness
    run.notes["samples"] = {k: len(v) for k, v in latency_ms.items()}
    run.notes["read_tail"] = tail(latency_ms["read"])
    run.notes["whatif_tail"] = tail(latency_ms["whatif"])
    if not run.traced:
        return
    run.layers.update(serve)
    for path, samples in handler.items():
        name = "whatif" if path.startswith("/v1/whatif") else path.rsplit("/", 1)[-1]
        run.layers[f"serve.handler_ms.{name}"] = percentile(samples, 50) * 1e3
    handled = [s for samples in handler.values() for s in samples]
    run.layers["serve.transport_ms"] = (
        sum(every_ms) / len(every_ms) - sum(handled) / len(handled) * 1e3
    )
    hits = service.metrics.counter("serve_whatif_cache_hits_total").value
    run.layers["serve.whatif_hit_ratio"] = hits / len(latency_ms["whatif"])
    run.layers["serve.generator_late_ms"] = percentile(
        [o["late"] * 1e3 for o in outcomes], 95
    )
    run.layers.update(runtime_metrics(ledger))
    run.layers.update(live)


# ----------------------------------------------------------------------
# the backend layer
# ----------------------------------------------------------------------
SWEEP_WORKERS = 2


def sweep_layers(run: Run) -> Dict[str, float]:
    """Backend dispatch, timed on one 4-seed sweep (traced runs only).

    ``run_campaigns`` over campaign seeds 2025-2028 of RSC-1 64n x 10d on
    ``local-pool`` with two workers, cache off.  It has no end-to-end
    metric: as a workload it was too unsteady on a shared host
    (README.md, "Dropped workloads").
    """
    from repro import RunOptions
    from repro.runtime import run_campaigns, seed_sweep_configs, trace_digest

    configs = seed_sweep_configs(
        rsc1_config(64, 10, DEFAULT_SEED), range(DEFAULT_SEED, DEFAULT_SEED + 4)
    )
    options = RunOptions(
        backend="local-pool", workers=SWEEP_WORKERS, cache=False
    )
    start = perf()
    traces = run_campaigns(configs, options)
    sweep_s = perf() - start
    problems: List[str] = []
    expect(problems, [trace_digest(t) for t in traces] == GOLDEN["sweep"],
           "sweep per-seed digests != golden")
    run.record(problems)
    campaign_s = sum(t.metadata["runtime"]["wall_time_s"] for t in traces)
    return {
        "sweep.wall_s": sweep_s,
        "sweep.campaign_run_s": campaign_s,
        "backends.dispatch_overhead_s": sweep_s - campaign_s / SWEEP_WORKERS,
        "backends.worker_busy_frac": campaign_s / (SWEEP_WORKERS * sweep_s),
    }


WORKLOADS = {
    "sim-512n": sim_512n,
    "serve-mixed": serve_mixed,
}
