"""Command-line interface: run campaigns and regenerate analyses.

Subcommands::

    repro campaign  --cluster rsc1 --nodes 64 --days 30 --seed 42 \
                    --out trace.jsonl [--lemon-detection] [--risk-aware]
    repro campaign  --seeds 0,1,2,3 --workers 4      # pooled multi-seed sweep
    repro campaign  --seeds 0..7 --resume dir/       # crash-safe, resumable
    repro campaign  --seeds 0..7 --backend work-queue \
                    --backend-opt root=/shared/queue # distributed dispatch
    repro worker    /shared/queue [--once]           # drain a work queue
    repro campaign  --telemetry out/ ...             # + obs streams per trace
    repro run       ...                              # alias for campaign
    repro analyze   --trace trace.jsonl --figure fig3
    repro analyze   --trace trace.jsonl --figure all
    repro live      --trace trace.jsonl [--report-every 5] \
                    [--snapshot-out live.json] [--resume live.json]
    repro live      --cluster rsc1 --nodes 64 --days 30 --seed 42  # tap a fresh sim
    repro live      --telemetry out/ ...             # + obs stream for the session
    repro obs summary out/                           # telemetry run report
    repro serve     --resume live.json --port 0      # reliability-as-a-service
    repro sweep     [--gpus 100000]
    repro plan      --gpus 100000 --rf 6.5 --target-ettr 0.9 [--restart-min 2]

The shared flags are normalized across subcommands (parent parsers):
``--cluster/--nodes/--days/--seed`` mean the same thing to ``campaign``
and ``live``; ``--telemetry DIR`` is the same observability switch
everywhere; ``--resume`` always means "continue from saved state" (a
trace cache directory for ``campaign``, an estimator snapshot for
``live``).

``repro live`` streams a trace (or a freshly simulated campaign) through
the online estimators in ``repro.live``, printing periodic reliability
reports and optionally checkpointing estimator state to a snapshot that
``--resume`` continues exactly (see docs/STREAMING.md).

Campaign results are served from the content-addressed trace cache when
the same fully-resolved config was simulated before; pass ``--no-cache``
(or set ``REPRO_TRACE_CACHE=off``) to always re-simulate.

stdout carries machine-readable results only (figures, tables, reports);
diagnostics go through the ``repro.cli`` logger to stderr.  ``--verbose``
and ``-q/--quiet`` raise/lower the log level.

Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

import argparse
import logging
import sys
from pathlib import Path
from typing import List, Optional

from repro import CampaignConfig, ClusterSpec
from repro.options import BACKEND_NAMES
from repro.sim.timeunits import HOUR, MINUTE
from repro.workload.trace import Trace

logger = logging.getLogger("repro.cli")

#: figure name -> callable(trace) returning a renderable result
_FIGURES = {
    "fig3": "job status breakdown",
    "fig4": "attributed failure rates",
    "fig5": "failure-rate evolution",
    "fig6": "job-size distribution",
    "fig7": "MTTF by size + projection",
    "fig8": "lost goodput",
    "fig9": "expected vs measured ETTR",
    "fig11": "lemon signals + Table II",
    "headline": "headline observations",
}


def _render_figure(name: str, trace: Trace) -> str:
    from repro.analysis import (
        attributed_failure_rates,
        ettr_comparison,
        failure_rate_timeline,
        goodput_loss_analysis,
        headline_numbers,
        job_size_distribution,
        job_status_breakdown,
        lemon_analysis,
        mttf_analysis,
    )

    if name == "fig3":
        return job_status_breakdown(trace).render()
    if name == "fig4":
        return attributed_failure_rates(trace).render()
    if name == "fig5":
        return failure_rate_timeline(trace).render()
    if name == "fig6":
        return job_size_distribution(trace).render()
    if name == "fig7":
        return mttf_analysis(trace).render()
    if name == "fig8":
        return goodput_loss_analysis(trace).render()
    if name == "fig9":
        return ettr_comparison(
            trace, min_total_runtime=12 * HOUR, qos=None, min_runs_per_bucket=2
        ).render()
    if name == "fig11":
        return lemon_analysis(trace).render()
    if name == "headline":
        return headline_numbers(trace).render()
    raise KeyError(name)


def _spec_from_args(args: argparse.Namespace) -> ClusterSpec:
    """The ``--cluster``/``--nodes``/``--days`` cluster."""
    if args.cluster == "rsc1":
        return ClusterSpec.rsc1_like(n_nodes=args.nodes, campaign_days=args.days)
    return ClusterSpec.rsc2_like(n_nodes=args.nodes, campaign_days=args.days)


def _seed_out_path(out: str, seed: int, multi: bool) -> Path:
    """Per-seed output path: ``trace.jsonl`` -> ``trace-seed3.jsonl``."""
    path = Path(out)
    if not multi:
        return path
    return path.with_name(f"{path.stem}-seed{seed}{path.suffix}")


def _load_trace(path: str) -> Optional[Trace]:
    """``Trace.load`` for ``--trace``: None, logged, if it cannot be read."""
    try:
        return Trace.load(path)
    except OSError as err:
        logger.error("%s", err)
    except ValueError as err:
        logger.error("malformed trace: %s", err)
    return None


def _load_snapshot(path):
    """``LiveAnalytics.load_snapshot`` for ``--resume`` and ``obs health``:
    None, logged, if it cannot be read.

    The session is restored without telemetry, so a bad file is refused
    before any telemetry directory is opened; callers attach theirs.
    """
    from repro.live import LiveAnalytics

    try:
        return LiveAnalytics.load_snapshot(path)
    except OSError as err:
        logger.error("%s", err)
    except ValueError as err:
        logger.error("malformed snapshot: %s: %s", path, err)
    return None


def _parse_backend_opts(pairs) -> dict:
    """``--backend-opt KEY=VALUE`` pairs -> a backend_options dict.

    Values are JSON-parsed when possible (``workers=4`` -> int,
    ``embedded=false`` -> bool) and kept as strings otherwise
    (``root=/shared/queue``).
    """
    import json

    options = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(
                f"--backend-opt expects KEY=VALUE, got {pair!r}"
            )
        try:
            options[key] = json.loads(value)
        except json.JSONDecodeError:
            options[key] = value
    return options


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.runtime import CampaignPool, seed_sweep_configs

    spec = _spec_from_args(args)
    base = CampaignConfig(
        cluster_spec=spec,
        duration_days=args.days,
        seed=args.seed,
        lemon_detection=args.lemon_detection,
        reliability_aware_placement=args.risk_aware,
    )
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
        except ValueError:
            logger.error(
                "--seeds expects comma-separated integers, got %r", args.seeds
            )
            return 2
    else:
        seeds = [args.seed]
    if args.workers is not None and args.workers < 1:
        logger.error("--workers must be >= 1")
        return 2
    configs = seed_sweep_configs(base, seeds)
    logger.info(
        "simulating %s: %d GPUs x %s days (seed%s %s) ...",
        spec.name,
        spec.n_gpus,
        args.days,
        "s" if len(seeds) > 1 else "",
        ",".join(str(s) for s in seeds),
    )
    from repro.options import RunOptions
    from repro.runtime import TraceCache

    try:
        backend_options = _parse_backend_opts(
            getattr(args, "backend_opt", None)
        )
    except ValueError as err:
        logger.error("%s", err)
        return 2
    if args.resume:
        # The resume directory is a cache that is always on: seeds a
        # killed run finished are hits, the rest simulate.
        cache = TraceCache(args.resume, enabled=True)
    else:
        cache = None if args.no_cache else TraceCache()
    chosen = {} if args.backend is None else {"backend": args.backend}
    options = RunOptions(
        workers=args.workers,
        cache=False if cache is None else cache,
        backend_options=backend_options or None,
        **chosen,
    )
    multi = len(seeds) > 1
    if args.telemetry:
        # Worker processes cannot stream telemetry back, so each seed
        # runs inline into its own <stem>.events.jsonl + .metrics.json
        # pair, which ``repro obs summary DIR`` aggregates.
        from repro.obs import Telemetry

        telemetry_dir = Path(args.telemetry)
        telemetry_dir.mkdir(parents=True, exist_ok=True)
        options = options.replace(backend="inline")
        traces = []
        for seed, config in zip(seeds, configs):
            stem = _seed_out_path(args.out, seed, multi=multi).stem
            telemetry = Telemetry.to_directory(telemetry_dir, stem=stem)
            if cache is not None:
                # Route this seed's cache traffic into this seed's stream.
                cache.telemetry = telemetry
            pool = CampaignPool(options=options.replace(telemetry=telemetry))
            try:
                traces.extend(pool.run([config]))
            finally:
                telemetry.finalize()
            logger.info("telemetry: %s", telemetry.tracer.sink.path)
    else:
        pool = CampaignPool(options=options)
        traces = pool.run(configs)
    for seed, trace in zip(seeds, traces):
        out = _seed_out_path(args.out, seed, multi=multi)
        trace.save(out)
        source = trace.metadata.get("runtime", {}).get("source", "simulated")
        logger.info(
            "wrote %s: %d attempt records, %d events (%s)",
            out,
            len(trace.job_records),
            len(trace.events),
            source,
        )
    if args.telemetry:
        logger.info(
            "telemetry streams + metrics snapshots in %s "
            "(render with: repro obs summary %s)",
            args.telemetry,
            args.telemetry,
        )
    else:
        logger.info("%s", pool.last_stats.render())
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Drain a work-queue directory: the external half of ``work-queue``.

    Any number of these can run concurrently, on any hosts sharing the
    queue's filesystem; each claims tasks atomically, simulates them,
    and publishes the traces into the queue's shared artifact store.
    The dispatcher (``repro campaign --backend work-queue --backend-opt
    root=DIR``) picks the results up from there.
    """
    import json

    from repro.backends import drain_queue

    queue = Path(args.queue)
    logger.info(
        "draining %s (poll every %.3fs%s%s) ...",
        queue,
        args.poll_interval,
        f", at most {args.max_tasks} tasks" if args.max_tasks else "",
        ", until empty" if args.once else "",
    )
    stats = drain_queue(
        queue,
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        max_tasks=args.max_tasks,
        stop_when_empty=args.once,
    )
    logger.info(
        "worker %s: %d drained, %d failed",
        stats["worker"], stats["drained"], stats["failed"],
    )
    print(json.dumps(stats))
    return 0


def cmd_live(args: argparse.Namespace) -> int:
    from repro.campaign import Campaign
    from repro.live import LiveAnalytics, LiveConfig, replay_trace, tap_campaign
    from repro.sim.timeunits import DAY

    overrides = {"step_days": args.step_days}
    if args.window_days is not None:
        overrides["window_days"] = args.window_days
    if args.rf_min_gpus is not None:
        overrides["rf_min_gpus"] = args.rf_min_gpus
    if args.resume and not args.trace:
        logger.error("--resume requires --trace (replay mode)")
        return 2
    if args.trace:
        trace = _load_trace(args.trace)
        if trace is None:
            return 1
        if args.resume:
            resumed = _load_snapshot(args.resume)
            if resumed is None:
                return 1

    telemetry = None
    if args.telemetry:
        from repro.obs import Telemetry

        telemetry = Telemetry.to_directory(args.telemetry, stem="live")

    state = {"next_report": args.report_every, "reported_at": -1.0}

    def maybe_report() -> None:
        # Marks at or past the span end are left to the final report,
        # which sees the whole stream (node items included) closed.
        due = False
        while (
            analytics.watermark / DAY >= state["next_report"]
            and state["next_report"] * DAY < analytics.config.span_seconds
        ):
            state["next_report"] += args.report_every
            due = True
        if due:
            print(analytics.report().render())
            print()
            state["reported_at"] = analytics.watermark
            if args.snapshot_out:
                analytics.save_snapshot(args.snapshot_out)

    on_item = maybe_report if args.report_every else None

    if args.trace:
        if args.resume:
            analytics = resumed
            analytics.telemetry = telemetry
            logger.info(
                "resuming from %s at day %.2f (%d items ingested)",
                args.resume,
                analytics.watermark / DAY,
                sum(analytics.counts.values()),
            )
            state["next_report"] = (
                (analytics.watermark / DAY) // args.report_every + 1
            ) * args.report_every if args.report_every else 0
        else:
            analytics = LiveAnalytics(
                LiveConfig.for_trace(trace, **overrides), telemetry=telemetry
            )
        replay_trace(trace, analytics, on_item=on_item)
    else:
        spec = _spec_from_args(args)
        config = CampaignConfig(
            cluster_spec=spec, duration_days=args.days, seed=args.seed
        )
        analytics = LiveAnalytics(
            LiveConfig.for_config(config, **overrides), telemetry=telemetry
        )
        logger.info(
            "tapping a fresh %s campaign: %d nodes x %s days (seed %d)",
            spec.name,
            args.nodes,
            args.days,
            args.seed,
        )
        tap_campaign(Campaign(config), analytics, on_item=on_item)

    if state["reported_at"] != analytics.watermark:
        print(analytics.report().render())
    if args.snapshot_out:
        path = analytics.save_snapshot(args.snapshot_out)
        logger.info("final snapshot: %s", path)
    if telemetry is not None:
        telemetry.finalize()
        logger.info(
            "telemetry in %s (render with: repro obs summary %s)",
            args.telemetry,
            args.telemetry,
        )
    logger.info("stream: %d items", sum(analytics.counts.values()))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live import LiveAnalytics, LiveConfig, replay_trace
    from repro.runtime import TraceCache
    from repro.serve import ReliabilityService, serve_until_shutdown
    from repro.sim.timeunits import DAY

    if args.trace:
        trace = _load_trace(args.trace)
        if trace is None:
            return 1
    if args.resume:
        resumed = _load_snapshot(args.resume)
        if resumed is None:
            return 1

    telemetry = None
    if args.telemetry:
        from repro.obs import Telemetry

        telemetry = Telemetry.to_directory(args.telemetry, stem="serve")

    trace_cache = TraceCache(enabled=False if args.no_cache else None)

    if args.resume:
        analytics = resumed
        analytics.telemetry = telemetry
        logger.info(
            "resumed snapshot %s at day %.2f (%d items ingested)",
            args.resume,
            analytics.watermark / DAY,
            sum(analytics.counts.values()),
        )
        if args.trace:
            replay_trace(trace, analytics)
    elif args.trace:
        analytics = LiveAnalytics(
            LiveConfig.for_trace(trace), telemetry=telemetry
        )
        replay_trace(trace, analytics)
    else:
        from repro.runtime.cache import cached_run_campaign

        spec = _spec_from_args(args)
        config = CampaignConfig(
            cluster_spec=spec, duration_days=args.days, seed=args.seed
        )
        logger.info(
            "warming from a fresh %s campaign: %d nodes x %s days (seed %d)",
            spec.name, args.nodes, args.days, args.seed,
        )
        trace = cached_run_campaign(config, cache=trace_cache)
        analytics = LiveAnalytics(
            LiveConfig.for_trace(trace), telemetry=telemetry
        )
        replay_trace(trace, analytics)

    run_options = None
    if getattr(args, "backend", None):
        from repro.options import RunOptions

        try:
            backend_options = _parse_backend_opts(
                getattr(args, "backend_opt", None)
            )
        except ValueError as err:
            logger.error("%s", err)
            return 2
        run_options = RunOptions(
            backend=args.backend, backend_options=backend_options or None
        )
    service = ReliabilityService(
        analytics,
        telemetry=telemetry,
        trace_cache=trace_cache,
        whatif_cache_size=args.whatif_cache,
        max_concurrent_whatif=args.whatif_workers,
        run_options=run_options,
    )
    snapshot_out = args.snapshot_out or args.resume

    def on_bound(server) -> None:
        # The stdout contract: the bound address is the ONLY stdout
        # line, so `addr=$(repro serve --port 0 &)`-style automation can
        # parse it.  Everything else goes through the stderr logger.
        print(server.address, flush=True)
        logger.info("serving on %s (Ctrl-C to stop)", server.address)

    asyncio.run(
        serve_until_shutdown(
            service,
            host=args.host,
            port=args.port,
            snapshot_out=snapshot_out,
            grace_s=args.grace,
            on_bound=on_bound,
        )
    )
    if snapshot_out:
        logger.info("final snapshot: %s", snapshot_out)
    if telemetry is not None:
        telemetry.finalize()
    return 0


def cmd_obs_summary(args: argparse.Namespace) -> int:
    from repro.obs import summarize

    try:
        summary = summarize(args.path)
    except FileNotFoundError as err:
        logger.error("%s", err)
        return 1
    except ValueError as err:
        logger.error("malformed telemetry: %s", err)
        return 1
    print(summary.render(top_labels=args.top))
    return 0


def cmd_obs_profile(args: argparse.Namespace) -> int:
    from repro.obs import find_telemetry_files, spans_from_stream
    from repro.obs.spans import (
        chrome_trace_events,
        span_phase_stats,
        write_chrome_trace,
    )

    try:
        pairs = find_telemetry_files(args.path)
    except FileNotFoundError as err:
        logger.error("%s", err)
        return 1
    all_spans = []
    trace_events = []
    for tid, (stream, _metrics) in enumerate(pairs, start=1):
        try:
            spans = spans_from_stream(stream)
        except ValueError as err:
            logger.error("malformed telemetry: %s", err)
            return 1
        all_spans.extend(spans)
        # One Chrome-trace track per stream: span ids are only unique
        # within a stream, and separate seeds overlap in wall time.
        trace_events.extend(chrome_trace_events(spans, tid=tid))
    if not all_spans:
        logger.error(
            "no span.end events in %s (was the run instrumented with "
            "telemetry enabled?)", args.path
        )
        return 1
    if args.chrome_trace:
        write_chrome_trace(args.chrome_trace, trace_events)
        logger.info(
            "wrote %d trace events to %s (load in chrome://tracing or "
            "Perfetto)", len(trace_events), args.chrome_trace
        )
    from repro.analysis.report import render_table

    rows = [
        (
            s.name,
            str(s.count),
            f"{s.total_s:.3f}s",
            f"{s.p50_s * 1e3:.1f}ms",
            f"{s.p95_s * 1e3:.1f}ms",
            f"{s.max_s * 1e3:.1f}ms",
        )
        for s in span_phase_stats(all_spans)[: args.top]
    ]
    print(
        render_table(
            ["span", "count", "total", "p50", "p95", "max"],
            rows,
            title=f"span profile ({len(all_spans)} spans)",
        )
    )
    return 0


def cmd_obs_timeline(args: argparse.Namespace) -> int:
    from repro.obs import reconstruct_timeline

    trace = _load_trace(args.trace)
    if trace is None:
        return 1
    timeline = reconstruct_timeline(trace)
    if args.json:
        timeline.write_json(args.json)
        logger.info(
            "wrote %d incidents to %s", len(timeline.incidents), args.json
        )
    print(timeline.render(limit=args.limit))
    return 0


def cmd_obs_health(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path as _Path

    from repro.obs import FleetHealthScorer, HealthSignals, summarize

    target = _Path(args.path)
    if target.is_file() and target.suffix == ".json":
        # A live-session snapshot (repro live --snapshot-out).
        analytics = _load_snapshot(target)
        if analytics is None:
            return 1
        report = analytics.health()
    else:
        try:
            summary = summarize(target)
        except FileNotFoundError as err:
            logger.error("%s", err)
            return 1
        except ValueError as err:
            logger.error("malformed telemetry: %s", err)
            return 1
        n_nodes = args.nodes if args.nodes else 1
        report = FleetHealthScorer().score(
            HealthSignals.from_summary(summary, n_nodes=n_nodes)
        )
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    if trace is None:
        return 1
    names = list(_FIGURES) if args.figure == "all" else [args.figure]
    for i, name in enumerate(names):
        if i:
            print("\n" + "=" * 72 + "\n")
        try:
            print(_render_figure(name, trace))
        except ValueError as err:
            print(f"{name}: not computable on this trace ({err})")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.fleet_report import fleet_report

    trace = _load_trace(args.trace)
    if trace is None:
        return 1
    print(fleet_report(trace).render())
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_all

    trace = _load_trace(args.trace)
    if trace is None:
        return 1
    written = export_all(trace, args.out_dir)
    for name, path in sorted(written.items()):
        print(f"{name}: {path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.checkpoint_sweep import checkpoint_sweep

    print(checkpoint_sweep(n_gpus=args.gpus).render())
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.checkpoint import required_checkpoint_interval

    n_nodes = max(1, args.gpus // 8)
    rf = args.rf / 1000.0
    try:
        dt = required_checkpoint_interval(
            args.target_ettr,
            n_nodes=n_nodes,
            failure_rate_per_node_day=rf,
            restart_overhead=args.restart_min * MINUTE,
        )
    except ValueError as err:
        print(f"target unreachable: {err}")
        return 1
    mttf_hours = 24.0 / (n_nodes * rf) if rf > 0 else float("inf")
    print(
        f"{args.gpus:,} GPUs at r_f={args.rf}/1000 node-days "
        f"(job MTTF {mttf_hours:.2f} h):"
    )
    if dt == float("inf"):
        print(f"  ETTR {args.target_ettr}: any checkpoint interval works")
    else:
        print(
            f"  ETTR {args.target_ettr}: checkpoint every "
            f"{dt / MINUTE:.1f} minutes "
            f"(restart overhead {args.restart_min:.0f} min)"
        )
    return 0


def _parent_parsers():
    """Shared argument groups, normalized across subcommands.

    Every subcommand that simulates takes the same ``--cluster/--nodes/
    --days/--seed`` quartet; every one that sweeps takes the same
    ``--seeds/--workers/--no-cache``; every one that can observe takes
    the same ``--telemetry DIR``.  Parent parsers make that a structural
    guarantee instead of a convention.
    """
    cluster = argparse.ArgumentParser(add_help=False)
    cluster.add_argument("--cluster", choices=("rsc1", "rsc2"),
                         default="rsc1", help="cluster profile to simulate")
    cluster.add_argument("--nodes", type=int, default=64)
    cluster.add_argument("--days", type=float, default=30.0)
    cluster.add_argument("--seed", type=int, default=0)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--seeds", default=None,
                       help="comma-separated seed sweep run through the "
                            "campaign pool (overrides --seed); writes one "
                            "<out>-seedN.jsonl per seed")
    sweep.add_argument("--workers", type=int, default=None,
                       help="max worker processes for --seeds sweeps "
                            "(default: CPU count)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="bypass the content-addressed trace cache")

    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="write structured telemetry (.events.jsonl streams plus "
             ".metrics.json snapshots) into DIR; inspect with "
             "`repro obs summary DIR`")

    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="execution backend for simulations: inline (serial, "
             "in-process), local-pool (process pool, the default), or "
             "work-queue (filesystem queue drained by `repro worker` "
             "processes on any host)")
    backend.add_argument(
        "--backend-opt", action="append", default=None, metavar="KEY=VALUE",
        help="backend factory option (repeatable), e.g. "
             "--backend-opt root=/shared/queue --backend-opt "
             "embedded=false for work-queue; values are JSON-parsed "
             "when possible")
    return cluster, sweep, telemetry, backend


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Revisiting Reliability in "
            "Large-Scale ML Research Clusters' (HPCA 2025)"
        ),
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level diagnostics on stderr",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="errors only on stderr (stdout results are unaffected)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    (
        cluster_parent,
        sweep_parent,
        telemetry_parent,
        backend_parent,
    ) = _parent_parsers()

    p = sub.add_parser(
        "campaign", aliases=["run"],
        parents=[cluster_parent, sweep_parent, telemetry_parent,
                 backend_parent],
        help="simulate a cluster campaign",
    )
    p.add_argument("--out", default="trace.jsonl")
    p.add_argument("--resume", default=None, metavar="DIR",
                   help="trace cache directory that is always on (even "
                        "with --no-cache or REPRO_TRACE_CACHE=off): "
                        "completed seeds persist there and a re-run with "
                        "the same DIR resumes bit-identically")
    p.add_argument("--lemon-detection", action="store_true")
    p.add_argument("--risk-aware", action="store_true",
                   help="reliability-aware gang placement")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "live",
        parents=[cluster_parent, telemetry_parent],
        help="stream a trace or fresh campaign through the online "
             "reliability estimators",
    )
    p.add_argument("--trace", default=None,
                   help="replay a saved trace; omit to tap a fresh "
                        "simulation instead")
    p.add_argument("--window-days", type=float, default=None,
                   help="rolling failure-rate window (default: the batch "
                        "Fig. 5 rule, 30d scaled by span/330)")
    p.add_argument("--step-days", type=float, default=1.0)
    p.add_argument("--rf-min-gpus", type=int, default=None,
                   help="pin the r_f job-size floor (exact streaming r_f); "
                        "default: auto floor, half the largest job")
    p.add_argument("--report-every", type=float, default=0.0, metavar="DAYS",
                   help="print a live report each time the watermark "
                        "crosses another DAYS of simulated time")
    p.add_argument("--snapshot-out", default=None, metavar="PATH",
                   help="write the estimator snapshot here (refreshed at "
                        "each periodic report and at the end)")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="restore a snapshot and continue the replay "
                        "exactly (requires --trace)")
    p.set_defaults(func=cmd_live)

    p = sub.add_parser(
        "worker",
        help="drain a work-queue directory (the work-queue backend's "
             "external worker; run any number on any hosts sharing it)",
    )
    p.add_argument("queue",
                   help="queue directory (--backend-opt root=DIR of the "
                        "dispatching sweep)")
    p.add_argument("--worker-id", default=None,
                   help="stable worker identity in claims and acks "
                        "(default: worker-<pid>)")
    p.add_argument("--max-tasks", type=int, default=None,
                   help="exit after processing this many tasks")
    p.add_argument("--poll-interval", type=float, default=0.05,
                   help="seconds between queue re-checks when idle")
    p.add_argument("--once", action="store_true",
                   help="exit when the queue runs empty instead of "
                        "waiting for more work (or the STOP sentinel)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "serve",
        parents=[cluster_parent, telemetry_parent, backend_parent],
        help="reliability-as-a-service: async HTTP API over the live "
             "estimators",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000,
                   help="0 binds an ephemeral port; the bound address is "
                        "printed as the only stdout line")
    p.add_argument("--trace", default=None,
                   help="warm-start by replaying this saved trace")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="warm-start from an estimator snapshot "
                        "(combine with --trace to continue its replay)")
    p.add_argument("--snapshot-out", default=None, metavar="PATH",
                   help="write a final atomic snapshot here on shutdown "
                        "(default: the --resume path, if given)")
    p.add_argument("--whatif-cache", type=int, default=256,
                   help="bounded-LRU size of the what-if response cache")
    p.add_argument("--whatif-workers", type=int, default=2,
                   help="max concurrent what-if computations before "
                        "503 overload")
    p.add_argument("--grace", type=float, default=1.0,
                   help="seconds in-flight requests get to finish on "
                        "SIGTERM/SIGINT")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the content-addressed trace cache for "
                        "on-demand what-if campaigns")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("obs", help="inspect emitted telemetry")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "summary", help="run report from telemetry streams + metrics"
    )
    p.add_argument("path",
                   help="telemetry directory (or a single .events.jsonl)")
    p.add_argument("--top", type=int, default=10,
                   help="event-label rows in the timing table")
    p.set_defaults(func=cmd_obs_summary)
    p = obs_sub.add_parser(
        "profile",
        help="span profile (p50/p95 table + optional Chrome trace JSON)",
    )
    p.add_argument("path",
                   help="telemetry directory (or a single .events.jsonl)")
    p.add_argument("--chrome-trace", default=None, metavar="OUT",
                   help="also write Chrome trace-event JSON here "
                        "(chrome://tracing / Perfetto)")
    p.add_argument("--top", type=int, default=20,
                   help="span rows in the profile table")
    p.set_defaults(func=cmd_obs_profile)
    p = obs_sub.add_parser(
        "timeline",
        help="reconstruct per-incident detection→recovery timelines "
             "from a saved trace",
    )
    p.add_argument("--trace", required=True,
                   help="saved trace file (repro campaign --out)")
    p.add_argument("--json", default=None, metavar="OUT",
                   help="also write the incident records as JSON")
    p.add_argument("--limit", type=int, default=15,
                   help="incident rows in the rendered table")
    p.set_defaults(func=cmd_obs_timeline)
    p = obs_sub.add_parser(
        "health",
        help="fleet health score (0-100, attributed) from telemetry "
             "or a live snapshot",
    )
    p.add_argument("path",
                   help="telemetry directory, events stream, or a live "
                        "session snapshot (.json)")
    p.add_argument("--nodes", type=int, default=None,
                   help="fleet size for telemetry-derived signals "
                        "(default 1; live snapshots carry their own)")
    p.add_argument("--json", action="store_true",
                   help="emit the health report as JSON")
    p.set_defaults(func=cmd_obs_health)

    p = sub.add_parser("analyze", help="render figures from a saved trace")
    p.add_argument("--trace", required=True)
    p.add_argument(
        "--figure", choices=sorted(_FIGURES) + ["all"], default="headline"
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="one-page fleet report from a trace")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="export figure data as CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--out-dir", default="figures")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("sweep", help="Fig. 10 checkpoint design space")
    p.add_argument("--gpus", type=int, default=100_000)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plan", help="required checkpoint cadence for a run")
    p.add_argument("--gpus", type=int, required=True)
    p.add_argument("--rf", type=float, default=6.5,
                   help="failures per 1000 node-days")
    p.add_argument("--target-ettr", type=float, default=0.9)
    p.add_argument("--restart-min", type=float, default=5.0)
    p.set_defaults(func=cmd_plan)
    return parser


def _configure_logging(args: argparse.Namespace) -> None:
    """Point the ``repro`` logger at stderr at the requested level.

    Handlers are only attached once (re-entrant ``main`` calls, tests);
    the level and the target stream are re-applied every invocation so
    flags always win and redirected ``sys.stderr`` (tests, pipelines) is
    honoured.
    """
    root = logging.getLogger("repro")
    handler = next(
        (h for h in root.handlers if isinstance(h, logging.StreamHandler)),
        None,
    )
    if handler is None:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(handler)
        root.propagate = False
    else:
        # Direct assignment, not setStream(): the old stream may already
        # be closed (e.g. a previous test's capture buffer) and setStream
        # would try to flush it.
        handler.stream = sys.stderr
    if getattr(args, "verbose", False):
        root.setLevel(logging.DEBUG)
    elif getattr(args, "quiet", False):
        root.setLevel(logging.ERROR)
    else:
        root.setLevel(logging.INFO)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
