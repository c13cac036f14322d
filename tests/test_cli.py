import pytest

from repro.cli import main


def test_campaign_then_analyze_roundtrip(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(
        [
            "campaign",
            "--cluster",
            "rsc1",
            "--nodes",
            "16",
            "--days",
            "8",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    code = main(["analyze", "--trace", str(out), "--figure", "fig3"])
    assert code == 0
    captured = capsys.readouterr()
    assert "Fig. 3" in captured.out


def test_analyze_all_handles_uncomputable_figures(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    main(["campaign", "--nodes", "16", "--days", "6", "--out", str(out)])
    code = main(["analyze", "--trace", str(out), "--figure", "all"])
    assert code == 0
    captured = capsys.readouterr()
    # Everything either renders or reports itself not computable.
    assert "Fig. 3" in captured.out
    assert "Headline" in captured.out or "not computable" in captured.out


def test_sweep_prints_fig10(capsys):
    assert main(["sweep"]) == 0
    assert "Fig. 10" in capsys.readouterr().out


def test_plan_reachable_target(capsys):
    code = main(
        ["plan", "--gpus", "100000", "--rf", "6.5", "--target-ettr", "0.5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "checkpoint every" in out
    assert "MTTF" in out


def test_plan_unreachable_target(capsys):
    code = main(
        [
            "plan",
            "--gpus",
            "1000000",
            "--rf",
            "6.5",
            "--target-ettr",
            "0.99",
            "--restart-min",
            "10",
        ]
    )
    assert code == 1
    assert "unreachable" in capsys.readouterr().out


def test_plan_zero_rate_any_interval(capsys):
    code = main(["plan", "--gpus", "1024", "--rf", "0.0"])
    assert code == 0
    assert "any checkpoint interval" in capsys.readouterr().out


def test_unknown_command_errors():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_report_subcommand(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    main(["campaign", "--nodes", "16", "--days", "8", "--seed", "2",
          "--out", str(out)])
    assert main(["report", "--trace", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Fleet report" in text


def test_export_subcommand(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    main(["campaign", "--nodes", "16", "--days", "8", "--seed", "2",
          "--out", str(out)])
    dest = tmp_path / "figs"
    assert main(["export", "--trace", str(out), "--out-dir", str(dest)]) == 0
    assert (dest / "fig3_job_status.csv").exists()


def test_campaign_telemetry_then_obs_summary(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    tel = tmp_path / "telemetry"
    code = main(
        ["campaign", "--nodes", "16", "--days", "5", "--seed", "7",
         "--no-cache", "--out", str(out), "--telemetry", str(tel)]
    )
    assert code == 0
    assert out.exists()
    assert (tel / "trace.events.jsonl").exists()
    assert (tel / "trace.metrics.json").exists()
    capsys.readouterr()  # drop campaign-phase output
    assert main(["obs", "summary", str(tel)]) == 0
    report = capsys.readouterr().out
    assert "Telemetry summary" in report
    assert "Events by category" in report
    assert "span.end" in report
    assert "Top event labels by wall time" in report
    assert "Span phases (wall time)" in report


def test_obs_summary_missing_path_errors(tmp_path, capsys):
    assert main(["obs", "summary", str(tmp_path / "nope")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # errors go to the logger, not stdout
    assert "no telemetry" in captured.err


def test_quiet_flag_suppresses_diagnostics(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(
        ["-q", "campaign", "--nodes", "16", "--days", "5", "--seed", "7",
         "--no-cache", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ""  # campaign writes files, not stdout


def test_diagnostics_go_to_stderr_not_stdout(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(
        ["campaign", "--nodes", "16", "--days", "5", "--seed", "7",
         "--no-cache", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wrote" in captured.err


def test_verbose_and_quiet_conflict():
    with pytest.raises(SystemExit):
        main(["-v", "-q", "sweep"])


@pytest.fixture(scope="module")
def small_trace_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("live_cli") / "trace.jsonl"
    assert main(["campaign", "--nodes", "12", "--days", "6", "--seed", "1",
                 "--out", str(out)]) == 0
    return out


def test_live_replay_reports_and_snapshots(small_trace_path, tmp_path, capsys):
    snap = tmp_path / "live.json"
    code = main(
        ["live", "--trace", str(small_trace_path), "--report-every", "3",
         "--snapshot-out", str(snap)]
    )
    assert code == 0
    assert snap.exists()
    out = capsys.readouterr().out
    # one mid-stream report plus the final one
    assert out.count("live reliability state") == 2
    assert "watermark" in out
    assert "day 6.00" in out


def test_live_fresh_sim_mode(capsys):
    code = main(
        ["live", "--cluster", "rsc1", "--nodes", "8", "--days", "4",
         "--seed", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("live reliability state") == 1
    assert "items ingested" in out


def test_live_resume_continues_bit_identically(small_trace_path, tmp_path,
                                               capsys):
    import json

    from repro.live import LiveAnalytics, LiveConfig
    from repro.live.replay import iter_trace_stream
    from repro.workload.trace import Trace

    full = tmp_path / "full.json"
    assert main(["live", "--trace", str(small_trace_path),
                 "--snapshot-out", str(full)]) == 0

    trace = Trace.load(small_trace_path)
    partial = LiveAnalytics(LiveConfig.for_trace(trace))
    items = list(iter_trace_stream(trace))
    for item in items[: len(items) // 2]:
        partial.ingest(*item)
    mid = tmp_path / "mid.json"
    partial.save_snapshot(mid)

    resumed = tmp_path / "resumed.json"
    assert main(["live", "--trace", str(small_trace_path), "--resume",
                 str(mid), "--snapshot-out", str(resumed)]) == 0
    capsys.readouterr()
    assert json.dumps(json.loads(full.read_text()), sort_keys=True) == json.dumps(
        json.loads(resumed.read_text()), sort_keys=True
    )


def test_live_resume_requires_trace(tmp_path, capsys):
    telemetry = tmp_path / "tel"
    assert main(["live", "--resume", "whatever.json",
                 "--telemetry", str(telemetry)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "requires --trace" in captured.err
    assert not telemetry.exists()


def test_parse_backend_opts_json_values():
    from repro.cli import _parse_backend_opts

    opts = _parse_backend_opts(
        ["root=/shared/queue", "embedded=false", "poll_interval=0.1"]
    )
    assert opts == {
        "root": "/shared/queue", "embedded": False, "poll_interval": 0.1,
    }
    assert _parse_backend_opts(None) == {}
    with pytest.raises(ValueError, match="KEY=VALUE"):
        _parse_backend_opts(["oops"])


def test_campaign_backend_inline(tmp_path):
    out = tmp_path / "trace.jsonl"
    code = main(
        ["campaign", "--nodes", "8", "--days", "2", "--no-cache",
         "--backend", "inline", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()


def test_campaign_without_backend_uses_the_run_options_default(
    tmp_path, monkeypatch
):
    import repro.runtime
    from repro.options import RunOptions

    built = []

    class RecordingPool(repro.runtime.CampaignPool):
        def __init__(self, options):
            built.append(options)
            super().__init__(options=options)

    monkeypatch.setattr(repro.runtime, "CampaignPool", RecordingPool)
    code = main(
        ["campaign", "--nodes", "8", "--days", "2", "--no-cache",
         "--out", str(tmp_path / "t.jsonl")]
    )
    assert code == 0
    assert [options.backend for options in built] == [RunOptions().backend]


def test_campaign_backend_work_queue_sweep(tmp_path):
    code = main(
        ["campaign", "--nodes", "8", "--days", "2", "--seeds", "0,1",
         "--workers", "2", "--no-cache", "--backend", "work-queue",
         "--backend-opt", f"root={tmp_path / 'queue'}",
         "--out", str(tmp_path / "trace.jsonl")]
    )
    assert code == 0
    assert (tmp_path / "trace-seed0.jsonl").exists()
    assert (tmp_path / "trace-seed1.jsonl").exists()
    # The queue directory the --backend-opt named was actually used.
    assert (tmp_path / "queue" / "store").is_dir()


@pytest.mark.parametrize("observed", [False, True])
def test_campaign_resume_twice_simulates_nothing(
    tmp_path, monkeypatch, capsys, observed
):
    """``--resume DIR`` is an always-on trace cache: the second run of
    the same sweep is all hits, even with the default cache disabled."""
    import repro.campaign
    from repro.runtime import trace_digest
    from repro.workload.trace import Trace

    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    argv = ["campaign", "--nodes", "8", "--days", "2", "--seeds", "0,1",
            "--workers", "1", "--resume", str(tmp_path / "resume"),
            "--out", str(tmp_path / "trace.jsonl")]
    if observed:
        argv += ["--telemetry", str(tmp_path / "tel")]
    assert main(argv) == 0
    first = [
        trace_digest(Trace.load(tmp_path / f"trace-seed{seed}.jsonl"))
        for seed in (0, 1)
    ]
    capsys.readouterr()

    def no_simulation(*args, **kwargs):
        raise AssertionError("a resumed sweep re-simulated a finished seed")

    monkeypatch.setattr(repro.campaign, "run_campaign", no_simulation)
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "(cache)" in err
    assert "(simulated)" not in err
    assert [
        trace_digest(Trace.load(tmp_path / f"trace-seed{seed}.jsonl"))
        for seed in (0, 1)
    ] == first


def test_campaign_malformed_backend_opt_errors(tmp_path, capsys):
    code = main(
        ["campaign", "--nodes", "8", "--days", "2", "--no-cache",
         "--backend-opt", "oops", "--out", str(tmp_path / "t.jsonl")]
    )
    assert code == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_campaign_unknown_backend_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main(["campaign", "--backend", "teleport",
              "--out", str(tmp_path / "t.jsonl")])


def test_worker_once_on_empty_queue(tmp_path, capsys):
    import json

    assert main(["worker", str(tmp_path), "--once"]) == 0
    stats = json.loads(capsys.readouterr().out.strip())
    assert stats["drained"] == 0
    assert stats["failed"] == 0


@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "--figure", "fig3"],
        ["report"],
        ["export"],
        ["live"],
        ["serve", "--port", "0"],
        ["obs", "timeline"],
    ],
    ids=lambda command: command[0] if command[0] != "obs" else "obs-timeline",
)
def test_malformed_trace_exits_1_with_one_line_error(tmp_path, capsys,
                                                     command):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"a":1}\n')
    assert main(command + ["--trace", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "malformed trace" in captured.err
    assert "line 1" in captured.err
    assert "Traceback" not in captured.err


def test_missing_trace_exits_1(tmp_path, capsys):
    assert main(["analyze", "--trace", str(tmp_path / "nope.jsonl")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nope.jsonl" in captured.err


@pytest.fixture()
def snapshot_commands(small_trace_path):
    """Each command that reads a live snapshot, as a function of its path."""
    return {
        "live-resume": lambda path: [
            "live", "--trace", str(small_trace_path), "--resume", path,
        ],
        "serve-resume": lambda path: ["serve", "--port", "0", "--resume", path],
        "obs-health": lambda path: ["obs", "health", path],
    }


@pytest.mark.parametrize("command", ["live-resume", "serve-resume",
                                     "obs-health"])
@pytest.mark.parametrize("case", ["missing", "bad-schema"])
def test_unreadable_snapshot_exits_1_with_one_line_error(
    tmp_path, capsys, snapshot_commands, command, case
):
    snap = tmp_path / "snap.json"
    if case == "bad-schema":
        snap.write_text('{"a":1}\n')
    argv = snapshot_commands[command](str(snap))
    telemetry = tmp_path / "tel"
    if command != "obs-health":
        argv += ["--telemetry", str(telemetry)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "snap.json" in captured.err
    assert "Traceback" not in captured.err
    if case == "bad-schema":
        assert "malformed snapshot" in captured.err
        assert "schema" in captured.err
    # Refused before any telemetry directory is opened.
    assert not telemetry.exists()


@pytest.mark.parametrize(
    "document",
    ["[1]", '{"schema": 1}', '{"schema": 1, "config": {"n_nodes": 1}}',
     "not json"],
    ids=["list", "no-config", "bad-config", "not-json"],
)
def test_malformed_snapshot_is_a_value_error(tmp_path, capsys, document):
    snap = tmp_path / "snap.json"
    snap.write_text(document + "\n")
    assert main(["obs", "health", str(snap)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "malformed snapshot" in captured.err
