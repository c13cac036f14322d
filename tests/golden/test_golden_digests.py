"""Golden digests: the committed record of what the simulator and the
figure analyses produce.

``digests.json`` (next to this module) pins two things:

* ``traces``: the :func:`repro.runtime.trace_digest` of each campaign in
  a small config ladder -- the two session fixtures of
  ``tests/conftest.py`` (RSC-1 64n x 40d seed 7, RSC-2 48n x 30d seed
  11) and an RSC-1 128n x 10d seed 2025 campaign;
* ``figures``: for each fixture trace and every figure entry point, the
  sha256 of ``json.dumps(canonicalize(result), sort_keys=True)``, or of
  the rendered text where ``canonicalize`` cannot take the result (and
  of ``"n/a: <message>"`` where the cohort is too small for the figure);
* ``serve``: for each fixture trace, the sha256 of the body of every
  read in :data:`SERVE_READS`, answered by a ``ReliabilityService`` over
  a ``LiveAnalytics`` session replayed from that trace.  ``/v1/ettr`` is
  read twice (plain, then with ``gpus=``), so a read answered from warm
  estimator state is pinned as well as the first one.

Trace digests still depend on the interpreter's hash seed (a frozenset
of components is iterated when a false-positive health event is named),
so everything is computed in one subprocess under ``PYTHONHASHSEED=0``.
For the same reason they depend on the interpreter's string hash, which
changed in Python 3.11, and float results can move with the builtin
``sum``, which compensates from Python 3.12 on; the file records the
Python minor version it was made with, and the test compares only under
that version.

The digests were recorded by running this module as a script::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/golden/test_golden_digests.py \\
        > tests/golden/digests.json

which prints them in the file's layout.  They were recorded before the
rowwise analysis loops and the scan-path availability queries were
deleted, with the analyses on the rowwise path, so they pin the
surviving code to the values of the deleted reference implementations.
A change that moves any digest changes simulated or analysed content
and must say why when it re-records the file.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "digests.json"
SRC = HERE.parent.parent / "src"


def ladder():
    """``(name, CampaignConfig)`` for every trace the file pins."""
    from repro import CampaignConfig, ClusterSpec

    def config(spec_factory, nodes, days, seed):
        spec = spec_factory(n_nodes=nodes, campaign_days=days)
        return CampaignConfig(cluster_spec=spec, duration_days=days, seed=seed)

    return [
        ("rsc1-64n-40d-s7", config(ClusterSpec.rsc1_like, 64, 40, 7)),
        ("rsc2-48n-30d-s11", config(ClusterSpec.rsc2_like, 48, 30, 11)),
        ("rsc1-128n-10d-s2025", config(ClusterSpec.rsc1_like, 128, 10, 2025)),
    ]


#: Ladder entries whose figures are pinned (the conftest fixtures).
FIGURE_TRACES = ("rsc1-64n-40d-s7", "rsc2-48n-30d-s11")


def attributed(figure, module):
    """``figure`` with the MTTF fold of ``repro.analysis.<module>``
    counting attributed hardware failures
    (``JobAttemptRecord.is_hw_failure(use_ground_truth=False)``) instead of
    ground truth: the rule a fleet without the simulator's ground truth
    reads.  No program path folds it, so the fold is swapped here."""
    import importlib
    from unittest import mock

    from repro.analysis.mttf_analysis import fold_mttf

    def fold(trace, use_ground_truth):
        return fold_mttf(trace, use_ground_truth=False)

    target = importlib.import_module(f"repro.analysis.{module}")

    def run(trace):
        with mock.patch.object(target, "fold_mttf", fold):
            return figure(trace)

    return run


def figure_entries():
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

    def ettr(trace):
        return ettr_comparison(
            trace, min_total_runtime=12 * HOUR, qos=None, min_runs_per_bucket=2
        )

    return [
        ("fig3", job_status_breakdown),
        ("fig4", attributed_failure_rates),
        ("fig5", failure_rate_timeline),
        ("fig6", lambda trace: job_size_distribution(trace, rsc1_profile())),
        ("fig7", mttf_analysis),
        ("fig7-attributed", attributed(mttf_analysis, "mttf_analysis")),
        ("fig8", goodput_loss_analysis),
        ("fig9", ettr),
        ("fig9-attributed", attributed(ettr, "ettr_analysis")),
        ("fig11", lemon_analysis),
        ("queue-waits", queue_wait_analysis),
        ("swaps", swap_rate_summary),
        ("headline", headline_numbers),
        ("fleet-report", fleet_report),
    ]


#: Read requests whose response bodies are pinned, as ``(path, query)``.
SERVE_READS = (
    ("/v1/ettr", {}),
    ("/v1/ettr", {"gpus": "4096"}),
    ("/v1/mttf", {}),
    ("/v1/lemons", {}),
    ("/v1/health", {}),
)


def serve_digests(trace) -> dict:
    """sha256 of each :data:`SERVE_READS` body, keyed by request target."""
    import asyncio
    from urllib.parse import urlencode

    from repro.live import LiveAnalytics, LiveConfig, replay_trace
    from repro.runtime.cache import TraceCache
    from repro.serve import ReliabilityService, Request

    analytics = LiveAnalytics(LiveConfig.for_trace(trace))
    replay_trace(trace, analytics)
    service = ReliabilityService(
        analytics, trace_cache=TraceCache(enabled=False)
    )
    digests = {}
    for path, query in SERVE_READS:
        target = f"{path}?{urlencode(query)}" if query else path
        request = Request("GET", target, path, dict(query), {})
        response = asyncio.run(service.dispatch(request))
        if response.status != 200:
            raise RuntimeError(f"{target} answered {response.status}")
        digests[target] = hashlib.sha256(response.body).hexdigest()
    return digests


def result_digest(make) -> str:
    """sha256 of a figure result's canonical JSON (or its rendering)."""
    from repro.runtime.hashing import canonicalize

    try:
        result = make()
    except ValueError as err:  # a cohort too small for the figure
        payload = f"n/a: {err}"
    else:
        try:
            payload = json.dumps(canonicalize(result), sort_keys=True)
        except TypeError:
            payload = result.render()
    return hashlib.sha256(payload.encode()).hexdigest()


def compute_digests() -> dict:
    from repro import run_campaign
    from repro.analysis import checkpoint_sweep, swap_rate_comparison
    from repro.runtime import trace_digest

    traces = {name: run_campaign(config) for name, config in ladder()}
    figures = {
        name: {
            fig: result_digest(lambda fn=fn: fn(traces[name]))
            for fig, fn in figure_entries()
        }
        for name in FIGURE_TRACES
    }
    rsc1, rsc2 = (traces[name] for name in FIGURE_TRACES)
    figures["pair"] = {
        "fig10": result_digest(checkpoint_sweep),
        "swap-comparison": result_digest(
            lambda: swap_rate_comparison(rsc1, rsc2)
        ),
    }
    return {
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "python": python_version(),
        "traces": {name: trace_digest(t) for name, t in traces.items()},
        "figures": figures,
        "serve": {name: serve_digests(traces[name]) for name in FIGURE_TRACES},
    }


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def render(digests: dict) -> str:
    return json.dumps(digests, indent=2, sort_keys=True) + "\n"


def test_golden_digests():
    want = json.loads(GOLDEN_PATH.read_text())
    if python_version() != want["python"]:
        pytest.skip(
            f"golden digests were recorded under Python {want['python']}"
        )
    env = dict(os.environ, PYTHONHASHSEED="0", REPRO_TRACE_CACHE="off")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["traces"] == want["traces"]
    for trace, figs in want["figures"].items():
        for fig, digest in figs.items():
            assert got["figures"][trace][fig] == digest, (
                f"{trace}/{fig} digest moved"
            )
    for trace, bodies in want["serve"].items():
        for target, digest in bodies.items():
            assert got["serve"][trace][target] == digest, (
                f"{trace} {target} body digest moved"
            )
    assert got == want


if __name__ == "__main__":
    sys.stdout.write(render(compute_digests()))
