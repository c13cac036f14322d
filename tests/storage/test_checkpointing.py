import math
from dataclasses import replace

import pytest

from repro.core.ettr import ETTRParameters, dedicated_cluster_scenario
from repro.sim.timeunits import DAY, HOUR, MINUTE
from repro.storage import (
    NFS,
    OBJECTSTORE,
    checkpoint_write_time,
    model_checkpoint_gb,
)
from repro.storage.checkpointing import (
    CheckpointMode,
    blocking_overhead_fraction,
    ettr_with_checkpoint_writes,
    optimal_blocking_interval,
)


def params(dt=HOUR, n_nodes=2000, rf=6.5e-3):
    return ETTRParameters(
        n_nodes=n_nodes,
        failure_rate_per_node_day=rf,
        checkpoint_interval=dt,
        restart_overhead=5 * MINUTE,
    )


def test_async_matches_simple_model():
    from repro.core.ettr import expected_ettr_simple

    p = params()
    assert ettr_with_checkpoint_writes(
        p, write_time=120.0, mode=CheckpointMode.ASYNC
    ) == expected_ettr_simple(p)


def test_blocking_strictly_worse_than_async():
    p = params()
    blocking = ettr_with_checkpoint_writes(p, 120.0, CheckpointMode.BLOCKING)
    asynchronous = ettr_with_checkpoint_writes(p, 120.0, CheckpointMode.ASYNC)
    assert blocking < asynchronous


def test_blocking_overhead_fraction():
    assert blocking_overhead_fraction(540.0, 60.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        blocking_overhead_fraction(0.0, 1.0)
    with pytest.raises(ValueError):
        blocking_overhead_fraction(60.0, -1.0)


def test_blocking_penalty_grows_with_frequency():
    """At low failure rates, checkpointing too often costs throughput.

    (At RSC-1-scale failure rates the failure term dominates and frequent
    checkpointing still wins — which is the point of Fig. 10.)
    """
    quiet = params(dt=2 * HOUR, n_nodes=50, rf=1e-4)
    slow = ettr_with_checkpoint_writes(quiet, 300.0)
    from dataclasses import replace

    frantic = ettr_with_checkpoint_writes(
        replace(quiet, checkpoint_interval=5 * MINUTE), 300.0
    )
    assert frantic < slow


def test_optimum_interior_and_better_than_endpoints():
    p = params()
    write = 120.0
    best = optimal_blocking_interval(p, write)
    from dataclasses import replace

    f_best = ettr_with_checkpoint_writes(
        replace(p, checkpoint_interval=best), write
    )
    for dt in (MINUTE, 30 * MINUTE, 4 * HOUR, DAY):
        f = ettr_with_checkpoint_writes(replace(p, checkpoint_interval=dt), write)
        assert f_best >= f - 1e-9


def test_optimum_approaches_young_daly_when_overheads_small():
    # Small write cost, no restart overhead: the classic regime.
    p = ETTRParameters(
        n_nodes=100,
        failure_rate_per_node_day=1e-3,
        checkpoint_interval=HOUR,
        restart_overhead=0.0,
    )
    write = 30.0
    best = optimal_blocking_interval(p, write)
    mttf = 1.0 / p.job_failure_rate_per_second
    yd = math.sqrt(2.0 * write * mttf)  # Young/Daly first-order optimum
    assert best == pytest.approx(yd, rel=0.15)


def test_optimum_shrinks_with_failure_rate():
    write = 120.0
    gentle = optimal_blocking_interval(params(rf=1e-3), write)
    harsh = optimal_blocking_interval(params(rf=2e-2), write)
    assert harsh < gentle


def test_zero_write_time_rejected():
    with pytest.raises(ValueError, match="as often as possible"):
        optimal_blocking_interval(params(), 0.0)


def test_blocking_writes_at_405b_on_16k_gpus():
    """Fig. 10 assumes non-blocking checkpoint writes.  For a
    405B-parameter run on 16k GPUs at RSC-1 rates: async always
    dominates blocking, the fast tier's gap at the paper's 5-minute
    cadence is small, the slow tier pays heavily, and the slow tier's
    blocking optimum sits at a longer interval."""
    checkpoint_gb = model_checkpoint_gb(405.0)
    base = dedicated_cluster_scenario(16_000, 6.5e-3, checkpoint_interval=MINUTE)
    gaps = {}
    optima = {}
    for tier in (NFS, OBJECTSTORE):
        write = checkpoint_write_time(checkpoint_gb, tier, n_writer_nodes=2000)
        for dt_min in (5, 15, 30, 60):
            p = replace(base, checkpoint_interval=dt_min * MINUTE)
            blocking = ettr_with_checkpoint_writes(
                p, write, CheckpointMode.BLOCKING
            )
            asynchronous = ettr_with_checkpoint_writes(
                p, write, CheckpointMode.ASYNC
            )
            assert blocking <= asynchronous + 1e-9
            gaps[tier.name, dt_min] = asynchronous - blocking
        optima[tier.name] = optimal_blocking_interval(base, write)
    assert gaps["ObjectStore", 5] < 0.08
    assert gaps["NFS", 5] > 0.15
    assert optima["NFS"] > optima["ObjectStore"]
