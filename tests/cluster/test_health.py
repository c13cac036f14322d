import numpy as np
import pytest

from repro.cluster.components import ComponentType
from repro.cluster.health import (
    CHECK_PERIOD,
    CheckSeverity,
    HealthCheck,
    HealthMonitor,
    default_health_checks,
)
from repro.sim.events import EventLog


def make_monitor(seed=0, **kwargs):
    return HealthMonitor(
        default_health_checks(**kwargs),
        np.random.default_rng(seed),
        event_log=EventLog(),
    )


def test_default_checks_cover_all_high_severity_domains():
    checks = default_health_checks()
    covered = set()
    for check in checks:
        covered |= check.components
    for comp in (
        ComponentType.GPU,
        ComponentType.GPU_MEMORY,
        ComponentType.NVLINK,
        ComponentType.PCIE,
        ComponentType.IB_LINK,
        ComponentType.FILESYSTEM_MOUNT,
    ):
        assert comp in covered


def test_detection_fires_covering_check():
    monitor = make_monitor()
    results, t, heartbeat_only = monitor.detect(
        node_id=3, component=ComponentType.IB_LINK, t=100.0, incident_id=1
    )
    assert not heartbeat_only
    assert any(r.check.name == "ib_link" for r in results)
    assert all(100.0 <= r.time <= 100.0 + CHECK_PERIOD for r in results)


def test_detection_latency_within_check_period():
    monitor = make_monitor()
    for i in range(20):
        results, t, hb = monitor.detect(0, ComponentType.GPU_MEMORY, 50.0, i)
        if results:
            assert 50.0 <= t <= 50.0 + CHECK_PERIOD


def test_disabled_check_cannot_detect():
    # Mount check introduced at t=1000; before that, mount failures fall
    # through to the heartbeat catch-all.
    monitor = make_monitor(mount_check_introduced_at=1000.0)
    results, t, heartbeat_only = monitor.detect(
        0, ComponentType.FILESYSTEM_MOUNT, 10.0, 1
    )
    assert heartbeat_only
    assert results == []
    assert t > 10.0


def test_enabled_check_detects_after_introduction():
    monitor = make_monitor(mount_check_introduced_at=1000.0)
    results, _t, heartbeat_only = monitor.detect(
        0, ComponentType.FILESYSTEM_MOUNT, 2000.0, 1
    )
    assert not heartbeat_only
    assert any(r.check.name == "filesystem_mounts" for r in results)


def test_pcie_co_occurs_with_xid79_at_paper_rate():
    monitor = make_monitor(seed=1)
    co = 0
    trials = 600
    for i in range(trials):
        results, _t, _hb = monitor.detect(0, ComponentType.PCIE, 0.0, i)
        names = {r.check.name for r in results}
        if "pcie" in names and "xid79_fell_off_bus" in names:
            co += 1
    # xid79 fires either as overlapping coverage (p=0.5) or via the
    # co-occurrence rule (0.43 conditional) -> well above 40% overall.
    assert co / trials > 0.40


def test_heartbeat_latency_bounds():
    monitor = HealthMonitor(
        [HealthCheck("gpu_only", frozenset({ComponentType.GPU}), CheckSeverity.HIGH)],
        np.random.default_rng(0),
    )
    # PSU has no covering check in this monitor -> heartbeat path.
    results, t, hb = monitor.detect(0, ComponentType.PSU, 500.0, 1)
    assert hb and results == []
    assert 500.0 + 60.0 <= t <= 500.0 + 600.0


def test_max_severity_heartbeat_defaults_high():
    monitor = make_monitor()
    assert monitor.max_severity([]) is CheckSeverity.HIGH


def test_events_logged_for_firing_checks():
    monitor = make_monitor()
    monitor.detect(7, ComponentType.IB_LINK, 10.0, 42)
    events = [e for e in monitor.event_log if e.kind == "health.check_failed"]
    assert events
    assert events[0].data["node_id"] == 7
    assert events[0].data["incident_id"] == 42


def test_duplicate_check_names_rejected():
    check = HealthCheck("dup", frozenset({ComponentType.GPU}), CheckSeverity.HIGH)
    with pytest.raises(ValueError, match="duplicate"):
        HealthMonitor([check, check], np.random.default_rng(0))


def test_check_validation():
    with pytest.raises(ValueError):
        HealthCheck("empty", frozenset(), CheckSeverity.HIGH)
    with pytest.raises(ValueError):
        HealthCheck(
            "bad-p",
            frozenset({ComponentType.GPU}),
            CheckSeverity.HIGH,
            detect_probability=1.5,
        )


def test_incident_ids_monotonic():
    monitor = make_monitor()
    ids = [monitor.new_incident_id() for _ in range(5)]
    assert ids == sorted(ids)
    assert len(set(ids)) == 5
