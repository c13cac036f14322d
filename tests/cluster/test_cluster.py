import pytest

from repro.cluster.cluster import Cluster, ClusterSpec, LEMON_ROOT_CAUSE_MIX
from repro.cluster.health import CheckSeverity
from repro.cluster.node import NodeState
from repro.sim.engine import Engine
from repro.sim.events import EventLog
from repro.sim.rng import RngStreams
from repro.sim.timeunits import DAY


def build(n_nodes=40, seed=0, **kwargs):
    spec = ClusterSpec.rsc1_like(n_nodes=n_nodes, campaign_days=60, **kwargs)
    engine = Engine()
    cluster = Cluster(spec, engine, RngStreams(seed), event_log=EventLog())
    return engine, cluster


def test_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec.rsc1_like(n_nodes=0)
    with pytest.raises(ValueError):
        ClusterSpec.rsc1_like(n_nodes=10, lemon_fraction=1.5)


def test_gpus_per_node_is_eight():
    spec = ClusterSpec.rsc1_like(n_nodes=10)
    assert spec.n_gpus == 80


def test_topology_grouping():
    _engine, cluster = build(n_nodes=45)
    node = cluster.nodes[43]
    assert node.rack_id == 21
    assert node.pod_id == 2


def test_lemons_drawn_at_configured_fraction():
    _engine, cluster = build(n_nodes=500)
    lemons = [spec.node_id for spec in cluster.lemon_specs]
    assert len(lemons) == round(0.012 * 500)
    assert len(set(lemons)) == len(lemons)


def test_lemon_root_causes_come_from_table2():
    _engine, cluster = build(n_nodes=500)
    allowed = {c for c, _p in LEMON_ROOT_CAUSE_MIX}
    for spec in cluster.lemon_specs:
        assert spec.component in allowed


def test_lemon_rate_reaches_absolute_target():
    _engine, cluster = build(n_nodes=500)
    for spec in cluster.lemon_specs:
        rate = cluster.hazards.component_rate(spec.node_id, spec.component, 0.0)
        assert rate == pytest.approx(
            cluster.spec.lemon_fail_per_day, rel=0.01
        )


def test_high_severity_incident_fires_node_down_and_remediates():
    engine, cluster = build()
    downs = []
    cluster.on_node_down = lambda node, incident: downs.append(
        (node.node_id, incident.incident_id)
    )
    node = cluster.nodes[0]
    node.allocate(job_id=1, gpus=8)
    incident_id = cluster.monitor.new_incident_id()
    from repro.cluster.components import ComponentType, FailureClass
    from repro.cluster.failures import FailureIncident

    incident = FailureIncident(
        incident_id=incident_id,
        node_id=0,
        component=ComponentType.IB_LINK,
        failure_class=FailureClass.TRANSIENT,
        time=0.0,
        severity=CheckSeverity.HIGH,
    )
    cluster._handle_incident(incident)
    assert downs == [(0, incident_id)]
    assert node.state is NodeState.REMEDIATION


def test_low_severity_incident_drains_until_job_release():
    engine, cluster = build()
    node = cluster.nodes[1]
    node.allocate(job_id=9, gpus=4)
    from repro.cluster.components import ComponentType, FailureClass
    from repro.cluster.failures import FailureIncident

    from repro.cluster.health import HealthCheck, HealthCheckResult

    check = HealthCheck(
        "host_memory_probe",
        frozenset({ComponentType.HOST_MEMORY}),
        CheckSeverity.LOW,
    )
    result = HealthCheckResult(check=check, node_id=1, time=0.0, incident_id=77)
    incident = FailureIncident(
        incident_id=77,
        node_id=1,
        component=ComponentType.HOST_MEMORY,
        failure_class=FailureClass.TRANSIENT,
        time=0.0,
        severity=CheckSeverity.LOW,
        detected_checks=[result],
    )
    cluster._handle_incident(incident)
    assert node.state is NodeState.DRAINING
    cluster.release_job(1, 9)
    assert node.state is NodeState.REMEDIATION


def test_release_job_on_healthy_node_frees_capacity():
    _engine, cluster = build()
    node = cluster.nodes[2]
    node.allocate(job_id=3, gpus=2)
    cluster.release_job(2, 3)
    assert node.free_gpus == 8
    assert node.state is NodeState.HEALTHY


def test_node_restored_callback_reaches_scheduler_hook():
    engine, cluster = build()
    available = []
    cluster.on_node_available = lambda node: available.append(node.node_id)
    node = cluster.nodes[3]
    from repro.cluster.components import ComponentType, FailureClass
    from repro.cluster.failures import FailureIncident

    incident = FailureIncident(
        incident_id=5,
        node_id=3,
        component=ComponentType.GPU,
        failure_class=FailureClass.TRANSIENT,
        time=0.0,
        severity=CheckSeverity.HIGH,
    )
    cluster._handle_incident(incident)
    engine.run_until(90 * DAY)
    # Restoration re-arms the node's failure process, so later organic
    # failures may add more entries; the first must be our node.
    assert available and available[0] == 3
    assert all(node_id == 3 for node_id in available)
    assert node.state is NodeState.HEALTHY


def test_schedulable_nodes_excludes_quarantined_and_remediating():
    _engine, cluster = build(n_nodes=10)
    cluster.nodes[0].quarantined = True
    cluster.nodes[1].enter_remediation()
    ids = list(cluster.schedulable_node_ids())
    assert 0 not in ids and 1 not in ids
    assert len(ids) == 8


def test_episodic_regimes_disabled_flag():
    _engine, cluster = build(enable_episodic_regimes=False)
    assert cluster.hazards.regimes == []


def test_rsc2_spec_has_lower_rf():
    s1 = ClusterSpec.rsc1_like(n_nodes=10)
    s2 = ClusterSpec.rsc2_like(n_nodes=10)
    assert sum(s2.component_rates.values()) < sum(s1.component_rates.values())
