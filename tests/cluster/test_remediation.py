import numpy as np
import pytest

from repro.cluster.components import ComponentType, FailureClass
from repro.cluster.failures import FailureIncident
from repro.cluster.node import Node, NodeState
from repro.cluster.remediation import RemediationWorkflow
from repro.sim.engine import Engine
from repro.sim.timeunits import DAY, HOUR


def make_incident(node_id=0, component=ComponentType.GPU, failure_class=FailureClass.PERMANENT):
    return FailureIncident(
        incident_id=1,
        node_id=node_id,
        component=component,
        failure_class=failure_class,
        time=0.0,
    )


def build(seed=0):
    engine = Engine()
    nodes = {0: Node(0, 0, 0)}
    restored = []
    workflow = RemediationWorkflow(
        engine, nodes, np.random.default_rng(seed), on_node_restored=restored.append
    )
    return engine, nodes, workflow, restored


def test_remediation_takes_node_out_and_returns_it():
    engine, nodes, workflow, restored = build()
    ticket = workflow.begin_remediation(nodes[0], make_incident())
    assert nodes[0].state is NodeState.REMEDIATION
    assert ticket.open
    engine.run_until(60 * DAY)
    assert not ticket.open
    assert nodes[0].state is NodeState.HEALTHY
    assert restored == [nodes[0]]
    assert ticket.duration > 0


def test_permanent_gpu_fault_swaps_gpu():
    engine, nodes, workflow, _ = build()
    workflow.begin_remediation(
        nodes[0], make_incident(component=ComponentType.GPU_MEMORY)
    )
    engine.run_until(60 * DAY)
    assert nodes[0].gpu_swaps == 1
    assert sum(t.gpu_swapped for t in workflow.tickets) == 1


def test_transient_fault_does_not_swap():
    engine, nodes, workflow, _ = build()
    workflow.begin_remediation(
        nodes[0],
        make_incident(failure_class=FailureClass.TRANSIENT,
                      component=ComponentType.GPU),
    )
    engine.run_until(60 * DAY)
    assert nodes[0].gpu_swaps == 0


def test_permanent_non_gpu_fault_does_not_swap():
    engine, nodes, workflow, _ = build()
    workflow.begin_remediation(
        nodes[0], make_incident(component=ComponentType.PSU)
    )
    engine.run_until(60 * DAY)
    assert nodes[0].gpu_swaps == 0


def test_lemon_counters_incremented():
    engine, nodes, workflow, _ = build()
    workflow.begin_remediation(nodes[0], make_incident())
    assert nodes[0].counters.tickets == 1
    assert nodes[0].counters.out_count == 1


def test_transient_repairs_are_faster_on_average():
    durations = {FailureClass.TRANSIENT: [], FailureClass.PERMANENT: []}
    for seed in range(20):
        for fc in durations:
            engine, nodes, workflow, _ = build(seed=seed)
            ticket = workflow.begin_remediation(
                nodes[0], make_incident(failure_class=fc)
            )
            engine.run_until(365 * DAY)
            durations[fc].append(ticket.duration)
    assert np.mean(durations[FailureClass.TRANSIENT]) < np.mean(
        durations[FailureClass.PERMANENT]
    )


def test_open_ticket_duration_query_raises():
    engine, nodes, workflow, _ = build()
    ticket = workflow.begin_remediation(nodes[0], make_incident())
    with pytest.raises(ValueError, match="still open"):
        _ = ticket.duration

