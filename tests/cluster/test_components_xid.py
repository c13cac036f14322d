from repro.cluster.components import (
    ComponentType,
    FailureClass,
    NODE_COMPONENT_COUNTS,
)
from repro.cluster.xid import (
    COMPONENT_PRIMARY_XID,
    XID_CATALOG,
)


def test_node_has_eight_gpus_and_rails():
    assert NODE_COMPONENT_COUNTS[ComponentType.GPU] == 8
    assert NODE_COMPONENT_COUNTS[ComponentType.IB_LINK] == 8
    assert NODE_COMPONENT_COUNTS[ComponentType.NVLINK] == 8


def test_xid_catalog_contains_paper_codes():
    # XID 79 (fell off bus) and 119 (GSP timeout) are central to the paper.
    assert XID_CATALOG[79].component is ComponentType.PCIE
    assert XID_CATALOG[119].name == "gsp_timeout"
    assert XID_CATALOG[48].component is ComponentType.GPU_MEMORY


def test_user_suspect_xids_excluded_from_infrastructure():
    assert XID_CATALOG[31].user_suspect  # page fault: user bug
    assert not XID_CATALOG[79].user_suspect


def test_component_primary_xids_are_catalogued():
    for code in COMPONENT_PRIMARY_XID.values():
        if code is not None:
            assert code in XID_CATALOG


def test_failure_class_values():
    assert FailureClass.TRANSIENT.value == "transient"
    assert FailureClass.PERMANENT.value == "permanent"
