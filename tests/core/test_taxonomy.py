import pytest

from repro.core.taxonomy import (
    FAILURE_TAXONOMY,
    FailureDomain,
    FailureSymptom,
    SYMPTOM_BY_COMPONENT,
    diagnose,
)


def test_every_symptom_has_an_entry():
    for symptom in FailureSymptom:
        assert symptom in FAILURE_TAXONOMY


def test_table_one_domain_assignments():
    # Spot-check Table I rows verbatim.
    assert FAILURE_TAXONOMY[FailureSymptom.OOM].domains == {
        FailureDomain.USER_PROGRAM
    }
    assert FAILURE_TAXONOMY[FailureSymptom.GPU_UNAVAILABLE].domains == {
        FailureDomain.SYSTEM_SOFTWARE,
        FailureDomain.HARDWARE_INFRA,
    }
    assert FAILURE_TAXONOMY[FailureSymptom.NCCL_TIMEOUT].domains == set(
        FailureDomain
    )
    assert FAILURE_TAXONOMY[FailureSymptom.INFINIBAND_LINK].domains == {
        FailureDomain.HARDWARE_INFRA
    }
    assert FAILURE_TAXONOMY[FailureSymptom.FILESYSTEM_MOUNTS].domains == {
        FailureDomain.SYSTEM_SOFTWARE
    }


def test_nccl_timeout_is_the_canonical_red_herring():
    entry = FAILURE_TAXONOMY[FailureSymptom.NCCL_TIMEOUT]
    assert len(entry.domains) > 1
    assert "Deadlock" in entry.likely_causes


def test_diagnose_rules_out_domains():
    remaining = diagnose(
        FailureSymptom.NCCL_TIMEOUT, ruled_out=[FailureDomain.USER_PROGRAM]
    )
    assert FailureDomain.USER_PROGRAM not in remaining
    assert len(remaining) == 2


def test_diagnose_single_domain_symptom():
    assert diagnose(FailureSymptom.OOM) == [FailureDomain.USER_PROGRAM]
    assert diagnose(FailureSymptom.OOM, ruled_out=[FailureDomain.USER_PROGRAM]) == []


def test_ambiguous_symptoms_include_paper_cases():
    ambiguous = {s for s, e in FAILURE_TAXONOMY.items() if len(e.domains) > 1}
    assert FailureSymptom.NCCL_TIMEOUT in ambiguous
    assert FailureSymptom.GPU_UNAVAILABLE in ambiguous
    assert FailureSymptom.OOM not in ambiguous


def test_component_to_symptom_mapping_is_consistent():
    for component, symptom in SYMPTOM_BY_COMPONENT.items():
        assert FAILURE_TAXONOMY[symptom].component is component
