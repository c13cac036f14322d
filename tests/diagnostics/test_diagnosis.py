import numpy as np
import pytest

from repro.core.taxonomy import FailureDomain
from repro.diagnostics.collective_ops import spmd_program_set
from repro.diagnostics.diagnosis import (
    MismatchedCollectiveError,
    TimeoutVerdict,
    diagnose_timeout,
    static_spmd_check,
)
from repro.diagnostics.execution import simulate_collectives
from repro.diagnostics.scenarios import (
    RankFault,
    RankFaultKind,
    mismatched_program_set,
    random_scenario,
)


def run_and_diagnose(programs, faults=()):
    return diagnose_timeout(simulate_collectives(programs, faults=faults))


def test_healthy_run_diagnosed_clean():
    result = run_and_diagnose(spmd_program_set(4, n_steps=2))
    assert result.verdict is TimeoutVerdict.NO_FAULT
    assert result.culprit_ranks == ()


def test_crashed_rank_identified():
    fault = RankFault(rank=2, kind=RankFaultKind.CRASH, at_op=4)
    result = run_and_diagnose(spmd_program_set(4, n_steps=2), [fault])
    assert result.verdict is TimeoutVerdict.MISSING_RANKS
    assert result.culprit_ranks == (2,)
    assert result.collective_seq == 4
    # Hardware ruled out: the missing rank never even issued the op.
    assert FailureDomain.HARDWARE_INFRA not in result.suspect_domains


def test_stuck_dataloader_identified_as_missing_rank():
    fault = RankFault(
        rank=0, kind=RankFaultKind.STUCK_OUTSIDE, at_op=1,
        detail="dataloader",
    )
    result = run_and_diagnose(spmd_program_set(3, n_steps=1), [fault])
    assert result.verdict is TimeoutVerdict.MISSING_RANKS
    assert result.culprit_ranks == (0,)


def test_network_hang_flags_in_collective():
    fault = RankFault(rank=1, kind=RankFaultKind.NETWORK_HANG, at_op=3)
    result = run_and_diagnose(spmd_program_set(4, n_steps=2), [fault])
    assert result.verdict is TimeoutVerdict.IN_COLLECTIVE_HANG
    assert result.collective_seq == 3
    # User program ruled out; network/hardware remain suspect.
    assert FailureDomain.USER_PROGRAM not in result.suspect_domains
    assert FailureDomain.HARDWARE_INFRA in result.suspect_domains


def test_mismatched_collectives_identify_buggy_rank():
    programs = mismatched_program_set(n_ranks=5, buggy_rank=4, swap_at=2)
    result = run_and_diagnose(programs)
    assert result.verdict is TimeoutVerdict.MISMATCHED_COLLECTIVES
    assert result.culprit_ranks == (4,)
    assert result.suspect_domains == (FailureDomain.USER_PROGRAM,)


def test_static_checker_catches_what_execution_would_deadlock_on():
    programs = mismatched_program_set(n_ranks=4, buggy_rank=1, swap_at=3)
    with pytest.raises(MismatchedCollectiveError) as excinfo:
        static_spmd_check(programs)
    # The raised seq is exactly where execution hangs.
    records = simulate_collectives(programs)
    hang_seq = min(
        e.seq
        for r in records
        for e in r.entries
        if e.started and not e.completed
    )
    assert excinfo.value.seq == hang_seq


def test_static_checker_passes_correct_programs():
    static_spmd_check(spmd_program_set(8, n_steps=3))  # no raise


def test_static_checker_catches_length_divergence():
    programs = spmd_program_set(3, n_steps=2)
    programs[1].ops.pop()
    with pytest.raises(MismatchedCollectiveError):
        static_spmd_check(programs)


def test_diagnosis_render():
    fault = RankFault(rank=2, kind=RankFaultKind.CRASH, at_op=1)
    result = run_and_diagnose(spmd_program_set(3, n_steps=1), [fault])
    text = result.render()
    assert "missing_ranks" in text
    assert "[2]" in text


def test_diagnoser_accuracy_over_random_scenarios():
    """The diagnoser must recover verdict + culprits on sampled faults."""
    rng = np.random.default_rng(0)
    correct_verdict = 0
    correct_culprits = 0
    trials = 60
    for _ in range(trials):
        scenario = random_scenario(rng)
        result = diagnose_timeout(
            simulate_collectives(scenario.programs, faults=scenario.faults)
        )
        if result.verdict.value == scenario.truth_verdict:
            correct_verdict += 1
        if scenario.truth_verdict == "in_collective_hang":
            # Culprit rank is fundamentally unobservable from flight
            # records alone (everyone is inside); no culprit expected.
            correct_culprits += result.culprit_ranks == ()
        elif result.culprit_ranks == scenario.truth_culprits:
            correct_culprits += 1
    assert correct_verdict == trials
    assert correct_culprits == trials


def test_empty_records_rejected():
    with pytest.raises(ValueError):
        diagnose_timeout([])


def test_diagnoser_perfect_per_verdict_family():
    """150 sampled fault scenarios (crashes, dataloader stalls,
    in-collective hangs, SPMD ordering bugs, healthy runs): every verdict
    family is diagnosed, and its culprits named, without a miss."""
    rng = np.random.default_rng(2025)
    per_family = {}
    for _ in range(150):
        scenario = random_scenario(rng)
        result = diagnose_timeout(
            simulate_collectives(scenario.programs, faults=scenario.faults)
        )
        slot = per_family.setdefault(
            scenario.truth_verdict, {"n": 0, "verdict_ok": 0, "culprit_ok": 0}
        )
        slot["n"] += 1
        if result.verdict.value == scenario.truth_verdict:
            slot["verdict_ok"] += 1
        if scenario.truth_verdict == "in_collective_hang":
            # Every rank is inside the collective: no culprit expected.
            slot["culprit_ok"] += result.culprit_ranks == ()
        else:
            slot["culprit_ok"] += result.culprit_ranks == scenario.truth_culprits
    for family, stats in per_family.items():
        assert stats["verdict_ok"] == stats["n"], family
        assert stats["culprit_ok"] == stats["n"], family
