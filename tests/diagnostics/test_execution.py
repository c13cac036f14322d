import pytest

from repro.diagnostics.collective_ops import (
    CollectiveKind,
    CollectiveOp,
    RankProgram,
    spmd_program_set,
    training_loop_program,
)
from repro.diagnostics.execution import simulate_collectives
from repro.diagnostics.scenarios import (
    RankFault,
    RankFaultKind,
    mismatched_program_set,
)


def test_healthy_run_completes_everything():
    programs = spmd_program_set(n_ranks=4, n_steps=2)
    records = simulate_collectives(programs)
    for record in records:
        assert all(e.completed for e in record.entries)
        assert len(record.entries) == len(programs[0])


def test_completion_times_synchronized():
    programs = spmd_program_set(n_ranks=4, n_steps=1)
    records = simulate_collectives(programs)
    for seq in range(len(programs[0])):
        finishes = {r.entry(seq).completed_at for r in records}
        assert len(finishes) == 1  # a collective ends for all ranks at once


def test_start_times_ordered_within_rank():
    programs = spmd_program_set(n_ranks=3, n_steps=2)
    records = simulate_collectives(programs)
    for record in records:
        starts = [e.started_at for e in record.entries]
        assert starts == sorted(starts)


def test_crash_blocks_peers_at_the_faulty_collective():
    programs = spmd_program_set(n_ranks=4, n_steps=2)
    fault = RankFault(rank=2, kind=RankFaultKind.CRASH, at_op=3)
    records = simulate_collectives(programs, faults=[fault])
    by_rank = {r.rank: r for r in records}
    # Everything before op 3 completed on every rank.
    for record in records:
        for entry in record.entries[:3]:
            assert entry.completed
    # Rank 2 never started op 3; peers started but never completed.
    assert not by_rank[2].entry(3).started
    for rank in (0, 1, 3):
        entry = by_rank[rank].entry(3)
        assert entry.started and not entry.completed
    # Nothing after op 3 was issued by anyone.
    for record in records:
        assert max(e.seq for e in record.entries if e.completed) == 2
        assert all(not e.started for e in record.entries[4:])


def test_stuck_outside_has_same_footprint_as_crash():
    programs = spmd_program_set(n_ranks=3, n_steps=1)
    crash = simulate_collectives(
        programs,
        faults=[RankFault(rank=0, kind=RankFaultKind.CRASH, at_op=2)],
    )
    programs2 = spmd_program_set(n_ranks=3, n_steps=1)
    stuck = simulate_collectives(
        programs2,
        faults=[RankFault(rank=0, kind=RankFaultKind.STUCK_OUTSIDE, at_op=2)],
    )
    for a, b in zip(crash, stuck):
        assert [e.started for e in a.entries] == [e.started for e in b.entries]
        assert [e.completed for e in a.entries] == [
            e.completed for e in b.entries
        ]


def test_network_hang_everyone_started_nobody_finished():
    programs = spmd_program_set(n_ranks=4, n_steps=2)
    fault = RankFault(rank=1, kind=RankFaultKind.NETWORK_HANG, at_op=2)
    records = simulate_collectives(programs, faults=[fault])
    for record in records:
        entry = record.entry(2)
        assert entry.started and not entry.completed


def test_mismatched_programs_deadlock_with_all_present():
    programs = mismatched_program_set(n_ranks=4, buggy_rank=3, swap_at=2)
    records = simulate_collectives(programs)
    hang_seq = min(
        e.seq
        for r in records
        for e in r.entries
        if e.started and not e.completed
    )
    signatures = {r.entry(hang_seq).signature for r in records}
    assert len(signatures) > 1  # divergent ops at the hang point


def test_duplicate_ranks_rejected():
    program = training_loop_program(0)
    with pytest.raises(ValueError, match="duplicate"):
        simulate_collectives([program, program])


def test_fault_on_unknown_rank_rejected():
    programs = spmd_program_set(2)
    with pytest.raises(ValueError, match="unknown rank"):
        simulate_collectives(
            programs,
            faults=[RankFault(rank=9, kind=RankFaultKind.CRASH, at_op=0)],
        )


def test_collective_op_validation():
    with pytest.raises(ValueError):
        CollectiveOp(CollectiveKind.ALL_REDUCE, payload_mb=0.0)
    op = CollectiveOp(CollectiveKind.ALL_REDUCE, payload_mb=64.0)
    same = CollectiveOp(CollectiveKind.ALL_REDUCE, payload_mb=64.0, label="x")
    other = CollectiveOp(CollectiveKind.BARRIER, payload_mb=64.0)
    assert op.matches(same)
    assert not op.matches(other)
