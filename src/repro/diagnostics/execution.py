"""Execute per-rank collective programs under NCCL matching semantics.

The simulator advances ranks through their programs.  Collective *i* (by
issue order) starts on a rank when that rank reaches it; it completes for
everyone only when every rank has started it and the issued operations
match.  Faults interrupt this:

* CRASH — the rank never issues its ``at_op``-th collective (and nothing
  after); peers that reach the matching op hang inside it.
* STUCK_OUTSIDE — same observable footprint as a crash (the rank never
  *starts* the op) but the process is alive; the flight recorder still
  shows it missing, which is exactly the paper's point about ambiguous
  timeouts.
* NETWORK_HANG — the rank *starts* the op but the collective never
  finishes; everyone shows started-not-completed.
* Mismatched programs — every rank starts its i-th op, the kinds differ,
  nothing completes: a deadlock with all ranks present.

The output is one :class:`RankFlightRecord` per rank, the input format of
:func:`repro.diagnostics.diagnosis.diagnose_timeout`.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.diagnostics.collective_ops import CollectiveOp, RankProgram
from repro.diagnostics.scenarios import RankFault, RankFaultKind

#: Effective per-rank collective bandwidth used to turn payload into time.
COLLECTIVE_GBPS = 80.0


@dataclass(frozen=True)
class OpLog:
    """Flight-recorder entry: one collective as seen by one rank."""

    seq: int
    kind: str
    label: str
    started_at: Optional[float]
    completed_at: Optional[float]
    payload_mb: float = 0.0

    @property
    def signature(self) -> str:
        """What NCCL matching sees: operation kind + message size."""
        return f"{self.kind}/{self.payload_mb:g}MB"

    @property
    def started(self) -> bool:
        return self.started_at is not None

    @property
    def completed(self) -> bool:
        return self.completed_at is not None


@dataclass
class RankFlightRecord:
    """All collective entries of one rank, in issue order."""

    rank: int
    entries: List[OpLog] = field(default_factory=list)

    def entry(self, seq: int) -> Optional[OpLog]:
        for e in self.entries:
            if e.seq == seq:
                return e
        return None


def _op_duration(op: CollectiveOp) -> float:
    return op.payload_mb * 8 / 1000.0 / COLLECTIVE_GBPS


def simulate_collectives(
    programs: Sequence[RankProgram],
    faults: Sequence[RankFault] = (),
) -> List[RankFlightRecord]:
    """Run the programs to completion or to the first hang.

    Returns flight records for every rank; a hung collective's entries
    stay open (``completed_at=None``).  Detecting *why* is the
    diagnoser's job.
    """
    if not programs:
        raise ValueError("need at least one rank program")
    ranks = [p.rank for p in programs]
    if len(set(ranks)) != len(ranks):
        raise ValueError("duplicate ranks in program set")
    fault_by_rank: Dict[int, RankFault] = {}
    for fault in faults:
        if fault.rank not in ranks:
            raise ValueError(f"fault names unknown rank {fault.rank}")
        if fault.rank in fault_by_rank:
            raise ValueError(f"multiple faults on rank {fault.rank}")
        fault_by_rank[fault.rank] = fault

    records = {p.rank: RankFlightRecord(rank=p.rank) for p in programs}
    clock = {p.rank: 0.0 for p in programs}
    n_ops = max(len(p) for p in programs)

    for seq in range(n_ops):
        # Phase 1: which ranks reach & start this collective?
        started: Dict[int, CollectiveOp] = {}
        for program in programs:
            rank = program.rank
            fault = fault_by_rank.get(rank)
            blocked_before = fault is not None and fault.kind in (
                RankFaultKind.CRASH,
                RankFaultKind.STUCK_OUTSIDE,
            ) and seq >= fault.at_op
            if seq >= len(program) or blocked_before:
                if seq < len(program):
                    records[rank].entries.append(
                        OpLog(
                            seq=seq,
                            kind=program.ops[seq].kind.value,
                            label=program.ops[seq].label,
                            started_at=None,
                            completed_at=None,
                            payload_mb=program.ops[seq].payload_mb,
                        )
                    )
                continue
            op = program.ops[seq]
            start_time = clock[rank] + program.compute_gap
            started[rank] = op
            records[rank].entries.append(
                OpLog(
                    seq=seq,
                    kind=op.kind.value,
                    label=op.label,
                    started_at=start_time,
                    completed_at=None,  # provisional; fixed below
                    payload_mb=op.payload_mb,
                )
            )
            clock[rank] = start_time

        participating = [p.rank for p in programs if seq < len(p)]
        all_started = len(started) == len(participating)
        reference = next(iter(started.values())) if started else None
        kinds_match = all(
            op.matches(reference) for op in started.values()
        ) if started else True
        network_hang = any(
            f.kind is RankFaultKind.NETWORK_HANG and f.at_op == seq
            for f in fault_by_rank.values()
        )
        if all_started and kinds_match and not network_hang and started:
            # Collective completes: synchronize all ranks' clocks.
            op = next(iter(started.values()))
            finish = max(clock[r] for r in started) + _op_duration(op)
            for rank in started:
                entry = records[rank].entries[-1]
                records[rank].entries[-1] = OpLog(
                    seq=entry.seq,
                    kind=entry.kind,
                    label=entry.label,
                    started_at=entry.started_at,
                    completed_at=finish,
                    payload_mb=entry.payload_mb,
                )
                clock[rank] = finish
            continue
        # Hang: every started rank waits until the timeout; nothing after
        # this collective executes on any rank.
        for rank, record in records.items():
            if rank in started:
                entry = record.entries[-1]
                record.entries[-1] = OpLog(
                    seq=entry.seq,
                    kind=entry.kind,
                    label=entry.label,
                    started_at=entry.started_at,
                    completed_at=None,
                    payload_mb=entry.payload_mb,
                )
        break
    return [records[p.rank] for p in programs]
