"""Preemption policy: the two-hour shield and victim selection.

"To help ensure even the lowest priority jobs are able to make progress,
preemptions can only occur after two hours of runtime" (Section III).  A
pending job may preempt strictly-lower-QoS jobs whose current attempt has
run at least the shield duration.  Victim selection frees whole servers:
we rank candidate nodes by (lowest resident QoS, fewest resident GPUs) so
the cheapest capacity is churned first — which is also why large job
failures cascade into *many* small preemptions (Fig. 8's second-order
effect).
"""

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.components import GPUS_PER_NODE
from repro.cluster.node import Node
from repro.scheduler.job import Job, JobState
from repro.sim.timeunits import HOUR

PREEMPTION_SHIELD = 2 * HOUR


@dataclass
class PreemptionPlan:
    """Outcome of victim selection: jobs to kill and nodes that free up."""

    victims: List[Job]
    freed_nodes: List[Node]


#: Cached per-node view of the residents that preemption planning needs:
#: ``(max resident qos, min resident qos, latest resident start_time,
#: held GPUs)``.  ``None`` marks a node that cannot be liberated: it has
#: no residents, is fully free, or hosts a resident that is not RUNNING
#: with a ``start_time``.
ResidentSummary = Tuple[int, int, float, int]


def resident_summary(
    node: Node, jobs: Dict[int, Job]
) -> Optional[ResidentSummary]:
    """Summarize ``node``'s residents for preemption planning."""
    if not node.running_jobs or node.fully_free:
        return None
    residents = [jobs[jid] for jid in node.running_jobs]
    for job in residents:
        if job.state is not JobState.RUNNING or job.start_time is None:
            return None
    qos = [int(job.spec.qos) for job in residents]
    return (
        max(qos),
        min(qos),
        max(job.start_time for job in residents),
        node.total_gpus - node.free_gpus,
    )


@dataclass
class PreemptionPolicy:
    """Chooses preemption victims for a job that cannot otherwise place."""

    shield: float = PREEMPTION_SHIELD

    def plan_with_shielded_start(
        self,
        pending: Job,
        nodes: Dict[int, Node],
        jobs: Dict[int, Job],
        now: float,
        already_free: int,
        excluded: Set[int],
        candidate_ids: Iterable[int],
        summaries: Optional[Dict[int, Optional[ResidentSummary]]] = None,
        lower_ranked_nodes: Optional[int] = None,
    ) -> Tuple[Optional[PreemptionPlan], float]:
        """Find victims so that ``pending`` can start, and when a failed
        plan may next succeed.

        The plan is None if ``pending`` cannot start.  ``already_free``
        is the count of fully free servers that placement already found;
        we only need to liberate the remainder.  A node is liberable only
        if *every* resident job is RUNNING, of strictly lower QoS than
        ``pending`` and past the shield — gang semantics mean killing one
        job frees all its nodes, so we work at node granularity and
        dedupe victims.

        ``candidate_ids`` are the schedulable node ids in ascending order
        (the cluster's incremental index).  ``summaries`` caches
        :func:`resident_summary` per node id across calls; the caller
        must drop a node's entry whenever its residents, its free GPUs or
        a resident's ``start_time`` change (the scheduler's
        :class:`~repro.scheduler.placement.FreeNodeIndex` does this).
        Without it, summaries are built afresh for this call.

        The second value is the smallest latest resident start among the
        nodes that only the shield still protects (``inf`` if none).
        Until ``now - start >= shield`` for it, or the nodes' residents
        or the candidate ids change, the plan stays None: the clock only
        adds candidates by lifting the shield.

        ``lower_ranked_nodes``, if given, bounds the nodes whose
        residents all rank below ``pending``.  When it is short of the
        nodes to liberate, no walk is needed and no clock step helps.
        """
        if pending.n_gpus < GPUS_PER_NODE:
            needed_nodes = 1
        else:
            needed_nodes = pending.n_gpus // GPUS_PER_NODE
        to_liberate = needed_nodes - already_free
        if to_liberate <= 0:
            return PreemptionPlan(victims=[], freed_nodes=[]), math.inf
        if lower_ranked_nodes is not None and lower_ranked_nodes < to_liberate:
            return None, math.inf

        if summaries is None:
            summaries = {}
        pending_qos = int(pending.qos)
        shield = self.shield
        candidates: List[Tuple[Tuple[int, int], int]] = []
        shielded_start = math.inf
        for node_id in candidate_ids:
            if node_id in excluded:
                continue
            try:
                summary = summaries[node_id]
            except KeyError:
                summary = summaries[node_id] = resident_summary(
                    nodes[node_id], jobs
                )
            if summary is None:
                continue
            max_qos, min_qos, latest_start, held = summary
            # Every resident has run at least the shield iff the latest
            # start has: IEEE subtraction is monotone, so now - latest is
            # the minimum of now - start.  Keep the subtraction form; see
            # docs/PERFORMANCE.md ("Preemption planning").
            if max_qos < pending_qos:
                if (now - latest_start) >= shield:
                    candidates.append(((min_qos, held), node_id))
                elif latest_start < shielded_start:
                    shielded_start = latest_start
        if len(candidates) < to_liberate:
            return None, shielded_start

        candidates.sort()
        chosen_nodes = [
            nodes[node_id] for _key, node_id in candidates[:to_liberate]
        ]
        victim_ids: Set[int] = set()
        victims: List[Job] = []
        for node in chosen_nodes:
            for jid in node.running_jobs:
                if jid not in victim_ids:
                    victim_ids.add(jid)
                    victims.append(jobs[jid])
        return PreemptionPlan(victims=victims, freed_nodes=chosen_nodes), math.inf
