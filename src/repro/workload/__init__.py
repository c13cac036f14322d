"""Synthetic workload: the stand-in for the paper's proprietary job logs.

The generator produces streams of :class:`~repro.workload.spec.JobSpec`
whose marginal distributions (size mixture, duration by size, QoS tiers,
intended outcomes, arrival rate) are calibrated so the resulting traces
match the published shapes of Fig. 3 (status mix) and Fig. 6 (size vs
compute share).  Multi-job retry chains ("job runs") mirror the paper's
ETTR unit of analysis.
"""

from repro.workload.spec import IntendedOutcome, JobSpec, QosTier
from repro.workload.profiles import WorkloadProfile, rsc1_profile, rsc2_profile
from repro.workload.arrivals import ArrivalProcess
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import NodeTraceRecord, Trace

__all__ = [
    "IntendedOutcome",
    "JobSpec",
    "QosTier",
    "WorkloadProfile",
    "rsc1_profile",
    "rsc2_profile",
    "ArrivalProcess",
    "WorkloadGenerator",
    "NodeTraceRecord",
    "Trace",
]
