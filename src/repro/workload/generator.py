"""The workload generator: profile + arrivals -> a stream of JobSpecs.

Arrival rate is *calibrated to a utilization target*: given the profile's
mean GPU-seconds per job and the cluster's GPU count, the generator derives
the submission rate that loads the cluster to the requested fraction
(the paper's clusters run at 83-85%).  This keeps the same profile usable
across cluster scales — the benchmark clusters are scaled-down replicas.
"""

import itertools
from typing import List

from repro.cluster.components import GPUS_PER_NODE
from repro.sim.rng import RngStreams
from repro.sim.timeunits import DAY
from repro.workload.arrivals import ArrivalProcess
from repro.workload.profiles import WorkloadProfile
from repro.workload.spec import IntendedOutcome, JobSpec, MAX_JOB_LIFETIME

#: Largest job, as a fraction of the cluster's GPUs.
MAX_JOB_FRACTION_OF_CLUSTER = 0.5
#: Chance that a completed job of at least ``LONG_RUN_MIN_GPUS`` GPUs is
#: the head of a multi-segment training run.
LONG_RUN_PROBABILITY = 0.25
LONG_RUN_MIN_GPUS = 128


class WorkloadGenerator:
    """Generates submission-ordered :class:`JobSpec` streams.

    Large high-priority jobs occasionally represent *long training runs*
    whose total work exceeds the 7-day job lifetime: they are emitted as a
    chain of segments sharing one ``jobrun_id``.  The first segment enters
    the arrival stream; each later segment is held in
    :attr:`continuations` and is meant to be submitted when its
    predecessor completes (the campaign runner wires this through the
    scheduler's completion callback).  This realizes the paper's "a
    multi-week LLM pretraining run may consist of multiple different
    jobs" — the unit Fig. 9 measures ETTR over.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        rngs: RngStreams,
        cluster_gpus: int,
        target_utilization: float = 1.0,
        diurnal_amplitude: float = 0.3,
    ):
        if cluster_gpus < GPUS_PER_NODE:
            raise ValueError("cluster must have at least one server of GPUs")
        if not 0 < target_utilization <= 1.5:
            # Values above 1 deliberately over-offer load so the queue stays
            # fed despite sampling lulls (the paper's clusters are "fully
            # loaded" with persistent queues).
            raise ValueError("target_utilization must be in (0, 1.5]")
        max_size = max(
            GPUS_PER_NODE, int(cluster_gpus * MAX_JOB_FRACTION_OF_CLUSTER)
        )
        self.profile = profile.restricted_to_max_size(max_size)
        self.cluster_gpus = cluster_gpus
        self.target_utilization = target_utilization
        self._calibration_rng = rngs.stream(f"workload.calibration.{profile.name}")
        rate = self._calibrated_rate_per_day()
        self.arrivals = ArrivalProcess(
            rate_per_day=rate, diurnal_amplitude=diurnal_amplitude
        )
        self._rng = rngs.stream(f"workload.{profile.name}")
        self._job_ids = itertools.count(1)
        #: predecessor job_id -> the next segment of its training run
        self.continuations: dict = {}

    def _calibrated_rate_per_day(self, n_samples: int = 20_000) -> float:
        """Jobs/day such that offered load = target_utilization * capacity.

        Calibrated by Monte Carlo over the profile's *effective* work (the
        runtime until the job's own intent resolves it), because duration
        truncation at the 7-day cap and early user failures/cancellations
        push realized load well below the untruncated analytic mean.
        """
        rng = self._calibration_rng
        total = 0.0
        for _ in range(n_samples):
            size = self.profile.sample_size(rng)
            work = self.profile.sample_work_seconds(size, rng)
            outcome = self.profile.sample_outcome(rng)
            effective = work
            if outcome in (
                IntendedOutcome.FAILED_USER,
                IntendedOutcome.CANCELLED,
            ):
                effective = work * float(rng.uniform(0.05, 1.0))
            elif outcome is IntendedOutcome.OOM:
                effective = work * float(rng.uniform(0.01, 0.3))
            elif outcome is IntendedOutcome.TIMEOUT:
                effective = work * float(rng.uniform(0.4, 0.9))
            total += size * effective
            # Long-run continuations add segments beyond the arrival
            # stream; fold their expected load into the calibration.  Only
            # about half of that load is realized within a finite campaign
            # (chains started late are cut off by the horizon), hence the
            # discount.
            if (
                outcome is IntendedOutcome.COMPLETED
                and size >= LONG_RUN_MIN_GPUS
                and rng.random() < LONG_RUN_PROBABILITY
            ):
                for _segment in range(int(rng.integers(1, 4))):
                    total += 0.6 * size * self.profile.sample_work_seconds(size, rng)
        mean_gpu_seconds = total / n_samples
        capacity_gpu_seconds_per_day = self.cluster_gpus * DAY
        return (
            self.target_utilization * capacity_gpu_seconds_per_day / mean_gpu_seconds
        )

    @property
    def jobs_per_day(self) -> float:
        return self.arrivals.rate_per_day

    def generate(self, start: float, end: float) -> List[JobSpec]:
        """All job specs submitted in ``[start, end)``, in time order."""
        times = self.arrivals.sample_times(start, end, self._rng)
        return [self._make_spec(t) for t in times]

    def _make_spec(self, submit_time: float) -> JobSpec:
        rng = self._rng
        job_id = next(self._job_ids)
        size = self.profile.sample_size(rng)
        work = self.profile.sample_work_seconds(size, rng)
        qos = self.profile.sample_qos(size, rng)
        outcome = self.profile.sample_outcome(rng)
        outcome_fraction = 1.0
        time_limit = MAX_JOB_LIFETIME
        if outcome in (
            IntendedOutcome.FAILED_USER,
            IntendedOutcome.CANCELLED,
            IntendedOutcome.OOM,
        ):
            # User-level events strike partway through the intended run;
            # OOMs skew early (they usually hit in warmup/data loading).
            outcome_fraction = (
                float(rng.uniform(0.01, 0.3))
                if outcome is IntendedOutcome.OOM
                else float(rng.uniform(0.05, 1.0))
            )
        elif outcome is IntendedOutcome.TIMEOUT:
            # The user under-provisioned the limit relative to the work;
            # the limit stays strictly below the work so the timeout fires.
            time_limit = max(60.0, work * float(rng.uniform(0.4, 0.9)))
            time_limit = min(time_limit, work * 0.95)
        spec = JobSpec(
            job_id=job_id,
            jobrun_id=job_id,
            project=self.profile.sample_project(rng),
            n_gpus=size,
            qos=qos,
            submit_time=submit_time,
            work_seconds=work,
            time_limit=time_limit,
            intended_outcome=outcome,
            outcome_fraction=outcome_fraction,
        )
        if (
            outcome is IntendedOutcome.COMPLETED
            and size >= LONG_RUN_MIN_GPUS
            and rng.random() < LONG_RUN_PROBABILITY
        ):
            self._extend_to_long_run(spec, rng)
        return spec

    def _extend_to_long_run(self, first: JobSpec, rng) -> None:
        """Chain 1-3 follow-on segments onto ``first`` (same jobrun_id)."""
        n_extra = int(rng.integers(1, 4))
        predecessor = first
        for _ in range(n_extra):
            job_id = next(self._job_ids)
            segment = JobSpec(
                job_id=job_id,
                jobrun_id=first.jobrun_id,
                project=first.project,
                n_gpus=first.n_gpus,
                qos=first.qos,
                # Placeholder; the continuation is submitted at the
                # predecessor's completion time by the campaign runner.
                submit_time=first.submit_time,
                work_seconds=self.profile.sample_work_seconds(
                    first.n_gpus, rng
                ),
                intended_outcome=IntendedOutcome.COMPLETED,
            )
            self.continuations[predecessor.job_id] = segment
            predecessor = segment
