"""Online reliability estimators over the live stream.

Each estimator consumes stream items incrementally and can answer at any
watermark; each also round-trips its full state through a JSON-safe
``state_dict()`` / ``load_state()`` pair (the snapshot format — see
``docs/STREAMING.md``).  Exactness contracts versus the batch analyses:

* :class:`RollingFailureRateEstimator` — **bit-identical** to
  ``analysis.failure_rate_timeline`` (same window arithmetic, same grid
  values, same count-over-exposure division).
* :class:`OnlineMTTFEstimator` — per-size-bucket MTTF inputs and Gamma
  CIs **bit-identical** to ``core.mttf.empirical_mttf_by_size`` (the
  per-bucket runtime sums accumulate in record order, exactly like the
  batch ``np.bincount``).  The r_f estimate is bit-identical when
  ``min_gpus`` is pinned; the auto-floor mode regroups the sum by job
  size and agrees within ~1e-9 relative (see STREAMING.md).
* :class:`ETTRForecaster` — the measured per-bucket series (means and
  bootstrap CIs) is **bit-identical** to ``analysis.ettr_comparison``;
  the expected (Eq. 1) series inherits the r_f tolerance.
* :class:`LiveLemonEstimator` — provisional per-node scores update
  incrementally from the job stream; once the end-of-stream node records
  land, the flagged cohort is **exactly** the batch
  ``analysis.lemon_analysis`` cohort.
* :class:`FleetGauges` — delivered GPU-seconds are bit-identical to the
  sequential batch total ``Trace.total_gpu_seconds()``; availability tracks remediation
  tickets and quarantine events.
"""

import math
from bisect import bisect_right, insort
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.ettr import ETTRParameters, expected_ettr, expected_ettr_simple
from repro.core.lemon import LemonDetector, LemonPolicy
from repro.core.mttf import MTTFBucket, size_bucket
from repro.jobtypes import JobAttemptRecord, JobState
from repro.sim.events import EventRecord
from repro.sim.timeunits import DAY, HOUR
from repro.stats.bootstrap import bootstrap_mean_ci
from repro.stats.fitting import estimate_rate
from repro.workload.trace import NodeTraceRecord


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# ----------------------------------------------------------------------
# Rolling attributed failure rates (streaming Fig. 4/5)
# ----------------------------------------------------------------------
class RollingFailureRateEstimator:
    """Trailing-window incident rates on the Fig. 5 grid, online.

    Grid point ``t_i = start + i*step`` finalizes once the watermark
    passes ``t_i + allowed_lateness``; the rate is
    ``#incidents in (t_i - window, t_i] / (window * exposure)`` — the
    exact ``stats.rolling.rolling_rate`` arithmetic.  Incident times
    older than the next grid point's window are evicted, so live memory
    is O(window incidents), not O(campaign).

    **Lateness.**  ``cluster.incident`` events are *backdated*: they
    carry the incident's true occurrence time but are appended to the
    event log at the moment a health check detects them, minutes later.
    The stream therefore delivers them after the watermark may already
    have passed their timestamp.  ``allowed_lateness`` (default: one
    window) holds each grid point open long enough for every backdated
    event to land; pending times are kept sorted under ``insort``, which
    matches the batch path bit for bit (``rolling_rate`` sorts its input
    array).  An event that arrives after its grid point finalized anyway
    is counted in :attr:`late_events` — the cross-validation tests
    assert it stays zero, so a lateness violation is loud, not silent.
    """

    def __init__(
        self,
        window: float,
        step: float,
        exposure_per_time: float,
        start: float = 0.0,
        allowed_lateness: Optional[float] = None,
    ):
        _require(window > 0, f"window must be positive, got {window}")
        _require(step > 0, f"step must be positive, got {step}")
        _require(exposure_per_time > 0, "exposure_per_time must be positive")
        self.window = float(window)
        self.step = float(step)
        self.exposure_per_time = float(exposure_per_time)
        self.start = float(start)
        self.lateness = (
            float(allowed_lateness)
            if allowed_lateness is not None
            else self.window
        )
        _require(self.lateness >= 0, "allowed_lateness must be >= 0")
        self.late_events = 0
        self._grid_index = 0  # next grid point to finalize
        # overall + per-component pending incident times (ascending)
        self._times: List[float] = []
        self._times_by_component: Dict[str, List[float]] = {}
        # finalized rate series; per-component series are backfilled with
        # zeros for grid points emitted before the component first fired
        # (an empty trailing window has rate exactly 0.0, as in batch).
        self.overall: List[float] = []
        self.by_component: Dict[str, List[float]] = {}
        self.first_fire: Dict[str, float] = {}

    # -- ingestion -----------------------------------------------------
    def observe_event(self, event: EventRecord) -> None:
        if event.kind == "cluster.incident":
            if self._grid_index > 0 and event.time <= self.grid_time(
                self._grid_index - 1
            ):
                # A finalized point should have counted this; raise the
                # allowed lateness if this ever fires.
                self.late_events += 1
            insort(self._times, event.time)
            component = event.data.get("component", "?")
            series = self._times_by_component.get(component)
            if series is None:
                series = self._times_by_component[component] = []
                self.by_component.setdefault(
                    component, [0.0] * len(self.overall)
                )
            insort(series, event.time)
        elif event.kind == "health.check_failed":
            check = event.data.get("check")
            if check not in self.first_fire:
                self.first_fire[check] = event.time

    # -- watermark advancement -----------------------------------------
    def grid_time(self, index: int) -> float:
        """The ``np.arange`` value for grid slot ``index``."""
        return self.start + index * self.step

    def _finalize_one(self) -> None:
        t = self.grid_time(self._grid_index)
        denom = self.window * self.exposure_per_time
        lower = t - self.window
        self.overall.append(self._rate(self._times, t, lower, denom))
        for component, times in self._times_by_component.items():
            self.by_component[component].append(
                self._rate(times, t, lower, denom)
            )
        self._grid_index += 1
        # Evict times no future grid point can see: the next point's
        # trailing window is (t + step - window, t + step].
        evict_below = self.grid_time(self._grid_index) - self.window
        self._evict(self._times, evict_below)
        for times in self._times_by_component.values():
            self._evict(times, evict_below)

    @staticmethod
    def _rate(times: List[float], t: float, lower: float, denom: float) -> float:
        # count in (lower, t]: searchsorted(side="right") on both ends.
        count = float(bisect_right(times, t) - bisect_right(times, lower))
        return count / denom

    @staticmethod
    def _evict(times: List[float], below: float) -> None:
        keep_from = bisect_right(times, below)
        if keep_from:
            del times[:keep_from]

    def advance(self, watermark: float) -> None:
        """Finalize every grid point the watermark has safely cleared.

        A point ``t`` finalizes only once ``t + lateness < watermark``
        (strict, since items share timestamps): events at or before
        ``t`` may still be in flight up to ``lateness`` behind the
        watermark (backdated incidents — see the class docstring).
        """
        while self.grid_time(self._grid_index) + self.lateness < watermark:
            self._finalize_one()

    def finish(self, end: float) -> None:
        """Flush the remaining grid, matching ``np.arange(start, end +
        step/2, step)``'s point count exactly."""
        n_points = max(
            0, math.ceil((end + self.step / 2 - self.start) / self.step)
        )
        _require(
            self._grid_index <= n_points,
            "watermark advanced beyond the stream end",
        )
        while self._grid_index < n_points:
            self._finalize_one()

    # -- queries -------------------------------------------------------
    @property
    def window_days(self) -> float:
        return self.window / DAY

    def times_days(self) -> np.ndarray:
        grid = np.asarray(
            [self.grid_time(i) for i in range(len(self.overall))]
        )
        return grid / DAY

    def overall_series(self) -> np.ndarray:
        return np.asarray(self.overall, dtype=float)

    def component_series(self) -> Dict[str, np.ndarray]:
        return {
            name: np.asarray(series, dtype=float)
            for name, series in sorted(self.by_component.items())
        }

    def current_rate(self) -> float:
        """Most recent finalized overall rate (0 before the first point)."""
        return self.overall[-1] if self.overall else 0.0

    def check_introductions(self) -> Dict[str, float]:
        """First-firing days of the introduced checks (Fig. 5 markers)."""
        out = {}
        for check in ("filesystem_mounts", "ipmi_critical_interrupt"):
            if check in self.first_fire:
                out[check] = self.first_fire[check] / DAY
        return out

    # -- snapshot ------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "window": self.window,
            "step": self.step,
            "exposure_per_time": self.exposure_per_time,
            "start": self.start,
            "allowed_lateness": self.lateness,
            "late_events": self.late_events,
            "grid_index": self._grid_index,
            "times": list(self._times),
            "times_by_component": {
                k: list(v) for k, v in self._times_by_component.items()
            },
            "overall": list(self.overall),
            "by_component": {k: list(v) for k, v in self.by_component.items()},
            "first_fire": dict(self.first_fire),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RollingFailureRateEstimator":
        est = cls(
            window=state["window"],
            step=state["step"],
            exposure_per_time=state["exposure_per_time"],
            start=state["start"],
            allowed_lateness=state["allowed_lateness"],
        )
        est.late_events = int(state["late_events"])
        est._grid_index = int(state["grid_index"])
        est._times = [float(t) for t in state["times"]]
        est._times_by_component = {
            k: [float(t) for t in v]
            for k, v in state["times_by_component"].items()
        }
        est.overall = [float(r) for r in state["overall"]]
        est.by_component = {
            k: [float(r) for r in v] for k, v in state["by_component"].items()
        }
        est.first_fire = {k: float(v) for k, v in state["first_fire"].items()}
        return est


# ----------------------------------------------------------------------
# Online per-size MTTF + r_f (streaming Fig. 7)
# ----------------------------------------------------------------------
class OnlineMTTFEstimator:
    """Incremental Gamma-fit inputs for Fig. 7.

    Per-size-bucket ``(records, failures, runtime-hours)`` accumulate in
    arrival order — identical floating-point order to the batch
    ``np.bincount``, so ``buckets()`` is bit-identical to
    ``empirical_mttf_by_size``.  For r_f the exposure accumulates per
    distinct ``n_gpus`` value, so the ``n_gpus > floor`` filter can be
    applied at query time even though the auto floor (half the largest
    observed job) moves as larger jobs arrive; regrouping reassociates
    the sum, hence the documented ~1e-9 relative tolerance.  Pinning
    ``rf_min_gpus`` keeps one sequential accumulator and is exact.
    """

    def __init__(
        self,
        use_ground_truth: bool = True,
        confidence: float = 0.90,
        rf_min_gpus: Optional[int] = None,
    ):
        self.use_ground_truth = use_ground_truth
        self.confidence = float(confidence)
        self.rf_min_gpus = rf_min_gpus
        # size bucket -> [n_records, failures, runtime_hours]
        self._buckets: Dict[int, List[float]] = {}
        # exact n_gpus -> [node_days, failures] (for query-time floors)
        self._by_gpus: Dict[int, List[float]] = {}
        self._largest = 0
        # sequential accumulators for the pinned floor (exact path)
        self._pinned_node_days = 0.0
        self._pinned_failures = 0

    def _is_hw_failure(self, record: JobAttemptRecord) -> bool:
        if self.use_ground_truth:
            return record.is_hw_interruption
        if record.state is JobState.NODE_FAIL:
            return True
        return (
            record.state in (JobState.FAILED, JobState.REQUEUED)
            and record.hw_attributed
        )

    def observe_job(self, record: JobAttemptRecord) -> None:
        failed = self._is_hw_failure(record)
        bucket = self._buckets.setdefault(
            size_bucket(record.n_gpus), [0, 0, 0.0]
        )
        bucket[0] += 1
        if failed:
            bucket[1] += 1
        bucket[2] += record.runtime / HOUR
        group = self._by_gpus.setdefault(record.n_gpus, [0.0, 0])
        group[0] += record.runtime / DAY * record.n_nodes
        if failed:
            group[1] += 1
        if record.n_gpus > self._largest:
            self._largest = record.n_gpus
        if self.rf_min_gpus is not None and record.n_gpus > self.rf_min_gpus:
            self._pinned_node_days += record.runtime / DAY * record.n_nodes
            if failed:
                self._pinned_failures += 1

    # -- queries -------------------------------------------------------
    @property
    def largest_gpus(self) -> int:
        return self._largest

    @property
    def n_records(self) -> int:
        return sum(int(b[0]) for b in self._buckets.values())

    def buckets(self, min_records: int = 1) -> List[MTTFBucket]:
        """The Fig. 7 empirical buckets at the current watermark."""
        out = []
        for bucket in sorted(self._buckets):
            n, failures, hours = self._buckets[bucket]
            if n < min_records or hours <= 0:
                continue
            out.append(
                MTTFBucket(
                    gpus=bucket,
                    n_records=int(n),
                    failures=int(failures),
                    runtime_hours=hours,
                    estimate=estimate_rate(
                        int(failures), hours, confidence=self.confidence
                    ),
                )
            )
        return out

    def auto_floor(self, default: int = 128) -> int:
        """``mttf_analysis``'s floor rule: half the largest job when the
        campaign never reaches ``default`` GPUs."""
        if self._largest <= default:
            return max(8, self._largest // 2)
        return default

    def ettr_floor(self) -> int:
        """``ettr_comparison``'s floor: ``min(128, max(8, largest//2))``."""
        return min(128, max(8, self._largest // 2))

    def rf_inputs(self, min_gpus: Optional[int] = None) -> Tuple[int, float]:
        """(failures, node_days) over jobs with ``n_gpus > min_gpus``."""
        if min_gpus is None:
            min_gpus = self.rf_min_gpus
            if min_gpus is not None:
                return self._pinned_failures, self._pinned_node_days
            min_gpus = self.auto_floor()
        if min_gpus == self.rf_min_gpus:
            return self._pinned_failures, self._pinned_node_days
        node_days = 0.0
        failures = 0
        for gpus in sorted(self._by_gpus):
            if gpus <= min_gpus:
                continue
            group = self._by_gpus[gpus]
            node_days += group[0]
            failures += int(group[1])
        return failures, node_days

    def failure_rate(self, min_gpus: Optional[int] = None):
        """r_f per node-day as a ``RateEstimate``; see ``rf_inputs``."""
        failures, node_days = self.rf_inputs(min_gpus)
        if node_days <= 0:
            raise ValueError(
                "no runtime from jobs above the GPU floor yet; "
                "wait for larger jobs or lower min_gpus"
            )
        return estimate_rate(failures, node_days, confidence=self.confidence)

    # -- snapshot ------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "use_ground_truth": self.use_ground_truth,
            "confidence": self.confidence,
            "rf_min_gpus": self.rf_min_gpus,
            "buckets": [
                [k, v[0], v[1], v[2]] for k, v in sorted(self._buckets.items())
            ],
            "by_gpus": [
                [k, v[0], v[1]] for k, v in sorted(self._by_gpus.items())
            ],
            "largest": self._largest,
            "pinned_node_days": self._pinned_node_days,
            "pinned_failures": self._pinned_failures,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "OnlineMTTFEstimator":
        est = cls(
            use_ground_truth=bool(state["use_ground_truth"]),
            confidence=state["confidence"],
            rf_min_gpus=state["rf_min_gpus"],
        )
        est._buckets = {
            int(k): [int(n), int(f), float(h)]
            for k, n, f, h in state["buckets"]
        }
        est._by_gpus = {
            int(k): [float(nd), int(f)] for k, nd, f in state["by_gpus"]
        }
        est._largest = int(state["largest"])
        est._pinned_node_days = float(state["pinned_node_days"])
        est._pinned_failures = int(state["pinned_failures"])
        return est


# ----------------------------------------------------------------------
# ETTR forecaster (streaming Fig. 9 / Eq. 1-2)
# ----------------------------------------------------------------------
class ETTRForecaster:
    """Re-evaluates Eq. 1/2 and the measured job-run series as jobs land.

    Accumulates a compact per-attempt tuple per job run (start, runtime,
    queue wait, gpus, qos) — enough to rebuild Fig. 9's cohort exactly:
    run ordering, attempt ordering, filters, per-run ETTR arithmetic,
    and the seeded bootstrap all replicate ``analysis.ettr_comparison``
    operation-for-operation, so the measured series is bit-identical.
    The expected series takes r_f as an input (from
    :class:`OnlineMTTFEstimator`).
    """

    def __init__(
        self,
        checkpoint_interval: float = 1 * HOUR,
        restart_overhead: float = 5 * 60.0,
        min_total_runtime: float = 24 * HOUR,
        qos: Optional[int] = None,
        min_runs_per_bucket: int = 2,
    ):
        _require(checkpoint_interval > 0, "checkpoint_interval must be > 0")
        _require(restart_overhead >= 0, "restart_overhead must be >= 0")
        self.checkpoint_interval = float(checkpoint_interval)
        self.restart_overhead = float(restart_overhead)
        self.min_total_runtime = float(min_total_runtime)
        self.qos = qos  # int value of QosTier, or None for all tiers
        self.min_runs_per_bucket = int(min_runs_per_bucket)
        # jobrun_id -> [[start, runtime, queue_wait, n_gpus, qos], ...]
        # in arrival (record) order; dict insertion order is first-arrival
        # order, the same tie-break ``group_job_runs``'s stable sort sees.
        self._runs: Dict[int, List[List[float]]] = {}

    def observe_job(self, record: JobAttemptRecord) -> None:
        self._runs.setdefault(record.jobrun_id, []).append(
            [
                record.start_time,
                record.runtime,
                record.queue_wait,
                record.n_gpus,
                int(record.qos),
            ]
        )

    # -- the Fig. 9 cohort, rebuilt exactly ----------------------------
    def _cohort_by_bucket(self) -> Dict[int, List[List[List[float]]]]:
        runs = [
            sorted(attempts, key=lambda a: a[0])
            for attempts in self._runs.values()
        ]
        runs.sort(key=lambda attempts: attempts[0][0])
        by_bucket: Dict[int, List[List[List[float]]]] = {}
        for attempts in runs:
            total_runtime = sum(a[1] for a in attempts)
            if total_runtime < self.min_total_runtime:
                continue
            if self.qos is not None and attempts[0][4] != self.qos:
                continue
            by_bucket.setdefault(size_bucket(int(attempts[0][3])), []).append(
                attempts
            )
        return by_bucket

    def _run_ettr(self, attempts: List[List[float]]) -> float:
        # core.metrics.job_run_ettr's arithmetic, term for term.
        u0 = self.restart_overhead
        cp_loss = self.checkpoint_interval / 2
        unproductive = 0.0
        for i, attempt in enumerate(attempts):
            loss = u0 if i == 0 else u0 + cp_loss
            unproductive += min(loss, attempt[1])
        productive = max(0.0, sum(a[1] for a in attempts) - unproductive)
        queue = sum(a[2] for a in attempts)
        wallclock = productive + unproductive + queue
        if wallclock <= 0:
            return 0.0
        return productive / wallclock

    def forecast(self, n_gpus: int, rf: float, queue_time: float,
                 productive_runtime: float, simple: bool = False) -> float:
        """Eq. 1 (or Eq. 2 with ``simple=True``) for one hypothetical run.

        ``rf`` is failures per node-day — a float or anything with a
        ``.rate`` attribute (e.g. ``OnlineMTTFEstimator.failure_rate()``).
        """
        rf = getattr(rf, "rate", rf)
        params = ETTRParameters(
            n_nodes=max(1, n_gpus // 8),
            failure_rate_per_node_day=rf,
            checkpoint_interval=self.checkpoint_interval,
            restart_overhead=self.restart_overhead,
            queue_time=max(1.0, queue_time),
            productive_runtime=max(HOUR, productive_runtime),
        )
        try:
            if simple:
                return expected_ettr_simple(params)
            return expected_ettr(params)
        except ValueError:
            return 0.0

    def comparison(self, rf: float) -> List[Dict[str, float]]:
        """Fig. 9's rows at the current watermark.

        Returns dicts with keys ``gpus, n_runs, measured_mean,
        measured_lo, measured_hi, expected, mean_queue_seconds``.
        """
        rows = []
        by_bucket = self._cohort_by_bucket()
        for gpus in sorted(by_bucket):
            cohort = by_bucket[gpus]
            if len(cohort) < self.min_runs_per_bucket:
                continue
            ettrs = [self._run_ettr(attempts) for attempts in cohort]
            mean, lo, hi = bootstrap_mean_ci(ettrs, confidence=0.90)
            # mean_requeue_wait: non-first attempts' queue waits (0 if none)
            queue_waits = [
                (
                    sum(a[2] for a in attempts[1:]) / (len(attempts) - 1)
                    if len(attempts) > 1
                    else 0.0
                )
                for attempts in cohort
            ]
            initial_waits = [attempts[0][2] for attempts in cohort]
            mean_q = float(np.mean(queue_waits + initial_waits))
            mean_runtime = float(
                np.mean([sum(a[1] for a in attempts) for attempts in cohort])
            )
            rows.append(
                {
                    "gpus": gpus,
                    "n_runs": len(cohort),
                    "measured_mean": mean,
                    "measured_lo": lo,
                    "measured_hi": hi,
                    "expected": self.forecast(gpus, rf, mean_q, mean_runtime),
                    "mean_queue_seconds": mean_q,
                }
            )
        return rows

    @property
    def n_runs_seen(self) -> int:
        return len(self._runs)

    # -- snapshot ------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "checkpoint_interval": self.checkpoint_interval,
            "restart_overhead": self.restart_overhead,
            "min_total_runtime": self.min_total_runtime,
            "qos": self.qos,
            "min_runs_per_bucket": self.min_runs_per_bucket,
            # insertion order is load-bearing (run tie-break order), so
            # runs serialize as an ordered pair list, not a JSON object.
            "runs": [[k, v] for k, v in self._runs.items()],
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "ETTRForecaster":
        est = cls(
            checkpoint_interval=state["checkpoint_interval"],
            restart_overhead=state["restart_overhead"],
            min_total_runtime=state["min_total_runtime"],
            qos=state["qos"],
            min_runs_per_bucket=int(state["min_runs_per_bucket"]),
        )
        est._runs = {
            int(run_id): [
                [float(a[0]), float(a[1]), float(a[2]), int(a[3]), int(a[4])]
                for a in attempts
            ]
            for run_id, attempts in state["runs"]
        }
        return est


# ----------------------------------------------------------------------
# Live lemon scores (streaming Section IV-A)
# ----------------------------------------------------------------------
class LiveLemonEstimator:
    """Per-node lemon signals, updated as the stream flows.

    Mid-stream, three of the paper's seven signals are exactly
    reconstructible from the job stream (``single_node_node_fails``,
    ``multi_node_node_fails`` via ``failing_node_id``, and the derived
    failure rate; jobs-seen approximates the node counter because
    attempts still running at campaign end never produce records) —
    plus ticket counts from remediation events.  ``provisional_scores``
    votes over those with the paper's default thresholds.  The
    authoritative :class:`NodeTraceRecord`s arrive at end of stream;
    ``report()`` then reproduces the batch Fig. 11 cohort exactly.
    """

    #: live-signal thresholds: the subset of the paper's defaults that
    #: the stream reconstructs before node records arrive.
    LIVE_THRESHOLDS = {
        "tickets": 4,
        "multi_node_node_fails": 4,
        "single_node_node_fails": 2,
        "single_node_node_failure_rate": 0.02,
    }

    def __init__(self, min_signals: int = 2):
        self.min_signals = int(min_signals)
        # node_id -> [jobs_seen, single_fails, multi_fails, tickets]
        self._counters: Dict[int, List[int]] = {}
        self._node_rows: List[Dict[str, Any]] = []

    def _bump(self, node_id: int, slot: int) -> None:
        counters = self._counters.setdefault(node_id, [0, 0, 0, 0])
        counters[slot] += 1

    def observe_job(self, record: JobAttemptRecord) -> None:
        if record.n_nodes == 1 and record.node_ids:
            self._bump(record.node_ids[0], 0)
        if record.failing_node_id is not None:
            slot = 1 if record.n_nodes == 1 else 2
            self._bump(record.failing_node_id, slot)

    def observe_event(self, event: EventRecord) -> None:
        if event.kind == "remediation.ticket_opened":
            node_id = event.data.get("node_id")
            if node_id is not None:
                self._bump(int(node_id), 3)

    def observe_node(self, record: NodeTraceRecord) -> None:
        from dataclasses import asdict

        self._node_rows.append(asdict(record))

    # -- queries -------------------------------------------------------
    @property
    def node_records_complete(self) -> bool:
        return bool(self._node_rows)

    def live_signals(self, node_id: int) -> Dict[str, float]:
        jobs, single, multi, tickets = self._counters.get(
            node_id, [0, 0, 0, 0]
        )
        return {
            "tickets": float(tickets),
            "multi_node_node_fails": float(multi),
            "single_node_node_fails": float(single),
            "single_node_node_failure_rate": (
                single / jobs if jobs else 0.0
            ),
        }

    def provisional_scores(self) -> Dict[int, int]:
        """node_id -> live threshold votes (nodes with >= 1 vote)."""
        out = {}
        for node_id in sorted(self._counters):
            signals = self.live_signals(node_id)
            votes = sum(
                1
                for name, cut in self.LIVE_THRESHOLDS.items()
                if signals[name] >= cut
            )
            if votes:
                out[node_id] = votes
        return out

    def suspects(self) -> List[int]:
        """Nodes whose live votes already meet the policy minimum."""
        return sorted(
            node_id
            for node_id, votes in self.provisional_scores().items()
            if votes >= self.min_signals
        )

    def _node_records(self) -> List[NodeTraceRecord]:
        return [NodeTraceRecord(**row) for row in self._node_rows]

    def report(
        self,
        policy: Optional[LemonPolicy] = None,
        cdf_percentile: float = 99.0,
    ):
        """The batch ``LemonReport``, once node records have arrived."""
        records = self._node_records()
        if not records:
            raise ValueError(
                "node records have not arrived yet (they close the "
                "stream); use provisional_scores() mid-stream"
            )
        if policy is None:
            policy = LemonPolicy.from_cdf(records, percentile=cdf_percentile)
        return LemonDetector(policy).evaluate(records)

    # -- snapshot ------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "min_signals": self.min_signals,
            "counters": [[k, v] for k, v in sorted(self._counters.items())],
            "node_rows": list(self._node_rows),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "LiveLemonEstimator":
        est = cls(min_signals=int(state["min_signals"]))
        est._counters = {
            int(k): [int(x) for x in v] for k, v in state["counters"]
        }
        est._node_rows = [dict(row) for row in state["node_rows"]]
        return est


# ----------------------------------------------------------------------
# Fleet availability / goodput gauges
# ----------------------------------------------------------------------
class FleetGauges:
    """Whole-fleet live gauges: capacity out, quarantine, goodput.

    Down-node tracking follows remediation tickets
    (``remediation.ticket_opened``/``ticket_closed``); drains that reach
    remediation without a ticket are invisible until their ticket opens,
    so the down set is a (tight) lower bound.  Delivered GPU-seconds sum
    ``record.gpu_seconds`` in record order — bit-identical to the
    sequential batch total.
    """

    def __init__(self, n_nodes: int, n_gpus: int):
        _require(n_nodes > 0 and n_gpus > 0, "fleet must be non-empty")
        self.n_nodes = int(n_nodes)
        self.n_gpus = int(n_gpus)
        self.gpu_seconds = 0.0
        self.jobs_by_state: Dict[str, int] = {}
        self.hw_interruptions = 0
        self._down: List[int] = []  # sorted node ids in remediation
        self._quarantined: List[int] = []
        self.tickets_opened = 0
        self.tickets_closed = 0

    @staticmethod
    def _set_add(ids: List[int], node_id: int) -> None:
        pos = bisect_right(ids, node_id)
        if pos == 0 or ids[pos - 1] != node_id:
            ids.insert(pos, node_id)

    @staticmethod
    def _set_discard(ids: List[int], node_id: int) -> None:
        pos = bisect_right(ids, node_id)
        if pos and ids[pos - 1] == node_id:
            del ids[pos - 1]

    def observe_job(self, record: JobAttemptRecord) -> None:
        self.gpu_seconds += record.gpu_seconds
        state = record.state.value
        self.jobs_by_state[state] = self.jobs_by_state.get(state, 0) + 1
        if record.is_hw_interruption:
            self.hw_interruptions += 1

    def observe_event(self, event: EventRecord) -> None:
        kind = event.kind
        if kind == "remediation.ticket_opened":
            node_id = event.data.get("node_id")
            if node_id is not None:
                self._set_add(self._down, int(node_id))
                self.tickets_opened += 1
        elif kind == "remediation.ticket_closed":
            node_id = event.data.get("node_id")
            if node_id is not None:
                self._set_discard(self._down, int(node_id))
                self.tickets_closed += 1
        elif kind == "lemon.quarantined":
            node_id = event.data.get("node_id")
            if node_id is not None:
                self._set_add(self._quarantined, int(node_id))

    # -- queries -------------------------------------------------------
    @property
    def nodes_down(self) -> int:
        return len(self._down)

    @property
    def nodes_quarantined(self) -> int:
        return len(self._quarantined)

    def availability(self) -> float:
        """Fraction of the fleet not known to be out of capacity."""
        return 1.0 - self.nodes_down / self.n_nodes

    def utilization(self, watermark: float) -> float:
        """Delivered GPU-time over fleet capacity up to the watermark."""
        if watermark <= 0:
            return 0.0
        return self.gpu_seconds / (self.n_gpus * watermark)

    # -- snapshot ------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "n_nodes": self.n_nodes,
            "n_gpus": self.n_gpus,
            "gpu_seconds": self.gpu_seconds,
            "jobs_by_state": dict(self.jobs_by_state),
            "hw_interruptions": self.hw_interruptions,
            "down": list(self._down),
            "quarantined": list(self._quarantined),
            "tickets_opened": self.tickets_opened,
            "tickets_closed": self.tickets_closed,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "FleetGauges":
        est = cls(n_nodes=int(state["n_nodes"]), n_gpus=int(state["n_gpus"]))
        est.gpu_seconds = float(state["gpu_seconds"])
        est.jobs_by_state = {
            k: int(v) for k, v in state["jobs_by_state"].items()
        }
        est.hw_interruptions = int(state["hw_interruptions"])
        est._down = [int(x) for x in state["down"]]
        est._quarantined = [int(x) for x in state["quarantined"]]
        est.tickets_opened = int(state["tickets_opened"])
        est.tickets_closed = int(state["tickets_closed"])
        return est
