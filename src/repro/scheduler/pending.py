"""The pending queue, kept in priority order between scheduling passes.

A scheduling pass visits pending jobs by ``(-priority, job_id)``
(:meth:`PriorityPolicy.sort_pending`).  Re-keying and sorting the whole
queue on every pass costs O(queue) even when almost nothing can act,
and at full RSC-1 scale the backlog makes that superlinear.  This queue
keeps the order between passes instead, exactly (``docs/PERFORMANCE.md``,
"Priority keys"):

* Jobs live in buckets keyed by ``(qos, n_gpus)``.  Every job of a
  bucket shares the QoS and size terms, and every float operation of
  :meth:`PriorityPolicy.neg_priority` is monotone in ``enqueue_time``,
  so the key never decreases along a bucket kept sorted by
  ``(enqueue_time, job_id)``.  The exact order is that order with each
  run of *equal* keys re-sorted by job id.  Runs are found by computing
  the real key of the next job, never from distinct enqueue times:
  rounding can make distinct times give one key.
* A job whose key reaches the bucket's floor (a saturated age: the key
  cannot fall further as the clock advances) moves once into the
  bucket's ``saturated`` list, sorted by job id, so the saturated run is
  not re-sorted on every pass.
* A pass merges the bucket heads lazily with a heap (:class:`QueuePass`).
  The caller may *park* the bucket of the job it just handled, when the
  rest of that bucket provably cannot act, and *wake* every parked
  bucket when that stops holding.  A woken bucket resumes at its first
  job after the last one the pass handled, found by bisection.

Jobs stay in place during a pass.  Jobs added during a pass (preemption
victims) are held back and joined at :meth:`PendingQueue.end_pass`, so
the pass does not visit them, and the jobs it started leave the queue
there.
"""

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.scheduler.job import Job
from repro.scheduler.priority import PriorityPolicy

_job_id = attrgetter("spec.job_id")


class _Bucket:
    """The pending jobs of one ``(qos, n_gpus)``, and a pass's cursor."""

    __slots__ = (
        "qos",
        "n_gpus",
        "terms",
        "floor_key",
        "entries",
        "saturated",
        "run",
        "run_at",
        "run_key",
        "pos",
        "pos_key",
    )

    def __init__(self, qos: int, n_gpus: int, policy: PriorityPolicy):
        self.qos = qos
        self.n_gpus = n_gpus
        self.terms = policy.static_terms(qos, n_gpus)
        #: The smallest key any job of the bucket can have (a saturated
        #: age).  Once a job's key reaches it, it stays there.
        self.floor_key = policy.neg_priority(self.terms, -math.inf, 0.0)
        #: ``(enqueue_time, job_id, job)``, ascending.
        self.entries: List[Tuple[float, int, Job]] = []
        #: Jobs whose key is ``floor_key``, by job id.
        self.saturated: List[Job] = []
        # The cursor: the current run of equal keys (by job id), the
        # position in it, and the next entry not yet in a run, with its
        # key when already computed.
        self.run: Optional[List[Job]] = None
        self.run_at = 0
        self.run_key = 0.0
        self.pos = 0
        self.pos_key: Optional[float] = None

    def __len__(self) -> int:
        return len(self.entries) + len(self.saturated)

    def unsaturate(self) -> None:
        """Return every saturated job to ``entries`` (the clock went back)."""
        for job in self.saturated:
            insort(self.entries, (job.enqueue_time, job.spec.job_id, job))
        self.saturated = []

    def open(self, neg, now: float) -> bool:
        """Put the cursor on the first job; False if the bucket is empty.

        First the entries whose key reached the floor move to
        ``saturated``: keys never decrease along ``entries``, so they
        are a prefix.
        """
        entries = self.entries
        terms = self.terms
        floor_key = self.floor_key
        saturated = self.saturated
        self.pos = 0
        self.pos_key = None
        n = 0
        for entry in entries:
            key = neg(terms, entry[0], now)
            if key != floor_key:
                self.pos_key = key
                break
            insort(saturated, entry[2], key=_job_id)
            n += 1
        if n:
            del entries[:n]
        if saturated:
            self.run = saturated
            self.run_at = 0
            self.run_key = floor_key
            return True
        return self.next_run(neg, now)

    def next_run(self, neg, now: float) -> bool:
        """Load the next run of equal keys from ``entries``."""
        entries = self.entries
        pos = self.pos
        n = len(entries)
        if pos >= n:
            self.run = None
            return False
        terms = self.terms
        key = self.pos_key
        if key is None:
            key = neg(terms, entries[pos][0], now)
        end = pos + 1
        self.pos_key = None
        time = entries[pos][0]
        while end < n:
            next_time = entries[end][0]
            if next_time != time:
                next_key = neg(terms, next_time, now)
                if next_key != key:
                    self.pos_key = next_key
                    break
                time = next_time
            end += 1
        if end == pos + 1:
            self.run = [entries[pos][2]]
        else:
            self.run = sorted([entry[2] for entry in entries[pos:end]], key=_job_id)
        self.run_at = 0
        self.run_key = key
        self.pos = end
        return True

    def advance(self, neg, now: float) -> bool:
        """Move the cursor to the next job; False past the last one."""
        self.run_at += 1
        if self.run_at < len(self.run):
            return True
        return self.next_run(neg, now)

    def skip_past(self, key: float, job_id: int, neg, now: float) -> bool:
        """Move the cursor to the first job after ``(key, job_id)``.

        Keys never decrease along ``entries``, so the position is found
        by bisection.  False if no job is left.
        """
        if self.run is None:
            return False
        if self.run_key > key:
            return True
        if self.run_key == key:
            at = bisect_right(self.run, job_id, lo=self.run_at, key=_job_id)
            if at < len(self.run):
                self.run_at = at
                return True
        # Gallop from the cursor, then bisect the last step: the cost
        # grows with the log of the distance skipped.
        entries = self.entries
        terms = self.terms
        lo = self.pos
        n = len(entries)
        if lo < n and self.pos_key is None:
            self.pos_key = neg(terms, entries[lo][0], now)
        if lo < n and self.pos_key < key:
            step = 1
            hi = lo + step
            while hi < n and neg(terms, entries[hi][0], now) < key:
                lo = hi
                step *= 2
                hi = lo + step
            self.pos = bisect_left(
                entries,
                key,
                lo=lo + 1,
                hi=min(hi, n),
                key=lambda entry: neg(terms, entry[0], now),
            )
            self.pos_key = None
        if not self.next_run(neg, now):
            return False
        if self.run_key == key:
            self.run_at = bisect_right(self.run, job_id, key=_job_id)
            if self.run_at == len(self.run):
                return self.next_run(neg, now)
        return True

    def discard(self, job: Job, enqueue_time: float) -> None:
        job_id = job.spec.job_id
        entries = self.entries
        i = bisect_left(entries, (enqueue_time, job_id))
        if i < len(entries) and entries[i][1] == job_id:
            del entries[i]
            return
        saturated = self.saturated
        i = bisect_left(saturated, job_id, key=_job_id)
        if i < len(saturated) and saturated[i] is job:
            del saturated[i]
            return
        raise KeyError(job_id)


class QueuePass:
    """One pass's lazy merge of the bucket heads, by ``(-priority, job_id)``.

    Iterating yields pending jobs in :meth:`PriorityPolicy.sort_pending`
    order, except that after :meth:`park` the rest of the current job's
    bucket is not visited, and after :meth:`wake` every parked bucket
    resumes at its first job after the last job yielded.
    """

    def __init__(self, buckets: List[_Bucket], neg, now: float):
        self._neg = neg
        self._now = now
        #: The open buckets, and the heap of their heads:
        #: ``(key, job_id, bucket number)``.
        self._buckets: List[_Bucket] = []
        self._heap: List[Tuple[float, int, int]] = []
        for bucket in buckets:
            if bucket.open(neg, now):
                self._heap.append(
                    (bucket.run_key, bucket.run[0].spec.job_id, len(self._buckets))
                )
                self._buckets.append(bucket)
        heapq.heapify(self._heap)
        #: Buckets parked since the last wake.
        self.parked: List[int] = []
        #: The bucket of the job last yielded, unless it was parked.
        self._current: Optional[int] = None
        self._last: Tuple[float, int] = (-math.inf, -1)

    def __iter__(self) -> Iterator[Job]:
        heap = self._heap
        buckets = self._buckets
        neg = self._neg
        now = self._now
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        item = heappop(heap) if heap else None
        while item is not None:
            key, job_id, no = item
            bucket = buckets[no]
            self._last = (key, job_id)
            self._current = no
            yield bucket.run[bucket.run_at]
            if self._current is None or not bucket.advance(neg, now):
                item = heappop(heap) if heap else None
            else:
                item = heappushpop(
                    heap,
                    (bucket.run_key, bucket.run[bucket.run_at].spec.job_id, no),
                )

    def park(self) -> None:
        """Visit no further job of the bucket of the job last yielded."""
        self.parked.append(self._current)
        self._current = None

    def wake(self) -> None:
        """Resume every parked bucket after the job last yielded."""
        key, job_id = self._last
        neg = self._neg
        now = self._now
        for no in self.parked:
            bucket = self._buckets[no]
            if bucket.skip_past(key, job_id, neg, now):
                heapq.heappush(
                    self._heap,
                    (bucket.run_key, bucket.run[bucket.run_at].spec.job_id, no),
                )
        self.parked = []


class PendingQueue:
    """Pending jobs in ``(qos, n_gpus)`` buckets, each in priority order."""

    def __init__(self, priority: PriorityPolicy):
        self.priority = priority
        self._neg = priority.neg_priority
        self._buckets: Dict[Tuple[int, int], _Bucket] = {}
        #: job id -> (bucket, enqueue time at add)
        self._where: Dict[int, Tuple[_Bucket, float]] = {}
        #: The clock of the last pass; saturation only holds going forward.
        self._now = -math.inf
        #: Jobs added while a pass is open, joined at ``end_pass``.
        self._held: Optional[List[Job]] = None

    def __len__(self) -> int:
        return len(self._where) + (len(self._held) if self._held else 0)

    def __iter__(self) -> Iterator[Job]:
        """Every pending job, in no particular order."""
        for bucket in self._buckets.values():
            yield from bucket.saturated
            for entry in bucket.entries:
                yield entry[2]

    def add(self, job: Job) -> None:
        """Enqueue ``job`` at its ``enqueue_time``."""
        if self._held is not None:
            self._held.append(job)
            return
        spec = job.spec
        job_id = spec.job_id
        if job_id in self._where:
            raise ValueError(f"job {job_id} is already pending")
        pair = (spec.qos, spec.n_gpus)
        bucket = self._buckets.get(pair)
        if bucket is None:
            bucket = _Bucket(spec.qos, spec.n_gpus, self.priority)
            self._buckets[pair] = bucket
        enqueue_time = job.enqueue_time
        entries = bucket.entries
        entry = (enqueue_time, job_id, job)
        if not entries or entries[-1] < entry:
            entries.append(entry)
        else:
            insort(entries, entry)
        self._where[job_id] = (bucket, enqueue_time)

    def remove(self, job: Job) -> None:
        """Take ``job`` out of the queue (KeyError if it is not pending)."""
        bucket, enqueue_time = self._where.pop(job.spec.job_id)
        bucket.discard(job, enqueue_time)
        if not len(bucket):
            del self._buckets[(bucket.qos, bucket.n_gpus)]

    def clear(self) -> None:
        self._buckets.clear()
        self._where.clear()

    def min_gpus(self) -> int:
        """The smallest request pending (the queue must not be empty)."""
        return min(pair[1] for pair in self._buckets)

    def begin_pass(self, now: float, above: Optional[int] = None) -> QueuePass:
        """Open a pass at ``now`` over every bucket, or only those with
        QoS above ``above``.  Close it with :meth:`end_pass`."""
        if self._held is not None:
            raise RuntimeError("a pass is already open")
        buckets = self._buckets.values()
        if now < self._now:
            for bucket in buckets:
                bucket.unsaturate()
        self._now = now
        if above is not None:
            buckets = [bucket for bucket in buckets if bucket.qos > above]
        self._held = []
        return QueuePass(buckets, self._neg, now)

    def end_pass(self, started: Iterable[Job]) -> None:
        """Close the open pass: drop the jobs it started, join held adds."""
        held, self._held = self._held, None
        for job in started:
            self.remove(job)
        for job in held:
            self.add(job)

    def ordered(self, now: float) -> List[Job]:
        """Every pending job in priority order at ``now``."""
        jobs = list(self.begin_pass(now))
        self.end_pass(())
        return jobs
