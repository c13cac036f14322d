"""``WorkQueueBackend``: a filesystem work queue drained by any host.

The distributed backend: the dispatcher writes one file per attempt
into a queue directory, and *drainer* processes — embedded children it
spawns itself, or completely external ``repro worker <dir>`` processes
on any machine sharing the filesystem — claim, simulate, and ack them.
Results land in a shared :class:`~repro.backends.artifacts.ArtifactStore`,
so the store (not any process) is the unit of progress: a sweep killed
mid-wave resumes from whatever shards any drainer finished, on any
backend.

Queue layout (all writes atomic; claims are a single ``os.rename``, the
POSIX test-and-set, so two drainers can never run the same task)::

    <root>/tasks/<name>.task          # pending: pickled TaskSpec
    <root>/claims/<name>.task.<wid>   # claimed by drainer <wid>
    <root>/done/<name>.task.json      # ok ack (trace is in the store)
    <root>/failed/<name>.task.json    # error ack ({"error": ...})
    <root>/store/...                  # ArtifactStore of completed traces
    <root>/STOP                       # sentinel: drainers exit

Failure semantics map onto the backend outcome kinds: an attempt that
raises in a drainer acks ``failed/`` (``"error"``); a drainer that dies
mid-attempt (chaos ``os._exit``, OOM-kill) leaves its claim file as the
tombstone — the dispatcher notices the dead process and reports
``"lost"``; a wave past its deadline reports ``"timeout"``.  Chaos
draws are keyed on ``(digest, attempt)`` inside the drainer, identical
to every other backend, which is what keeps chaotic work-queue sweeps
digest-equal to inline ones.
"""

import json
import multiprocessing
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.backends.artifacts import ArtifactStore
from repro.backends.base import (
    BackendCapabilities,
    BackendUnavailable,
    TaskOutcome,
    TaskSpec,
    execute_task,
    register_backend,
)

#: Sentinel file name; its presence tells every drainer to exit.
STOP_SENTINEL = "STOP"

#: How often a drainer re-checks an empty queue (and the dispatcher
#: re-checks for acks).
DEFAULT_POLL_INTERVAL_S = 0.05


def _queue_dirs(root: Path) -> Dict[str, Path]:
    return {
        "tasks": root / "tasks",
        "claims": root / "claims",
        "done": root / "done",
        "failed": root / "failed",
    }


def _ensure_layout(root: Path) -> Dict[str, Path]:
    dirs = _queue_dirs(root)
    for path in dirs.values():
        path.mkdir(parents=True, exist_ok=True)
    return dirs


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Atomic JSON write (temp file + ``os.replace``)."""
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def drain_queue(
    root: Union[str, os.PathLike],
    worker_id: Optional[str] = None,
    poll_interval: float = DEFAULT_POLL_INTERVAL_S,
    max_tasks: Optional[int] = None,
    stop_when_empty: bool = False,
) -> Dict[str, Any]:
    """Drain a work-queue directory: the ``repro worker`` body.

    Claims pending tasks one at a time (atomic ``os.rename`` into
    ``claims/``), simulates each, stores the trace in the queue's
    :class:`ArtifactStore`, and acks ``done/`` or ``failed/``.  Runs
    until the ``STOP`` sentinel appears, ``max_tasks`` tasks have been
    processed, or — with ``stop_when_empty`` — the queue runs dry.

    Safe to run many of, on many hosts: a claim either succeeds for
    exactly one drainer or raises ``FileNotFoundError`` for the losers,
    and same-key store writes are serialized by the store's lock.

    Returns ``{"worker", "drained", "failed"}``.
    """
    root = Path(root)
    dirs = _ensure_layout(root)
    store = ArtifactStore(root / "store")
    wid = worker_id or f"worker-{os.getpid()}"
    stop_path = root / STOP_SENTINEL
    drained = 0
    failed = 0
    while not stop_path.exists():
        if max_tasks is not None and drained + failed >= max_tasks:
            break
        claim_path = None
        for entry in sorted(dirs["tasks"].glob("*.task")):
            target = dirs["claims"] / f"{entry.name}.{wid}"
            try:
                os.rename(entry, target)
            except OSError:
                continue  # another drainer won this one
            claim_path = target
            break
        if claim_path is None:
            if stop_when_empty:
                break
            time.sleep(poll_interval)
            continue
        name = claim_path.name[: -len(f".{wid}")]
        try:
            with claim_path.open("rb") as fh:
                task: TaskSpec = pickle.load(fh)
            # Chaos worker-death lands here as os._exit — no ack, claim
            # left behind as the tombstone the dispatcher keys on.
            trace = execute_task(task)
            store.put_digest(task.digest, trace)
            _write_json(
                dirs["done"] / f"{name}.json",
                {"digest": task.digest, "worker": wid},
            )
            drained += 1
        except Exception as err:
            _write_json(
                dirs["failed"] / f"{name}.json",
                {
                    "error": type(err).__name__,
                    "detail": str(err)[:500],
                    "worker": wid,
                },
            )
            failed += 1
        finally:
            try:
                claim_path.unlink()
            except OSError:
                pass
    return {"worker": wid, "drained": drained, "failed": failed}


class WorkQueueBackend:
    """File-queue execution: any process on any host can do the work."""

    name = "work-queue"
    executor_label = "work-queue"
    capabilities = BackendCapabilities(
        supports_timeout=True,
        serial=False,
    )

    def __init__(
        self,
        root: Optional[Union[str, os.PathLike]] = None,
        workers: Optional[int] = None,
        embedded: bool = True,
        poll_interval: float = DEFAULT_POLL_INTERVAL_S,
        claim_timeout_s: Optional[float] = None,
    ):
        """
        Args:
            root: Queue directory (shared filesystem for cross-host
                drains).  ``None`` creates a private temp directory —
                embedded-only, since nobody else knows the path.
            workers: Embedded drainer count (default: CPU count).
                Ignored when ``embedded`` is False.
            embedded: Spawn local drainer processes alongside the
                dispatcher.  ``False`` relies entirely on external
                ``repro worker`` processes — the pool then cannot infer
                "no drainers left" and leans on the wave timeout.
            poll_interval: Dispatcher/drainer ack-poll period, seconds.
            claim_timeout_s: Reclaim a claim older than this back into
                ``tasks/`` (an external drainer presumed dead); ``None``
                disables reclaim.
        """
        if root is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-queue-")
            root = self._tmpdir.name
        else:
            self._tmpdir = None
        self.root = Path(root)
        self.workers = workers
        self.embedded = embedded
        self.poll_interval = poll_interval
        self.claim_timeout_s = claim_timeout_s
        self._dirs = _ensure_layout(self.root)
        self.store = ArtifactStore(self.root / "store")
        self._procs: Dict[str, multiprocessing.Process] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # embedded drainers
    # ------------------------------------------------------------------
    def _ensure_drainers(self) -> None:
        if not self.embedded:
            return
        for wid, proc in list(self._procs.items()):
            if not proc.is_alive():
                proc.join(timeout=0)
                del self._procs[wid]
        want = self.workers or os.cpu_count() or 1
        if len(self._procs) >= want:
            return
        try:
            while len(self._procs) < want:
                self._seq += 1
                wid = f"embedded-{os.getpid()}-{self._seq}"
                proc = multiprocessing.Process(
                    target=drain_queue,
                    kwargs={
                        "root": str(self.root),
                        "worker_id": wid,
                        "poll_interval": self.poll_interval,
                    },
                    daemon=True,
                )
                proc.start()
                self._procs[wid] = proc
        except (OSError, ValueError, RuntimeError) as err:
            raise BackendUnavailable(
                f"cannot spawn queue drainers: {err}"
            ) from err

    def _dead_drainer_ids(self) -> set:
        dead = set()
        for wid, proc in list(self._procs.items()):
            if not proc.is_alive():
                proc.join(timeout=0)
                del self._procs[wid]
                dead.add(wid)
        return dead

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def submit_wave(self, tasks: Sequence[TaskSpec]) -> Any:
        handle: Dict[str, Any] = {"tasks": {}, "resolved": {}}
        try:
            for index, task in enumerate(tasks):
                # Store dedupe: a shard someone (an earlier attempt, a
                # different dispatcher, a previous backend) already
                # completed resolves without re-queueing.
                if self.store.has_digest(task.digest):
                    trace = self.store.get_digest(task.digest)
                    if trace is not None:
                        handle["resolved"][index] = TaskOutcome(
                            index=index,
                            digest=task.digest,
                            kind="ok",
                            trace=trace,
                            attrs={"deduped": True},
                        )
                        continue
                self._seq += 1
                name = (
                    f"{os.getpid():06d}-{self._seq:06d}"
                    f"-a{task.attempt:02d}-{task.digest[:16]}.task"
                )
                fd, tmp_name = tempfile.mkstemp(
                    dir=self._dirs["tasks"], prefix=".tmp-", suffix=".part"
                )
                try:
                    with os.fdopen(fd, "wb") as fh:
                        pickle.dump(task, fh)
                    os.replace(tmp_name, self._dirs["tasks"] / name)
                except BaseException:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
                    raise
                handle["tasks"][name] = (index, task)
        except OSError as err:
            raise BackendUnavailable(
                f"cannot write to queue directory {self.root}: {err}"
            ) from err
        self._ensure_drainers()
        return handle

    def _reclaim_stale_claims(self) -> None:
        if self.claim_timeout_s is None:
            return
        cutoff = time.time() - self.claim_timeout_s
        for claim in self._dirs["claims"].glob("*.task.*"):
            try:
                if claim.stat().st_mtime >= cutoff:
                    continue
                name = claim.name.rsplit(".task.", 1)[0] + ".task"
                os.rename(claim, self._dirs["tasks"] / name)
            except OSError:
                continue  # drainer finished or another dispatcher raced us

    def _claimant(self, name: str) -> Optional[str]:
        for claim in self._dirs["claims"].glob(f"{name}.*"):
            return claim.name[len(name) + 1 :]
        return None

    def poll(
        self, handle: Any, timeout_s: Optional[float] = None
    ) -> List[TaskOutcome]:
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        outcomes: Dict[int, TaskOutcome] = dict(handle["resolved"])
        tasks: Dict[str, Tuple[int, TaskSpec]] = handle["tasks"]
        while len(outcomes) < len(tasks) + len(handle["resolved"]):
            dead = self._dead_drainer_ids()
            for name, (index, task) in tasks.items():
                if index in outcomes:
                    continue
                done_ack = self._dirs["done"] / f"{name}.json"
                failed_ack = self._dirs["failed"] / f"{name}.json"
                if done_ack.exists():
                    trace = self.store.get_digest(task.digest)
                    if trace is not None:
                        outcomes[index] = TaskOutcome(
                            index=index,
                            digest=task.digest,
                            kind="ok",
                            trace=trace,
                        )
                    else:
                        # Acked but the stored entry failed verification
                        # (torn write): treat like a dead worker — retry.
                        outcomes[index] = TaskOutcome(
                            index=index,
                            digest=task.digest,
                            kind="lost",
                            error="stored result failed verification",
                        )
                elif failed_ack.exists():
                    ack = _read_json(failed_ack) or {}
                    outcomes[index] = TaskOutcome(
                        index=index,
                        digest=task.digest,
                        kind="error",
                        error=ack.get("error", "unknown"),
                        attrs={"worker": ack.get("worker")},
                    )
                else:
                    claimant = self._claimant(name)
                    if claimant is not None and claimant in dead:
                        # The drainer died mid-attempt (chaos os._exit,
                        # OOM-kill): its claim is the tombstone.
                        outcomes[index] = TaskOutcome(
                            index=index,
                            digest=task.digest,
                            kind="lost",
                            error=f"drainer {claimant} died mid-attempt",
                        )
            if len(outcomes) >= len(tasks) + len(handle["resolved"]):
                break
            if self.embedded and not self._procs:
                # Every embedded drainer is gone; nothing will ever ack
                # the rest of this wave.
                for name, (index, task) in tasks.items():
                    if index not in outcomes:
                        outcomes[index] = TaskOutcome(
                            index=index,
                            digest=task.digest,
                            kind="lost",
                            error="all queue drainers died",
                        )
                break
            if deadline is not None and time.monotonic() >= deadline:
                for name, (index, task) in tasks.items():
                    if index not in outcomes:
                        outcomes[index] = TaskOutcome(
                            index=index,
                            digest=task.digest,
                            kind="timeout",
                            error="wave deadline exceeded",
                        )
                break
            self._reclaim_stale_claims()
            time.sleep(self.poll_interval)
        return [outcomes[index] for index in sorted(outcomes)]

    def kill(self) -> None:
        """Terminate embedded drainers and cancel everything queued.

        Unclaimed task files are removed (the pool resubmits what it
        still wants, with bumped attempt numbers); completed results
        stay in the store — killing the backend never loses finished
        work.
        """
        for wid, proc in list(self._procs.items()):
            try:
                proc.terminate()
                proc.join(timeout=2.0)
            except (OSError, ValueError):  # pragma: no cover - best effort
                pass
            del self._procs[wid]
        for pending in self._dirs["tasks"].glob("*.task"):
            try:
                pending.unlink()
            except OSError:
                pass
        for claim in self._dirs["claims"].glob("*.task.*"):
            try:
                claim.unlink()
            except OSError:
                pass

    def close(self) -> None:
        """Stop drainers (embedded and external) and release the queue."""
        stop_path = self.root / STOP_SENTINEL
        try:
            stop_path.touch()
        except OSError:  # pragma: no cover - queue dir already gone
            pass
        for wid, proc in list(self._procs.items()):
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            del self._procs[wid]
        try:
            stop_path.unlink()
        except OSError:
            pass
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


@register_backend("work-queue")
def _make_work_queue(workers=None, telemetry=None, **options):
    return WorkQueueBackend(workers=workers, **options)


__all__ = [
    "DEFAULT_POLL_INTERVAL_S",
    "STOP_SENTINEL",
    "WorkQueueBackend",
    "drain_queue",
]
