"""Async job subsystem: sweeps off the request path.

The sync evaluation endpoints answer on the caller's thread, which is
fine for warm-cache requests but makes a cold sweep's latency the
client's problem.  The :class:`JobManager` moves that work to a bounded
pool of worker threads: ``POST /jobs`` validates the body exactly as
the sync endpoint would, enqueues a :class:`Job`, and returns ``202``
with a job id immediately; ``GET /jobs/<id>`` reports status and
progress; ``DELETE /jobs/<id>`` cancels cooperatively between engine
jobs.  Finished jobs carry the full result payload — the same JSON
the sync endpoint would have returned, response cache included — and
expire after a TTL so a long-lived daemon's job table stays bounded.

Lifecycle::

    queued ──▶ running ──▶ done
       │          │   └──▶ failed      (typed error payload)
       └──────────┴──────▶ cancelled   (cooperative, between jobs)

Progress is threaded through the engine's per-thread hooks
(:meth:`repro.engine.EvaluationEngine.hooks`): each engine batch
announces its job count, and completions arrive job by job, so
``progress.completed / progress.total`` is monotone within a job.
"""

from __future__ import annotations

import copy
import itertools
import logging
import queue
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..engine import EvaluationCancelled
from .middleware import ANONYMOUS_TENANT, Response, ServiceError, instance_tag

__all__ = ["Job", "JobManager", "JOB_ENDPOINTS", "JOB_STATES"]

logger = logging.getLogger("repro.service")

#: Endpoints a job may run, by their short client-facing name.  Exactly
#: the sync evaluation endpoints whose work is long-running; ``/protect``
#: stays sync-only (it is cheap and its response embeds record dumps).
JOB_ENDPOINTS: Dict[str, str] = {
    "sweep": "POST /sweep",
    "configure": "POST /configure",
    "recommend": "POST /recommend",
}

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
_TERMINAL = ("done", "failed", "cancelled")


class Job:
    """One asynchronous evaluation job and its observable state.

    All mutation happens under :attr:`lock`; readers take it too (every
    hold is a few field writes, never evaluation work, so status polls
    stay fast even while the job runs).
    """

    __slots__ = (
        "id", "endpoint", "body", "tenant", "status", "lock", "cancel",
        "created_at", "started_at", "finished_at", "expires_at",
        "completed", "total", "result", "error", "from_response_cache",
        "done_event", "on_update", "cancel_marker",
    )

    def __init__(
        self,
        job_id: str,
        endpoint: str,
        body: dict,
        tenant: str = ANONYMOUS_TENANT,
    ) -> None:
        self.id = job_id
        #: Short endpoint name ("sweep" | "configure" | "recommend").
        self.endpoint = endpoint
        #: The *validated* request body (defaults filled at submit).
        self.body = body
        #: The submitting tenant: quota accounting and job visibility
        #: are both namespaced on it.
        self.tenant = tenant
        self.status = "queued"
        self.lock = threading.Lock()
        #: Cooperative cancellation flag, polled between engine jobs.
        self.cancel = threading.Event()
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Monotonic deadline after which a finished job is purged.
        self.expires_at: Optional[float] = None
        #: Progress in engine jobs (batch items); total grows as the
        #: framework submits batches, completed never decreases.
        self.completed = 0
        self.total = 0
        self.result: Optional[dict] = None
        self.error: Optional[dict] = None
        self.from_response_cache = False
        #: Set on entry to any terminal state (in-process waiters).
        self.done_event = threading.Event()
        #: Manager-installed callback fired (outside :attr:`lock`)
        #: after progress updates, so a shared job store sees them.
        self.on_update: Optional[Callable[[], None]] = None
        #: Path of the cross-process cancel-marker file (shared job
        #: store only): a sibling worker that cannot reach this
        #: process's :attr:`cancel` event touches this file instead.
        self.cancel_marker = None

    # -- engine hook targets (called from the worker thread) -----------
    def note_batch(self, n: int) -> None:
        with self.lock:
            self.total += n
        if self.on_update is not None:
            self.on_update()

    def note_done(self, n: int) -> None:
        with self.lock:
            self.completed += n
        if self.on_update is not None:
            self.on_update()

    def should_cancel(self) -> bool:
        """Cancellation predicate polled between engine jobs.

        True once the in-process event is set *or* a sibling worker
        left a cancel marker in the shared job store; the marker folds
        into the event so the file is stat'ed at most until first seen.
        """
        if self.cancel.is_set():
            return True
        marker = self.cancel_marker
        if marker is not None:
            try:
                found = marker.exists()
            except OSError:
                found = False
            if found:
                self.cancel.set()
                return True
        return False

    # -- snapshots ------------------------------------------------------
    def snapshot(self, include_result: bool = True) -> dict:
        """JSON-ready view of the job, as ``GET /jobs/<id>`` returns it."""
        result = None
        with self.lock:
            payload = {
                "job_id": self.id,
                "endpoint": self.endpoint,
                "tenant": self.tenant,
                "status": self.status,
                "progress": {
                    "completed": self.completed,
                    "total": self.total,
                },
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "cancel_requested": self.cancel.is_set(),
            }
            if self.started_at is not None:
                end = self.finished_at or time.time()
                payload["runtime_s"] = round(end - self.started_at, 6)
            if self.status == "done":
                payload["from_response_cache"] = self.from_response_cache
                if include_result:
                    result = self.result
            if self.error is not None:
                payload["error"] = self.error
        if result is not None:
            # A fresh copy — in-process clients receive this dict
            # itself and must not be able to corrupt the stored result
            # through it (same discipline as the response cache's
            # replayed bodies) — made OUTSIDE the lock: the result is
            # immutable once the job is terminal, and a large payload's
            # deepcopy must not stall status polls on other threads.
            payload["result"] = copy.deepcopy(result)
        return payload


class JobManager:
    """Bounded worker pool running evaluation jobs off the request path.

    Parameters
    ----------
    execute:
        ``execute(job) -> Response`` — runs one job's endpoint through
        the response cache and handler with the engine's progress and
        cancellation hooks installed for ``job``.  Provided by
        :class:`~repro.service.app.ConfigService`, which owns the
        middleware instances.
    workers:
        Worker thread count — the daemon's evaluation concurrency.
    max_queued:
        Bound on *waiting* jobs (running jobs do not count).  A full
        queue turns ``POST /jobs`` into a typed ``429`` so a traffic
        spike degrades into backpressure instead of unbounded memory.
    max_jobs_per_tenant:
        Bound on one tenant's *live* (queued + running) jobs; the
        tenant at its quota gets a typed ``429 tenant-quota-exceeded``
        while every other tenant keeps submitting.  ``None`` disables
        the quota (single-tenant mode).
    ttl_s:
        Seconds a finished job (any terminal state) remains pollable;
        after that, ``GET /jobs/<id>`` is a 404 and the entry is gone.
    clock:
        Monotonic clock, injectable for TTL tests.
    shared_dir:
        Optional directory of the cross-process job store.  Every
        lifecycle transition (and each progress update) of a local job
        is mirrored there as an atomic JSON snapshot, so a *sibling*
        pre-fork worker polled for an id it does not own can answer
        from disk (:meth:`remote_snapshot`) and request cancellation
        via a marker file the owner polls between engine jobs
        (:meth:`request_remote_cancel`).  Job ids are unique across
        workers (the instance tag folds in process identity).
    """

    def __init__(
        self,
        execute: Callable[[Job], Response],
        workers: int = 2,
        max_queued: int = 16,
        max_jobs_per_tenant: Optional[int] = None,
        ttl_s: float = 600.0,
        clock: Callable[[], float] = time.monotonic,
        shared_dir=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_queued < 1:
            raise ValueError("max_queued must be at least 1")
        if max_jobs_per_tenant is not None and max_jobs_per_tenant < 1:
            raise ValueError("max_jobs_per_tenant must be at least 1")
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self._execute = execute
        self.workers = int(workers)
        self.max_queued = int(max_queued)
        self.max_jobs_per_tenant = (
            int(max_jobs_per_tenant) if max_jobs_per_tenant is not None
            else None
        )
        self.ttl_s = float(ttl_s)
        self._clock = clock
        self.shared_dir = Path(shared_dir) if shared_dir is not None else None
        if self.shared_dir is not None:
            self.shared_dir.mkdir(parents=True, exist_ok=True)
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._n_queued = 0
        self._n_running = 0
        self._accepting = True
        self._counter = itertools.count(1)
        self._instance = instance_tag(self)
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"job-worker-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission and lookup
    # ------------------------------------------------------------------
    def submit(
        self, endpoint: str, body: dict, tenant: str = ANONYMOUS_TENANT
    ) -> Job:
        """Enqueue a validated job; raises typed 429/503 when refused.

        Refusals, in checking order: draining (503), the *shared*
        waiting queue full (429 ``jobs-saturated``), and the tenant's
        own live-job quota exhausted (429 ``tenant-quota-exceeded``) —
        the same typed-429 saturation path, scoped to one tenant.
        """
        if endpoint not in JOB_ENDPOINTS:
            raise ServiceError(
                400, "invalid-request",
                f"endpoint must be one of {sorted(JOB_ENDPOINTS)}, "
                f"got {endpoint!r}",
            )
        job = Job(f"job-{self._instance}-{next(self._counter)}",
                  endpoint, body, tenant=tenant)
        with self._lock:
            self._purge_locked()
            if not self._accepting:
                raise ServiceError(
                    503, "shutting-down",
                    "the service is draining and accepts no new jobs",
                    headers={"Retry-After": "1"},
                )
            if self.max_jobs_per_tenant is not None:
                live = sum(
                    1 for tracked in self._jobs.values()
                    if tracked.tenant == tenant
                    and tracked.status in ("queued", "running")
                )
                if live >= self.max_jobs_per_tenant:
                    raise ServiceError(
                        429, "tenant-quota-exceeded",
                        f"tenant {tenant!r} already has {live} live "
                        f"job(s) (quota {self.max_jobs_per_tenant}); "
                        f"wait for one to finish or cancel it",
                        details={
                            "tenant": tenant,
                            "live": live,
                            "max_jobs_per_tenant":
                                self.max_jobs_per_tenant,
                        },
                    )
            if self._n_queued >= self.max_queued:
                raise ServiceError(
                    429, "jobs-saturated",
                    f"job queue is full ({self._n_queued} waiting, "
                    f"{self._n_running} running on {self.workers} "
                    f"worker(s)); retry later or raise --workers",
                    details={
                        "queued": self._n_queued,
                        "running": self._n_running,
                        "workers": self.workers,
                        "max_queued": self.max_queued,
                    },
                )
            self._jobs[job.id] = job
            self._n_queued += 1
        if self.shared_dir is not None:
            job.cancel_marker = self._cancel_path(job.id)
            job.on_update = lambda: self._persist(job)
            self._persist(job)
        self._queue.put(job)
        return job

    def get(self, job_id: str, tenant: Optional[str] = None) -> Job:
        """The job by id; typed 404 for unknown or expired ids.

        With ``tenant`` given, a job owned by a *different* tenant is
        the same 404 as an unknown id — another tenant's job ids are
        not even confirmed to exist.  ``tenant=None`` (internal
        callers) skips the ownership check.
        """
        with self._lock:
            self._purge_locked()
            job = self._jobs.get(job_id)
        if job is None or (tenant is not None and job.tenant != tenant):
            raise ServiceError(
                404, "job-not-found",
                f"no such job: {job_id} (unknown id, or expired after "
                f"{self.ttl_s:g}s TTL)",
            )
        return job

    def cancel(self, job_id: str, tenant: Optional[str] = None) -> Job:
        """Request cancellation; queued jobs cancel immediately.

        Running jobs abort cooperatively at the next engine job
        boundary; terminal jobs are left untouched (the returned
        snapshot shows their final state).  ``tenant`` scopes the
        lookup exactly as in :meth:`get`.
        """
        job = self.get(job_id, tenant=tenant)
        finished = False
        with job.lock:
            if job.status not in _TERMINAL:
                # Terminal jobs are left untouched — a late DELETE is a
                # no-op and must not claim a cancellation was requested.
                job.cancel.set()
            if job.status == "queued":
                job.status = "cancelled"
                job.finished_at = time.time()
                job.expires_at = self._clock() + self.ttl_s
                finished = True
        if finished:
            with self._lock:
                self._n_queued -= 1
            job.done_event.set()
        self._persist(job)
        return job

    def jobs(self, tenant: Optional[str] = None) -> List[Job]:
        """Live jobs, oldest first (purges expired entries).

        With ``tenant`` given, only that tenant's jobs are listed.
        """
        with self._lock:
            self._purge_locked()
            return [
                job for job in self._jobs.values()
                if tenant is None or job.tenant == tenant
            ]

    def stats(self) -> dict:
        """Queue/worker counters for ``GET /jobs`` and ``/metrics``."""
        with self._lock:
            self._purge_locked()
            by_status: Dict[str, int] = {}
            for job in self._jobs.values():
                with job.lock:
                    by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "workers": self.workers,
                "max_queued": self.max_queued,
                "max_jobs_per_tenant": self.max_jobs_per_tenant,
                "ttl_s": self.ttl_s,
                "queued": self._n_queued,
                "running": self._n_running,
                "tracked": len(self._jobs),
                "by_status": by_status,
            }

    # ------------------------------------------------------------------
    # Shared job store (cross-process visibility)
    # ------------------------------------------------------------------
    def _job_path(self, job_id: str) -> Path:
        assert self.shared_dir is not None
        return self.shared_dir / f"{job_id}.json"

    def _cancel_path(self, job_id: str) -> Path:
        assert self.shared_dir is not None
        return self.shared_dir / f"{job_id}.cancel"

    def _persist(self, job: Job) -> None:
        """Mirror one local job's snapshot to the shared store.

        Atomic write, full result included, IO errors swallowed — a
        failed mirror only degrades sibling workers to 404, it never
        fails the job itself.
        """
        if self.shared_dir is None:
            return
        from ..framework.store import write_json_atomic
        from ..resilience.breaker import write_guarded

        payload = {
            "format_version": 1,
            "kind": "job_snapshot",
            "snapshot": job.snapshot(include_result=True),
        }
        try:
            write_guarded(
                "job_store",
                lambda: write_json_atomic(payload, self._job_path(job.id)),
            )
        except (TypeError, ValueError):
            pass

    def _unlink_shared(self, job_id: str) -> None:
        if self.shared_dir is None:
            return
        for path in (self._job_path(job_id), self._cancel_path(job_id)):
            try:
                path.unlink()
            except OSError:
                pass

    def remote_snapshot(
        self, job_id: str, tenant: Optional[str] = None
    ) -> Optional[dict]:
        """A *sibling worker's* job snapshot from the shared store.

        ``None`` means unknown there too (no store configured, no
        record, a corrupt record — quarantined — or a record past its
        TTL); with ``tenant`` given, another tenant's job is ``None``
        exactly as :meth:`get` would 404 it.  Callers try :meth:`get`
        first — the local table is authoritative for jobs this process
        owns.
        """
        if self.shared_dir is None:
            return None
        from ..framework.store import read_json_payload

        payload = read_json_payload(self._job_path(job_id), "job_snapshot")
        if payload is None:
            return None
        snapshot = payload.get("snapshot")
        if not isinstance(snapshot, dict) or \
                snapshot.get("job_id") != job_id:
            return None
        if tenant is not None and snapshot.get("tenant") != tenant:
            return None
        finished_at = snapshot.get("finished_at")
        if isinstance(finished_at, (int, float)) and \
                time.time() - finished_at > self.ttl_s:
            # The owner would have purged this by now; it may have
            # exited without cleaning up.  Enforce the TTL here so
            # orphaned snapshots expire from any worker.
            self._unlink_shared(job_id)
            return None
        return snapshot

    def request_remote_cancel(
        self, job_id: str, tenant: Optional[str] = None
    ) -> Optional[dict]:
        """Ask a sibling worker to cancel a job it owns.

        Leaves a marker file the owner's :meth:`Job.should_cancel`
        polls between engine jobs — the cross-process twin of setting
        the cancel event.  Returns the job's snapshot (with
        ``cancel_requested`` already true for non-terminal jobs), or
        ``None`` when the shared store does not know the id.
        """
        snapshot = self.remote_snapshot(job_id, tenant=tenant)
        if snapshot is None:
            return None
        if snapshot.get("status") not in _TERMINAL:
            try:
                self._cancel_path(job_id).write_text("cancel\n")
            except OSError:
                return None
            snapshot["cancel_requested"] = True
        return snapshot

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:  # shutdown sentinel
                self._queue.task_done()
                return
            try:
                self._run_job(job)
            finally:
                self._queue.task_done()

    def _run_job(self, job: Job) -> None:
        with job.lock:
            if job.status != "queued":
                # Cancelled while waiting; counters already adjusted.
                return
            job.status = "running"
            job.started_at = time.time()
        with self._lock:
            self._n_queued -= 1
            self._n_running += 1
        self._persist(job)
        status, result, error, cached = "failed", None, None, False
        try:
            response = self._execute(job)
            if response.ok:
                status = "done"
                result = response.body
                cached = response.headers.get("X-Response-Cache") == "hit"
            else:  # pragma: no cover - handlers raise instead
                error = response.body.get("error", {"message": "failed"})
        except EvaluationCancelled:
            status = "cancelled"
        except ServiceError as exc:
            error = {"status": exc.status, "code": exc.code,
                     "message": exc.message}
            if exc.details is not None:
                error["details"] = exc.details
        except Exception:
            logger.exception("job %s (%s) crashed", job.id, job.endpoint)
            error = {"status": 500, "code": "internal-error",
                     "message": "internal server error"}
        with job.lock:
            job.status = status
            job.result = result
            job.error = error
            job.from_response_cache = cached
            job.finished_at = time.time()
            job.expires_at = self._clock() + self.ttl_s
        with self._lock:
            self._n_running -= 1
        self._persist(job)
        job.done_event.set()

    # ------------------------------------------------------------------
    # Expiry and shutdown
    # ------------------------------------------------------------------
    def _purge_locked(self) -> None:
        """Drop finished jobs past their TTL (``self._lock`` held)."""
        now = self._clock()
        expired = [
            job_id
            for job_id, job in self._jobs.items()
            if job.expires_at is not None and job.expires_at <= now
        ]
        for job_id in expired:
            del self._jobs[job_id]
            self._unlink_shared(job_id)

    def close(self, grace_s: float = 10.0) -> None:
        """Drain and stop the pool; idempotent.

        New submissions are refused immediately (typed 503), queued
        jobs are cancelled, and running jobs get ``grace_s`` seconds to
        finish before their cancellation flags are set and the workers
        are given one more short wait.  Worker threads are daemons, so
        a job that ignores cooperative cancellation cannot block
        process exit.
        """
        with self._lock:
            if not self._accepting and not any(
                t.is_alive() for t in self._threads
            ):
                return
            self._accepting = False
            tracked = list(self._jobs.values())
        for job in tracked:
            # Cancel queued jobs only, re-checked under the job lock: a
            # job that just went running keeps its grace period (the
            # join below) instead of being aborted at its next job.
            finished = False
            with job.lock:
                if job.status == "queued":
                    job.cancel.set()
                    job.status = "cancelled"
                    job.finished_at = time.time()
                    job.expires_at = self._clock() + self.ttl_s
                    finished = True
            if finished:
                with self._lock:
                    self._n_queued -= 1
                self._persist(job)
                job.done_event.set()
        for _ in self._threads:
            self._queue.put(None)
        deadline = time.monotonic() + max(0.0, grace_s)
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        still_running = [t for t in self._threads if t.is_alive()]
        if still_running:
            with self._lock:
                running = [
                    job for job in self._jobs.values()
                    if job.status == "running"
                ]
            for job in running:
                job.cancel.set()
            for thread in still_running:
                thread.join(timeout=1.0)
