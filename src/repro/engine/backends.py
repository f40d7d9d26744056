"""Pluggable execution backends for batched evaluations.

Every backend funnels through :func:`execute_job` — one shared
protect-and-measure code path — so backends can only differ in *where*
work runs, never in *what* is computed.  Combined with the LPPM layer's
per-(seed, user) RNG derivation (independent of trace order and of the
process doing the work), this makes process-parallel results
bit-identical to serial ones.

The process backend keeps a single worker pool for its whole life and
splits each batch into one task per worker: a contiguous slice of the
batch's jobs (the engine hands them over seed-major, so a worker's jobs
share their seeds' memoised noise).  Each task ships the batch's
(system signature, dataset fingerprint) key plus the ``(system,
dataset)`` pair pickled once per batch; a worker unpickles only when
the key changes, so a sweep pays for its dataset once per worker, and a
new dataset costs a pickle instead of a pool.  A worker sends each
job's result back through the pool's result pipe as soon as it is
computed, so results still settle, cancel and replay one job at a time
while the batch costs only one executor round trip per worker.

Protection always takes the columnar ``protect_block`` path over
``Dataset.columns()``, in-process or inside a worker alike.
"""

from __future__ import annotations

import abc
import itertools
import multiprocessing
import os
import pickle
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..resilience.events import record_event
from ..resilience.faults import fire as _fire_fault
from .jobs import EvalJob, dataset_fingerprint, system_signature

if TYPE_CHECKING:
    from ..framework.spec import SystemDefinition
    from ..mobility import Dataset

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "execute_job",
    "default_max_workers",
]

#: Called as ``on_result(index, (privacy, utility))`` once per job.
OnResult = Callable[[int, Tuple[float, float]], None]

#: How often a waiting pool backend polls ``check`` (seconds).
_POLL_S = 0.1


def default_max_workers() -> int:
    """Worker count when the caller does not specify one."""
    return os.cpu_count() or 1


def execute_job(
    system: "SystemDefinition",
    dataset: "Dataset",
    job: EvalJob,
) -> Tuple[float, float]:
    """Run one protect + measure execution; the single source of truth.

    Protection takes the columnar block path (vectorised where the
    mechanism supports it); the dataset's planar block is memoised on
    the ``Dataset``, so every job over the same dataset shares one
    concatenation.
    """
    lppm = system.make_lppm(**job.params_dict)
    protected = lppm.protect(dataset, seed=job.seed)
    privacy = system.privacy_metric.evaluate(dataset, protected)
    utility = system.utility_metric.evaluate(dataset, protected)
    return (float(privacy), float(utility))


class ExecutionBackend(abc.ABC):
    """Executes a batch of cache-missed jobs."""

    #: Human-readable backend name (mirrors the CLI ``--engine`` knob).
    name: str = "abstract"

    #: Re-entrant lock a caller should hold across one logical batch,
    #: or ``None`` when the backend is stateless.  Pool workers hold
    #: one dataset at a time, so interleaving two batches over
    #: different datasets would make them swap datasets on every
    #: alternation; the engine leases the backend for the whole batch.
    batch_lock: Optional[threading.RLock] = None

    @abc.abstractmethod
    def run(
        self,
        system: "SystemDefinition",
        dataset: "Dataset",
        jobs: Sequence[EvalJob],
        key: Optional[Tuple[str, str]] = None,
        on_result: Optional[OnResult] = None,
        check: Optional[Callable[[], None]] = None,
    ) -> List[Tuple[float, float]]:
        """(privacy, utility) per job, in job order.

        ``key`` is an optional (system signature, dataset fingerprint)
        content key for the pair.  ``on_result`` is called once per
        job as it completes (the pool backend: within one poll
        interval), in completion order.  ``check`` is called
        before the first job, whenever a completion leaves work
        pending, and periodically while waiting; if it (or
        ``on_result``) raises, jobs not yet started are abandoned and
        the exception propagates.
        """


class SerialBackend(ExecutionBackend):
    """In-process, one job at a time — the reference implementation."""

    name = "serial"

    def run(self, system, dataset, jobs, key=None, on_result=None,
            check=None):
        values = []
        for i, job in enumerate(jobs):
            if check is not None:
                check()
            value = execute_job(system, dataset, job)
            values.append(value)
            if on_result is not None:
                on_result(i, value)
        return values


# ----------------------------------------------------------------------
# Process pool
# ----------------------------------------------------------------------
# Worker-side state: the (system, dataset) pair the last task shipped,
# under its content key.  A task with the same key reuses it.
_WORKER_KEY: Optional[Tuple[str, str]] = None
_WORKER_PAIR: Optional[tuple] = None
# The pool's result pipe (write end, its lock) and the token of the
# batch the parent is collecting, set once per worker.
_WORKER_RESULTS: Optional[tuple] = None
_WORKER_BATCH = None


def _init_worker(
    analysis_spill_dir: Optional[str], results: tuple, batch
) -> None:
    global _WORKER_RESULTS, _WORKER_BATCH
    from ..analysis import default_cache, reset_ambient

    _WORKER_RESULTS, _WORKER_BATCH = results, batch

    # The pool forks inside the engine's use_cache(): drop the
    # inherited copy of the parent's cache so metrics read this
    # process's own default cache, the one _run_in_worker seeds.
    reset_ambient()
    if analysis_spill_dir is not None:
        # Join the engine's shared spill directory: this worker's
        # extractions persist for siblings and restarts, and it
        # starts warm from theirs.
        default_cache().attach_spill(analysis_spill_dir)


def _run_in_worker(
    key: Tuple[str, str],
    payload: bytes,
    token: int,
    items: Sequence[Tuple[int, EvalJob]],
) -> None:
    """Run a slice of batch ``token``, sending ``(token, index, value)``
    per job; stop early once the parent has abandoned the batch."""
    global _WORKER_KEY, _WORKER_PAIR
    if key != _WORKER_KEY:
        from ..analysis import default_cache

        system, dataset = pickle.loads(payload)
        cache = default_cache()
        if _WORKER_KEY is None or _WORKER_KEY[1] != key[1]:
            # One dataset per worker: the previous dataset's artifacts
            # (actual side and protected side) go before the new
            # dataset is seeded by fingerprint.
            cache.clear()
        cache.seed_dataset(dataset, key[1])
        _WORKER_KEY, _WORKER_PAIR = key, (system, dataset)
    system, dataset = _WORKER_PAIR
    writer, lock = _WORKER_RESULTS
    for i, job in items:
        if _WORKER_BATCH.value != token:
            return
        value = execute_job(system, dataset, job)
        # One small message is one atomic pipe write, so a worker that
        # dies mid-batch never leaves a torn result behind.
        with lock:
            writer.send((token, i, value))


def _import_before_fork() -> None:
    """Finish importing, before a pool forks, what workers import lazily.

    geo-I imports ``scipy.special`` on its first draw, and another
    thread (a ``/stream`` chunk, say) may be inside that import now.  A
    child forked then inherits the half-initialised module and an
    import lock held by a thread it does not have, and hangs on its
    own first draw; this import waits for the other one to finish.
    """
    import scipy.special  # noqa: F401


def _slices(todo: List[int], n: int) -> List[List[int]]:
    """``todo`` in at most ``n`` contiguous slices, sizes within one."""
    m = len(todo)
    n = min(n, m)
    return [todo[m * k // n:m * (k + 1) // n] for k in range(n)]


class ProcessPoolBackend(ExecutionBackend):
    """``concurrent.futures`` process pool; bit-identical to serial.

    One pool serves every :meth:`run` for the backend's whole life:
    tasks carry their (system, dataset) payload, so a batch over a new
    dataset needs no new processes.  A batch is one task per worker,
    each a slice of its jobs; results come back one job at a time over
    the pool's result pipe, tagged with the batch's token, and a batch
    the caller abandons (cancellation, an error) has its token
    withdrawn, so every worker stops after the job it is running.  A
    crashed worker (OOM-killed, segfaulted, injected) breaks the pool;
    the backend then builds one fresh pool and replays only the jobs
    that have no result yet, and a second crash in the same batch
    finishes the rest serially.  Call :meth:`close` (or rely on
    finalisation) to release the workers.

    :meth:`run` and :meth:`close` serialise on :attr:`batch_lock`, so
    two concurrent batches take turns instead of interleaving datasets
    on the workers; the protect + measure work inside a batch still
    parallelises across the pool's processes.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the machine's CPU count.
    analysis_spill_dir:
        Optional shared analysis-spill directory handed to each pool
        worker's initializer, so per-process analysis caches persist
        their artifacts for (and warm-start from) sibling processes.
    """

    name = "process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        analysis_spill_dir=None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = int(max_workers or default_max_workers())
        self.analysis_spill_dir = (
            str(analysis_spill_dir)
            if analysis_spill_dir is not None else None
        )
        self.batch_lock = threading.RLock()
        # Guards the pool field and the closed flag.  A forced close
        # (timed-out lease) runs WITHOUT batch_lock, so pool selection
        # and teardown must synchronise on this narrower lock; lock
        # order where both are held is batch_lock, then this.
        self._state_lock = threading.Lock()
        # Set by a timed-out close(): the backend is being abandoned at
        # process exit, and a leaseholder must not rebuild the pool
        # (concurrent.futures' atexit hook would then wait for it,
        # unbounding the shutdown the timeout bounded).
        self._closed = False
        self._pool: Optional[ProcessPoolExecutor] = None
        # The live pool's result pipe (read end) and shared batch
        # token, replaced together with the pool.
        self._results = None
        self._batch = None
        self._tokens = itertools.count(1)
        #: Pools started so far: 1 for the backend's life, plus one per
        #: crash rebuild.
        self.pools_built = 0
        # Degradation counters, surfaced through degradation events.
        self.pool_rebuilds = 0
        self.serial_fallbacks = 0

    @staticmethod
    def _mp_context():
        """Prefer fork where available: cheap startup, and classes
        defined outside installed modules stay importable in workers."""
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _pool_of(self) -> tuple:
        """The live pool, its result pipe's read end and batch token."""
        with self._state_lock:
            if self._closed:
                raise RuntimeError(
                    "ProcessPoolBackend was force-closed during shutdown"
                )
            if self._pool is None:
                _import_before_fork()
                ctx = self._mp_context()
                reader, writer = ctx.Pipe(duplex=False)
                batch = ctx.RawValue("q", 0)
                # The executor keeps ``initargs`` (so the write end
                # stays open for workers it starts later).
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=ctx,
                    initializer=_init_worker,
                    initargs=(
                        self.analysis_spill_dir, (writer, ctx.Lock()), batch,
                    ),
                )
                self._results, self._batch = reader, batch
                self.pools_built += 1
            return self._pool, self._results, self._batch

    def _discard_pool(self) -> None:
        """Release a broken pool without waiting on its corpses."""
        with self._state_lock:
            pool, self._pool = self._pool, None
            self._results = self._batch = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self, timeout_s: Optional[float] = None) -> None:
        """Shut down the worker pool (idempotent).

        ``timeout_s`` bounds how long to wait for an in-flight batch's
        lease.  On timeout the pool is released *without* waiting for
        running work — the daemon's SIGTERM path uses this so process
        exit stays bounded by ``--grace`` even when a cancelled job is
        still mid-batch (the leaseholder then sees its batch fail,
        which its job worker reports as a failed job; the process is
        exiting either way).
        """
        if timeout_s is None:
            acquired = self.batch_lock.acquire()
        else:
            acquired = self.batch_lock.acquire(timeout=max(0.0, timeout_s))
        with self._state_lock:
            if not acquired:
                # Forced close: refuse rebuilds, or the leaseholder
                # would resurrect a pool the exit path cannot reap.
                self._closed = True
            pool, self._pool = self._pool, None
            self._results = self._batch = None
        try:
            if pool is not None:
                if acquired:
                    pool.shutdown(wait=True)
                else:
                    pool.shutdown(wait=False, cancel_futures=True)
        finally:
            if acquired:
                self.batch_lock.release()

    def __del__(self):  # pragma: no cover - finalisation best effort
        try:
            self.close()
        except Exception:
            pass

    def run(self, system, dataset, jobs, key=None, on_result=None,
            check=None):
        jobs = list(jobs)
        if not jobs:
            return []
        if self.max_workers <= 1:
            return SerialBackend().run(
                system, dataset, jobs, on_result=on_result, check=check
            )
        if key is None:
            key = (system_signature(system), dataset_fingerprint(dataset))
        payload = pickle.dumps(
            (system, dataset), protocol=pickle.HIGHEST_PROTOCOL
        )
        values: List[Optional[Tuple[float, float]]] = [None] * len(jobs)

        def settle(i: int, value: Tuple[float, float]) -> None:
            values[i] = value
            if on_result is not None:
                on_result(i, value)

        with self.batch_lock:
            for attempt in (1, 2):
                todo = [i for i, value in enumerate(values) if value is None]
                try:
                    self._submit_and_collect(
                        key, payload, jobs, todo, settle, check
                    )
                    return values  # type: ignore[return-value]
                except BrokenProcessPool:
                    self._discard_pool()
                if attempt == 1:
                    # Results already settled are cached by the caller;
                    # replaying only the rest keeps execution
                    # exactly-once.
                    self.pool_rebuilds += 1
                    record_event(
                        "pool.rebuilt",
                        jobs=values.count(None),
                        action="replaying the unfinished jobs on a "
                               "fresh pool",
                    )
            # A second crash means something systematic — degrade to
            # serial rather than loop.
            todo = [i for i, value in enumerate(values) if value is None]
            self.serial_fallbacks += 1
            record_event(
                "pool.serial-fallback",
                jobs=len(todo),
                action="rebuilt pool crashed too; "
                       "running the rest of the batch serially",
            )
            SerialBackend().run(
                system, dataset, [jobs[i] for i in todo],
                on_result=lambda k, value: settle(todo[k], value),
                check=check,
            )
            return values  # type: ignore[return-value]

    def _submit_and_collect(self, key, payload, jobs, todo, settle, check):
        """Submit ``jobs[i]`` for every ``i`` in ``todo``, one slice per
        worker, then settle each result as it arrives."""
        if check is not None:
            check()
        pool, results, batch = self._pool_of()
        # Results an abandoned batch's workers sent after it gave up
        # (at most one per worker) are dropped before this batch's.
        while results.poll():
            results.recv()
        token = batch.value = next(self._tokens)
        futures = []
        try:
            crash = None
            if _fire_fault("pool.crash"):
                crash = pool.submit(os._exit, 1)
                futures.append(crash)
            for part in _slices(todo, self.max_workers):
                futures.append(pool.submit(
                    _run_in_worker, key, payload, token,
                    [(i, jobs[i]) for i in part],
                ))
            # The pipe is read when a slice completes or a poll interval
            # passes, not on every result: one wake-up per slice keeps
            # the parent off the workers' CPUs.
            left, pending = len(todo), set(futures)
            while left:
                done, pending = wait(
                    pending, timeout=_POLL_S, return_when=FIRST_COMPLETED
                )
                # A slice sends each result before it completes, so
                # the pipe holds every result of a finished slice.
                while left and results.poll():
                    sent, i, value = results.recv()
                    if sent == token:
                        settle(i, value)
                        left -= 1
                        if left and check is not None:
                            check()
                for future in done:
                    future.result()  # a failed slice raises
                if left and not pending:
                    raise RuntimeError(
                        f"pool slices ended with {left} results unsent"
                    )
                if left and check is not None:
                    check()
            if crash is not None:
                # Waited on even when the other workers sent every
                # result, so the batch always sees the breakage.
                crash.result()
        except BaseException:
            # Withdraw the token: every worker stops after its current
            # job, and slices not yet started are cancelled outright.
            # Draining the pipe frees a worker blocked on a full one, so
            # it can see the withdrawal (and close() can join it).
            batch.value = 0
            for future in futures:
                future.cancel()
            while results.poll():
                results.recv()
            raise
