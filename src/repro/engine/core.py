"""The evaluation engine: batched execution behind a two-tier cache.

This is the middleware layer of the library: every component that needs
a (privacy, utility) measurement — the experiment runner, the ALP
baseline, the configurator, model transfer, the benchmarks — submits
:class:`EvalJob` batches here instead of running protections itself.
Centralising the service buys three things at once:

* **throughput** — a batch fans out over a process pool, chosen by the
  ``engine`` knob (``"auto"`` picks the pool whenever there is real
  parallelism to exploit);
* **durability** — results are content-addressed and, with a
  ``cache_dir``, persisted as versioned JSON, so sweeps survive across
  processes and releases;
* **honest accounting** — :attr:`n_executions` counts real, non-cached
  protect + measure executions, which is the quantity the paper's cost
  comparisons are stated in.

The engine is safe to share between threads: cache lookups, execution
counters and fingerprint memoisation sit under one internal lock, while
the protect + measure work itself runs outside it.  The configuration
service's job workers rely on this — several jobs drive one engine
concurrently, each observing its own cost through thread-local
:meth:`EvaluationEngine.measure` counters.

A batch's cache misses go to the backend in one submission, and each
result is handled the moment it completes: it is written to both cache
tiers, reported through the per-thread hooks installed with
:meth:`EvaluationEngine.hooks`, and followed by a poll of the
cancellation predicate (which is also polled while the engine waits).
Once the predicate turns true the engine abandons the jobs that have
not started and raises :class:`EvaluationCancelled`, within one job of
the request.  Results computed before a cancellation are already
cached — a resubmitted batch resumes instead of restarting.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis import AnalysisCache, use_cache
from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    default_max_workers,
)
from .cache import ResultCache
from .jobs import (
    EvalJob,
    EvalResult,
    dataset_fingerprint,
    job_fingerprint,
    system_signature,
)

if TYPE_CHECKING:
    from ..framework.spec import SystemDefinition
    from ..mobility import Dataset

__all__ = ["EvaluationEngine", "EvaluationCancelled", "ENGINE_CHOICES"]

ENGINE_CHOICES = ("auto", "serial", "process")


class EvaluationCancelled(RuntimeError):
    """Raised between jobs when the installed cancellation predicate
    turns true.  Everything computed before the cancellation is
    already in the result cache."""


class _Hooks:
    """Per-thread observation hooks, installed by :meth:`~EvaluationEngine.hooks`.

    ``batch_start(n)`` announces that ``n`` jobs entered :meth:`run`;
    ``jobs_done(n)`` reports ``n`` of them completed (cache hits count
    immediately); ``should_cancel()`` is polled after every completed
    job and while waiting on the backend.
    """

    __slots__ = ("batch_start", "jobs_done", "should_cancel")

    def __init__(
        self,
        batch_start: Optional[Callable[[int], None]] = None,
        jobs_done: Optional[Callable[[int], None]] = None,
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.batch_start = batch_start
        self.jobs_done = jobs_done
        self.should_cancel = should_cancel


class _ExecutionCounter:
    """Mutable per-thread execution count, yielded by :meth:`measure`."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class EvaluationEngine:
    """Executes evaluation batches through a backend and a result cache.

    Parameters
    ----------
    engine:
        ``"serial"`` (default) runs in-process; ``"process"`` always
        uses the pool (a lone job is a one-task batch on it);
        ``"auto"`` picks the pool per batch when more than one job
        misses the cache and more than one worker is available —
        single-job batches stay serial under ``"auto"``, since there
        is nothing to spread.
    jobs:
        Worker count for the process backend (default: CPU count).
    cache_dir:
        Optional directory for the persistent cache tier.
    """

    def __init__(
        self,
        engine: str = "serial",
        jobs: Optional[int] = None,
        cache_dir=None,
    ) -> None:
        if engine not in ENGINE_CHOICES:
            raise ValueError(f"engine must be one of {ENGINE_CHOICES}")
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.policy = engine
        self.max_workers = int(jobs or default_max_workers())
        self.cache = ResultCache(cache_dir)
        # A persistent cache_dir promotes the analysis cache too: its
        # spill tier lives under cache_dir/analysis (a name no 2-hex
        # result shard can collide with), so restarted daemons, forked
        # service workers and pool workers all share one warm set of
        # actual-side stay-point/POI extractions.
        self._analysis_spill_dir = (
            self.cache.cache_dir / "analysis"
            if self.cache.cache_dir is not None else None
        )
        #: Derived-artifact cache (stay points, POIs, heatmap counts)
        #: shared by every batch this engine runs in-process; pooled
        #: workers hold their own per-process cache, seeded with the
        #: dataset fingerprint when a task ships them a new dataset.
        #: Its LRU bound grows to fit whatever dataset a batch
        #: announces, so large fleets cannot thrash their own
        #: actual-side artifacts.
        self.analysis = AnalysisCache(spill_dir=self._analysis_spill_dir)
        self._serial = SerialBackend()
        self._process: Optional[ProcessPoolBackend] = None
        #: Real (non-cached) protect + measure executions performed.
        self.n_executions = 0
        # Guards the cache, the execution counter and backend
        # construction.  Never held while a backend runs protect +
        # measure work, so concurrent callers only serialise on
        # bookkeeping.
        self._lock = threading.RLock()
        # Per-thread state: observation hooks and measure() counters.
        self._tls = threading.local()

    # ------------------------------------------------------------------
    # Per-thread hooks and accounting
    # ------------------------------------------------------------------
    @contextmanager
    def hooks(
        self,
        batch_start: Optional[Callable[[int], None]] = None,
        jobs_done: Optional[Callable[[int], None]] = None,
        should_cancel: Optional[Callable[[], bool]] = None,
    ):
        """Install progress/cancellation hooks for the calling thread.

        Inside the ``with`` block, every :meth:`run` on this thread
        announces its batch size, reports completions job by job, and
        polls ``should_cancel`` after each one and while it waits
        (raising :class:`EvaluationCancelled` when it returns true).
        The
        service's job manager wraps each job execution in exactly one
        of these blocks.
        """
        previous = getattr(self._tls, "hooks", None)
        self._tls.hooks = _Hooks(batch_start, jobs_done, should_cancel)
        try:
            yield
        finally:
            self._tls.hooks = previous

    @contextmanager
    def measure(self):
        """Count this thread's real executions within the block.

        Yields a counter whose ``count`` is the number of non-cached
        protect + measure executions the calling thread triggered —
        the concurrency-safe version of diffing :attr:`n_executions`,
        which other threads may move at any time.  Nested blocks each
        see their own total.
        """
        counter = _ExecutionCounter()
        stack = getattr(self._tls, "counters", None)
        if stack is None:
            stack = self._tls.counters = []
        stack.append(counter)
        try:
            yield counter
        finally:
            stack.remove(counter)

    def _note_executions(self, n: int) -> None:
        """Record ``n`` fresh executions (lock held by the caller)."""
        self.n_executions += n
        for counter in getattr(self._tls, "counters", ()):
            counter.count += n

    def _check_cancelled(self, hooks: Optional[_Hooks]) -> None:
        if hooks is not None and hooks.should_cancel is not None \
                and hooks.should_cancel():
            raise EvaluationCancelled(
                "evaluation batch cancelled between jobs"
            )

    # ------------------------------------------------------------------
    # Backend selection
    # ------------------------------------------------------------------
    def _process_backend(self) -> ProcessPoolBackend:
        if self._process is None:
            self._process = ProcessPoolBackend(
                self.max_workers,
                analysis_spill_dir=self._analysis_spill_dir,
            )
        return self._process

    def _backend_for(self, n_misses: int) -> ExecutionBackend:
        if self.policy == "serial":
            return self._serial
        if self.policy == "process":
            return self._process_backend()
        # auto: parallelism pays only when there is work to spread.
        if self.max_workers > 1 and n_misses > 1:
            return self._process_backend()
        return self._serial

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def fingerprint_of(self, dataset: "Dataset") -> str:
        """Memoised content fingerprint of a dataset.

        The memo lives module-wide in :mod:`repro.engine.jobs` (keyed
        weakly by instance), so scenario resolution, the response
        cache, the analysis cache and every engine share one hash per
        loaded dataset.
        """
        return dataset_fingerprint(dataset)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        system: "SystemDefinition",
        dataset: "Dataset",
        jobs: Sequence[EvalJob],
    ) -> List[EvalResult]:
        """Evaluate a batch, returning results in job order.

        Cache hits (either tier) come back with ``cached=True`` and do
        not count as executions; duplicate jobs within the batch are
        executed once, with only the first occurrence marked as a real
        execution.  With :meth:`hooks` installed on the calling thread,
        progress is reported as jobs complete and the batch raises
        :class:`EvaluationCancelled` between jobs once the predicate
        turns true (already-computed results stay cached).
        """
        jobs = list(jobs)
        if not jobs:
            return []
        hooks: Optional[_Hooks] = getattr(self._tls, "hooks", None)
        ds_fp = self.fingerprint_of(dataset)
        # Announce the dataset to the analysis cache: its traces get
        # fingerprint-derived content keys, so actual-side artifacts
        # (stay points, POIs, heatmap counts) are shared across every
        # job of every batch over this dataset without re-hashing.
        self.analysis.seed_dataset(dataset, ds_fp)
        sig = system_signature(system)
        fingerprints = [job_fingerprint(ds_fp, sig, job) for job in jobs]

        if hooks is not None and hooks.batch_start is not None:
            hooks.batch_start(len(jobs))

        results: List[Optional[EvalResult]] = [None] * len(jobs)
        unknown: Dict[str, List[int]] = {}
        seen_hits: Dict[str, Tuple[float, float]] = {}
        n_hits = 0
        with self._lock:
            # Memory tier only under the lock: pure dict lookups.
            # Duplicates fold into their first occurrence — hit or
            # miss — so the cache counters reconcile with distinct
            # work requested, not with batch length.
            for i, (job, fp) in enumerate(zip(jobs, fingerprints)):
                if fp in unknown:
                    unknown[fp].append(i)
                    continue
                hit = seen_hits.get(fp)
                if hit is None:
                    hit = self.cache.get_memory(fp)
                if hit is not None:
                    seen_hits[fp] = hit
                    results[i] = EvalResult(
                        job=job, privacy=hit[0], utility=hit[1],
                        cached=True, fingerprint=fp,
                    )
                    n_hits += 1
                else:
                    unknown.setdefault(fp, []).append(i)
        pending: Dict[str, List[int]] = {}
        if unknown:
            # Disk-tier probes are file reads — done OUTSIDE the lock
            # (a warm-disk cold-memory batch would otherwise stall
            # every concurrent caller for one JSON load per job), then
            # settled under a short lock hold.
            disk = {fp: self.cache.read_disk(fp) for fp in unknown}
            with self._lock:
                for fp, indices in unknown.items():
                    value = disk[fp]
                    if value is not None:
                        self.cache.promote(fp, value)
                        for i in indices:
                            results[i] = EvalResult(
                                job=jobs[i], privacy=value[0],
                                utility=value[1], cached=True,
                                fingerprint=fp,
                            )
                        n_hits += len(indices)
                    else:
                        self.cache.note_miss()
                        pending[fp] = indices
        if hooks is not None and hooks.jobs_done is not None and n_hits:
            hooks.jobs_done(n_hits)

        if pending:
            with self._lock:
                backend = self._backend_for(len(pending))
            # Lease a stateful backend for the whole batch, so two
            # concurrent batches over different datasets take turns on
            # the pool instead of swapping datasets on its workers.
            # Acquisition polls the cancellation hook so a queued batch
            # can still be cancelled while it waits for the backend.
            lease = backend.batch_lock
            if lease is not None:
                if hooks is None or hooks.should_cancel is None:
                    # No cancellation to observe: a plain blocking
                    # acquire starts work the instant the lease frees,
                    # instead of up to one poll interval later.
                    lease.acquire()
                else:
                    while not lease.acquire(timeout=0.1):
                        self._check_cancelled(hooks)
            try:
                self._execute(
                    system, dataset, jobs, pending, results, hooks,
                    backend, (sig, ds_fp),
                )
            finally:
                if lease is not None:
                    lease.release()
        return results  # type: ignore[return-value]

    def _execute(self, system, dataset, jobs, pending, results, hooks,
                 backend, key) -> None:
        """Run the ``pending`` misses on ``backend``, filling
        ``results`` and both cache tiers as each job completes."""
        # Re-probe before executing: a concurrent batch may have
        # computed these jobs while this one waited for the lease — a
        # repeat must stay free, not run twice.
        settled = 0
        fresh = []
        with self._lock:
            for fp, indices in pending.items():
                hit = self.cache.peek_memory(fp)
                if hit is None:
                    fresh.append((fp, indices))
                    continue
                for i in indices:
                    results[i] = EvalResult(
                        job=jobs[i], privacy=hit[0], utility=hit[1],
                        cached=True, fingerprint=fp,
                    )
                settled += len(indices)
        if hooks is not None and hooks.jobs_done is not None and settled:
            hooks.jobs_done(settled)
        if not fresh:
            return

        def on_result(k: int, value: Tuple[float, float]) -> None:
            fp, indices = fresh[k]
            privacy, utility = value
            with self._lock:
                # Only dict writes and counters under the lock; the
                # disk tier is written after releasing it so other
                # callers' bookkeeping never queues behind IO.
                self._note_executions(1)
                self.cache.put_memory(fp, privacy, utility)
            job = jobs[indices[0]]
            self.cache.write_disk(
                fp, privacy, utility,
                provenance={
                    "system_name": system.name,
                    "params": job.params_dict,
                    "seed": job.seed,
                    "dataset_fingerprint": key[1],
                },
            )
            for rank, i in enumerate(indices):
                results[i] = EvalResult(
                    job=jobs[i], privacy=privacy, utility=utility,
                    cached=rank > 0, fingerprint=fp,
                )
            if hooks is not None and hooks.jobs_done is not None:
                hooks.jobs_done(len(indices))

        # The engine's analysis cache is ambient while the backend
        # runs: serial execution evaluates metrics on this thread and
        # hits it directly; pool workers use their own per-process
        # cache instead.
        with use_cache(self.analysis):
            backend.run(
                system, dataset, [jobs[indices[0]] for _, indices in fresh],
                key=key, on_result=on_result,
                check=lambda: self._check_cancelled(hooks),
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout_s: Optional[float] = None) -> None:
        """Release backend resources (worker pools); idempotent.

        ``timeout_s`` bounds the wait for an in-flight batch before
        pools are released without draining — the daemon's graceful
        shutdown passes its grace period here so exit stays bounded.
        """
        with self._lock:
            process = self._process
        if process is not None:
            process.close(timeout_s=timeout_s)

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """Execution and cache counters, for reports and benchmarks.

        The cache-side keys come from :attr:`ResultCache.stats`;
        ``executions`` counts real protect + measure runs, the quantity
        the paper's cost comparisons — and the service's ``/metrics``
        endpoint — are stated in.  The ``analysis_*`` keys re-export
        the derived-artifact cache's counters
        (:attr:`AnalysisCache.stats`) under the same roof.  With the
        process backend those counters cover only work done in this
        process; pooled workers cache in their own processes, whose
        counters are not aggregated here.
        """
        with self._lock:
            stats = {"executions": self.n_executions, **self.cache.stats}
        for key, value in self.analysis.stats.items():
            stats[f"analysis_{key}"] = value
        return stats

    def __repr__(self) -> str:
        cache_dir = self.cache.cache_dir
        return (
            f"EvaluationEngine(engine={self.policy!r}, "
            f"jobs={self.max_workers}, cache_dir={str(cache_dir)!r})"
            if cache_dir is not None
            else f"EvaluationEngine(engine={self.policy!r}, "
                 f"jobs={self.max_workers})"
        )
