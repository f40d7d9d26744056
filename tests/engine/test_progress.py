"""Progress hooks, cooperative cancellation and per-thread accounting.

The async job subsystem of the service relies on three engine
behaviours added alongside it:

* per-thread **hooks** report a batch's size and job-by-job
  completions, monotonically;
* **cancellation** raises :class:`EvaluationCancelled` between jobs,
  leaving already-computed results in the cache (resume, not restart);
* per-thread :meth:`EvaluationEngine.measure` counters attribute real
  executions to the thread that triggered them, even with concurrent
  callers on one shared engine.
"""

import threading
import time

import pytest

from repro import (
    EvaluationEngine,
    ExperimentRunner,
    TaxiFleetConfig,
    generate_taxi_fleet,
    geo_ind_system,
)
from repro.engine import EvalJob, EvaluationCancelled


@pytest.fixture(scope="module")
def fleet():
    return generate_taxi_fleet(
        TaxiFleetConfig(n_cabs=3, shift_hours=1.0, seed=5)
    )


@pytest.fixture(scope="module")
def system():
    return geo_ind_system()


def _jobs(n, seed0=0):
    return [
        EvalJob.make({"epsilon": 0.001 * (i + 1)}, seed=seed0 + i)
        for i in range(n)
    ]


class TestProgressHooks:
    def test_batch_start_then_monotone_completions(self, system, fleet):
        engine = EvaluationEngine()
        events = []
        with engine.hooks(
            batch_start=lambda n: events.append(("start", n)),
            jobs_done=lambda n: events.append(("done", n)),
        ):
            engine.run(system, fleet, _jobs(4))
        assert events[0] == ("start", 4)
        dones = [n for kind, n in events[1:] if kind == "done"]
        assert all(kind == "done" for kind, _ in events[1:])
        assert sum(dones) == 4
        assert all(n > 0 for n in dones)

    def test_cache_hits_report_done_immediately(self, system, fleet):
        engine = EvaluationEngine()
        engine.run(system, fleet, _jobs(3))
        events = []
        with engine.hooks(
            batch_start=lambda n: events.append(("start", n)),
            jobs_done=lambda n: events.append(("done", n)),
        ):
            engine.run(system, fleet, _jobs(3))
        # Fully warm: one start, one bulk completion, zero executions.
        assert events == [("start", 3), ("done", 3)]

    def test_duplicate_jobs_count_toward_completions(self, system, fleet):
        engine = EvaluationEngine()
        job = EvalJob.make({"epsilon": 0.01}, seed=1)
        total = []
        with engine.hooks(jobs_done=total.append):
            engine.run(system, fleet, [job, job, job])
        assert sum(total) == 3
        assert engine.n_executions == 1

    def test_hooks_are_thread_local(self, system, fleet):
        engine = EvaluationEngine()
        engine.run(system, fleet, _jobs(2))  # warm
        leaked = []
        with engine.hooks(jobs_done=leaked.append):
            other = threading.Thread(
                target=lambda: engine.run(system, fleet, _jobs(2))
            )
            other.start()
            other.join(timeout=30)
        assert leaked == []  # the other thread's batch stayed silent

    def test_hooks_uninstalled_after_block(self, system, fleet):
        engine = EvaluationEngine()
        events = []
        with engine.hooks(batch_start=lambda n: events.append(n)):
            engine.run(system, fleet, _jobs(1))
        engine.run(system, fleet, _jobs(1, seed0=9))
        assert events == [1]


class TestCancellation:
    def test_cancelled_before_first_chunk_runs_nothing(self, system, fleet):
        engine = EvaluationEngine()
        with engine.hooks(should_cancel=lambda: True):
            with pytest.raises(EvaluationCancelled):
                engine.run(system, fleet, _jobs(3))
        assert engine.n_executions == 0

    def test_cancel_between_chunks_keeps_partial_cache(self, system, fleet):
        engine = EvaluationEngine()
        done = []

        def cancel_after_first():
            return bool(done)

        with engine.hooks(
            jobs_done=done.append, should_cancel=cancel_after_first
        ):
            with pytest.raises(EvaluationCancelled):
                engine.run(system, fleet, _jobs(5))
        partial = engine.n_executions
        assert 0 < partial < 5
        # Resubmission resumes from the cache instead of restarting.
        engine.run(system, fleet, _jobs(5))
        assert engine.n_executions == 5

    def test_cancellation_does_not_leak_to_other_threads(
        self, system, fleet
    ):
        engine = EvaluationEngine()
        outcome = {}

        def other_thread():
            try:
                outcome["results"] = engine.run(system, fleet, _jobs(2))
            except EvaluationCancelled:  # pragma: no cover - the bug
                outcome["cancelled"] = True

        with engine.hooks(should_cancel=lambda: True):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=30)
        assert "results" in outcome and len(outcome["results"]) == 2


class TestMeasure:
    def test_counts_only_this_threads_executions(self, system, fleet):
        engine = EvaluationEngine()
        barrier = threading.Barrier(2, timeout=30)
        counts = {}

        def worker(name, seed0, n):
            barrier.wait()
            with engine.measure() as cost:
                engine.run(system, fleet, _jobs(n, seed0=seed0))
            counts[name] = cost.count

        threads = [
            threading.Thread(target=worker, args=("a", 0, 2)),
            threading.Thread(target=worker, args=("b", 100, 3)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert counts == {"a": 2, "b": 3}
        assert engine.n_executions == 5

    def test_warm_measure_is_zero(self, system, fleet):
        engine = EvaluationEngine()
        engine.run(system, fleet, _jobs(3))
        with engine.measure() as cost:
            engine.run(system, fleet, _jobs(3))
        assert cost.count == 0

    def test_nested_measures_both_count(self, system, fleet):
        engine = EvaluationEngine()
        with engine.measure() as outer:
            engine.run(system, fleet, _jobs(1))
            with engine.measure() as inner:
                engine.run(system, fleet, _jobs(1, seed0=50))
        assert inner.count == 1
        assert outer.count == 2


class TestChunkedParity:
    def test_chunked_results_match_single_shot(self, system, fleet):
        """Chunking is an execution detail: values are bit-identical."""
        a = EvaluationEngine().run(system, fleet, _jobs(4))
        b = EvaluationEngine().run(system, fleet, _jobs(4))
        assert [(r.privacy, r.utility) for r in a] == \
            [(r.privacy, r.utility) for r in b]

    def test_concurrent_runs_share_the_cache_consistently(
        self, system, fleet
    ):
        """Two threads sweeping the same grid agree and never crash."""
        engine = EvaluationEngine()
        results = {}

        def sweep(name):
            runner = ExperimentRunner(
                system, fleet, n_replications=1, engine=engine
            )
            results[name] = runner.sweep(n_points=4)

        threads = [
            threading.Thread(target=sweep, args=(name,))
            for name in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert set(results) == {"a", "b"}
        assert [p.privacy_mean for p in results["a"].points] == \
            [p.privacy_mean for p in results["b"].points]
        # The shared grid executed at most once per (point, seed); the
        # race window allows a duplicated execution but never a wrong
        # value, and the cache holds exactly the distinct jobs.
        assert engine.cache.counters["entries"] == 4

    def test_concurrent_identical_batches_execute_once(self, system, fleet):
        """A batch that queued behind the backend lease re-probes the
        cache and skips jobs a concurrent identical batch settled —
        the warm-repeat-is-free invariant must hold under concurrency,
        not just sequentially."""
        engine = EvaluationEngine(engine="process", jobs=2)
        outcomes = []

        def sweep():
            runner = ExperimentRunner(
                system, fleet, n_replications=1, engine=engine
            )
            outcomes.append(runner.sweep(n_points=4))

        try:
            threads = [threading.Thread(target=sweep) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            assert not any(t.is_alive() for t in threads)
            assert len(outcomes) == 2
            assert [p.privacy_mean for p in outcomes[0].points] == \
                [p.privacy_mean for p in outcomes[1].points]
            # 4 distinct jobs, 2 identical batches: the lease loser
            # found every job already settled.
            assert engine.n_executions == 4
        finally:
            engine.close()

    def test_concurrent_process_backend_distinct_datasets(self, system):
        """The pooled backend survives concurrent batches for
        *different* datasets: pool swaps serialise on the backend's
        lock instead of shutting a pool down under a running map."""
        from repro import TaxiFleetConfig, generate_taxi_fleet

        fleets = [
            generate_taxi_fleet(
                TaxiFleetConfig(n_cabs=2, shift_hours=0.5, seed=s)
            )
            for s in (11, 12)
        ]
        engine = EvaluationEngine(engine="process", jobs=2)
        outcomes, errors = [], []

        def sweep(i):
            try:
                runner = ExperimentRunner(
                    system, fleets[i % 2], n_replications=1, engine=engine
                )
                outcomes.append(runner.sweep(n_points=3))
            except Exception as exc:  # pragma: no cover - the bug
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=sweep, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            assert not any(t.is_alive() for t in threads), \
                "process backend deadlocked on concurrent datasets"
            assert not errors
            assert len(outcomes) == 4
        finally:
            engine.close()


class TestBoundedClose:
    def test_close_does_not_wait_past_timeout_for_a_held_lease(self):
        """Engine shutdown must stay bounded by the daemon's grace
        period even when a batch still holds the backend lease."""
        from repro.engine import ProcessPoolBackend

        backend = ProcessPoolBackend(max_workers=2)
        release = threading.Event()

        def leaseholder():
            with backend.batch_lock:
                release.wait(timeout=30)

        holder = threading.Thread(target=leaseholder, daemon=True)
        holder.start()
        time.sleep(0.05)  # let the holder acquire the lease
        start = time.monotonic()
        backend.close(timeout_s=0.2)
        elapsed = time.monotonic() - start
        release.set()
        holder.join(timeout=5)
        assert elapsed < 2.0, f"close blocked {elapsed:.1f}s on the lease"
        # A forced close is final: a late chunk must not resurrect the
        # pools (the exit path could not reap them).
        from repro import TaxiFleetConfig, generate_taxi_fleet, geo_ind_system

        fleet = generate_taxi_fleet(
            TaxiFleetConfig(n_cabs=2, shift_hours=0.5, seed=3)
        )
        with pytest.raises(RuntimeError):
            backend.run(geo_ind_system(), fleet, _jobs(2))
        backend.close()  # idempotent, now uncontended

    def test_service_close_bounded_with_busy_worker(self):
        """ConfigService.close(grace_s) returns promptly even while a
        job is mid-evaluation on a slow system."""
        from tests.service.test_jobs import slow_system_factory

        from repro.service import ConfigService, ServiceClient

        service = ConfigService(
            workers=1, system_factory=slow_system_factory(0.05)
        )
        client = ServiceClient(service)
        client.submit("sweep", {
            "dataset": {"workload": "taxi", "users": 4, "seed": 1},
            "points": 20, "replications": 4,
        })
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.jobs()["by_status"].get("running"):
                break
            time.sleep(0.005)
        start = time.monotonic()
        service.close(grace_s=0.3)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"close took {elapsed:.1f}s"
